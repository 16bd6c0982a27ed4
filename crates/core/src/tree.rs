//! `DbCluster` — the public facade: a dB-tree deployment plus a client
//! driver, generic over the execution substrate.
//!
//! All driver mechanics (op ids, pending tracking, the drive loop and its
//! release policies, statistics) live in the shared
//! `simnet::driver::Driver`; this module only teaches it the dB-tree's wire
//! protocol via [`DbProtocol`] and re-exposes the typed convenience surface.
//! The same facade runs on the deterministic simulator ([`DbSim`]) and on
//! real OS threads ([`ThreadedDbCluster`]).

use std::sync::Arc;

use history::HistoryLog;
use parking_lot::Mutex;
use simnet::driver::{ClientProtocol, Completion, Driver, OpOutcome, Release, Submission};
use simnet::{
    threaded, Obs, ObsConfig, OpenLoopCfg, ProcId, QuiesceError, Runtime, SessionConfig,
    SessionMsg, SessionProc, SimConfig, Simulation,
};

use crate::build::{build_procs, BuildSpec};
use crate::msg::Msg;
use crate::proc::DbProc;
use crate::types::{Intent, Key, NodeId, OpId, Outcome, Value};

/// The simulation type a [`DbCluster`] drives by default: every [`DbProc`]
/// is wrapped in the reliable-delivery session layer. With the default
/// (pass-through) session config the wrapper adds nothing — message
/// statistics are identical to driving bare `DbProc`s — and `SessionProc`
/// derefs to `DbProc`, so checkers and metrics readers inspect processors
/// unchanged.
pub type DbSim = Simulation<SessionProc<DbProc>>;

/// The threaded runtime for the same processes: processor 0 on the
/// caller's thread, one OS thread per other processor, ticks are wall-clock
/// microseconds.
pub type ThreadedDbRuntime = threaded::Cluster<SessionProc<DbProc>>;

/// A dB-tree deployment on real threads (see [`DbCluster::build_threaded`]).
pub type ThreadedDbCluster = DbCluster<ThreadedDbRuntime>;

/// One client operation for the driver.
#[derive(Clone, Copy, Debug)]
pub struct ClientOp {
    /// The processor the client submits to.
    pub origin: ProcId,
    /// The key.
    pub key: Key,
    /// Search or insert.
    pub intent: Intent,
}

/// A range-scan request for the driver.
#[derive(Clone, Copy, Debug)]
pub struct ScanSpec {
    /// The processor the scan starts from.
    pub origin: ProcId,
    /// Inclusive start key.
    pub from: Key,
    /// Maximum number of live entries to collect.
    pub limit: u32,
}

/// What a completed range scan collected.
#[derive(Clone, Debug)]
pub struct ScanResult {
    /// The live `(key, value)` pairs, in key order.
    pub items: Vec<(Key, Value)>,
    /// Nodes visited.
    pub hops: u32,
}

/// The dB-tree's client wire protocol, as the generic driver sees it:
/// requests are `Msg::Client`/`Msg::ClientScan` wrapped in the (possibly
/// pass-through) session layer, completions are `Msg::Done` and
/// `Msg::ScanResult`.
pub enum DbProtocol {}

impl ClientProtocol for DbProtocol {
    type Msg = SessionMsg<Msg>;
    type Op = ClientOp;
    type Outcome = Outcome;
    type Scan = ScanSpec;
    type ScanResult = ScanResult;

    fn origin(op: &ClientOp) -> ProcId {
        op.origin
    }

    fn retarget(op: &ClientOp, to: ProcId) -> ClientOp {
        // Any processor can serve any client operation (navigation starts
        // at the local root copy), so a retried op can enter at whichever
        // processor the retry layer picked.
        ClientOp { origin: to, ..*op }
    }

    fn request(id: u64, op: &ClientOp) -> Self::Msg {
        SessionMsg::Raw(Msg::Client {
            op: OpId(id),
            key: op.key,
            intent: op.intent,
        })
    }

    fn scan_origin(scan: &ScanSpec) -> ProcId {
        scan.origin
    }

    fn scan_request(id: u64, scan: &ScanSpec) -> Self::Msg {
        SessionMsg::Raw(Msg::ClientScan {
            op: OpId(id),
            from: scan.from,
            limit: scan.limit,
        })
    }

    fn parse(msg: Self::Msg) -> Option<Completion<Outcome, ScanResult>> {
        // Client replies leave the system unsessioned.
        let SessionMsg::Raw(msg) = msg else {
            return None;
        };
        match msg {
            Msg::Done(outcome) => Some(Completion::Op {
                id: outcome.op.0,
                outcome,
            }),
            Msg::ScanResult { op, items, hops } => Some(Completion::Scan {
                id: op.0,
                result: ScanResult { items, hops },
            }),
            _ => None,
        }
    }
}

impl OpOutcome for Outcome {
    fn hops(&self) -> u32 {
        self.hops
    }
    fn chases(&self) -> u32 {
        self.chases
    }
}

/// One workload item: a point op or a range scan (typed for the dB-tree;
/// see [`DbCluster::try_run_mixed`]).
pub type DbSubmission = Submission<ClientOp, ScanSpec>;

/// A completed operation with its timing (shared driver record, typed for
/// the dB-tree).
pub type OpRecord = simnet::driver::OpRecord<ClientOp, Outcome>;

/// Aggregate results of a driven workload (shared driver stats, typed for
/// the dB-tree).
pub type DriverStats = simnet::driver::DriverStats<ClientOp, Outcome>;

/// A completed range scan with its timing (shared driver record: the
/// request is `op`, the collected [`ScanResult`] is `outcome`).
pub type ScanRecord = simnet::driver::OpRecord<ScanSpec, ScanResult>;

/// A dB-tree deployment: N processors over a message-passing runtime, plus
/// client bookkeeping. `R` is the substrate — [`DbSim`] (the default) or
/// [`ThreadedDbRuntime`].
pub struct DbCluster<R = DbSim> {
    /// The underlying runtime (exposed for stats and inspection).
    pub sim: R,
    driver: Driver<DbProtocol>,
    log: Arc<Mutex<HistoryLog>>,
}

impl DbCluster<DbSim> {
    /// Build a simulated deployment from a spec and a simulation config.
    ///
    /// The reliable-delivery session layer is enabled exactly when the
    /// config carries an active fault plan: a fault-free cluster pays no
    /// session overhead (and its message counts are unchanged), while a
    /// faulty one gets the exactly-once FIFO channels the protocols assume.
    pub fn build(spec: &BuildSpec, sim_cfg: SimConfig) -> Self {
        let session = if sim_cfg.faults.is_active() {
            SessionConfig::reliable()
        } else {
            SessionConfig::default()
        };
        Self::build_with_session(spec, sim_cfg, session)
    }

    /// Build with an explicit session configuration (e.g. to demonstrate
    /// what a lossy network does *without* the session layer).
    pub fn build_with_session(
        spec: &BuildSpec,
        sim_cfg: SimConfig,
        session: SessionConfig,
    ) -> Self {
        let (procs, log) = build_procs(spec);
        let procs = procs
            .into_iter()
            .map(|p| SessionProc::new(p, session))
            .collect();
        DbCluster {
            sim: Simulation::new(sim_cfg, procs),
            driver: Driver::new(),
            log,
        }
    }

    /// Every resident leaf with its owning processor, sorted by node id
    /// (deterministic — the shape balancers and tests pick targets from).
    pub fn leaves(&self) -> Vec<(NodeId, ProcId)> {
        let mut out: Vec<(NodeId, ProcId)> = self
            .sim
            .procs()
            .flat_map(|(pid, p)| {
                p.store
                    .iter()
                    .filter(|c| c.is_leaf())
                    .map(move |c| (c.id, pid))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Finalize history digests (call after quiescence, before
    /// `HistoryLog::check`).
    pub fn record_final_digests(&mut self) {
        record_final_digests_from(&self.log, self.sim.procs().map(|(pid, p)| (pid, &**p)));
    }
}

impl ThreadedDbCluster {
    /// Build the same deployment on real OS threads (pass-through session
    /// layer: thread channels are already reliable and FIFO).
    pub fn build_threaded(spec: &BuildSpec) -> Self {
        Self::build_threaded_with_session(spec, SessionConfig::default())
    }

    /// Threaded deployment with an explicit session configuration.
    pub fn build_threaded_with_session(spec: &BuildSpec, session: SessionConfig) -> Self {
        Self::build_threaded_with_obs(spec, session, ObsConfig::default())
    }

    /// Threaded deployment with observability (causal traces and metric
    /// samples, same schema as the simulator's).
    pub fn build_threaded_with_obs(
        spec: &BuildSpec,
        session: SessionConfig,
        obs: ObsConfig,
    ) -> Self {
        let (procs, log) = build_procs(spec);
        let procs: Vec<SessionProc<DbProc>> = procs
            .into_iter()
            .map(|p| SessionProc::new(p, session))
            .collect();
        DbCluster {
            sim: threaded::Cluster::spawn_with(procs, obs),
            driver: Driver::new(),
            log,
        }
    }
}

impl<R> DbCluster<R>
where
    R: Runtime<Proc = SessionProc<DbProc>>,
{
    /// The shared history log.
    pub fn log(&self) -> Arc<Mutex<HistoryLog>> {
        Arc::clone(&self.log)
    }

    /// Enable (or reconfigure) client-side robustness: per-op deadlines,
    /// bounded exponential backoff, and redirect-away-from-suspects. With
    /// the default (disabled) policy the driver behaves exactly as before.
    pub fn set_retry(&mut self, policy: simnet::RetryPolicy) {
        self.driver.set_retry(policy);
    }

    /// Number of processors.
    pub fn n_procs(&self) -> u32 {
        self.sim.num_procs() as u32
    }

    /// Submit one client operation (delivered at now+1).
    pub fn submit(&mut self, op: ClientOp) -> OpId {
        OpId(self.driver.submit(&mut self.sim, op))
    }

    /// Submit a range scan: up to `limit` live entries from `from` onward,
    /// collected by walking the leaf chain across processors.
    pub fn scan(&mut self, origin: ProcId, from: Key, limit: u32) -> OpId {
        OpId(self.driver.submit_scan(
            &mut self.sim,
            ScanSpec {
                origin,
                from,
                limit,
            },
        ))
    }

    /// Completed scans (drained).
    pub fn take_scans(&mut self) -> Vec<ScanRecord> {
        self.driver.take_scans()
    }

    /// Inject a migration command (data balancing, §4.2).
    pub fn migrate(&mut self, node: NodeId, owner: ProcId, dest: ProcId) {
        self.sim
            .inject(owner, SessionMsg::Raw(Msg::Migrate { node, dest }));
    }

    /// Run until the network is silent and return the records drained on the
    /// way; a tripped limit (a livelock, say) is an error, not an early return.
    pub fn try_run_to_quiescence(&mut self) -> Result<Vec<OpRecord>, QuiesceError> {
        self.driver.try_run_to_quiescence(&mut self.sim)
    }

    /// Drive `ops` closed-loop with `concurrency` outstanding operations per
    /// origin processor, then run to quiescence.
    pub fn try_run_closed_loop(
        &mut self,
        ops: &[ClientOp],
        concurrency: usize,
    ) -> Result<DriverStats, QuiesceError> {
        self.driver
            .try_run_closed_loop(&mut self.sim, ops, concurrency)
    }

    /// Drive `ops` open-loop at the fixed arrival schedule of `cfg`
    /// (arrivals do not wait for completions), then run to quiescence.
    pub fn try_run_open_loop(
        &mut self,
        ops: &[ClientOp],
        cfg: &OpenLoopCfg,
    ) -> Result<DriverStats, QuiesceError> {
        self.driver.try_run_open_loop(&mut self.sim, ops, cfg)
    }

    /// Drive a stream of point ops and range scans under either release
    /// policy, then run to quiescence. Scans occupy window slots like ops;
    /// their results come back via [`DbCluster::take_scans`].
    pub fn try_run_mixed(
        &mut self,
        items: &[DbSubmission],
        release: Release,
    ) -> Result<DriverStats, QuiesceError> {
        self.driver.try_run_mixed(&mut self.sim, items, release)
    }

    /// Operations submitted but not yet completed (scans included).
    pub fn pending_ops(&self) -> usize {
        self.driver.pending_ops()
    }

    /// Drain the runtime's observability capture (causal trace + metric
    /// time-series); works identically on both substrates.
    pub fn take_obs(&mut self) -> Obs {
        self.sim.take_obs()
    }

    /// Tear the runtime down and return the final processor states (joins
    /// worker threads on the threaded runtime). The history log survives in
    /// [`DbCluster::log`] clones; record digests with
    /// [`record_final_digests_from`].
    pub fn into_procs(self) -> Vec<SessionProc<DbProc>> {
        self.sim.into_procs()
    }
}

/// Record every copy's final digest into `log` — the post-run half of the
/// §3 checker, usable on any source of processor states (a live simulation
/// or the processes handed back by a threaded shutdown).
pub fn record_final_digests_from<'a>(
    log: &Arc<Mutex<HistoryLog>>,
    procs: impl IntoIterator<Item = (ProcId, &'a DbProc)>,
) {
    let mut log = log.lock();
    for (pid, proc) in procs {
        for copy in proc.store.iter() {
            log.set_final_digest(copy.id.raw(), pid.0, copy.digest());
        }
    }
}

//! Cluster bootstrap, client driver, and end-of-run checkers for the
//! distributed hash table.
//!
//! Driver mechanics are the shared `simnet::driver::Driver`; this module
//! teaches it the hash table's wire protocol via [`HashProtocol`] and types
//! its statistics ([`HashStats`]). Like the dB-tree facade, [`HashCluster`] is
//! generic over the runtime: [`HashSim`] (the default, deterministic) or
//! [`ThreadedHashRuntime`] (real threads).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use history::HistoryLog;
use parking_lot::Mutex;
use simnet::driver::{ClientProtocol, Completion, Driver, NoScan, OpOutcome};
use simnet::{
    threaded, ProcId, QuiesceError, Runtime, SessionConfig, SessionMsg, SessionProc, SimConfig,
    Simulation,
};

use crate::bucket::{Bucket, BucketId, BucketRef};
use crate::dir::Directory;
use crate::hashfn::hash_of;
use crate::msg::{HKind, HMsg, HOutcome};
use crate::proc::{HashConfig, HashProc, DIR_NODE};

/// What to build.
#[derive(Clone, Debug)]
pub struct HashSpec {
    /// Keys preloaded with value = key.
    pub preload: Vec<u64>,
    /// Cluster size.
    pub n_procs: u32,
    /// Configuration.
    pub cfg: HashConfig,
}

/// One client operation for the driver.
#[derive(Clone, Copy, Debug)]
pub struct HashOp {
    /// The processor the client submits to.
    pub origin: ProcId,
    /// The key.
    pub key: u64,
    /// Search / insert / delete.
    pub kind: HKind,
}

/// The hash table's client wire protocol for the shared driver.
pub enum HashProtocol {}

impl ClientProtocol for HashProtocol {
    type Msg = SessionMsg<HMsg>;
    type Op = HashOp;
    type Outcome = HOutcome;
    type Scan = NoScan;
    type ScanResult = ();

    fn origin(op: &HashOp) -> ProcId {
        op.origin
    }

    fn retarget(op: &HashOp, to: ProcId) -> HashOp {
        // Every processor holds a directory copy and can route any key, so
        // a retried op may enter wherever the retry layer redirects it.
        HashOp { origin: to, ..*op }
    }

    fn request(id: u64, op: &HashOp) -> Self::Msg {
        SessionMsg::Raw(HMsg::Client {
            op: id,
            key: op.key,
            kind: op.kind,
        })
    }

    fn scan_origin(scan: &NoScan) -> ProcId {
        match *scan {}
    }

    fn scan_request(_id: u64, scan: &NoScan) -> Self::Msg {
        match *scan {}
    }

    fn parse(msg: Self::Msg) -> Option<Completion<HOutcome, ()>> {
        let SessionMsg::Raw(msg) = msg else {
            return None;
        };
        match msg {
            HMsg::Done(outcome) => Some(Completion::Op {
                id: outcome.op,
                outcome,
            }),
            _ => None,
        }
    }
}

impl OpOutcome for HOutcome {
    fn hops(&self) -> u32 {
        self.hops
    }
    fn chases(&self) -> u32 {
        self.recoveries
    }
    fn lost(&self) -> bool {
        self.lost
    }
}

/// Shared driver stats, typed for the hash table: `lost_count()` counts
/// NaiveNoLinks drops, `total_chases()` the misnavigation recoveries.
pub type HashStats = simnet::driver::DriverStats<HashOp, HOutcome>;

/// The simulation type driving a [`HashCluster`]: every processor runs
/// behind a reliable-delivery session endpoint, which is a transparent
/// pass-through unless the [`SimConfig`] carries an active fault plan.
pub type HashSim = Simulation<SessionProc<HashProc>>;

/// The threaded runtime for the same processes.
pub type ThreadedHashRuntime = threaded::Cluster<SessionProc<HashProc>>;

/// A distributed hash table on real threads (see
/// [`HashCluster::build_threaded`]).
pub type ThreadedHashCluster = HashCluster<ThreadedHashRuntime>;

/// A distributed hash table over a message-passing runtime. `R` is the
/// substrate — [`HashSim`] (the default) or [`ThreadedHashRuntime`].
pub struct HashCluster<R = HashSim> {
    /// The underlying runtime.
    pub sim: R,
    driver: Driver<HashProtocol>,
    log: Arc<Mutex<HistoryLog>>,
}

/// Build the initial processor states: a directory of depth
/// `ceil(log2(n_procs))`, bucket *i* on processor `i % n_procs`, preloaded
/// keys hashed in, everything wrapped in the session layer.
fn bootstrap(
    spec: &HashSpec,
    session: SessionConfig,
) -> (Vec<SessionProc<HashProc>>, Arc<Mutex<HistoryLog>>) {
    let n = spec.n_procs;
    assert!(n > 0);
    let log = Arc::new(Mutex::new(if spec.cfg.record_history {
        HistoryLog::new()
    } else {
        HistoryLog::disabled()
    }));

    // Initial depth: enough buckets that every processor owns one.
    let mut depth = 0u8;
    while (1usize << depth) < n as usize {
        depth += 1;
    }
    let n_buckets = 1usize << depth;

    // Mint bootstrap ids with *per-processor* counters so they can
    // never collide with the ids processors mint for split images later
    // (each processor's counter space is dense from 0).
    let mut per_proc_counter = vec![0u64; n as usize];
    let mut buckets: Vec<Bucket> = (0..n_buckets)
        .map(|i| {
            let home = ProcId((i % n as usize) as u32);
            let counter = per_proc_counter[home.index()];
            per_proc_counter[home.index()] += 1;
            Bucket::new(BucketId::mint(home, counter), i as u64, depth)
        })
        .collect();
    for &key in &spec.preload {
        let h = hash_of(key);
        let idx = (h & ((n_buckets as u64) - 1)) as usize;
        buckets[idx].entries.insert(h, (key, key));
    }
    let slots: Vec<BucketRef> = buckets
        .iter()
        .enumerate()
        .map(|(i, b)| BucketRef {
            id: b.id,
            home: ProcId((i % n as usize) as u32),
            local_depth: depth,
        })
        .collect();

    {
        let mut l = log.lock();
        for p in 0..n {
            l.copy_created(DIR_NODE, p, []);
        }
        for (i, b) in buckets.iter().enumerate() {
            l.copy_created(b.id.raw(), (i % n as usize) as u32, []);
        }
    }

    let procs: Vec<HashProc> = (0..n)
        .map(|p| {
            let dir = Directory::from_slots(depth, slots.clone());
            let mine: BTreeMap<BucketId, Bucket> = buckets
                .iter()
                .enumerate()
                .filter(|(i, _)| (*i % n as usize) as u32 == p)
                .map(|(_, b)| (b.id, b.clone()))
                .collect();
            HashProc::new(ProcId(p), n, spec.cfg.clone(), dir, mine, Arc::clone(&log))
        })
        .collect();

    let procs = procs
        .into_iter()
        .map(|p| SessionProc::new(p, session))
        .collect();
    (procs, log)
}

impl HashCluster<HashSim> {
    /// Bootstrap a simulated deployment (see `bootstrap`'s shape rules).
    ///
    /// A lossy network ⇒ every processor is wrapped in the reliable-delivery
    /// session layer; on a perfect network the wrapper passes messages
    /// through untouched.
    pub fn build(spec: &HashSpec, sim_cfg: SimConfig) -> Self {
        let session = if sim_cfg.faults.is_active() {
            SessionConfig::reliable()
        } else {
            SessionConfig::default()
        };
        Self::build_with_session(spec, sim_cfg, session)
    }

    /// Bootstrap with an explicit session configuration — e.g. the schedule
    /// explorer raises `max_retries` so an adversarial scheduler that starves
    /// a channel for a long stretch cannot make the session layer give up
    /// and manufacture a message loss the protocol never caused.
    pub fn build_with_session(spec: &HashSpec, sim_cfg: SimConfig, session: SessionConfig) -> Self {
        let (procs, log) = bootstrap(spec, session);
        HashCluster {
            sim: Simulation::new(sim_cfg, procs),
            driver: Driver::new(),
            log,
        }
    }

    /// Record final digests into the history log (call before `check`).
    pub fn record_final_digests(&mut self) {
        record_final_digests_from(&self.log, self.sim.procs().map(|(pid, p)| (pid, &**p)));
    }
}

impl ThreadedHashCluster {
    /// Bootstrap the same deployment on real OS threads (pass-through
    /// session layer: thread channels are already reliable and FIFO).
    pub fn build_threaded(spec: &HashSpec) -> Self {
        Self::build_threaded_with_session(spec, SessionConfig::default())
    }

    /// Threaded deployment with an explicit session configuration (e.g. to
    /// run the failure detector against real crash/restart envelopes).
    pub fn build_threaded_with_session(spec: &HashSpec, session: SessionConfig) -> Self {
        let (procs, log) = bootstrap(spec, session);
        HashCluster {
            sim: threaded::Cluster::spawn(procs),
            driver: Driver::new(),
            log,
        }
    }
}

impl<R> HashCluster<R>
where
    R: Runtime<Proc = SessionProc<HashProc>>,
{
    /// The shared history log.
    pub fn log(&self) -> Arc<Mutex<HistoryLog>> {
        Arc::clone(&self.log)
    }

    /// Enable (or reconfigure) client-side robustness: per-op deadlines,
    /// bounded exponential backoff, and redirect-away-from-suspects.
    pub fn set_retry(&mut self, policy: simnet::RetryPolicy) {
        self.driver.set_retry(policy);
    }

    /// Submit one operation at `origin`.
    pub fn submit(&mut self, origin: ProcId, key: u64, kind: HKind) -> u64 {
        self.driver
            .submit(&mut self.sim, HashOp { origin, key, kind })
    }

    /// Run to quiescence and return the completions drained on the way (no
    /// makespan or retry counters: nothing was driven).
    pub fn try_run_to_quiescence(&mut self) -> Result<HashStats, QuiesceError> {
        let records = self.driver.try_run_to_quiescence(&mut self.sim)?;
        Ok(HashStats {
            records,
            ..HashStats::default()
        })
    }

    /// Drive `ops` closed-loop with `concurrency` outstanding operations
    /// per origin, then run to quiescence.
    pub fn try_run_closed_loop(
        &mut self,
        ops: &[HashOp],
        concurrency: usize,
    ) -> Result<HashStats, QuiesceError> {
        self.driver
            .try_run_closed_loop(&mut self.sim, ops, concurrency)
    }

    /// The name the frozen `perf/` benchmark calls
    /// [`HashCluster::try_run_closed_loop`] by.
    #[doc(hidden)]
    pub fn try_run_closed_loop_stats(
        &mut self,
        ops: &[HashOp],
        concurrency: usize,
    ) -> Result<HashStats, QuiesceError> {
        self.try_run_closed_loop(ops, concurrency)
    }

    /// Drive `ops` open-loop on the deterministic arrival schedule of
    /// [`simnet::driver::arrival_offsets`], then run to quiescence.
    pub fn try_run_open_loop(
        &mut self,
        ops: &[HashOp],
        cfg: &simnet::OpenLoopCfg,
    ) -> Result<HashStats, QuiesceError> {
        self.driver.try_run_open_loop(&mut self.sim, ops, cfg)
    }

    /// Take the observability data (trace + series) from the runtime.
    pub fn take_obs(&mut self) -> simnet::Obs {
        self.sim.take_obs()
    }

    /// Operations submitted but not yet completed.
    pub fn pending_ops(&self) -> usize {
        self.driver.pending_ops()
    }

    /// Tear the runtime down and return the final processor states (joins
    /// worker threads on the threaded runtime).
    pub fn into_procs(self) -> Vec<SessionProc<HashProc>> {
        self.sim.into_procs()
    }
}

/// Record every directory and bucket digest into `log` — usable on a live
/// simulation or on the processes a threaded shutdown handed back.
pub fn record_final_digests_from<'a>(
    log: &Arc<Mutex<HistoryLog>>,
    procs: impl IntoIterator<Item = (ProcId, &'a HashProc)>,
) {
    let mut log = log.lock();
    for (pid, proc) in procs {
        log.set_final_digest(DIR_NODE, pid.0, proc.dir.digest());
        for (id, b) in &proc.buckets {
            log.set_final_digest(id.raw(), pid.0, b.digest());
        }
    }
}

/// A violation found by the hash-table checker.
#[derive(Clone, Debug)]
pub enum HashViolation {
    /// Directory copies ended with different contents.
    DirDiverged {
        /// `(proc, digest)` of each copy.
        digests: Vec<(u32, u64)>,
    },
    /// A key present in `expected` is not findable from some processor.
    KeyLost {
        /// The key.
        key: u64,
        /// The processor whose directory could not reach it.
        from: ProcId,
    },
    /// A bucket's entries violate its pattern invariant.
    BadBucket {
        /// The bucket.
        bucket: BucketId,
    },
    /// Undelivered stashed operations at quiescence.
    DanglingStash {
        /// The processor.
        proc: ProcId,
        /// Stash size.
        count: usize,
    },
    /// History-log violations (rendered).
    History {
        /// Description.
        detail: String,
    },
}

/// Run the full end-of-run checker on a simulated cluster: directory
/// convergence, bucket invariants, key findability from *every* processor's
/// directory (chasing split-image links exactly like the protocol does),
/// stash drainage, and the §3 history requirements.
pub fn check_hash_cluster(
    cluster: &mut HashCluster,
    expected: &BTreeMap<u64, u64>,
) -> Vec<HashViolation> {
    cluster.record_final_digests();
    let procs: Vec<(ProcId, &HashProc)> = cluster.sim.procs().map(|(pid, p)| (pid, &**p)).collect();
    check_hash_procs(&procs, &cluster.log, expected)
}

/// The same checker over bare processor states — the form that works after
/// a threaded cluster's shutdown. Digests must already be recorded (see
/// [`record_final_digests_from`]).
pub fn check_hash_procs(
    procs: &[(ProcId, &HashProc)],
    log: &Arc<Mutex<HistoryLog>>,
    expected: &BTreeMap<u64, u64>,
) -> Vec<HashViolation> {
    let mut out = Vec::new();

    // Directory convergence.
    let digests: Vec<(u32, u64)> = procs
        .iter()
        .map(|(p, proc)| (p.0, proc.dir.digest()))
        .collect();
    if digests.windows(2).any(|w| w[0].1 != w[1].1) {
        out.push(HashViolation::DirDiverged { digests });
    }

    // Bucket invariants + global bucket map.
    let mut all_buckets: HashMap<BucketId, &Bucket> = HashMap::new();
    for (_, proc) in procs {
        for (id, b) in &proc.buckets {
            if !b.invariant_ok() {
                out.push(HashViolation::BadBucket { bucket: *id });
            }
            all_buckets.insert(*id, b);
        }
    }

    // Findability from every processor.
    for (pid, proc) in procs {
        for (&key, &value) in expected {
            let h = hash_of(key);
            let mut cur = proc.dir.route(h).id;
            let mut found = None;
            for _ in 0..64 {
                let Some(b) = all_buckets.get(&cur) else {
                    break;
                };
                if b.owns(h) {
                    found = b.entries.get(&h).map(|&(_, v)| v);
                    break;
                }
                match b.image_for(h) {
                    Some(img) => cur = img.id,
                    None => break,
                }
            }
            if found != Some(value) {
                out.push(HashViolation::KeyLost { key, from: *pid });
            }
        }
    }

    // Stashes and pending patches drained.
    for (pid, proc) in procs {
        let count: usize = proc.stash_sizes().values().sum::<usize>() + proc.pending_patch_count();
        if count > 0 {
            out.push(HashViolation::DanglingStash { proc: *pid, count });
        }
    }

    // §3 requirements.
    for v in log.lock().check() {
        out.push(HashViolation::History {
            detail: v.to_string(),
        });
    }
    out
}

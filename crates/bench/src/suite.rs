//! The continuous benchmark suite: a pinned matrix of workload cells run
//! through the shared [`Driver`](simnet::Driver)/[`Runtime`](simnet::Runtime)
//! abstraction, exported as a schema-pinned `BENCH.json`, and diffed against
//! a committed baseline with per-metric tolerances (the regression gate).
//!
//! A *cell* is one (structure × runtime × drive mode × network) combination
//! with fixed seeds and sizes. Simulator cells are bit-deterministic: an
//! identical binary re-running an identical cell produces an identical
//! `CellResult`, so any drift is a real code change. Threaded cells time
//! against the wall clock and are recorded but never gated
//! (`deterministic: false`).
//!
//! The JSON is hand-rolled (the vendored `serde` is a no-op stub): the
//! writer emits one flat object per cell, one cell per line, and the parser
//! reads exactly that shape back. The field set and encodings are frozen by
//! the golden-file test in `tests/suite.rs` — extending the schema is fine,
//! but do it deliberately and update the golden file in the same commit.

use dbtree::{BuildSpec, DbCluster, DbSubmission, Key, ScanRecord, ThreadedDbCluster, TreeConfig};
use dhash::{
    DirProtocol, HKind, HashCluster, HashConfig, HashOp, HashSpec, HashStats, ThreadedHashCluster,
};
use simnet::driver::{DriverStats, OpOutcome, OpRecord};
use simnet::{
    folded_waits, CrashEvent, DetectorConfig, FaultPlan, OpenLoopCfg, ProcId, Profiler,
    QuiesceError, Release, RetryPolicy, ServiceTimes, SessionConfig, SimConfig, SimTime,
};
use workload::{KeyDist, Mix, Op, OpKind, WorkloadGen};

use crate::to_submission;

/// Which search structure a cell exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Structure {
    /// The replicated dB-tree (`dbtree` crate).
    Blink,
    /// The lazy extendible hash table (`dhash` crate).
    Dhash,
}

impl Structure {
    fn label(self) -> &'static str {
        match self {
            Structure::Blink => "blink",
            Structure::Dhash => "dhash",
        }
    }
}

/// Which runtime substrate drives the cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeKind {
    /// Deterministic discrete-event simulator (virtual ticks).
    Sim,
    /// OS threads and crossbeam channels (wall-clock microseconds).
    Threaded,
}

impl RuntimeKind {
    fn label(self) -> &'static str {
        match self {
            RuntimeKind::Sim => "sim",
            RuntimeKind::Threaded => "threaded",
        }
    }
}

/// How the workload is injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriveMode {
    /// Closed loop at the given concurrency.
    Closed(usize),
    /// Open loop with the given fixed inter-arrival period (ticks).
    Open(u64),
}

impl DriveMode {
    fn label(self) -> &'static str {
        match self {
            DriveMode::Closed(_) => "closed",
            DriveMode::Open(_) => "open",
        }
    }

    fn release(self) -> Release {
        match self {
            DriveMode::Closed(c) => Release::Window(c),
            DriveMode::Open(p) => Release::Schedule(OpenLoopCfg::fixed(p)),
        }
    }
}

/// Network conditions for the cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Network {
    /// The paper's reliable FIFO network.
    Clean,
    /// 3% message loss + 1% duplication; the session layer makes delivery
    /// reliable again, at the cost of retransmissions (sim only).
    Faulty,
    /// 2% loss plus a mid-run crash of one processor (restarted later),
    /// with the failure detector and the client retry layer enabled — the
    /// cost of a full self-healing cycle: suspicion, quarantine, redirected
    /// retries, rejoin, anti-entropy catch-up (sim only).
    Chaos,
}

impl Network {
    fn label(self) -> &'static str {
        match self {
            Network::Clean => "clean",
            Network::Faulty => "faulty",
            Network::Chaos => "chaos",
        }
    }
}

/// The processor the chaos cells crash, and when. Fixed alongside the cell
/// seeds: the whole outage is part of the pinned measurement.
const CHAOS_CRASH: CrashEvent = CrashEvent {
    proc: ProcId(2),
    at: SimTime(150),
    restart_at: Some(SimTime(1_200)),
};

/// Retry policy for chaos cells: deadlines short enough that operations
/// stuck on the dead processor redirect during the outage.
fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        enabled: true,
        deadline: 600,
        ..RetryPolicy::default()
    }
}

/// The replica-maintenance protocol under test, across both structures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// dB-tree §4.1.2 semi-synchronous splits (the paper's lazy protocol).
    SemiSync,
    /// dB-tree available-copies baseline (write-all locking).
    AvailableCopies,
    /// Hash-table lazy directory patches.
    Lazy,
    /// Hash-table synchronous (ack-barrier) directory maintenance.
    DirSync,
}

impl Proto {
    fn label(self) -> &'static str {
        match self {
            Proto::SemiSync => "semisync",
            Proto::AvailableCopies => "availablecopies",
            Proto::Lazy => "lazy",
            Proto::DirSync => "dirsync",
        }
    }

    fn blink(self) -> dbtree::ProtocolKind {
        match self {
            Proto::SemiSync => dbtree::ProtocolKind::SemiSync,
            Proto::AvailableCopies => dbtree::ProtocolKind::AvailableCopies,
            _ => panic!("{self:?} is not a dB-tree protocol"),
        }
    }

    fn dhash(self) -> DirProtocol {
        match self {
            Proto::Lazy => DirProtocol::Lazy,
            Proto::DirSync => DirProtocol::Sync,
            _ => panic!("{self:?} is not a hash-directory protocol"),
        }
    }
}

/// Full specification of one benchmark cell. Everything that affects the
/// run is in here (plus the binary itself), so a cell id names a
/// reproducible measurement.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Stable identifier; baselines are joined on this.
    pub id: &'static str,
    /// Search structure.
    pub structure: Structure,
    /// Runtime substrate.
    pub runtime: RuntimeKind,
    /// Injection mode.
    pub drive: DriveMode,
    /// Network conditions.
    pub network: Network,
    /// Maintenance protocol.
    pub protocol: Proto,
    /// Operations injected.
    pub ops: usize,
    /// Workload + simulator seed.
    pub seed: u64,
    /// Cluster size.
    pub n_procs: u32,
    /// Keys preloaded before driving.
    pub preload: u64,
    /// Replication factor (dB-tree); the hash directory always has
    /// `n_procs` copies.
    pub copies: usize,
    /// Per-action service time (ticks; sim only).
    pub service_time: u64,
    /// One processor's service-time override (a degraded node manager).
    pub service_override: Option<(ProcId, u64)>,
    /// How many processors submit client operations (`0..origins`).
    pub origins: u32,
    /// Search/insert mix.
    pub mix: Mix,
    /// Key space the workload draws from. Delete-churn cells shrink this
    /// to the preloaded window so deletes actually empty leaves.
    pub key_space: u64,
    /// Enable lazy merge-at-empty (dB-tree only): emptied leaves are
    /// retired and their arena slots freed during the drive.
    pub merge: bool,
    /// Node fanout (dB-tree only). The delete-churn cell shrinks it so
    /// leaves hold few live keys and uniform deletes actually empty them.
    pub fanout: usize,
    /// Record a causal trace and run the critical-path profiler. The scale
    /// cells still run with this off — not for its cost any more (recording
    /// keeps raw values and renders only at export: DESIGN, "Observability")
    /// but because switching it on moves their baseline rows, which is its
    /// own change (ROADMAP item 5).
    pub profile: bool,
}

/// Everything a cell run produces: the flat result row plus the two
/// folded-stack exports (critical-path chains, per-entry queueing).
#[derive(Clone, Debug)]
pub struct CellOutput {
    /// The measured row.
    pub result: CellResult,
    /// Latency-weighted critical-path chains (`proc.kind;... ticks`);
    /// empty for unprofiled (threaded) cells.
    pub folded_paths: String,
    /// Wait-tick-weighted trace entries (`proc;event;kind ticks`); empty
    /// for unprofiled cells.
    pub folded_waits: String,
}

/// One measured cell — the unit of `BENCH.json` and of the regression
/// gate. All fields are flat scalars so the hand-rolled JSON stays trivial.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellResult {
    /// Cell identifier (join key against the baseline).
    pub id: String,
    /// Structure label (`blink` / `dhash`).
    pub structure: String,
    /// Runtime label (`sim` / `threaded`).
    pub runtime: String,
    /// Drive label (`closed` / `open`).
    pub drive: String,
    /// Network label (`clean` / `faulty`).
    pub network: String,
    /// Protocol label.
    pub protocol: String,
    /// `true` iff re-running the identical binary reproduces this row
    /// bit-for-bit; only deterministic cells are gated.
    pub deterministic: bool,
    /// Cluster size.
    pub n_procs: u64,
    /// Operations injected.
    pub ops: u64,
    /// Operations completed.
    pub completed: u64,
    /// Ticks from first injection to last completion.
    pub makespan: u64,
    /// Completed ops per 1000 ticks.
    pub throughput_kops: f64,
    /// Mean op latency (ticks).
    pub lat_mean: f64,
    /// Latency p50.
    pub lat_p50: u64,
    /// Latency p95.
    pub lat_p95: u64,
    /// Latency p99.
    pub lat_p99: u64,
    /// Worst op latency.
    pub lat_max: u64,
    /// Mean navigation hops per op.
    pub hops_mean: f64,
    /// Total network messages during the drive (0 for threaded cells —
    /// the thread substrate has no message counters).
    pub msgs_total: u64,
    /// Messages per completed op.
    pub msgs_per_op: f64,
    /// Inter-processor messages per completed op — the cost the paper
    /// states. Gated on its own, so it cannot hide behind hand-offs.
    pub remote_msgs_per_op: f64,
    /// Hand-offs to self per completed op (`msgs_per_op` minus the remote
    /// share): sends a processor addressed to itself through the queue.
    pub local_msgs_per_op: f64,
    /// Splits performed during the drive.
    pub splits: u64,
    /// Remote split-protocol (or directory-patch) messages.
    pub split_msgs: u64,
    /// Measured maintenance messages per split.
    pub msgs_per_split: f64,
    /// Copies per replicated object (directory copies for dhash).
    pub copies: u64,
    /// The paper's predicted messages per split for this protocol.
    pub paper_msgs_per_split: u64,
    /// Merge-at-empty commits during the drive (0 when merges are off or
    /// the structure has none).
    pub merges: u64,
    /// Node copies live across the cluster when the drive quiesces. Gated
    /// higher-is-worse: under delete churn this is the reclamation bound —
    /// a leak of retired nodes shows up as growth here.
    pub live_nodes: u64,
    /// Critical-path share of latency spent queueing behind busy node
    /// managers.
    pub seg_queueing: f64,
    /// Critical-path share spent on the wire.
    pub seg_transit: f64,
    /// Critical-path share spent executing actions.
    pub seg_service: f64,
    /// Critical-path share spent blocked on the reply side (locks, sync
    /// barriers).
    pub seg_stall: f64,
    /// Off-path (lazy maintenance) actions per profiled op.
    pub offpath_per_op: f64,
    /// Ops the profiler decomposed.
    pub profiled: u64,
    /// Ops skipped (causal chain not reconstructible from the trace).
    pub prof_skipped: u64,
    /// Profiled ops whose segments do not telescope exactly.
    pub prof_inexact: u64,
    /// Simulator events delivered during the drive (deterministic; gated —
    /// an event-count blowup is a protocol or simulator regression).
    pub events_total: u64,
    /// Wall-clock simulator throughput: events delivered per second of
    /// host time. Informational only: never gated, and masked out of the
    /// byte-determinism comparisons (it is the one wall-clock field a sim
    /// cell carries).
    pub events_per_sec: f64,
}

const KEY_SPACE: u64 = 20_000;
const TRACE_CAP: usize = 1 << 16;

/// The pinned cell matrix. `smoke` selects the reduced CI variant:
/// simulator cells only (bit-deterministic, so tolerances can be tight on
/// a noisy runner) with smaller op counts. The committed
/// `BENCH_BASELINE.json` is the smoke matrix; full-matrix baselines are
/// regenerated locally with `--update-baseline`.
pub fn matrix(smoke: bool) -> Vec<CellSpec> {
    let n = |full: usize, small: usize| if smoke { small } else { full };
    let blink = CellSpec {
        id: "",
        structure: Structure::Blink,
        runtime: RuntimeKind::Sim,
        drive: DriveMode::Closed(8),
        network: Network::Clean,
        protocol: Proto::SemiSync,
        ops: 0,
        seed: 11,
        n_procs: 6,
        preload: 80,
        copies: 3,
        service_time: 2,
        service_override: None,
        origins: 6,
        mix: Mix {
            search_fraction: 0.25,
            ..Mix::INSERT_ONLY
        },
        key_space: KEY_SPACE,
        merge: false,
        fanout: 8,
        profile: true,
    };
    let dhash = CellSpec {
        structure: Structure::Dhash,
        protocol: Proto::Lazy,
        preload: 60,
        seed: 13,
        ..blink.clone()
    };
    let mut cells = vec![
        CellSpec {
            id: "blink-sim-closed-clean",
            ops: n(400, 120),
            ..blink.clone()
        },
        CellSpec {
            id: "blink-sim-open-clean",
            drive: DriveMode::Open(30),
            mix: Mix::READ_HEAVY,
            ops: n(300, 100),
            ..blink.clone()
        },
        CellSpec {
            id: "blink-sim-closed-faulty",
            network: Network::Faulty,
            ops: n(250, 80),
            ..blink.clone()
        },
        CellSpec {
            id: "dhash-sim-closed-clean",
            ops: n(400, 120),
            ..dhash.clone()
        },
        CellSpec {
            id: "dhash-sim-open-clean",
            drive: DriveMode::Open(25),
            mix: Mix::READ_HEAVY,
            ops: n(300, 100),
            ..dhash.clone()
        },
        CellSpec {
            id: "dhash-sim-closed-faulty",
            network: Network::Faulty,
            ops: n(250, 80),
            ..dhash.clone()
        },
        // The price of a self-healing cycle: one processor crashes at tick
        // 150 and restarts at 1200, clients keep submitting to it, and the
        // detector + retry + recovery stack absorbs the outage. Gated like
        // every other sim cell — a regression here is a recovery-path
        // slowdown (or, if `completed` drops, a lost operation).
        CellSpec {
            id: "blink-sim-closed-chaos",
            network: Network::Chaos,
            ops: n(250, 80),
            ..blink.clone()
        },
        CellSpec {
            id: "dhash-sim-closed-chaos",
            network: Network::Chaos,
            ops: n(250, 80),
            ..dhash.clone()
        },
        // Delete-heavy churn over a narrow key window with lazy
        // merge-at-empty on: deletes drain the window's leaves to all-
        // tombstone, merges retire them, and the occasional insert refills.
        // The mix is deliberately harsher than `Mix::DELETE_CHURN` (85%
        // deletes vs 45%) and the fanout small, so leaves actually empty
        // within the pinned op budget. `merges` and `live_nodes` are the
        // gated reclamation metrics — if retirement stops committing or
        // stops freeing arena slots, this cell's gate trips. Scans ride
        // along to exercise the leaf-chain walk across retired nodes.
        CellSpec {
            id: "blink-sim-closed-deletes",
            ops: n(300, 200),
            seed: 19,
            mix: Mix {
                search_fraction: 0.05,
                delete_fraction: 0.85,
                scan_fraction: 0.05,
            },
            key_space: 200,
            merge: true,
            fanout: 4,
            profile: false,
            ..blink.clone()
        },
        // Simulator-throughput cell: a 256-processor clean run with
        // tracing and the service-time model off, so virtually all of the
        // wall clock is the event core itself (heap, dispatch, channel
        // bookkeeping). Its sim metrics are deterministic and gated like
        // any other cell; `events_per_sec` is the one wall-clock reading.
        CellSpec {
            id: "blink-sim-scale-tput",
            drive: DriveMode::Closed(64),
            ops: n(40000, 15000),
            seed: 17,
            n_procs: 256,
            preload: 4000,
            service_time: 0,
            origins: 256,
            mix: Mix {
                search_fraction: 0.5,
                ..Mix::INSERT_ONLY
            },
            profile: false,
            ..blink.clone()
        },
    ];
    if !smoke {
        cells.extend([
            CellSpec {
                id: "blink-thr-closed-clean",
                runtime: RuntimeKind::Threaded,
                ops: 200,
                ..blink.clone()
            },
            CellSpec {
                id: "blink-thr-open-clean",
                runtime: RuntimeKind::Threaded,
                drive: DriveMode::Open(50),
                ops: 200,
                ..blink.clone()
            },
            CellSpec {
                id: "dhash-thr-closed-clean",
                runtime: RuntimeKind::Threaded,
                ops: 200,
                ..dhash.clone()
            },
            CellSpec {
                id: "dhash-thr-open-clean",
                runtime: RuntimeKind::Threaded,
                drive: DriveMode::Open(50),
                ops: 200,
                ..dhash.clone()
            },
        ]);
    }
    cells
}

/// Run one cell to completion and measure it.
pub fn run_cell(spec: &CellSpec) -> CellOutput {
    match (spec.structure, spec.runtime) {
        (Structure::Blink, RuntimeKind::Sim) => run_blink_sim(spec),
        (Structure::Blink, RuntimeKind::Threaded) => run_blink_threaded(spec),
        (Structure::Dhash, RuntimeKind::Sim) => run_dhash_sim(spec),
        (Structure::Dhash, RuntimeKind::Threaded) => run_dhash_threaded(spec),
    }
}

fn sim_cfg(spec: &CellSpec) -> SimConfig {
    let mut cfg = SimConfig::jittery(spec.seed, 2, 25);
    cfg.trace_capacity = if spec.profile { TRACE_CAP } else { 0 };
    cfg.service_time = spec.service_time;
    if let Some(o) = spec.service_override {
        cfg.service_overrides.push(o);
    }
    match spec.network {
        Network::Clean => {}
        Network::Faulty => cfg.faults = FaultPlan::lossy(0.03).with_dup(0.01),
        Network::Chaos => cfg.faults = FaultPlan::lossy(0.02).with_crash(CHAOS_CRASH),
    }
    cfg
}

/// Session layer for the cell: chaos cells run the failure detector on top
/// of the reliable session; everything else takes the builder's default
/// (reliable iff the fault plan needs it).
fn chaos_session() -> SessionConfig {
    SessionConfig::reliable().with_detector(DetectorConfig::on())
}

fn service_times(spec: &CellSpec) -> ServiceTimes {
    let svc = ServiceTimes::uniform(spec.service_time);
    match spec.service_override {
        Some((p, t)) => svc.with_override(p, t),
        None => svc,
    }
}

fn workload_ops(spec: &CellSpec) -> Vec<Op> {
    WorkloadGen::new(
        KeyDist::Uniform { n: spec.key_space },
        spec.mix,
        spec.origins,
        spec.seed ^ 0x9E37,
    )
    .batch(spec.ops)
}

fn to_hash(op: &Op) -> HashOp {
    HashOp {
        origin: ProcId(op.origin),
        key: op.key,
        kind: match op.kind {
            OpKind::Search => HKind::Search,
            OpKind::Insert => HKind::Insert(op.value),
            OpKind::Delete => HKind::Delete,
            // The hash has no range order, so a scan degenerates to a point
            // lookup (no pinned dhash cell uses a scan-bearing mix).
            OpKind::Scan => HKind::Search,
        },
    }
}

/// Summary block shared by every cell kind.
struct Timing {
    completed: u64,
    makespan: u64,
    throughput_kops: f64,
    lat_mean: f64,
    p50: u64,
    p95: u64,
    p99: u64,
    max: u64,
    hops_mean: f64,
}

fn timing<Op, O: OpOutcome>(s: &DriverStats<Op, O>) -> Timing {
    Timing {
        completed: s.records.len() as u64,
        makespan: s.makespan,
        throughput_kops: s.throughput_per_kilotick(),
        lat_mean: s.mean_latency(),
        p50: s.latency_quantile(0.5),
        p95: s.latency_quantile(0.95),
        p99: s.latency_quantile(0.99),
        max: s.latency_histogram().max(),
        hops_mean: s.mean_hops(),
    }
}

/// Hop count of a completed item: the one outcome field [`timing`] reads.
struct Hops(u32);

impl OpOutcome for Hops {
    fn hops(&self) -> u32 {
        self.0
    }
}

/// The run's point-op and scan records as one stats object, so a scan
/// counts toward `completed`, the latency quantiles and the hop mean like
/// any other op.
fn with_scans(stats: &dbtree::DriverStats, scans: &[ScanRecord]) -> DriverStats<(), Hops> {
    let rec = |id, submitted, completed, hops| OpRecord {
        id,
        op: (),
        submitted,
        completed,
        outcome: Hops(hops),
    };
    let ops = stats
        .records
        .iter()
        .map(|r| rec(r.id, r.submitted, r.completed, r.outcome.hops));
    let scans = scans
        .iter()
        .map(|s| rec(s.id, s.submitted, s.completed, s.outcome.hops));
    DriverStats {
        records: ops.chain(scans).collect(),
        makespan: stats.makespan,
        ..DriverStats::default()
    }
}

/// Drive a dhash cell (the hash table has no scans, hence no mixed entry).
fn drive_hash<R>(
    cluster: &mut HashCluster<R>,
    spec: &CellSpec,
    ops: &[HashOp],
) -> Result<HashStats, QuiesceError>
where
    R: simnet::Runtime<Proc = simnet::SessionProc<dhash::HashProc>>,
{
    match spec.drive {
        DriveMode::Closed(c) => cluster.try_run_closed_loop(ops, c),
        DriveMode::Open(p) => cluster.try_run_open_loop(ops, &OpenLoopCfg::fixed(p)),
    }
}

fn base_result(spec: &CellSpec, t: &Timing) -> CellResult {
    CellResult {
        id: spec.id.to_string(),
        structure: spec.structure.label().to_string(),
        runtime: spec.runtime.label().to_string(),
        drive: spec.drive.label().to_string(),
        network: spec.network.label().to_string(),
        protocol: spec.protocol.label().to_string(),
        deterministic: spec.runtime == RuntimeKind::Sim,
        n_procs: spec.n_procs as u64,
        ops: spec.ops as u64,
        completed: t.completed,
        makespan: t.makespan,
        throughput_kops: t.throughput_kops,
        lat_mean: t.lat_mean,
        lat_p50: t.p50,
        lat_p95: t.p95,
        lat_p99: t.p99,
        lat_max: t.max,
        hops_mean: t.hops_mean,
        ..CellResult::default()
    }
}

/// Fill the critical-path segment fields from a profiled run.
fn fill_profile(r: &mut CellResult, prof: &simnet::RunProfile) {
    let t = prof.totals();
    r.seg_queueing = t.share(t.queueing);
    r.seg_transit = t.share(t.transit);
    r.seg_service = t.share(t.service);
    r.seg_stall = t.share(t.stall);
    r.offpath_per_op = if t.ops == 0 {
        0.0
    } else {
        t.off_path_actions as f64 / t.ops as f64
    };
    r.profiled = t.ops;
    r.prof_skipped = prof.skipped;
    r.prof_inexact = prof.inexact();
}

fn run_blink_sim(spec: &CellSpec) -> CellOutput {
    let cfg = TreeConfig {
        record_history: false,
        merge_at_empty: spec.merge,
        fanout: spec.fanout,
        ..TreeConfig::fixed_copies(spec.protocol.blink(), spec.copies)
    };
    let keys: Vec<Key> = (0..spec.preload).map(|k| k * 10).collect();
    let bspec = BuildSpec::new(keys, spec.n_procs, cfg);
    let mut cluster = if spec.network == Network::Chaos {
        let mut c = DbCluster::build_with_session(&bspec, sim_cfg(spec), chaos_session());
        c.set_retry(chaos_retry());
        c
    } else {
        DbCluster::build(&bspec, sim_cfg(spec))
    };
    let before = cluster.sim.stats().clone();
    let events_before = cluster.sim.events_delivered();
    let wall = std::time::Instant::now();
    let items: Vec<DbSubmission> = workload_ops(spec).iter().map(to_submission).collect();
    let stats = cluster
        .try_run_mixed(&items, spec.drive.release())
        .expect("blink cell failed to quiesce");
    let wall = wall.elapsed();
    let delta = cluster.sim.stats().delta_since(&before);
    let splits = crate::sum_metric(&cluster, |m| m.splits_initiated);
    let split_msgs = delta.remote_matching(|k| k.starts_with("split."));

    let scans = cluster.take_scans();
    let mut r = base_result(spec, &timing(&with_scans(&stats, &scans)));
    r.events_total = cluster.sim.events_delivered() - events_before;
    r.events_per_sec = r.events_total as f64 / wall.as_secs_f64().max(1e-9);
    r.record_msgs(&delta);
    r.splits = splits;
    r.split_msgs = split_msgs;
    r.msgs_per_split = split_msgs as f64 / splits.max(1) as f64;
    r.copies = spec.copies as u64;
    // §4.1.2: a semisync split relays to the R-1 other copies; available
    // copies pays the same relay fan-out (its overhead is locking, not
    // split messages).
    r.paper_msgs_per_split = (spec.copies as u64).saturating_sub(1);
    r.merges = crate::sum_metric(&cluster, |m| m.merges_completed);
    r.live_nodes = cluster.sim.procs().map(|(_, p)| p.store.len() as u64).sum();

    if !spec.profile {
        return CellOutput {
            result: r,
            folded_paths: String::new(),
            folded_waits: String::new(),
        };
    }
    let obs = cluster.take_obs();
    let prof = Profiler::new(service_times(spec)).profile_stats(&obs.trace, &stats);
    fill_profile(&mut r, &prof);
    CellOutput {
        result: r,
        folded_paths: prof.folded_paths(),
        folded_waits: folded_waits(&obs.trace),
    }
}

fn run_blink_threaded(spec: &CellSpec) -> CellOutput {
    let cfg = TreeConfig {
        record_history: false,
        merge_at_empty: spec.merge,
        fanout: spec.fanout,
        ..TreeConfig::fixed_copies(spec.protocol.blink(), spec.copies)
    };
    let keys: Vec<Key> = (0..spec.preload).map(|k| k * 10).collect();
    let bspec = BuildSpec::new(keys, spec.n_procs, cfg);
    let mut cluster = ThreadedDbCluster::build_threaded(&bspec);
    let items: Vec<DbSubmission> = workload_ops(spec).iter().map(to_submission).collect();
    let stats = cluster
        .try_run_mixed(&items, spec.drive.release())
        .expect("blink cell failed to quiesce");
    let scans = cluster.take_scans();
    let mut r = base_result(spec, &timing(&with_scans(&stats, &scans)));
    r.copies = spec.copies as u64;
    r.paper_msgs_per_split = (spec.copies as u64).saturating_sub(1);
    // The thread substrate counts no messages; splits are still visible in
    // the recovered process state.
    r.splits = cluster
        .into_procs()
        .iter()
        .map(|p| p.metrics.splits_initiated)
        .sum();
    CellOutput {
        result: r,
        folded_paths: String::new(),
        folded_waits: String::new(),
    }
}

fn run_dhash_sim(spec: &CellSpec) -> CellOutput {
    let hspec = HashSpec {
        preload: (0..spec.preload).map(|k| k * 7).collect(),
        n_procs: spec.n_procs,
        cfg: HashConfig {
            protocol: spec.protocol.dhash(),
            record_history: false,
            ..HashConfig::default()
        },
    };
    let mut cluster = if spec.network == Network::Chaos {
        let mut c = HashCluster::build_with_session(&hspec, sim_cfg(spec), chaos_session());
        c.set_retry(chaos_retry());
        c
    } else {
        HashCluster::build(&hspec, sim_cfg(spec))
    };
    let before = cluster.sim.stats().clone();
    let events_before = cluster.sim.events_delivered();
    let wall = std::time::Instant::now();
    let ops: Vec<HashOp> = workload_ops(spec).iter().map(to_hash).collect();
    let stats = drive_hash(&mut cluster, spec, &ops).expect("dhash cell failed to quiesce");
    let wall = wall.elapsed();
    let delta = cluster.sim.stats().delta_since(&before);
    let splits: u64 = cluster.sim.procs().map(|(_, p)| p.metrics.splits).sum();
    let split_msgs = delta.remote_matching(|k| k.starts_with("dir."));

    let mut r = base_result(spec, &timing(&stats));
    r.events_total = cluster.sim.events_delivered() - events_before;
    r.events_per_sec = r.events_total as f64 / wall.as_secs_f64().max(1e-9);
    r.record_msgs(&delta);
    r.splits = splits;
    r.split_msgs = split_msgs;
    r.msgs_per_split = split_msgs as f64 / splits.max(1) as f64;
    // The directory is replicated on every processor: a lazy split
    // broadcasts one patch to each of the P-1 peers.
    r.copies = spec.n_procs as u64;
    r.paper_msgs_per_split = (spec.n_procs as u64).saturating_sub(1);

    if !spec.profile {
        return CellOutput {
            result: r,
            folded_paths: String::new(),
            folded_waits: String::new(),
        };
    }
    let obs = cluster.take_obs();
    let prof = Profiler::new(service_times(spec)).profile_stats(&obs.trace, &stats);
    fill_profile(&mut r, &prof);
    CellOutput {
        result: r,
        folded_paths: prof.folded_paths(),
        folded_waits: folded_waits(&obs.trace),
    }
}

fn run_dhash_threaded(spec: &CellSpec) -> CellOutput {
    let hspec = HashSpec {
        preload: (0..spec.preload).map(|k| k * 7).collect(),
        n_procs: spec.n_procs,
        cfg: HashConfig {
            protocol: spec.protocol.dhash(),
            record_history: false,
            ..HashConfig::default()
        },
    };
    let mut cluster = ThreadedHashCluster::build_threaded(&hspec);
    let ops: Vec<HashOp> = workload_ops(spec).iter().map(to_hash).collect();
    let stats = drive_hash(&mut cluster, spec, &ops).expect("dhash cell failed to quiesce");
    let mut r = base_result(spec, &timing(&stats));
    r.copies = spec.n_procs as u64;
    r.paper_msgs_per_split = (spec.n_procs as u64).saturating_sub(1);
    r.splits = cluster
        .into_procs()
        .iter()
        .map(|p| p.metrics.splits)
        .sum::<u64>();
    CellOutput {
        result: r,
        folded_paths: String::new(),
        folded_waits: String::new(),
    }
}

// ---------------------------------------------------------------------------
// BENCH.json

/// The schema tag written into every report; bump on breaking changes.
pub const SCHEMA: &str = "bench-v1";

/// A full suite run: the schema tag plus one row per cell.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchReport {
    /// Measured cells, in matrix order.
    pub cells: Vec<CellResult>,
}

/// Format an `f64` metric: fixed four decimal places, so output is
/// byte-stable across runs and platforms.
fn f(x: f64) -> String {
    format!("{x:.4}")
}

impl CellResult {
    /// Fill the message counts of a drive from its `NetStats` delta, split
    /// by locality. Call after `completed` is set.
    fn record_msgs(&mut self, delta: &simnet::NetStats) {
        let ops = self.completed.max(1) as f64;
        let remote = delta.remote_messages();
        self.msgs_total = delta.total_messages();
        self.msgs_per_op = self.msgs_total as f64 / ops;
        self.remote_msgs_per_op = remote as f64 / ops;
        self.local_msgs_per_op = (self.msgs_total - remote) as f64 / ops;
    }

    /// One flat JSON object (no trailing newline). Field order is frozen
    /// by the golden-file test.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":\"{}\",\"structure\":\"{}\",\"runtime\":\"{}\",\"drive\":\"{}\",\
             \"network\":\"{}\",\"protocol\":\"{}\",\"deterministic\":{},\"n_procs\":{},\
             \"ops\":{},\"completed\":{},\"makespan\":{},\"throughput_kops\":{},\
             \"lat_mean\":{},\"lat_p50\":{},\"lat_p95\":{},\"lat_p99\":{},\"lat_max\":{},\
             \"hops_mean\":{},\"msgs_total\":{},\"msgs_per_op\":{},\
             \"remote_msgs_per_op\":{},\"local_msgs_per_op\":{},\"splits\":{},\
             \"split_msgs\":{},\"msgs_per_split\":{},\"copies\":{},\"paper_msgs_per_split\":{},\
             \"merges\":{},\"live_nodes\":{},\
             \"seg_queueing\":{},\"seg_transit\":{},\"seg_service\":{},\"seg_stall\":{},\
             \"offpath_per_op\":{},\"profiled\":{},\"prof_skipped\":{},\"prof_inexact\":{},\
             \"events_total\":{},\"events_per_sec\":{}}}",
            self.id,
            self.structure,
            self.runtime,
            self.drive,
            self.network,
            self.protocol,
            self.deterministic,
            self.n_procs,
            self.ops,
            self.completed,
            self.makespan,
            f(self.throughput_kops),
            f(self.lat_mean),
            self.lat_p50,
            self.lat_p95,
            self.lat_p99,
            self.lat_max,
            f(self.hops_mean),
            self.msgs_total,
            f(self.msgs_per_op),
            f(self.remote_msgs_per_op),
            f(self.local_msgs_per_op),
            self.splits,
            self.split_msgs,
            f(self.msgs_per_split),
            self.copies,
            self.paper_msgs_per_split,
            self.merges,
            self.live_nodes,
            f(self.seg_queueing),
            f(self.seg_transit),
            f(self.seg_service),
            f(self.seg_stall),
            f(self.offpath_per_op),
            self.profiled,
            self.prof_skipped,
            self.prof_inexact,
            self.events_total,
            f(self.events_per_sec),
        )
    }

    /// Parse one cell object written by [`CellResult::to_json`].
    pub fn from_json(s: &str) -> Result<CellResult, String> {
        fn field<'a>(s: &'a str, name: &str) -> Result<&'a str, String> {
            let pat = format!("\"{name}\":");
            let i = s
                .find(&pat)
                .ok_or_else(|| format!("missing field {name:?}"))?
                + pat.len();
            let rest = &s[i..];
            let end = rest
                .find([',', '}'])
                .ok_or_else(|| format!("unterminated field {name:?}"))?;
            Ok(rest[..end].trim_matches('"'))
        }
        fn num<T: std::str::FromStr>(s: &str, name: &str) -> Result<T, String> {
            field(s, name)?
                .parse()
                .map_err(|_| format!("bad value for {name:?}"))
        }
        Ok(CellResult {
            id: field(s, "id")?.to_string(),
            structure: field(s, "structure")?.to_string(),
            runtime: field(s, "runtime")?.to_string(),
            drive: field(s, "drive")?.to_string(),
            network: field(s, "network")?.to_string(),
            protocol: field(s, "protocol")?.to_string(),
            deterministic: num(s, "deterministic")?,
            n_procs: num(s, "n_procs")?,
            ops: num(s, "ops")?,
            completed: num(s, "completed")?,
            makespan: num(s, "makespan")?,
            throughput_kops: num(s, "throughput_kops")?,
            lat_mean: num(s, "lat_mean")?,
            lat_p50: num(s, "lat_p50")?,
            lat_p95: num(s, "lat_p95")?,
            lat_p99: num(s, "lat_p99")?,
            lat_max: num(s, "lat_max")?,
            hops_mean: num(s, "hops_mean")?,
            msgs_total: num(s, "msgs_total")?,
            msgs_per_op: num(s, "msgs_per_op")?,
            remote_msgs_per_op: num(s, "remote_msgs_per_op")?,
            local_msgs_per_op: num(s, "local_msgs_per_op")?,
            splits: num(s, "splits")?,
            split_msgs: num(s, "split_msgs")?,
            msgs_per_split: num(s, "msgs_per_split")?,
            copies: num(s, "copies")?,
            paper_msgs_per_split: num(s, "paper_msgs_per_split")?,
            merges: num(s, "merges")?,
            live_nodes: num(s, "live_nodes")?,
            seg_queueing: num(s, "seg_queueing")?,
            seg_transit: num(s, "seg_transit")?,
            seg_service: num(s, "seg_service")?,
            seg_stall: num(s, "seg_stall")?,
            offpath_per_op: num(s, "offpath_per_op")?,
            profiled: num(s, "profiled")?,
            prof_skipped: num(s, "prof_skipped")?,
            prof_inexact: num(s, "prof_inexact")?,
            events_total: num(s, "events_total")?,
            events_per_sec: num(s, "events_per_sec")?,
        })
    }
}

impl BenchReport {
    /// The full `BENCH.json` document: schema tag + one cell per line.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"schema\":\"{SCHEMA}\",\"cells\":[\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&c.to_json());
            if i + 1 < self.cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }

    /// Parse a document written by [`BenchReport::to_json`].
    pub fn parse(s: &str) -> Result<BenchReport, String> {
        let tag = format!("\"schema\":\"{SCHEMA}\"");
        if !s.contains(&tag) {
            return Err(format!("not a {SCHEMA} document"));
        }
        let mut cells = Vec::new();
        for line in s.lines() {
            let line = line.trim().trim_end_matches(',');
            if line.starts_with("{\"id\"") {
                cells.push(CellResult::from_json(line)?);
            }
        }
        Ok(BenchReport { cells })
    }
}

// ---------------------------------------------------------------------------
// Regression gate

/// Per-metric tolerances for the regression gate. A metric regresses when
/// it worsens beyond `rel` (fraction of the baseline) *plus* `abs`
/// (ticks/units) — the absolute slack keeps tiny baselines (p50 of 3
/// ticks) from flagging one-tick quantization moves.
#[derive(Clone, Copy, Debug)]
pub struct GateCfg {
    /// Relative tolerance (fraction of baseline).
    pub rel: f64,
    /// Absolute tolerance (same unit as the metric).
    pub abs: f64,
}

impl Default for GateCfg {
    fn default() -> Self {
        GateCfg {
            rel: 0.25,
            abs: 2.0,
        }
    }
}

/// One gated metric that worsened past its tolerance.
#[derive(Clone, Debug)]
pub struct Regression {
    /// Which cell.
    pub cell: String,
    /// Which metric.
    pub metric: &'static str,
    /// The committed baseline value.
    pub baseline: f64,
    /// The measured value.
    pub current: f64,
    /// The limit the measurement crossed.
    pub allowed: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            fm,
            "{}: {} regressed — baseline {:.2}, now {:.2} (allowed {:.2})",
            self.cell, self.metric, self.baseline, self.current, self.allowed
        )
    }
}

/// Diff `current` against `baseline`. Only cells marked deterministic in
/// *both* reports are gated; threaded (wall-clock) cells are informational.
/// A baseline cell missing from the current run, or run with a different
/// op count, is itself a regression (the matrix drifted — re-run with
/// `--update-baseline` if the change is intentional).
pub fn compare(current: &BenchReport, baseline: &BenchReport, gate: &GateCfg) -> Vec<Regression> {
    let mut out = Vec::new();
    for base in &baseline.cells {
        let Some(cur) = current.cells.iter().find(|c| c.id == base.id) else {
            out.push(Regression {
                cell: base.id.clone(),
                metric: "present",
                baseline: 1.0,
                current: 0.0,
                allowed: 1.0,
            });
            continue;
        };
        if !(base.deterministic && cur.deterministic) {
            continue;
        }
        if cur.ops != base.ops {
            out.push(Regression {
                cell: base.id.clone(),
                metric: "ops",
                baseline: base.ops as f64,
                current: cur.ops as f64,
                allowed: base.ops as f64,
            });
            continue;
        }
        // Completed ops may not drop at all: losing an op is a
        // correctness event, not a perf wobble.
        if cur.completed < base.completed {
            out.push(Regression {
                cell: base.id.clone(),
                metric: "completed",
                baseline: base.completed as f64,
                current: cur.completed as f64,
                allowed: base.completed as f64,
            });
        }
        let mut check = |metric: &'static str, curv: f64, basev: f64, higher_is_worse: bool| {
            let allowed = if higher_is_worse {
                basev * (1.0 + gate.rel) + gate.abs
            } else {
                (basev * (1.0 - gate.rel) - gate.abs).max(0.0)
            };
            let bad = if higher_is_worse {
                curv > allowed
            } else {
                curv < allowed
            };
            if bad {
                out.push(Regression {
                    cell: base.id.clone(),
                    metric,
                    baseline: basev,
                    current: curv,
                    allowed,
                });
            }
        };
        check(
            "throughput_kops",
            cur.throughput_kops,
            base.throughput_kops,
            false,
        );
        check("lat_mean", cur.lat_mean, base.lat_mean, true);
        check("lat_p50", cur.lat_p50 as f64, base.lat_p50 as f64, true);
        check("lat_p95", cur.lat_p95 as f64, base.lat_p95 as f64, true);
        check("lat_p99", cur.lat_p99 as f64, base.lat_p99 as f64, true);
        check("hops_mean", cur.hops_mean, base.hops_mean, true);
        check("msgs_per_op", cur.msgs_per_op, base.msgs_per_op, true);
        // The paper's cost is the inter-processor share; hand-offs to self
        // are the runtime's. Each is pinned on its own.
        check(
            "remote_msgs_per_op",
            cur.remote_msgs_per_op,
            base.remote_msgs_per_op,
            true,
        );
        check(
            "local_msgs_per_op",
            cur.local_msgs_per_op,
            base.local_msgs_per_op,
            true,
        );
        // The reclamation bound: node copies live at quiesce may not grow
        // past tolerance (retired leaves must actually free their slots),
        // and merge commits may not quietly stop happening.
        check(
            "live_nodes",
            cur.live_nodes as f64,
            base.live_nodes as f64,
            true,
        );
        check("merges", cur.merges as f64, base.merges as f64, false);
        // `events_per_sec` is wall-clock and deliberately ungated.
        check(
            "events_total",
            cur.events_total as f64,
            base.events_total as f64,
            true,
        );
    }
    out
}

//! The benchmark suite: ten pinned workload cells on the deterministic
//! simulator, exported as a schema-pinned `BENCH.json` and compared
//! *exactly* with the committed `BENCH_BASELINE.json`.
//!
//! A *cell* is one (structure × drive mode × network) combination with fixed
//! seeds and sizes. Every number in its row is counted in virtual ticks,
//! messages or events, so any build of the same source — release or debug —
//! reproduces the row byte for byte, and a differing byte is a code change.
//! Nothing here reads a clock: numbers with one in them belong to the ledger
//! in `perf/` (and to E14 / E19).
//!
//! The row's field names live in the [`CellResult`] struct and in its one
//! ordered writer list, [`CellResult::fields`]. A document is read back
//! through [`obs::Json`] ([`rows`]), and [`diff`] compares two documents
//! member by member without naming a field. The field set, order and
//! encodings are frozen by the golden-file test in `tests/suite.rs` —
//! extend the schema deliberately, golden file in the same commit.

use std::fmt::Write as _;

use dbtree::{
    BuildSpec, DbCluster, DbSubmission, Key, Placement, ProtocolKind, ScanRecord, TreeConfig,
};
use dhash::{HKind, HashCluster, HashConfig, HashOp, HashSpec};
use obs::Json;
use simnet::driver::{DriverStats, OpOutcome, OpRecord};
use simnet::{
    folded_waits, CrashEvent, DetectorConfig, FaultPlan, NetStats, OpenLoopCfg, ProcId, Process,
    Profiler, Release, RetryPolicy, ServiceTimes, SessionConfig, SimConfig, SimTime, Simulation,
};
use workload::{KeyDist, Mix, Op, OpKind, WorkloadGen};

use crate::to_submission;

/// Which search structure a cell exercises, under exactly the
/// configuration it runs.
#[derive(Clone, Debug)]
pub enum Structure {
    /// The replicated dB-tree (`dbtree` crate).
    Blink(TreeConfig),
    /// The lazy extendible hash table (`dhash` crate).
    Dhash(HashConfig),
}

impl Structure {
    fn label(&self) -> &'static str {
        match self {
            Structure::Blink(_) => "blink",
            Structure::Dhash(_) => "dhash",
        }
    }

    /// The row's protocol label.
    fn protocol_label(&self) -> &'static str {
        match self {
            Structure::Blink(cfg) => match cfg.protocol {
                ProtocolKind::AvailableCopies => "availablecopies",
                protocol => protocol.label(),
            },
            Structure::Dhash(cfg) => cfg.protocol.label(),
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
    /// reliable again, at the cost of retransmissions.
    Faulty,
    /// 2% loss plus a mid-run crash of one processor (restarted later),
    /// with the failure detector and the client retry layer enabled — the
    /// cost of a full self-healing cycle: suspicion, quarantine, redirected
    /// retries, rejoin, anti-entropy catch-up.
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

/// Full specification of one benchmark cell. Everything that affects the
/// run is in here (plus the binary itself), so a cell id names a
/// reproducible measurement.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Stable identifier; baselines are joined on this.
    pub id: &'static str,
    /// Search structure and its configuration (protocol, placement,
    /// fanout, merge policy).
    pub structure: Structure,
    /// Injection mode.
    pub drive: DriveMode,
    /// Network conditions.
    pub network: Network,
    /// Operations injected.
    pub ops: usize,
    /// Workload + simulator seed.
    pub seed: u64,
    /// Cluster size.
    pub n_procs: u32,
    /// Keys preloaded before driving.
    pub preload: u64,
    /// Per-action service time (ticks).
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
    /// Record a causal trace and run the critical-path profiler. The scale
    /// cells still run with this off — not for its cost any more (recording
    /// keeps raw values and renders only at export: DESIGN, "Observability")
    /// but because switching it on moves their baseline rows, which is its
    /// own change (ROADMAP item 7).
    pub profile: bool,
}

/// Everything a cell run produces: the flat result row plus the two
/// folded-stack exports (critical-path chains, per-entry queueing).
#[derive(Clone, Debug)]
pub struct CellOutput {
    /// The measured row.
    pub result: CellResult,
    /// Latency-weighted critical-path chains (`proc.kind;... ticks`);
    /// empty for unprofiled cells.
    pub folded_paths: String,
    /// Wait-tick-weighted trace entries (`proc;event;kind ticks`); empty
    /// for unprofiled cells.
    pub folded_waits: String,
}

/// One measured cell — the unit of `BENCH.json` and of the gate. All fields
/// are flat scalars; [`CellResult::fields`] is their one ordered list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellResult {
    /// Cell identifier (join key against the baseline).
    pub id: &'static str,
    /// Structure label (`blink` / `dhash`).
    pub structure: &'static str,
    /// Drive label (`closed` / `open`).
    pub drive: &'static str,
    /// Network label (`clean` / `faulty` / `chaos`).
    pub network: &'static str,
    /// Protocol label.
    pub protocol: &'static str,
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
    /// Total network messages during the drive.
    pub msgs_total: u64,
    /// Messages per completed op.
    pub msgs_per_op: f64,
    /// Inter-processor messages per completed op — the cost the paper
    /// states, pinned on its own so it cannot hide behind hand-offs.
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
    /// Node copies live across the cluster when the drive quiesces. Under
    /// delete churn this is the reclamation bound — a leak of retired nodes
    /// shows up as growth here.
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
    /// Simulator events delivered during the drive — an event-count blowup
    /// is a protocol or simulator regression.
    pub events_total: u64,
}

const KEY_SPACE: u64 = 20_000;
const TRACE_CAP: usize = 1 << 16;

/// The pinned cell matrix: the ten cells `BENCH_BASELINE.json` holds, at the
/// sizes it holds them.
pub fn matrix() -> Vec<CellSpec> {
    // §4.1's test bed: every node on three processors.
    let test_bed = TreeConfig {
        record_history: false,
        ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3)
    };
    let blink = CellSpec {
        id: "",
        structure: Structure::Blink(test_bed.clone()),
        drive: DriveMode::Closed(8),
        network: Network::Clean,
        ops: 0,
        seed: 11,
        n_procs: 6,
        preload: 80,
        service_time: 2,
        service_override: None,
        origins: 6,
        mix: Mix {
            search_fraction: 0.25,
            ..Mix::INSERT_ONLY
        },
        key_space: KEY_SPACE,
        profile: true,
    };
    let dhash = CellSpec {
        structure: Structure::Dhash(HashConfig {
            record_history: false,
            ..HashConfig::default()
        }),
        preload: 60,
        seed: 13,
        ..blink.clone()
    };
    vec![
        CellSpec {
            id: "blink-sim-closed-clean",
            ops: 120,
            ..blink.clone()
        },
        CellSpec {
            id: "blink-sim-open-clean",
            drive: DriveMode::Open(30),
            mix: Mix::READ_HEAVY,
            ops: 100,
            ..blink.clone()
        },
        CellSpec {
            id: "blink-sim-closed-faulty",
            network: Network::Faulty,
            ops: 80,
            ..blink.clone()
        },
        CellSpec {
            id: "dhash-sim-closed-clean",
            ops: 120,
            ..dhash.clone()
        },
        CellSpec {
            id: "dhash-sim-open-clean",
            drive: DriveMode::Open(25),
            mix: Mix::READ_HEAVY,
            ops: 100,
            ..dhash.clone()
        },
        CellSpec {
            id: "dhash-sim-closed-faulty",
            network: Network::Faulty,
            ops: 80,
            ..dhash.clone()
        },
        // The price of a self-healing cycle: one processor crashes at tick
        // 150 and restarts at 1200, clients keep submitting to it, and the
        // detector + retry + recovery stack absorbs the outage. Pinned like
        // every other cell — a move here is a recovery-path change (or, if
        // `completed` drops, a lost operation).
        CellSpec {
            id: "blink-sim-closed-chaos",
            network: Network::Chaos,
            ops: 80,
            ..blink.clone()
        },
        CellSpec {
            id: "dhash-sim-closed-chaos",
            network: Network::Chaos,
            ops: 80,
            ..dhash.clone()
        },
        // Delete-heavy churn over a narrow key window with lazy
        // merge-at-empty on: deletes drain the window's leaves to all-
        // tombstone, merges retire them, and the occasional insert refills.
        // The mix is deliberately harsher than `Mix::DELETE_CHURN` (85%
        // deletes vs 45%) and the fanout small, so leaves hold few live keys
        // and actually empty within the pinned op budget. `merges` and
        // `live_nodes` are the reclamation metrics — if retirement stops
        // committing or stops freeing arena slots, this cell's row moves.
        // Scans ride along to exercise the leaf-chain walk across retired
        // nodes.
        CellSpec {
            id: "blink-sim-closed-deletes",
            structure: Structure::Blink(TreeConfig {
                merge_at_empty: true,
                fanout: 4,
                ..test_bed
            }),
            ops: 200,
            seed: 19,
            mix: Mix {
                search_fraction: 0.05,
                delete_fraction: 0.85,
                scan_fraction: 0.05,
            },
            key_space: 200,
            profile: false,
            ..blink.clone()
        },
        // Scale cell: a 256-processor clean run with tracing and the
        // service-time model off — the protocol's message and event counts
        // at a cluster size the other cells do not reach. (How fast the
        // event core delivers them is E19's and the ledger's number.)
        CellSpec {
            id: "blink-sim-scale-tput",
            drive: DriveMode::Closed(64),
            ops: 15000,
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
    ]
}

/// Run one cell to completion and measure it.
pub fn run_cell(spec: &CellSpec) -> CellOutput {
    match &spec.structure {
        Structure::Blink(cfg) => run_blink(spec, cfg),
        Structure::Dhash(cfg) => run_dhash(spec, cfg),
    }
}

/// The network side of a cell: the simulator it runs on, the session layer
/// over it and the client retry policy. Chaos cells run the failure
/// detector on the reliable session, with retry deadlines short enough that
/// operations stuck on the dead processor redirect during the outage.
fn net(spec: &CellSpec) -> (SimConfig, SessionConfig, RetryPolicy) {
    let mut cfg = SimConfig::jittery(spec.seed, 2, 25);
    cfg.trace_capacity = if spec.profile { TRACE_CAP } else { 0 };
    cfg.service_time = spec.service_time;
    cfg.service_overrides.extend(spec.service_override);
    let (session, retry) = match spec.network {
        Network::Clean => (SessionConfig::default(), RetryPolicy::default()),
        Network::Faulty => {
            cfg.faults = FaultPlan::lossy(0.03).with_dup(0.01);
            (SessionConfig::reliable(), RetryPolicy::default())
        }
        Network::Chaos => {
            cfg.faults = FaultPlan::lossy(0.02).with_crash(CHAOS_CRASH);
            (
                SessionConfig::reliable().with_detector(DetectorConfig::on()),
                RetryPolicy {
                    enabled: true,
                    deadline: 600,
                    ..RetryPolicy::default()
                },
            )
        }
    };
    (cfg, session, retry)
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

/// The row's labels and its completion / latency block, read off the
/// driver's records.
fn timed<Op, O: OpOutcome>(spec: &CellSpec, s: &DriverStats<Op, O>) -> CellResult {
    CellResult {
        id: spec.id,
        structure: spec.structure.label(),
        drive: spec.drive.label(),
        network: spec.network.label(),
        protocol: spec.structure.protocol_label(),
        n_procs: spec.n_procs as u64,
        ops: spec.ops as u64,
        completed: s.records.len() as u64,
        makespan: s.makespan,
        throughput_kops: s.throughput_per_kilotick(),
        lat_mean: s.mean_latency(),
        lat_p50: s.latency_quantile(0.5),
        lat_p95: s.latency_quantile(0.95),
        lat_p99: s.latency_quantile(0.99),
        lat_max: s.latency_histogram().max(),
        hops_mean: s.mean_hops(),
        ..CellResult::default()
    }
}

/// Hop count of a completed item: the one outcome field [`timed`] reads.
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

/// The simulator's counters as the drive starts, so a row covers the drive
/// alone and not the build.
struct Start {
    net: NetStats,
    events: u64,
}

impl Start {
    fn of<P: Process>(sim: &Simulation<P>) -> Start {
        Start {
            net: sim.stats().clone(),
            events: sim.events_delivered(),
        }
    }

    /// Everything both structures measure the same way, on top of the row
    /// the structure's runner began (`splits`, `copies`, `merges` and
    /// `live_nodes` are its): message and event counts since the start, the
    /// split protocol's share of them (`split_kinds` is its message-kind
    /// prefix) against the paper's `copies - 1`, and the critical-path
    /// profile when the cell records a trace.
    fn finish<P: Process, Op, O>(
        self,
        spec: &CellSpec,
        sim: &mut Simulation<P>,
        stats: &DriverStats<Op, O>,
        split_kinds: &str,
        mut r: CellResult,
    ) -> CellOutput {
        let delta = sim.stats().delta_since(&self.net);
        let ops = r.completed.max(1) as f64;
        let remote = delta.remote_messages();
        r.msgs_total = delta.total_messages();
        r.msgs_per_op = r.msgs_total as f64 / ops;
        r.remote_msgs_per_op = remote as f64 / ops;
        r.local_msgs_per_op = (r.msgs_total - remote) as f64 / ops;
        r.split_msgs = delta.remote_matching(|k| k.starts_with(split_kinds));
        r.msgs_per_split = r.split_msgs as f64 / r.splits.max(1) as f64;
        r.paper_msgs_per_split = r.copies.saturating_sub(1);
        r.events_total = sim.events_delivered() - self.events;

        let (mut folded_paths, mut waits) = (String::new(), String::new());
        if spec.profile {
            let mut svc = ServiceTimes::uniform(spec.service_time);
            if let Some((p, t)) = spec.service_override {
                svc = svc.with_override(p, t);
            }
            let obs = sim.take_obs();
            let prof = Profiler::new(svc).profile_stats(&obs.trace, stats);
            let t = prof.totals();
            r.seg_queueing = t.share(t.queueing);
            r.seg_transit = t.share(t.transit);
            r.seg_service = t.share(t.service);
            r.seg_stall = t.share(t.stall);
            r.offpath_per_op = t.off_path_actions as f64 / t.ops.max(1) as f64;
            r.profiled = t.ops;
            r.prof_skipped = prof.skipped;
            r.prof_inexact = prof.inexact();
            folded_paths = prof.folded_paths();
            waits = folded_waits(&obs.trace);
        }
        CellOutput {
            result: r,
            folded_paths,
            folded_waits: waits,
        }
    }
}

fn run_blink(spec: &CellSpec, cfg: &TreeConfig) -> CellOutput {
    // The split gate prices every split at one global `copies - 1`, which
    // only §4.1's uniform placement has.
    let Placement::Uniform { copies } = cfg.placement else {
        panic!(
            "{}: a {} cell needs a per-node split gate (ROADMAP item 1)",
            spec.id,
            cfg.placement.label()
        );
    };
    let keys: Vec<Key> = (0..spec.preload).map(|k| k * 10).collect();
    let (sim_cfg, session, retry) = net(spec);
    let build = BuildSpec::new(keys, spec.n_procs, cfg.clone());
    let mut cluster = DbCluster::build_with_session(&build, sim_cfg, session);
    cluster.set_retry(retry);
    let start = Start::of(&cluster.sim);
    let items: Vec<DbSubmission> = workload_ops(spec).iter().map(to_submission).collect();
    let stats = cluster
        .try_run_mixed(&items, spec.drive.release())
        .expect("blink cell failed to quiesce");

    let scans = cluster.take_scans();
    let mut r = timed(spec, &with_scans(&stats, &scans));
    r.splits = crate::sum_metric(&cluster, |m| m.splits_initiated);
    // §4.1.2: a semisync split relays to the R-1 other copies; available
    // copies pays the same relay fan-out (its overhead is locking, not
    // split messages).
    r.copies = copies as u64;
    r.merges = crate::sum_metric(&cluster, |m| m.merges_completed);
    r.live_nodes = cluster.sim.procs().map(|(_, p)| p.store.len() as u64).sum();
    start.finish(spec, &mut cluster.sim, &stats, "split.", r)
}

fn run_dhash(spec: &CellSpec, cfg: &HashConfig) -> CellOutput {
    let hspec = HashSpec {
        preload: (0..spec.preload).map(|k| k * 7).collect(),
        n_procs: spec.n_procs,
        cfg: cfg.clone(),
    };
    let (sim_cfg, session, retry) = net(spec);
    let mut cluster = HashCluster::build_with_session(&hspec, sim_cfg, session);
    cluster.set_retry(retry);
    let start = Start::of(&cluster.sim);
    let ops: Vec<HashOp> = workload_ops(spec).iter().map(to_hash).collect();
    // The hash table has no scans, hence no mixed entry point.
    let stats = match spec.drive {
        DriveMode::Closed(c) => cluster.try_run_closed_loop(&ops, c),
        DriveMode::Open(p) => cluster.try_run_open_loop(&ops, &OpenLoopCfg::fixed(p)),
    }
    .expect("dhash cell failed to quiesce");

    let mut r = timed(spec, &stats);
    r.splits = cluster.sim.procs().map(|(_, p)| p.metrics.splits).sum();
    // The directory is replicated on every processor: a lazy split
    // broadcasts one patch to each of the P-1 peers.
    r.copies = spec.n_procs as u64;
    start.finish(spec, &mut cluster.sim, &stats, "dir.", r)
}

// ---------------------------------------------------------------------------
// BENCH.json

/// The schema tag written into every report; bump on breaking changes.
pub const SCHEMA: &str = "bench-v2";

/// A full suite run: the schema tag plus one row per cell.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchReport {
    /// Measured cells, in matrix order.
    pub cells: Vec<CellResult>,
}

impl CellResult {
    /// The row's one writer: every field's name and JSON text, in document
    /// order. Decimals are fixed at four places, so the text is byte-stable
    /// across runs and platforms.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        let s = |v: &str| format!("\"{v}\"");
        let n = |v: u64| v.to_string();
        let f = |v: f64| format!("{v:.4}");
        vec![
            ("id", s(self.id)),
            ("structure", s(self.structure)),
            ("drive", s(self.drive)),
            ("network", s(self.network)),
            ("protocol", s(self.protocol)),
            ("n_procs", n(self.n_procs)),
            ("ops", n(self.ops)),
            ("completed", n(self.completed)),
            ("makespan", n(self.makespan)),
            ("throughput_kops", f(self.throughput_kops)),
            ("lat_mean", f(self.lat_mean)),
            ("lat_p50", n(self.lat_p50)),
            ("lat_p95", n(self.lat_p95)),
            ("lat_p99", n(self.lat_p99)),
            ("lat_max", n(self.lat_max)),
            ("hops_mean", f(self.hops_mean)),
            ("msgs_total", n(self.msgs_total)),
            ("msgs_per_op", f(self.msgs_per_op)),
            ("remote_msgs_per_op", f(self.remote_msgs_per_op)),
            ("local_msgs_per_op", f(self.local_msgs_per_op)),
            ("splits", n(self.splits)),
            ("split_msgs", n(self.split_msgs)),
            ("msgs_per_split", f(self.msgs_per_split)),
            ("copies", n(self.copies)),
            ("paper_msgs_per_split", n(self.paper_msgs_per_split)),
            ("merges", n(self.merges)),
            ("live_nodes", n(self.live_nodes)),
            ("seg_queueing", f(self.seg_queueing)),
            ("seg_transit", f(self.seg_transit)),
            ("seg_service", f(self.seg_service)),
            ("seg_stall", f(self.seg_stall)),
            ("offpath_per_op", f(self.offpath_per_op)),
            ("profiled", n(self.profiled)),
            ("prof_skipped", n(self.prof_skipped)),
            ("prof_inexact", n(self.prof_inexact)),
            ("events_total", n(self.events_total)),
        ]
    }
}

impl BenchReport {
    /// The full `BENCH.json` document: schema tag + one flat object per
    /// cell, one cell per line.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"schema\":\"{SCHEMA}\",\"cells\":[\n");
        for (i, c) in self.cells.iter().enumerate() {
            let mut sep = '{';
            for (name, value) in c.fields() {
                let _ = write!(out, "{sep}\"{name}\":{value}");
                sep = ',';
            }
            out.push_str(if i + 1 < self.cells.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// The cell rows of a document written by [`BenchReport::to_json`].
pub fn rows(doc: &str) -> Result<Vec<Json>, String> {
    let doc = Json::parse(doc)?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} document"));
    }
    match doc.get("cells") {
        Some(Json::Arr(cells)) => Ok(cells.clone()),
        _ => Err("no \"cells\" array".to_string()),
    }
}

// ---------------------------------------------------------------------------
// The gate

/// One place where two documents disagree: a field of a cell, or (field
/// `"cell"`) a cell only one of them has.
#[derive(Clone, Debug, PartialEq)]
pub struct Diff {
    /// Which cell.
    pub cell: String,
    /// Which field.
    pub field: String,
    /// The baseline's value (`absent` if it has none).
    pub baseline: String,
    /// This run's value (`absent` if it has none).
    pub current: String,
}

impl std::fmt::Display for Diff {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Diff {
            cell,
            field,
            baseline,
            current,
        } = self;
        write!(fm, "{cell}: {field} — baseline {baseline}, now {current}")
    }
}

/// Every difference between two `BENCH.json` documents, cells joined on
/// `id`: a field whose value differs or that one side lacks, a baseline
/// cell this run did not produce, a cell the baseline does not know. The
/// cells are deterministic, so there is no tolerance — an intentional move
/// is `--update-baseline` in the same commit.
pub fn diff(current: &str, baseline: &str) -> Result<Vec<Diff>, String> {
    let show = |v: Option<&Json>| match v {
        None => "absent".to_string(),
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Num(n)) => n.to_string(),
        Some(Json::Float(x)) => format!("{x:.4}"),
        Some(other) => format!("{other:?}"),
    };
    let id = |row: &Json| show(row.get("id"));
    let (cur, base) = (rows(current)?, rows(baseline)?);
    let mut out = Vec::new();
    let mut differ = |cell: &str, field: &str, b: Option<&Json>, c: Option<&Json>| {
        if b != c {
            out.push(Diff {
                cell: cell.to_string(),
                field: field.to_string(),
                baseline: show(b),
                current: show(c),
            });
        }
    };
    for b in &base {
        let cell = id(b);
        let Some(c) = cur.iter().find(|c| c.get("id") == b.get("id")) else {
            differ(&cell, "cell", b.get("id"), None);
            continue;
        };
        for (name, value) in b.members() {
            differ(&cell, name, Some(value), c.get(name));
        }
        for (name, value) in c.members() {
            if b.get(name).is_none() {
                differ(&cell, name, None, Some(value));
            }
        }
    }
    for c in &cur {
        if !base.iter().any(|b| b.get("id") == c.get("id")) {
            differ(&id(c), "cell", None, c.get("id"));
        }
    }
    Ok(out)
}

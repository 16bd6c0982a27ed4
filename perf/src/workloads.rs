//! The six named workloads: how each cluster is assembled, driven and
//! checked. Everything here goes through the repo's public API
//! (`build_procs` → `SessionProc::new` → `Simulation::new` /
//! `threaded::Cluster::spawn_with` → `Driver::try_run_closed_loop`); the
//! list of items relied on is in `perf/README.md`.

use std::collections::HashMap;
use std::time::Instant;

use dbtree::{
    build_procs, BuildSpec, ClientOp, DbProc, DbProtocol, DriverStats, GlobalView, Intent, Msg,
    ProtocolKind, TreeConfig,
};
use simnet::threaded::Cluster;
use simnet::{
    Driver, FaultPlan, HealthConfig, NetStats, ObsConfig, ProcId, Process, Profiler, Runtime,
    SessionConfig, SessionMsg, SessionProc, SessionStats, SimConfig, Simulation,
};

use crate::alloc::{self, AllocSnapshot};
use crate::gen::{self, StreamSpec};
use crate::timed::{self, LayerAgg, TimedProc, TimedRuntime};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeKind {
    Sim,
    Threaded,
}

/// One workload: a cluster shape, an op stream and a drive window. Every
/// dB-tree workload is `ProtocolKind::SemiSync`, fanout 8, history off,
/// `SimConfig::jittery(seed, 2, 25)`, service time 0, closed loop.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    pub runtime: RuntimeKind,
    /// `TreeConfig::fixed_copies(.., copies)`.
    pub copies: usize,
    /// Keys `k * 10`, `k < preload`, are in the tree before the drive.
    pub preload: u64,
    pub stream: StreamSpec,
    /// Outstanding ops per origin processor.
    pub window: usize,
    /// Full obs stack: trace ring, sampler, gauges, watchdogs.
    pub obs: bool,
    /// `FaultPlan::lossy(0.03).with_dup(0.01)` under a reliable session.
    pub lossy: bool,
    /// `TreeConfig::record_history` (off everywhere but in one rung).
    pub history: bool,
    /// `SimConfig::max_events`: 20x the event count measured at seed 1, so
    /// a livelock ends as a counted failure and not as a hang.
    pub max_events: u64,
}

const TAG_SEARCH: u64 = 0x5EA2_C400_0000_0001;
const TAG_INSERT: u64 = 0x1253_2700_0000_0002;
const TAG_APPEND: u64 = 0xA99E_4D00_0000_0003;
const TAG_MIXED: u64 = 0x3175_ED00_0000_0004;

const fn sim(
    name: &'static str,
    why: &'static str,
    preload: u64,
    stream: StreamSpec,
    max_events: u64,
) -> Workload {
    Workload {
        name,
        why,
        runtime: RuntimeKind::Sim,
        copies: 3,
        preload,
        stream,
        window: 64,
        obs: false,
        lossy: false,
        history: false,
        max_events,
    }
}

const fn inserts(ops: usize) -> StreamSpec {
    StreamSpec {
        tag: TAG_INSERT,
        ops,
        procs: 64,
        key_range: 1_000_000,
        search_pct: 0,
    }
}

pub const WORKLOADS: [Workload; 6] = [
    sim(
        "sim-search",
        "Read path only: no splits, relays or store writes, so simulator runtime, session pass-through and driver carry their largest share; control for write-path, session and obs changes.",
        100_000,
        StreamSpec {
            tag: TAG_SEARCH,
            ops: 300_000,
            procs: 64,
            key_range: 1_000_000,
            search_pct: 100,
        },
        60_000_000,
    ),
    sim(
        "sim-insert",
        "Write path: core handlers and the node store do most of the work and all of the paper's lazy machinery (split.relay, insert.relay, link changes) runs.",
        100_000,
        inserts(200_000),
        60_000_000,
    ),
    sim(
        "sim-append",
        "Growth past the built tree (sequential-id pattern): right-link chases make events/op grow with run length, so protocol message cost, not runtime overhead, binds.",
        4_000,
        StreamSpec {
            tag: TAG_APPEND,
            ops: 40_000,
            procs: 64,
            key_range: 10_000_000,
            search_pct: 0,
        },
        60_000_000,
    ),
    Workload {
        obs: true,
        ..sim(
            "sim-traced",
            "sim-insert's stream cut to 60k ops with the full obs stack on (trace ring, sampler, gauges, watchdogs): the only workload where tracing cost is in the timed path.",
            100_000,
            inserts(60_000),
            20_000_000,
        )
    },
    Workload {
        lossy: true,
        ..sim(
            "sim-lossy",
            "sim-insert's stream cut to 100k ops under 3% loss and 1% duplication: the reliable session (seq/ack/go-back-N, retransmit timers) does most of the added work.",
            100_000,
            inserts(100_000),
            60_000_000,
        )
    },
    Workload {
        name: "thr-mixed",
        why: "The only wall-clock-parallel workload: 2 worker threads, 50/50 search/insert; inbox hand-off, wake-ups, the quiescence probe and shared locks are in play and the simulator core is not.",
        runtime: RuntimeKind::Threaded,
        copies: 2,
        preload: 100_000,
        stream: StreamSpec {
            tag: TAG_MIXED,
            ops: 200_000,
            procs: 2,
            key_range: 1_000_000,
            search_pct: 50,
        },
        window: 16,
        obs: false,
        lossy: false,
        history: false,
        max_events: 200_000_000,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// `--quick`: every size divided by ten.
    pub fn quick(mut self) -> Self {
        self.preload /= 10;
        self.stream.ops /= 10;
        self.stream.key_range /= 10;
        self
    }

    /// The same configuration and stream (cut to `ops`) on `Simulation`:
    /// where `thr-mixed` gets its virtual-time metrics, because threads have
    /// neither a virtual clock nor message accounting.
    pub fn sim_twin(mut self, ops: usize) -> Self {
        self.runtime = RuntimeKind::Sim;
        self.stream.ops = self.stream.ops.min(ops);
        self
    }

    /// The same stream with obs off (`sim-traced`'s control).
    pub fn without_obs(mut self) -> Self {
        self.obs = false;
        self
    }

    pub fn is_clean_sim(&self) -> bool {
        self.runtime == RuntimeKind::Sim && !self.lossy
    }
}

/// A process stack the benchmark can build around a `DbProc` and look
/// inside afterwards.
pub trait Stack: Process<Msg = SessionMsg<Msg>> + Send + Sized + 'static {
    const TRACED: bool;
    fn wrap(p: DbProc, session: SessionConfig, lane: u32, epoch: Instant) -> Self;
    fn db(&self) -> &DbProc;
    fn session_stats(&self) -> &SessionStats;
    /// `(session handler spans, core handler spans)` when traced.
    fn layers(&self) -> Option<(&LayerAgg, &LayerAgg)>;
}

/// What the end-to-end pass runs: exactly what `DbCluster` builds.
pub type Plain = SessionProc<DbProc>;

/// What the traced pass runs.
pub type Traced = TimedProc<SessionProc<TimedProc<DbProc>>>;

impl Stack for Plain {
    const TRACED: bool = false;
    fn wrap(p: DbProc, session: SessionConfig, _lane: u32, _epoch: Instant) -> Self {
        SessionProc::new(p, session)
    }
    fn db(&self) -> &DbProc {
        self.inner()
    }
    fn session_stats(&self) -> &SessionStats {
        SessionProc::session_stats(self)
    }
    fn layers(&self) -> Option<(&LayerAgg, &LayerAgg)> {
        None
    }
}

impl Stack for Traced {
    const TRACED: bool = true;
    fn wrap(p: DbProc, session: SessionConfig, lane: u32, epoch: Instant) -> Self {
        let core = TimedProc::new(p, "core", 3, lane, epoch);
        TimedProc::new(SessionProc::new(core, session), "session", 2, lane, epoch)
    }
    fn db(&self) -> &DbProc {
        self.inner().inner().inner()
    }
    fn session_stats(&self) -> &SessionStats {
        self.inner().session_stats()
    }
    fn layers(&self) -> Option<(&LayerAgg, &LayerAgg)> {
        Some((self.agg(), self.inner().inner().agg()))
    }
}

/// A runtime the benchmark can read counters from and tear down.
pub trait Rt: Runtime {
    /// `(events_delivered, NetStats)`: the simulator has them, threads do
    /// not.
    fn sim_counters(&self) -> Option<(u64, NetStats)>;
    /// `into_procs()`, plus the runtime-call spans if this runtime is timed.
    fn finish(self) -> (Vec<Self::Proc>, Option<LayerAgg>);
}

impl<P: Process> Rt for Simulation<P> {
    fn sim_counters(&self) -> Option<(u64, NetStats)> {
        Some((self.events_delivered(), self.stats().clone()))
    }
    fn finish(self) -> (Vec<P>, Option<LayerAgg>) {
        (self.into_procs(), None)
    }
}

impl<P> Rt for Cluster<P>
where
    P: Process + Send + 'static,
    P::Msg: Send + 'static,
{
    fn sim_counters(&self) -> Option<(u64, NetStats)> {
        None
    }
    fn finish(self) -> (Vec<P>, Option<LayerAgg>) {
        (Runtime::into_procs(self), None)
    }
}

impl<R: Rt> Rt for TimedRuntime<R> {
    fn sim_counters(&self) -> Option<(u64, NetStats)> {
        self.inner().sim_counters()
    }
    fn finish(self) -> (Vec<R::Proc>, Option<LayerAgg>) {
        let (procs, agg) = TimedRuntime::finish(self);
        (procs, Some(agg))
    }
}

/// Message and event counts over the drive (simulator only; exact on
/// repeat).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub events: u64,
    pub msgs: u64,
    pub acks: u64,
    pub relay_msgs: u64,
    pub split_remote: u64,
}

/// The three span layers of a traced repetition plus allocator counts.
#[derive(Clone, Debug)]
pub struct TraceParts {
    pub runtime: LayerAgg,
    pub session: LayerAgg,
    pub core: LayerAgg,
    /// Allocations and bytes over the drive alone; peak net live bytes
    /// over the whole repetition (cluster included).
    pub alloc: AllocSnapshot,
}

/// What the obs stack cost after the run (`sim-traced`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ObsCost {
    pub records: u64,
    pub dropped: u64,
    pub export_s: f64,
    pub profile_s: f64,
}

/// Everything one repetition measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub drive_s: f64,
    /// Seconds one reference pass took around this repetition (filled in by
    /// the end-to-end pass; see `reference.rs`).
    pub ref_s: f64,
    /// `spawn_with` alone (threaded; part of `setup_s`).
    pub spawn_s: f64,
    /// `into_procs()`.
    pub teardown_s: f64,
    pub submitted: u64,
    /// Ops that completed *and* verified.
    pub verified: u64,
    /// A `QuiesceError`, or the first few verification failures.
    pub errors: Vec<String>,
    /// Interpolated latency quantiles in runtime ticks (virtual on the
    /// simulator, wall-clock microseconds on threads) and their sample
    /// count.
    pub lat_p50: f64,
    pub lat_p99: f64,
    pub lat_n: u64,
    pub hops_mean: f64,
    pub chases: u64,
    pub sim: Option<SimCounts>,
    pub splits: u64,
    pub retransmits: u64,
    pub live_nodes: u64,
    pub store_imbalance: f64,
    pub trace: Option<TraceParts>,
    pub obs: Option<ObsCost>,
}

impl Rep {
    pub fn failed(&self) -> u64 {
        self.submitted - self.verified
    }

    /// Everything that must repeat bit-for-bit on the simulator under one
    /// seed (floats by their bits).
    pub fn exact(&self) -> impl PartialEq + std::fmt::Debug {
        (
            (self.sim, self.splits, self.chases, self.retransmits),
            (self.live_nodes, self.lat_n, self.verified),
            [
                self.lat_p50,
                self.lat_p99,
                self.hops_mean,
                self.store_imbalance,
            ]
            .map(f64::to_bits),
        )
    }

    /// Remote `split.*` messages per split: the paper's R − 1.
    pub fn msgs_per_split(&self) -> f64 {
        self.sim
            .map_or(0.0, |c| c.split_remote as f64 / self.splits.max(1) as f64)
    }
}

/// One repetition of `w` on a freshly built cluster, with the stack `S`
/// around every processor (and, when `S` is traced, `TimedRuntime` around
/// the runtime).
pub fn repetition<S: Stack>(w: &Workload, seed: u64) -> Rep {
    if S::TRACED {
        alloc::start();
    }
    let epoch = Instant::now();
    let ops = gen::stream(&w.stream, seed);
    let mut cfg = TreeConfig::fixed_copies(ProtocolKind::SemiSync, w.copies);
    cfg.fanout = 8;
    cfg.record_history = w.history;
    let spec = BuildSpec::new(gen::preload_keys(w.preload), w.stream.procs, cfg);
    // The history log is shared by the processors; nothing here reads it.
    let (procs, _log) = build_procs(&spec);
    let session = if w.lossy {
        SessionConfig::reliable()
    } else {
        SessionConfig::default()
    };
    let procs: Vec<S> = procs
        .into_iter()
        .enumerate()
        .map(|(i, p)| S::wrap(p, session, i as u32, epoch))
        .collect();
    let mut rep = match w.runtime {
        RuntimeKind::Sim => {
            let mut sc = SimConfig::jittery(seed, 2, 25);
            sc.max_events = w.max_events;
            if w.lossy {
                sc.faults = FaultPlan::lossy(0.03).with_dup(0.01);
            }
            if w.obs {
                sc.trace_capacity = 65_536;
                sc.sample_interval = 50;
                sc.health = HealthConfig::watchdogs();
            }
            launch(w, Simulation::new(sc, procs), &ops, epoch, 0.0)
        }
        RuntimeKind::Threaded => {
            let t = Instant::now();
            let rt = Cluster::spawn_with(procs, ObsConfig::default());
            launch(w, rt, &ops, epoch, t.elapsed().as_secs_f64())
        }
    };
    if let Some(t) = rep.trace.as_mut() {
        t.alloc.peak_live = alloc::snapshot().peak_live;
        alloc::stop();
    }
    rep
}

/// Drive on `rt` as it is, or inside `TimedRuntime` when its processes are
/// the traced stack.
fn launch<R>(w: &Workload, rt: R, ops: &[ClientOp], epoch: Instant, spawn_s: f64) -> Rep
where
    R: Rt,
    R::Proc: Stack,
{
    if <R::Proc as Stack>::TRACED {
        drive(w, TimedRuntime::new(rt, epoch), ops, epoch, spawn_s)
    } else {
        drive(w, rt, ops, epoch, spawn_s)
    }
}

fn drive<R>(w: &Workload, mut rt: R, ops: &[ClientOp], epoch: Instant, spawn_s: f64) -> Rep
where
    R: Rt,
    R::Proc: Stack,
{
    let mut driver: Driver<DbProtocol> = Driver::new();
    let before = rt.sim_counters();
    let setup_s = epoch.elapsed().as_secs_f64();

    timed::begin_drive();
    let alloc0 = alloc::snapshot();
    let t = Instant::now();
    let result = driver.try_run_closed_loop(&mut rt, ops, w.window);
    let drive_s = t.elapsed().as_secs_f64();
    let alloc1 = alloc::snapshot();
    timed::end_drive();

    let sim = before.zip(rt.sim_counters()).map(|((e0, s0), (e1, s1))| {
        let d = s1.delta_since(&s0);
        SimCounts {
            events: e1 - e0,
            msgs: d.total_messages(),
            acks: d.kind("session.ack").total(),
            relay_msgs: d.kind("insert.relay").total() + d.kind("split.relay").total(),
            split_remote: d.remote_matching(|k| k.starts_with("split.")),
        }
    });
    let obs = w.obs.then(|| obs_cost(&mut rt, result.as_ref().ok()));

    let t = Instant::now();
    let (procs, runtime_agg) = rt.finish();
    let teardown_s = t.elapsed().as_secs_f64();

    let mut rep = Rep {
        setup_s,
        drive_s,
        spawn_s,
        teardown_s,
        submitted: ops.len() as u64,
        sim,
        obs,
        ..Rep::default()
    };
    let mut session = SessionStats::default();
    let mut copies: Vec<u64> = Vec::with_capacity(procs.len());
    for p in &procs {
        session.merge(p.session_stats());
        rep.splits += p.db().metrics.splits_initiated;
        copies.push(p.db().store.len() as u64);
    }
    rep.retransmits = session.retransmissions;
    rep.live_nodes = copies.iter().sum();
    let mean = rep.live_nodes as f64 / copies.len() as f64;
    rep.store_imbalance = copies.iter().copied().max().unwrap_or(0) as f64 / mean;

    if let Some(runtime) = runtime_agg {
        let mut s = LayerAgg::default();
        let mut c = LayerAgg::default();
        for p in &procs {
            let (ps, pc) = p.layers().expect("a timed runtime runs timed processes");
            s.merge(ps);
            c.merge(pc);
        }
        rep.trace = Some(TraceParts {
            runtime,
            session: s,
            core: c,
            alloc: AllocSnapshot {
                count: alloc1.count - alloc0.count,
                bytes: alloc1.bytes - alloc0.bytes,
                // Read when the repetition ends.
                peak_live: 0,
            },
        });
    }

    match result {
        Ok(stats) => {
            let mut lat: Vec<u64> = stats.records.iter().map(|r| r.latency()).collect();
            lat.sort_unstable();
            rep.lat_n = lat.len() as u64;
            rep.lat_p50 = quantile(&lat, 0.50);
            rep.lat_p99 = quantile(&lat, 0.99);
            rep.hops_mean = stats.mean_hops();
            rep.chases = stats.total_chases();
            let view = GlobalView::from_procs(
                procs
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (ProcId(i as u32), p.db())),
            );
            let bad = verify(w, ops, &stats, &view, &mut rep.errors);
            rep.verified = rep.submitted.saturating_sub(bad);
        }
        Err(e) => {
            // Nothing of a run that tripped a limit can be trusted.
            rep.errors.push(format!("{}: {e}", w.name));
        }
    }
    if w.is_clean_sim() && rep.splits > 0 && rep.msgs_per_split() != (w.copies - 1) as f64 {
        rep.errors.push(format!(
            "{}: {} remote split.* messages per split, the paper's R - 1 is {}",
            w.name,
            rep.msgs_per_split(),
            w.copies - 1
        ));
    }
    rep
}

/// What a user of the obs stack pays after the run: taking the capture,
/// exporting it, and reconstructing critical paths from it.
fn obs_cost<R: Rt>(rt: &mut R, stats: Option<&DriverStats>) -> ObsCost {
    let t = Instant::now();
    let obs = rt.take_obs();
    let exported = obs.trace_jsonl().len() + obs.series_jsonl().len();
    let export_s = t.elapsed().as_secs_f64();
    std::hint::black_box(exported);
    let t = Instant::now();
    if let Some(stats) = stats {
        std::hint::black_box(Profiler::default().profile_stats(&obs.trace, stats));
    }
    ObsCost {
        records: obs.trace.len() as u64,
        dropped: obs.trace.dropped(),
        export_s,
        profile_s: t.elapsed().as_secs_f64(),
    }
}

/// The `q`-quantile of integer samples, interpolated inside the one-tick
/// bin it falls in (the grouped-data estimator), so the figure moves
/// continuously with the distribution instead of in whole ticks.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q * sorted.len() as f64;
    let v = sorted[(rank as usize).min(sorted.len() - 1)];
    let below = sorted.partition_point(|&x| x < v);
    let upto = sorted.partition_point(|&x| x <= v);
    v as f64 - 0.5 + (rank - below as f64) / (upto - below) as f64
}

/// Check one repetition's outputs; returns how many ops failed and appends
/// the first few reasons to `errors`.
///
/// * every submitted op has exactly one record;
/// * every acknowledged insert is findable by root navigation over the
///   final stores, with the value written (a key written more than once
///   must hold one of the values written: replicated leaves order writes by
///   stamp, not by wall time);
/// * every preloaded key is still there;
/// * a search of a preloaded key reports a hit, a search of a key nothing
///   ever wrote reports a miss, and any value reported is one that was
///   written. A search that follows an acknowledged insert of a *new* key
///   may still miss: replicated leaves are updated lazily, and the relay may
///   not have reached the copy the search reads (it does happen, on the
///   simulator, within a tick or two of the acknowledgement).
fn verify(
    w: &Workload,
    ops: &[ClientOp],
    stats: &DriverStats,
    view: &GlobalView<'_>,
    errors: &mut Vec<String>,
) -> u64 {
    let mut bad = 0u64;
    let mut fail = |msg: String| {
        bad += 1;
        if errors.len() < 8 {
            errors.push(format!("{}: {msg}", w.name));
        }
    };

    // Records against submissions, as sorted multisets.
    let key_of = |op: &ClientOp| {
        let v = match op.intent {
            Intent::Insert(v) => v,
            _ => 0,
        };
        (op.origin.0, op.key, v)
    };
    let mut want: Vec<_> = ops.iter().map(key_of).collect();
    let mut got: Vec<_> = stats.records.iter().map(|r| key_of(&r.op)).collect();
    want.sort_unstable();
    got.sort_unstable();
    let mut g = got.iter().peekable();
    for op in &want {
        while g.next_if(|r| *r < op).is_some() {}
        if g.next_if_eq(&op).is_none() {
            fail(format!("no record for op (origin, key, value) {op:?}"));
        }
    }

    // key → value of every acknowledged insert.
    let mut writes: HashMap<u64, Vec<u64>> = HashMap::new();
    for r in &stats.records {
        if let Intent::Insert(v) = r.op.intent {
            writes.entry(r.op.key).or_default().push(v);
        }
    }
    let mut keys: Vec<&u64> = writes.keys().collect();
    keys.sort_unstable();
    for key in keys {
        let written = &writes[key];
        match view.find(*key) {
            Some(v) if written.contains(&v) => {}
            found => fail(format!(
                "key {key}: wrote {written:?}, final tree holds {found:?}"
            )),
        }
    }
    for key in gen::preload_keys(w.preload) {
        if !writes.contains_key(&key) && view.find(key) != Some(key) {
            fail(format!("preloaded key {key} lost"));
        }
    }

    for r in &stats.records {
        if r.op.intent != Intent::Search {
            continue;
        }
        let key = r.op.key;
        let preloaded = gen::is_preloaded(key, w.preload);
        let written = writes.get(&key).map_or(&[][..], |v| &v[..]);
        let ok = match r.outcome.found {
            Some(v) => (preloaded && v == key) || written.contains(&v),
            None => !preloaded,
        };
        if !ok {
            fail(format!(
                "search {key} found {:?}; preloaded {preloaded}, writes {written:?}",
                r.outcome.found
            ));
        }
    }
    bad
}

//! The simulator's two-phase ticks, differentially: a dB-tree whose
//! processes declare themselves isolated (history off) runs its busy ticks'
//! actions on two cores, and the same cluster wrapped so that it declares
//! shared state delivers one event at a time. Both runs must commit the same
//! history — op records, message statistics, delivery count, trace and
//! series exports, final processor states — clean, lossy under the
//! reliable session, across a crash and restart, and with the full obs
//! stack on.

use dbtree::{BuildSpec, ClientOp, DbProc, DbProtocol, Intent, Msg, ProtocolKind, TreeConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simnet::{
    Context, CrashEvent, Driver, FaultPlan, HealthConfig, ProcId, Process, SessionConfig,
    SessionMsg, SessionProc, SimConfig, SimTime, Simulation,
};

const PROCS: u32 = 64;
const OPS: usize = 20_000;
const CRASHED: ProcId = ProcId(5);

type Node = SessionProc<DbProc>;

/// `P` with every handler and read forwarded, declaring shared state (the
/// default `isolated`): the run stays on one core.
struct Shared<P>(P);

impl<P: Process> Process for Shared<P> {
    type Msg = P::Msg;
    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.0.on_start(ctx)
    }
    fn on_message(&mut self, ctx: &mut Context<'_, P::Msg>, from: ProcId, msg: P::Msg) {
        self.0.on_message(ctx, from, msg)
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, P::Msg>, token: u64) {
        self.0.on_timer(ctx, token)
    }
    fn on_restart(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.0.on_restart(ctx)
    }
    fn on_peer_change(&mut self, ctx: &mut Context<'_, P::Msg>, peer: ProcId, up: bool) {
        self.0.on_peer_change(ctx, peer, up)
    }
    fn metrics(&self) -> Vec<(&'static str, u64)> {
        self.0.metrics()
    }
    fn metrics_into(&self, out: &mut Vec<(&'static str, u64)>) {
        self.0.metrics_into(out)
    }
    fn take_moved(&mut self, out: Option<&mut Vec<(&'static str, u64)>>) -> bool {
        self.0.take_moved(out)
    }
    fn gauges(&self, now: SimTime) -> Vec<(&'static str, u64)> {
        self.0.gauges(now)
    }
    fn fingerprint(&self) -> Option<u64> {
        self.0.fingerprint()
    }
}

#[derive(Clone, Copy, Debug)]
enum Case {
    Clean,
    Lossy,
    Crash,
    Obs,
}

/// Everything a run commits, as text.
#[derive(Debug, PartialEq, Eq)]
struct Committed {
    records: String,
    stats: String,
    delivered: u64,
    trace: String,
    series: String,
    alerts: String,
    fingerprints: Vec<Option<u64>>,
}

fn ops(seed: u64) -> Vec<ClientOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..OPS)
        .map(|i| {
            let mut origin = ProcId(i as u32 % PROCS);
            if origin == CRASHED {
                // Clients avoid the processor the crash case takes down: an
                // injection into a down processor is lost.
                origin = ProcId(0);
            }
            ClientOp {
                origin,
                key: rng.gen_range(0..1_000_000u64),
                intent: Intent::Insert(rng.gen_range(0..1_000_000u64)),
            }
        })
        .collect()
}

fn config(case: Case, seed: u64) -> (SimConfig, SessionConfig) {
    let mut sim = SimConfig::jittery(seed, 2, 25);
    let mut session = SessionConfig::default();
    match case {
        Case::Clean => {}
        Case::Lossy => {
            sim.faults = FaultPlan::lossy(0.03).with_dup(0.01);
            session = SessionConfig::reliable();
        }
        Case::Crash => {
            sim.faults = FaultPlan::none().with_crash(CrashEvent {
                proc: CRASHED,
                at: SimTime(120),
                restart_at: Some(SimTime(260)),
            });
            session = SessionConfig::reliable();
        }
        Case::Obs => {
            sim.trace_capacity = 1 << 16;
            sim.sample_interval = 50;
            sim.health = HealthConfig::watchdogs();
        }
    }
    (sim, session)
}

/// Drive the insert stream on `P = wrap(SessionProc<DbProc>)`; `unwrap`
/// gets the dB-tree process back for its fingerprint.
fn run<P: Process<Msg = SessionMsg<Msg>>>(
    case: Case,
    seed: u64,
    wrap: impl Fn(Node) -> P,
    unwrap: impl Fn(&P) -> &DbProc,
) -> (Committed, u64) {
    let mut cfg = TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3);
    cfg.fanout = 8;
    cfg.record_history = false;
    let preload = (0..20_000u64).map(|k| k * 50).collect();
    let (procs, _log) = dbtree::build_procs(&BuildSpec::new(preload, PROCS, cfg));
    let (sim_cfg, session) = config(case, seed);
    let procs = procs
        .into_iter()
        .map(|p| wrap(SessionProc::new(p, session)))
        .collect();
    let mut sim = Simulation::new(sim_cfg, procs);
    let mut driver: Driver<DbProtocol> = Driver::new();
    let stats = driver
        .try_run_closed_loop(&mut sim, &ops(seed), 64)
        .unwrap_or_else(|e| panic!("{case:?}: the drive failed: {e:?}"));
    assert_eq!(stats.records.len(), OPS, "{case:?}: every op completes");
    let obs = sim.take_obs();
    let parallel = sim.parallel_ticks();
    let committed = Committed {
        records: format!("{:?}", stats.records),
        stats: sim.stats().to_string(),
        delivered: sim.events_delivered(),
        trace: obs.trace_jsonl(),
        series: obs.series_jsonl(),
        alerts: obs.alerts_jsonl(),
        fingerprints: sim
            .into_procs()
            .iter()
            .map(|p| unwrap(p).fingerprint())
            .collect(),
    };
    (committed, parallel)
}

fn differential(case: Case, seed: u64) {
    let (isolated, parallel) = run(case, seed, |p| p, |p| p.inner());
    let (shared, serial) = run(case, seed, Shared, |p| p.0.inner());
    assert_eq!(
        serial, 0,
        "{case:?}: a process that shares state runs on one core"
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores > 1 {
        assert!(parallel > 0, "{case:?}: no tick ran on two cores");
    }
    if matches!(case, Case::Obs) {
        assert!(!isolated.trace.is_empty() && !isolated.series.is_empty());
    }
    // Field by field, so a mismatch names what moved.
    assert_eq!(isolated.records, shared.records, "{case:?}: op records");
    assert_eq!(isolated.stats, shared.stats, "{case:?}: NetStats");
    assert_eq!(isolated.delivered, shared.delivered, "{case:?}: deliveries");
    assert!(isolated.trace == shared.trace, "{case:?}: trace export");
    assert!(isolated.series == shared.series, "{case:?}: series export");
    assert_eq!(isolated.alerts, shared.alerts, "{case:?}: alerts");
    assert_eq!(
        isolated.fingerprints, shared.fingerprints,
        "{case:?}: final states"
    );
}

#[test]
fn clean_run_commits_what_one_core_commits() {
    differential(Case::Clean, 1);
}

#[test]
fn lossy_run_under_the_reliable_session_commits_what_one_core_commits() {
    differential(Case::Lossy, 7);
}

#[test]
fn crash_and_restart_commit_what_one_core_commits() {
    differential(Case::Crash, 3);
}

#[test]
fn observed_run_exports_what_one_core_exports() {
    differential(Case::Obs, 1);
}

//! Trace equivalence across runtimes: the same sequential workload must
//! yield the same *causal hop-chain* per operation on the deterministic
//! simulator and on real OS threads — reconstructed from each runtime's
//! JSONL trace export, so the test also proves an injected operation is
//! reconstructible end-to-end from the export alone.
//!
//! Operations are driven one at a time to quiescence, so the message flow
//! is schedule-independent (the protocol draws no randomness): both
//! substrates must emit, per span, the same multiset of
//! `(event, kind, from, to)` records. Times, waits, and interleavings are
//! substrate-specific and deliberately excluded.

use std::collections::BTreeMap;

use dbtree::{DbCluster, ThreadedDbCluster};
use simnet::threaded::Cluster;
use simnet::{
    CrashEvent, FaultPlan, HealthConfig, ObsConfig, ProcId, SessionConfig, SimConfig, SimTime,
    Simulation, TraceEvent,
};
// Deployment and burst are shared with the explorer's perturbed-schedule
// suite via `testkit`, so both suites reconstruct the very same operations.
use testkit::{split_burst_ops as ops, split_burst_spec as spec, TRACE_CAP, TRACE_SEED};

/// Pull one JSON field's raw value out of a trace line (the export is
/// hand-rolled, so the consumer side is too — no serde in this repo).
fn field<'a>(line: &'a str, name: &str) -> &'a str {
    let tag = format!("\"{name}\":");
    let start = line.find(&tag).expect("field present") + tag.len();
    let rest = &line[start..];
    if let Some(r) = rest.strip_prefix('"') {
        &r[..r.find('"').expect("closing quote")]
    } else {
        let end = rest.find([',', '}']).expect("value terminator");
        &rest[..end]
    }
}

/// Reconstruct each operation's hop-chain from the JSONL export: span →
/// sorted multiset of `(event, kind, from, to)`. Timer entries are
/// substrate-paced and carry no span; they never appear here.
fn chains(jsonl: &str) -> BTreeMap<i64, Vec<(String, String, i64, i64)>> {
    let mut map: BTreeMap<i64, Vec<(String, String, i64, i64)>> = BTreeMap::new();
    for line in jsonl.lines() {
        let span = field(line, "span");
        if span == "null" {
            continue;
        }
        map.entry(span.parse().expect("span is an integer"))
            .or_default()
            .push((
                field(line, "event").to_string(),
                field(line, "kind").to_string(),
                field(line, "from").parse().expect("from is an integer"),
                field(line, "to").parse().expect("to is an integer"),
            ));
    }
    for chain in map.values_mut() {
        chain.sort_unstable();
    }
    map
}

fn drive<R>(cluster: &mut DbCluster<R>) -> String
where
    R: simnet::Runtime<Proc = simnet::SessionProc<dbtree::DbProc>>,
{
    for op in ops() {
        cluster.submit(op);
        cluster.try_run_to_quiescence().expect("run quiesces");
    }
    let obs = cluster.take_obs();
    assert_eq!(obs.trace.dropped(), 0, "capacity must hold the run");
    obs.trace.to_jsonl()
}

#[test]
fn hop_chains_identical_across_runtimes() {
    let mut sim_cfg = SimConfig::seeded(TRACE_SEED);
    sim_cfg.trace_capacity = TRACE_CAP;
    let mut sim = DbCluster::build(&spec(), sim_cfg);
    let sim_chains = chains(&drive(&mut sim));

    let mut thr = ThreadedDbCluster::build_threaded_with_obs(
        &spec(),
        SessionConfig::default(),
        ObsConfig::traced(TRACE_CAP),
    );
    let thr_chains = chains(&drive(&mut thr));

    assert_eq!(
        sim_chains.keys().collect::<Vec<_>>(),
        thr_chains.keys().collect::<Vec<_>>(),
        "both runtimes traced the same operations"
    );
    for (span, sim_chain) in &sim_chains {
        assert_eq!(
            sim_chain, &thr_chains[span],
            "operation {span}: hop-chains diverge across runtimes"
        );
    }

    // The chains are not vacuous: every op begins with its injected client
    // delivery and ends with a reply leaving the system...
    for (span, chain) in &sim_chains {
        assert!(
            chain
                .iter()
                .any(|(ev, kind, from, _)| ev == "deliver" && kind == "client" && *from == -1),
            "op {span}: injected client delivery missing from the chain"
        );
        assert!(
            chain.iter().any(|(ev, kind, _, to)| ev == "output"
                && (kind == "done" || kind == "scan.result")
                && *to == -1),
            "op {span}: completion output missing from the chain"
        );
    }
    // ...and the split cascade is causally attributed to the insert that
    // triggered it, even though split payloads never name an operation.
    assert!(
        sim_chains.values().any(|chain| chain
            .iter()
            .any(|(_, kind, _, _)| kind.starts_with("split."))),
        "no span inherited the split it caused"
    );
    assert!(
        sim_chains
            .values()
            .any(|chain| chain.iter().any(|(_, kind, _, _)| kind == "insert.relay")),
        "no span carried its relays"
    );
}

// ---------------------------------------------------------------------------
// The entries that are not actions — a crash marker, a crash-drop, an output,
// a watchdog alert — come from one recorder on both runtimes; below the tree
// protocols, a two-processor relay produces one of each on either substrate.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Note {
    Ask(u64),
    Fwd(u64),
    Echo(u64),
}

impl simnet::Payload for Note {
    fn kind(&self) -> &'static str {
        match self {
            Note::Ask(_) => "ask",
            Note::Fwd(_) => "fwd",
            Note::Echo(_) => "echo",
        }
    }
    fn span(&self) -> Option<u64> {
        let (Note::Ask(n) | Note::Fwd(n) | Note::Echo(n)) = self;
        Some(*n)
    }
}

/// Answers a client's `Ask` with an `Echo` and forwards it to P1 — which
/// the test has crashed. Once it has seen a message it reports a parked
/// write far past the watchdog's bound.
struct Relay {
    seen: u64,
}

impl simnet::Process for Relay {
    type Msg = Note;
    fn on_message(&mut self, ctx: &mut simnet::Context<'_, Note>, _from: ProcId, msg: Note) {
        self.seen += 1;
        if let Note::Ask(n) = msg {
            ctx.send(ProcId::EXTERNAL, Note::Echo(n));
            ctx.send(ProcId(1), Note::Fwd(n));
        }
    }
    fn metrics(&self) -> Vec<(&'static str, u64)> {
        vec![("seen", self.seen)]
    }
    fn gauges(&self, _now: SimTime) -> Vec<(&'static str, u64)> {
        vec![("proc.parked_dwell", 10_000 * self.seen.min(1))]
    }
}

/// Every field of the entries that are not actions, times aside (`seq`,
/// `at`, `wait` belong to the substrate), sorted: the crash marker is
/// recorded by the crashed worker's own thread, whenever it gets there.
fn non_action_entries(obs: &simnet::Obs) -> Vec<String> {
    let mut entries: Vec<String> = obs
        .trace
        .iter()
        .filter(|e| !matches!(e.event, TraceEvent::Deliver | TraceEvent::Timer))
        .map(|e| {
            format!(
                "{} {} {}->{} span={:?} redelivery={} detail={:?} deltas={:?}",
                e.event.as_str(),
                e.kind,
                e.from,
                e.to,
                e.span,
                e.redelivery,
                e.detail(),
                e.deltas
            )
        })
        .collect();
    entries.sort_unstable();
    entries
}

#[test]
fn crash_drop_output_and_alert_entries_identical_across_runtimes() {
    let relays = || vec![Relay { seen: 0 }, Relay { seen: 0 }];
    let health = HealthConfig::watchdogs();

    let crash = CrashEvent {
        proc: ProcId(1),
        at: SimTime(1),
        restart_at: None,
    };
    let mut sim = Simulation::new(
        SimConfig {
            trace_capacity: TRACE_CAP,
            sample_interval: 1,
            health,
            faults: FaultPlan::none().with_crash(crash),
            ..SimConfig::seeded(TRACE_SEED)
        },
        relays(),
    );
    sim.inject_at(SimTime(5), ProcId(0), Note::Ask(7));
    sim.run();
    let sim_obs = sim.take_obs();

    let obs_cfg = ObsConfig {
        trace_capacity: TRACE_CAP,
        sample_interval: 1,
        health,
    };
    let mut thr = Cluster::spawn_with(relays(), obs_cfg);
    // The crash is in P1's queue before the `Ask` that makes P0 send to it
    // is even injected.
    thr.crash(ProcId(1));
    thr.inject(ProcId(0), Note::Ask(7));
    simnet::Runtime::settle(&mut thr).expect("settles");
    let thr_obs = thr.take_obs();
    thr.shutdown();

    let expected = [
        "alert parked_write_stall P0->P0 span=None redelivery=false \
         detail=\"rule=parked_write_stall value=10000 threshold=5000 windows=1\" deltas=[]",
        "crash fault.crash P1->P1 span=None redelivery=false detail=\"\" deltas=[]",
        "drop fwd P0->P1 span=Some(7) redelivery=false detail=\"crash\" deltas=[]",
        "output echo P0->P(ext) span=Some(7) redelivery=false detail=\"Echo(7)\" deltas=[]",
    ];
    assert_eq!(non_action_entries(&sim_obs), expected);
    assert_eq!(non_action_entries(&thr_obs), expected);
    // The alert stream agrees with the trace on both: one alert, same
    // verdict, at whatever time each substrate's clock read.
    let verdicts =
        |obs: &simnet::Obs| -> Vec<String> { obs.alerts.iter().map(|a| a.detail()).collect() };
    assert_eq!(verdicts(&sim_obs), verdicts(&thr_obs));
    assert_eq!(sim_obs.alerts.len(), 1);
}

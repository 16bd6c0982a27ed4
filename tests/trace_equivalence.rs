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
use simnet::{ObsConfig, SessionConfig, SimConfig};
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

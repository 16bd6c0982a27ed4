//! Cross-crate integration: the distributed dB-tree checked against a
//! sequential oracle, across every protocol and placement.
//!
//! The oracle is the `blink` crate's sequential B-link tree (and a plain
//! `BTreeMap`): after the distributed run quiesces, every key the oracle
//! holds must be findable in the dB-tree with the same value, and scans of
//! the leaf chain must produce the oracle's key order.

use std::collections::BTreeMap;

use blink::BLinkTree;
use dbtree::{
    checker, BuildSpec, ClientOp, DbCluster, Entry, GlobalView, Intent, Placement, ProtocolKind,
    TreeConfig,
};
use simnet::{ProcId, SimConfig};
use workload::{KeyDist, Mix, WorkloadGen};

fn all_protocol_configs() -> Vec<TreeConfig> {
    vec![
        TreeConfig::default(),
        TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3),
        TreeConfig::fixed_copies(ProtocolKind::Sync, 3),
        TreeConfig::fixed_copies(ProtocolKind::AvailableCopies, 3),
        TreeConfig {
            piggyback: Some(dbtree::PiggybackCfg::default()),
            ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 4)
        },
        TreeConfig {
            placement: Placement::Uniform { copies: 1 },
            ..Default::default()
        },
    ]
}

#[test]
fn dbtree_agrees_with_sequential_oracle() {
    for (ci, cfg) in all_protocol_configs().into_iter().enumerate() {
        let preload: Vec<u64> = (0..150).map(|k| k * 7).collect();
        let spec = BuildSpec::new(preload.clone(), 4, cfg.clone());
        let mut cluster = DbCluster::build(&spec, SimConfig::jittery(ci as u64, 2, 20));

        // Oracle state.
        let mut oracle: BTreeMap<u64, u64> = preload.iter().map(|&k| (k, k)).collect();
        let mut blink_oracle = BLinkTree::new(cfg.fanout);
        for &k in &preload {
            blink_oracle.insert(k, k);
        }

        // Insert phase (values distinct from keys to catch mixups).
        let mut gen = WorkloadGen::new(
            KeyDist::Uniform { n: 3000 },
            Mix::INSERT_ONLY,
            4,
            99 + ci as u64,
        );
        let ops: Vec<ClientOp> = gen
            .batch(400)
            .iter()
            .map(|op| {
                oracle.insert(op.key, op.value);
                blink_oracle.insert(op.key, op.value);
                ClientOp {
                    origin: ProcId(op.origin),
                    key: op.key,
                    intent: Intent::Insert(op.value),
                }
            })
            .collect();
        cluster
            .try_run_closed_loop(&ops, 4)
            .expect("workload drains");

        // NOTE: concurrent inserts to the same key may overwrite each other
        // in either order; restrict the value check to keys written once.
        let mut write_counts: BTreeMap<u64, usize> = BTreeMap::new();
        for op in &ops {
            *write_counts.entry(op.key).or_default() += 1;
        }

        let view = GlobalView::new(&cluster.sim);
        for (&k, &v) in &oracle {
            let got = view.find(k);
            assert!(
                got.is_some(),
                "config {ci}: key {k} lost (protocol {:?})",
                cfg.protocol
            );
            if write_counts.get(&k).copied().unwrap_or(0) <= 1 {
                assert_eq!(got, Some(v), "config {ci}: key {k} has wrong value");
            }
        }

        // Leaf-chain order agrees with the sequential oracle's scan.
        let mut chain_keys: Vec<u64> = Vec::new();
        {
            let mut leaves: Vec<_> = view
                .copies
                .values()
                .filter_map(|v| v.first().map(|(_, c)| *c))
                .filter(|c| c.is_leaf())
                .collect();
            leaves.sort_by_key(|c| c.low);
            for leaf in leaves {
                chain_keys.extend(leaf.entries.iter().filter_map(|(k, e)| match e {
                    Entry::Val { .. } => Some(*k),
                    _ => None,
                }));
            }
        }
        let oracle_keys: Vec<u64> = blink_oracle
            .range_scan(0, None)
            .iter()
            .map(|e| e.0)
            .collect();
        assert_eq!(
            chain_keys, oracle_keys,
            "config {ci}: leaf chain disagrees with sequential B-link scan"
        );

        // And the full checker battery.
        let expected = oracle.keys().copied().collect();
        let violations = checker::check_all(&mut cluster, &expected);
        assert!(violations.is_empty(), "config {ci}: {violations:?}");
    }
}

#[test]
fn searches_linearize_with_completed_inserts() {
    // Any search that *starts* after an insert's reply was received must see
    // it (the read-your-writes the protocol gives clients).
    let cfg = TreeConfig::default();
    let spec = BuildSpec::new((0..100).map(|k| k * 9).collect(), 4, cfg);
    let mut cluster = DbCluster::build(&spec, SimConfig::jittery(3, 2, 25));

    for round in 0..50u64 {
        let key = 100_000 + round;
        cluster.submit(ClientOp {
            origin: ProcId((round % 4) as u32),
            key,
            intent: Intent::Insert(round),
        });
        let recs = cluster.try_run_to_quiescence().expect("run quiesces");
        assert!(recs.iter().any(|r| r.op.key == key));
        // Search from a different processor, after the ack.
        cluster.submit(ClientOp {
            origin: ProcId(((round + 2) % 4) as u32),
            key,
            intent: Intent::Search,
        });
        let recs = cluster.try_run_to_quiescence().expect("run quiesces");
        let found = recs
            .iter()
            .find(|r| matches!(r.op.intent, Intent::Search))
            .expect("search completed");
        assert_eq!(found.outcome.found, Some(round), "round {round}");
    }
}

#[test]
fn workload_trace_replay_is_reproducible() {
    // The workload crate's op batch + the simulator's determinism compose:
    // replaying the same ops yields the identical execution.
    let mut gen = WorkloadGen::new(
        KeyDist::Uniform { n: 500 },
        Mix {
            search_fraction: 0.4,
            ..Mix::INSERT_ONLY
        },
        3,
        8,
    );
    let trace = gen.batch(300);

    let run = |trace: &[workload::Op]| {
        let spec = BuildSpec::new((0..50).map(|k| k * 11).collect(), 3, TreeConfig::default());
        let mut cluster = DbCluster::build(&spec, SimConfig::seeded(21));
        let ops: Vec<ClientOp> = trace
            .iter()
            .map(|op| ClientOp {
                origin: ProcId(op.origin),
                key: op.key,
                intent: match op.kind {
                    workload::OpKind::Search => Intent::Search,
                    workload::OpKind::Insert => Intent::Insert(op.value),
                    workload::OpKind::Delete => Intent::Delete,
                    workload::OpKind::Scan => unreachable!("point-op mix"),
                },
            })
            .collect();
        let stats = cluster
            .try_run_closed_loop(&ops, 2)
            .expect("workload drains");
        (
            stats.makespan,
            stats.records.len(),
            cluster.sim.stats().total_messages(),
            cluster.sim.events_delivered(),
        )
    };
    assert_eq!(run(&trace), run(&trace));
}

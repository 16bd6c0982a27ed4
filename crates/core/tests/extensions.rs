//! Tests for the extensions beyond the paper's core algorithms: lazy
//! deletes (stamped tombstones, never-merge [11]), last-writer-wins
//! convergence for conflicting same-key writes, and distributed range scans
//! over the leaf chain.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::assert_clean;
use dbtree::{
    checker, BuildSpec, ClientOp, DbCluster, GlobalView, Intent, ProtocolKind, TreeConfig,
};
use simnet::{ProcId, SimConfig};

fn build(cfg: TreeConfig, preload: u64, seed: u64) -> DbCluster {
    let spec = BuildSpec::new((0..preload).map(|k| k * 10).collect(), 4, cfg);
    DbCluster::build(&spec, SimConfig::jittery(seed, 2, 25))
}

// ---------------------------------------------------------------------------
// Deletes
// ---------------------------------------------------------------------------

#[test]
fn delete_shadows_then_reinsert_revives() {
    let mut cluster = build(TreeConfig::default(), 100, 1);
    let key = 500u64;
    let steps: Vec<(Intent, Option<u64>)> = vec![
        (Intent::Search, Some(500)), // preloaded value = key
        (Intent::Delete, Some(500)), // delete reports the old value
        (Intent::Search, None),      // gone
        (Intent::Delete, None),      // idempotent-ish: nothing there
        (Intent::Insert(7), None),   // revive
        (Intent::Search, Some(7)),
    ];
    for (i, (intent, expect)) in steps.into_iter().enumerate() {
        cluster.submit(ClientOp {
            origin: ProcId((i % 4) as u32),
            key,
            intent,
        });
        let recs = cluster.try_run_to_quiescence().expect("run quiesces");
        assert_eq!(recs[0].outcome.found, expect, "step {i}");
    }
}

#[test]
fn deletes_converge_across_replicated_leaves() {
    // Fixed-copies mode: leaf deletes are lazy updates relayed to copies.
    for seed in 0..4 {
        let cfg = TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3);
        let mut cluster = build(cfg, 60, seed);
        // Delete every third preloaded key, from rotating origins.
        let mut deleted = BTreeSet::new();
        for k in (0..60u64).step_by(3) {
            cluster.submit(ClientOp {
                origin: ProcId((k % 4) as u32),
                key: k * 10,
                intent: Intent::Delete,
            });
            deleted.insert(k * 10);
        }
        cluster.try_run_to_quiescence().expect("run quiesces");

        let view = GlobalView::new(&cluster.sim);
        for k in (0..60u64).map(|k| k * 10) {
            if deleted.contains(&k) {
                assert_eq!(view.find(k), None, "seed {seed}: {k} still visible");
            } else {
                assert_eq!(view.find(k), Some(k), "seed {seed}: {k} vanished");
            }
        }
        // Copies converged and histories are clean.
        let expected: BTreeSet<u64> = (0..60u64)
            .map(|k| k * 10)
            .filter(|k| !deleted.contains(k))
            .collect();
        assert_clean(&mut cluster, &expected);
    }
}

#[test]
fn delete_insert_race_resolves_by_stamp_order_everywhere() {
    // A delete and an insert to the same key race from different
    // processors: whichever outcome wins, every copy agrees.
    for seed in 0..10 {
        let cfg = TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3);
        let mut cluster = build(cfg, 40, seed);
        cluster.submit(ClientOp {
            origin: ProcId(0),
            key: 200,
            intent: Intent::Delete,
        });
        cluster.submit(ClientOp {
            origin: ProcId(2),
            key: 200,
            intent: Intent::Insert(999),
        });
        cluster.try_run_to_quiescence().expect("run quiesces");
        cluster.record_final_digests();
        let diverged = checker::check_convergence(&cluster.sim);
        assert!(diverged.is_empty(), "seed {seed}: {diverged:?}");
        let view = GlobalView::new(&cluster.sim);
        let got = view.find(200);
        assert!(
            got.is_none() || got == Some(999),
            "seed {seed}: unexpected value {got:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Last-writer-wins convergence
// ---------------------------------------------------------------------------

#[test]
fn conflicting_same_key_writes_converge() {
    // Before stamped entries, this scenario could leave copies permanently
    // divergent: two initial inserts of different values at different copies
    // relaying past each other. Stamps make the merge commute.
    for seed in 0..10 {
        let cfg = TreeConfig::fixed_copies(ProtocolKind::SemiSync, 4);
        let mut cluster = build(cfg, 40, seed);
        for round in 0..20u64 {
            let key = (round % 5) * 10; // heavy same-key contention
            for origin in 0..4u32 {
                cluster.submit(ClientOp {
                    origin: ProcId(origin),
                    key,
                    intent: Intent::Insert(round * 100 + origin as u64),
                });
            }
        }
        cluster.try_run_to_quiescence().expect("run quiesces");
        cluster.record_final_digests();
        let diverged = checker::check_convergence(&cluster.sim);
        assert!(diverged.is_empty(), "seed {seed}: {diverged:?}");
    }
}

// ---------------------------------------------------------------------------
// Distributed range scans
// ---------------------------------------------------------------------------

#[test]
fn scan_matches_oracle_across_processors() {
    let mut cluster = build(TreeConfig::default(), 300, 5);
    let oracle: BTreeMap<u64, u64> = (0..300u64).map(|k| (k * 10, k * 10)).collect();

    for (from, limit) in [(0u64, 50u32), (995, 20), (1500, 1000), (2990, 10)] {
        cluster.scan(ProcId(1), from, limit);
        cluster.try_run_to_quiescence().expect("run quiesces");
        let scans = cluster.take_scans();
        assert_eq!(scans.len(), 1);
        let got = &scans[0].outcome.items;
        let want: Vec<(u64, u64)> = oracle
            .range(from..)
            .take(limit as usize)
            .map(|(&k, &v)| (k, v))
            .collect();
        assert_eq!(got, &want, "scan from {from} limit {limit}");
        assert!(scans[0].outcome.hops > 0);
    }
}

#[test]
fn scan_skips_tombstones() {
    let mut cluster = build(TreeConfig::default(), 50, 2);
    for k in [100u64, 120, 140] {
        cluster.submit(ClientOp {
            origin: ProcId(0),
            key: k,
            intent: Intent::Delete,
        });
    }
    cluster.try_run_to_quiescence().expect("run quiesces");
    cluster.scan(ProcId(3), 90, 6);
    cluster.try_run_to_quiescence().expect("run quiesces");
    let scans = cluster.take_scans();
    let keys: Vec<u64> = scans[0].outcome.items.iter().map(|e| e.0).collect();
    assert_eq!(keys, vec![90, 110, 130, 150, 160, 170]);
}

#[test]
fn scans_complete_during_split_storms() {
    // Scans are reads: never blocked, navigable mid-split via right links.
    let cfg = TreeConfig {
        fanout: 6,
        ..Default::default()
    };
    let spec = BuildSpec::new((0..100).map(|k| k * 100).collect(), 4, cfg);
    let mut cluster = DbCluster::build(&spec, SimConfig::jittery(9, 2, 30));

    // Blast inserts while issuing scans of the stable preloaded region.
    let mut scan_count = 0;
    for k in 0..400u64 {
        cluster.submit(ClientOp {
            origin: ProcId((k % 4) as u32),
            key: 20_000 + k, // all inserts above the scanned region? no:
            intent: Intent::Insert(k),
        });
        if k % 20 == 19 {
            cluster.scan(ProcId(((k + 1) % 4) as u32), 0, 30);
            scan_count += 1;
        }
        for _ in 0..15 {
            if !cluster.sim.step() {
                break;
            }
        }
    }
    cluster.try_run_to_quiescence().expect("run quiesces");
    let scans = cluster.take_scans();
    assert_eq!(scans.len(), scan_count);
    for s in &scans {
        assert_eq!(s.outcome.items.len(), 30, "scan filled its limit");
        // The first 30 preloaded keys are immutable during the storm.
        let want: Vec<u64> = (0..30u64).map(|k| k * 100).collect();
        let got: Vec<u64> = s.outcome.items.iter().map(|e| e.0).collect();
        assert_eq!(got, want);
    }
}

#[test]
fn scan_with_limit_beyond_data_returns_all() {
    let mut cluster = build(TreeConfig::default(), 25, 3);
    cluster.scan(ProcId(0), 0, 10_000);
    cluster.try_run_to_quiescence().expect("run quiesces");
    let scans = cluster.take_scans();
    assert_eq!(scans[0].outcome.items.len(), 25);
}

#[test]
fn scans_survive_racing_migrations() {
    // Regression: a scan addressed to a leaf that migrated away must
    // restart at a close local node, not ping-pong via the root's home
    // forever. Mobile mode, no forwarding addresses.
    use dbtree::Placement;
    for seed in 0..6u64 {
        let cfg = TreeConfig {
            placement: Placement::Uniform { copies: 1 },
            forwarding: false,
            ..Default::default()
        };
        let spec = BuildSpec::new((0..200).map(|k| k * 10).collect(), 4, cfg);
        let mut cluster = DbCluster::build(&spec, SimConfig::jittery(seed, 2, 40));
        // Kick off scans, then immediately migrate leaves they will touch.
        for p in 0..4u32 {
            cluster.scan(ProcId(p), 0, 150);
        }
        let leaves = cluster.leaves();
        for (i, (leaf, owner)) in leaves.iter().enumerate().take(10) {
            cluster.migrate(*leaf, *owner, ProcId((owner.0 + 1 + i as u32) % 4));
        }
        cluster.try_run_to_quiescence().expect("run quiesces");
        let scans = cluster.take_scans();
        assert_eq!(scans.len(), 4, "seed {seed}: every scan completed");
        for s in &scans {
            assert_eq!(s.outcome.items.len(), 150, "seed {seed}: scan filled");
            assert!(
                s.outcome.items.windows(2).all(|w| w[0].0 < w[1].0),
                "ordered"
            );
        }
    }
}

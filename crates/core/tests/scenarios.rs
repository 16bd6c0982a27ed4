//! Surgical protocol scenarios: tiny clusters, controlled stepping, exact
//! assertions about what each protocol does at each phase.

mod common;

use std::collections::BTreeSet;

use common::assert_clean;
use dbtree::{
    BuildSpec, ClientOp, DbCluster, GlobalView, Intent, Placement, ProtocolKind, TreeConfig,
};
use simnet::{ProcId, SimConfig};

/// A 2-processor, 2-copy cluster with two nearly-full leaves.
fn tiny(protocol: ProtocolKind, seed: u64) -> DbCluster {
    let cfg = TreeConfig {
        fanout: 4,
        ..TreeConfig::fixed_copies(protocol, 2)
    };
    let spec = BuildSpec {
        keys: vec![10, 20, 30, 40, 110, 120, 130, 140],
        n_procs: 2,
        cfg,
        fill: 4,
    };
    let mut sim_cfg = SimConfig::jittery(seed, 2, 20);
    sim_cfg.trace_capacity = 500;
    DbCluster::build(&spec, sim_cfg)
}

// ---------------------------------------------------------------------------
// Synchronous splits (§4.1.1)
// ---------------------------------------------------------------------------

#[test]
fn sync_split_runs_the_full_aas_round() {
    let mut cluster = tiny(ProtocolKind::Sync, 1);
    cluster.submit(ClientOp {
        origin: ProcId(0),
        key: 15,
        intent: Intent::Insert(15),
    });
    cluster.try_run_to_quiescence().expect("run quiesces");

    // The trace shows the AAS protocol in order on the wire:
    // split.start → split.ack → split.end.
    let kinds: Vec<&str> = cluster
        .sim
        .trace()
        .of_event(simnet::TraceEvent::Deliver)
        .map(|e| e.kind)
        .filter(|k| k.starts_with("split."))
        .collect();
    assert_eq!(kinds, vec!["split.start", "split.ack", "split.end"]);
    let s = cluster.sim.stats();
    assert_eq!(s.kind("split.start").remote, 1);
    assert_eq!(s.kind("split.ack").remote, 1);
    assert_eq!(s.kind("split.end").remote, 1);

    let expected: BTreeSet<u64> = [10, 20, 30, 40, 110, 120, 130, 140, 15]
        .into_iter()
        .collect();
    assert_clean(&mut cluster, &expected);
}

#[test]
fn sync_blocked_insert_lands_after_the_split() {
    // Fill the leaf so the first insert splits it; submit a second insert
    // for a key that will belong to the *sibling* while the AAS is open.
    for seed in 0..10u64 {
        let mut cluster = tiny(ProtocolKind::Sync, seed);
        cluster.submit(ClientOp {
            origin: ProcId(0),
            key: 15,
            intent: Intent::Insert(15),
        });
        cluster.submit(ClientOp {
            origin: ProcId(1),
            key: 35,
            intent: Intent::Insert(35),
        });
        cluster.try_run_to_quiescence().expect("run quiesces");
        let expected: BTreeSet<u64> = [10, 20, 30, 40, 110, 120, 130, 140, 15, 35]
            .into_iter()
            .collect();
        assert_clean(&mut cluster, &expected);
    }
}

// ---------------------------------------------------------------------------
// Semisync (§4.1.2)
// ---------------------------------------------------------------------------

#[test]
fn semisync_split_is_one_message_per_copy() {
    let mut cluster = tiny(ProtocolKind::SemiSync, 1);
    cluster.submit(ClientOp {
        origin: ProcId(0),
        key: 15,
        intent: Intent::Insert(15),
    });
    cluster.try_run_to_quiescence().expect("run quiesces");
    let s = cluster.sim.stats();
    assert_eq!(s.kind("split.relay").remote, 1, "|copies|-1 messages");
    assert_eq!(s.kind("split.start").remote, 0);
    assert_eq!(s.kind("split.ack").remote, 0);
}

#[test]
fn semisync_rewrites_history_for_late_relays() {
    // Find a schedule where an insert performed at the non-PC copy races
    // the PC's split, forcing the PC to re-issue the relay toward the
    // sibling (metrics.relays_forwarded > 0) — the literal Fig 5 right-hand
    // flow.
    let mut hit = false;
    for seed in 0..40u64 {
        let mut cluster = tiny(ProtocolKind::SemiSync, seed);
        // Two inserts to the same (full) leaf from both processors at once:
        // one triggers the split at the PC, the other lands at the non-PC
        // copy and relays late.
        cluster.submit(ClientOp {
            origin: ProcId(0),
            key: 15,
            intent: Intent::Insert(15),
        });
        cluster.submit(ClientOp {
            origin: ProcId(1),
            key: 35,
            intent: Intent::Insert(35),
        });
        cluster.try_run_to_quiescence().expect("run quiesces");
        let forwarded: u64 = cluster
            .sim
            .procs()
            .map(|(_, p)| p.metrics.relays_forwarded)
            .sum();
        let expected: BTreeSet<u64> = [10, 20, 30, 40, 110, 120, 130, 140, 15, 35]
            .into_iter()
            .collect();
        assert_clean(&mut cluster, &expected);
        if forwarded > 0 {
            hit = true;
            break;
        }
    }
    assert!(hit, "the race window was exercised within 40 seeds");
}

// ---------------------------------------------------------------------------
// Available-copies
// ---------------------------------------------------------------------------

#[test]
fn avail_copies_serializes_same_node_writes_through_the_pc() {
    let mut cluster = tiny(ProtocolKind::AvailableCopies, 3);
    // Concurrent writes to the same leaf from both processors.
    for (i, key) in [15u64, 16, 17, 35, 36].into_iter().enumerate() {
        cluster.submit(ClientOp {
            origin: ProcId((i % 2) as u32),
            key,
            intent: Intent::Insert(key),
        });
    }
    cluster.try_run_to_quiescence().expect("run quiesces");
    let s = cluster.sim.stats();
    assert!(
        s.kind("lock.req").remote >= 5,
        "each coordinated write locked the peer copy"
    );
    assert_eq!(
        s.kind("lock.req").remote,
        s.kind("lock.grant").remote,
        "every lock was granted"
    );
    let expected: BTreeSet<u64> = [10, 20, 30, 40, 110, 120, 130, 140, 15, 16, 17, 35, 36]
        .into_iter()
        .collect();
    assert_clean(&mut cluster, &expected);
}

#[test]
fn avail_copies_search_waits_for_unlock_but_completes() {
    for seed in 0..10u64 {
        let mut cluster = tiny(ProtocolKind::AvailableCopies, seed);
        cluster.submit(ClientOp {
            origin: ProcId(1),
            key: 15,
            intent: Intent::Insert(15),
        });
        cluster.submit(ClientOp {
            origin: ProcId(0),
            key: 10,
            intent: Intent::Search,
        });
        let records = cluster.try_run_to_quiescence().expect("run quiesces");
        let search = records
            .iter()
            .find(|r| matches!(r.op.intent, Intent::Search))
            .expect("search completed");
        assert_eq!(search.outcome.found, Some(10));
    }
}

// ---------------------------------------------------------------------------
// Root growth
// ---------------------------------------------------------------------------

#[test]
fn root_split_broadcasts_the_new_root_to_every_processor() {
    // A tree whose root is a leaf: enough inserts force root splits and a
    // NewRoot broadcast; afterwards every processor can serve operations
    // from its updated local root.
    for protocol in [ProtocolKind::SemiSync, ProtocolKind::Sync] {
        let cfg = TreeConfig {
            fanout: 4,
            ..TreeConfig::with_protocol(protocol)
        };
        let spec = BuildSpec::new(vec![], 3, cfg);
        let mut cluster = DbCluster::build(&spec, SimConfig::jittery(5, 2, 15));
        for k in 0..60u64 {
            cluster.submit(ClientOp {
                origin: ProcId((k % 3) as u32),
                key: k,
                intent: Intent::Insert(k),
            });
            for _ in 0..20 {
                if !cluster.sim.step() {
                    break;
                }
            }
        }
        cluster.try_run_to_quiescence().expect("run quiesces");

        // All processors agree on a root of height ≥ 2.
        let roots: BTreeSet<_> = cluster
            .sim
            .procs()
            .map(|(_, p)| p.store.root().expect("root known"))
            .collect();
        assert_eq!(roots.len(), 1, "{protocol:?}: all procs share the root");
        let root = *roots.iter().next().expect("checked");
        let view = GlobalView::new(&cluster.sim);
        let level = view.authoritative(root).expect("root resident").level;
        assert!(
            level >= 1,
            "{protocol:?}: the tree grew (root level {level})"
        );

        // Every processor serves a search from its local root.
        for p in 0..3u32 {
            cluster.submit(ClientOp {
                origin: ProcId(p),
                key: 30,
                intent: Intent::Search,
            });
        }
        let records = cluster.try_run_to_quiescence().expect("run quiesces");
        assert!(records.iter().all(|r| r.outcome.found == Some(30)));

        let expected: BTreeSet<u64> = (0..60).collect();
        assert_clean(&mut cluster, &expected);
    }
}

// ---------------------------------------------------------------------------
// Piggybacking
// ---------------------------------------------------------------------------

#[test]
fn piggyback_timer_flushes_a_lone_relay() {
    let cfg = TreeConfig {
        piggyback: Some(dbtree::PiggybackCfg {
            max_batch: 100, // never fills: only the timer can flush
            flush_interval: 40,
        }),
        ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 2)
    };
    let spec = BuildSpec::new((0..20).map(|k| k * 10).collect(), 2, cfg);
    let mut cluster = DbCluster::build(&spec, SimConfig::seeded(2));
    cluster.submit(ClientOp {
        origin: ProcId(0),
        key: 55,
        intent: Intent::Insert(55),
    });
    cluster.try_run_to_quiescence().expect("run quiesces");
    let s = cluster.sim.stats();
    assert_eq!(s.kind("insert.relay").remote, 0, "no eager relay");
    assert_eq!(s.kind("insert.relay-batch").remote, 1, "timer flushed it");
    let expected: BTreeSet<u64> = (0..20).map(|k| k * 10).chain([55]).collect();
    assert_clean(&mut cluster, &expected);
}

// ---------------------------------------------------------------------------
// Mobile interior nodes (§4.2 beyond leaves)
// ---------------------------------------------------------------------------

#[test]
fn interior_node_migration_reparents_children() {
    // Single-copy placement; migrate a level-1 interior node and verify the
    // structure still answers from every processor (children's parent links
    // and the parent's child-home hints are refreshed by link-changes).
    let cfg = TreeConfig {
        placement: Placement::Uniform { copies: 1 },
        forwarding: false,
        ..Default::default()
    };
    let spec = BuildSpec::new((0..120).map(|k| k * 10).collect(), 3, cfg);
    let mut cluster = DbCluster::build(&spec, SimConfig::jittery(8, 2, 20));

    // Find an interior (level-1) node and its owner.
    let (node, owner) = cluster
        .sim
        .procs()
        .flat_map(|(pid, p)| {
            p.store
                .iter()
                .filter(|c| c.level == 1)
                .map(move |c| (c.id, pid))
                .collect::<Vec<_>>()
        })
        .min_by_key(|(id, _)| *id)
        .expect("interior node exists");
    let dest = ProcId((owner.0 + 1) % 3);
    cluster.migrate(node, owner, dest);
    cluster.try_run_to_quiescence().expect("run quiesces");

    assert!(
        cluster.sim.proc(dest).store.contains(node),
        "the interior node moved"
    );
    for p in 0..3u32 {
        cluster.submit(ClientOp {
            origin: ProcId(p),
            key: 550,
            intent: Intent::Search,
        });
    }
    let records = cluster.try_run_to_quiescence().expect("run quiesces");
    assert!(records.iter().all(|r| r.outcome.found == Some(550)));
    let expected: BTreeSet<u64> = (0..120).map(|k| k * 10).collect();
    assert_clean(&mut cluster, &expected);
}

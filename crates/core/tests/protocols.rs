//! End-to-end protocol tests: each §4 algorithm under concurrent workloads
//! on a jittery network, validated against the §3 requirements.

mod common;

use std::collections::BTreeSet;

use common::{assert_clean, run_workload};
use dbtree::{
    checker, BuildSpec, ClientOp, DbCluster, Intent, ProtocolKind, SeededBug, TreeConfig,
};
use simnet::{ProcId, SimConfig};
use workload::Mix;

// ---------------------------------------------------------------------------
// §4.1.2 semisync — the paper's protocol
// ---------------------------------------------------------------------------

#[test]
fn semisync_path_replication_heavy_inserts() {
    let (mut cluster, expected) =
        run_workload(TreeConfig::default(), 4, 200, 600, Mix::INSERT_ONLY, 1);
    assert_clean(&mut cluster, &expected);
}

#[test]
fn semisync_mixed_workload_many_seeds() {
    for seed in 0..5 {
        let (mut cluster, expected) = run_workload(
            TreeConfig::default(),
            6,
            100,
            400,
            Mix {
                search_fraction: 0.5,
                ..Mix::INSERT_ONLY
            },
            seed,
        );
        assert_clean(&mut cluster, &expected);
    }
}

#[test]
fn semisync_fixed_copies_replicated_leaves() {
    // §4.1's testbed: every node (leaves included) on 3 processors, so
    // initial inserts at different copies race with splits.
    for seed in 0..5 {
        let cfg = TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3);
        let (mut cluster, expected) = run_workload(cfg, 4, 50, 400, Mix::INSERT_ONLY, seed);
        assert_clean(&mut cluster, &expected);
    }
}

#[test]
fn semisync_sequential_insert_storm() {
    // Ascending keys: every insert hits the rightmost leaf — a split storm.
    let cfg = TreeConfig::default();
    let spec = BuildSpec::new(vec![0], 4, cfg);
    let mut cluster = DbCluster::build(&spec, SimConfig::jittery(7, 2, 20));
    let ops: Vec<ClientOp> = (1..500u64)
        .map(|k| ClientOp {
            origin: ProcId((k % 4) as u32),
            key: k,
            intent: Intent::Insert(k),
        })
        .collect();
    let stats = cluster
        .try_run_closed_loop(&ops, 2)
        .expect("workload drains");
    assert_eq!(stats.records.len(), 499);
    let expected: BTreeSet<u64> = (0..500).collect();
    assert_clean(&mut cluster, &expected);
}

#[test]
fn semisync_grows_multiple_levels() {
    let cfg = TreeConfig {
        fanout: 4,
        ..Default::default()
    };
    let spec = BuildSpec::new(vec![], 3, cfg);
    let mut cluster = DbCluster::build(&spec, SimConfig::seeded(3));
    let ops: Vec<ClientOp> = (0..300u64)
        .map(|k| ClientOp {
            origin: ProcId((k % 3) as u32),
            key: k * 7 % 1000,
            intent: Intent::Insert(k),
        })
        .collect();
    cluster
        .try_run_closed_loop(&ops, 3)
        .expect("workload drains");
    let expected: BTreeSet<u64> = (0..300u64).map(|k| k * 7 % 1000).collect();
    assert_clean(&mut cluster, &expected);
    // The tree actually grew: a root at level >= 2 exists somewhere.
    let view = dbtree::GlobalView::new(&cluster.sim);
    let max_level = view.nodes_per_level().keys().max().copied().unwrap_or(0);
    assert!(max_level >= 2, "tree height grew (max level {max_level})");
}

// ---------------------------------------------------------------------------
// §4.1.1 sync
// ---------------------------------------------------------------------------

#[test]
fn sync_fixed_copies_correct() {
    for seed in 0..5 {
        let cfg = TreeConfig::fixed_copies(ProtocolKind::Sync, 3);
        let (mut cluster, expected) = run_workload(cfg, 4, 50, 400, Mix::INSERT_ONLY, seed);
        assert_clean(&mut cluster, &expected);
    }
}

#[test]
fn sync_blocks_initial_inserts_during_splits() {
    let cfg = TreeConfig::fixed_copies(ProtocolKind::Sync, 4);
    let (cluster, _) = run_workload(cfg, 4, 50, 800, Mix::INSERT_ONLY, 11);
    let blocked: u64 = cluster
        .sim
        .procs()
        .map(|(_, p)| p.metrics.blocked_initial)
        .sum();
    assert!(blocked > 0, "AAS blocked at least one initial insert");
}

#[test]
fn semisync_never_blocks_initial_inserts() {
    let cfg = TreeConfig::fixed_copies(ProtocolKind::SemiSync, 4);
    let (cluster, _) = run_workload(cfg, 4, 50, 800, Mix::INSERT_ONLY, 11);
    let blocked: u64 = cluster
        .sim
        .procs()
        .map(|(_, p)| p.metrics.blocked_initial)
        .sum();
    assert_eq!(blocked, 0, "semisync never blocks (§4.1.2)");
}

// ---------------------------------------------------------------------------
// Fig 4 — the seeded lost-insert bug loses inserts; semisync does not
// ---------------------------------------------------------------------------

#[test]
fn naive_protocol_loses_keys_semisync_does_not() {
    let mut naive_lost_total = 0usize;
    for seed in 0..10 {
        let run = |seeded| {
            let cfg = TreeConfig {
                fanout: 6,
                seeded,
                ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3)
            };
            let (mut cluster, expected) = run_workload(cfg, 4, 30, 500, Mix::INSERT_ONLY, seed);
            cluster.record_final_digests();
            let violations = checker::check_keys(&cluster.sim, &expected);
            violations.len()
        };
        let semisync_lost = run(None);
        assert_eq!(semisync_lost, 0, "semisync loses nothing (seed {seed})");
        naive_lost_total += run(Some(SeededBug::DiscardOutOfRange));
    }
    assert!(
        naive_lost_total > 0,
        "the Fig 4 bug reproduces across 10 seeds"
    );
}

// ---------------------------------------------------------------------------
// Available-copies baseline
// ---------------------------------------------------------------------------

#[test]
fn available_copies_correct() {
    for seed in 0..3 {
        let cfg = TreeConfig::fixed_copies(ProtocolKind::AvailableCopies, 3);
        let (mut cluster, expected) = run_workload(cfg, 4, 50, 300, Mix::INSERT_ONLY, seed);
        assert_clean(&mut cluster, &expected);
    }
}

#[test]
fn available_copies_queues_actions_behind_locks() {
    let cfg = TreeConfig::fixed_copies(ProtocolKind::AvailableCopies, 4);
    let (cluster, _) = run_workload(
        cfg,
        4,
        50,
        800,
        Mix {
            search_fraction: 0.5,
            ..Mix::INSERT_ONLY
        },
        5,
    );
    let queued: u64 = cluster
        .sim
        .procs()
        .map(|(_, p)| p.metrics.lock_queued)
        .sum();
    assert!(queued > 0, "locks made actions wait: {queued}");
}

#[test]
fn lazy_uses_fewer_messages_than_vigorous() {
    let run = |protocol| {
        let cfg = TreeConfig::fixed_copies(protocol, 4);
        let (cluster, _) = run_workload(cfg, 4, 50, 500, Mix::INSERT_ONLY, 9);
        cluster.sim.stats().remote_messages()
    };
    let lazy = run(ProtocolKind::SemiSync);
    let vigorous = run(ProtocolKind::AvailableCopies);
    assert!(
        vigorous > lazy,
        "available-copies ({vigorous}) must cost more than semisync ({lazy})"
    );
}

// ---------------------------------------------------------------------------
// Piggybacking
// ---------------------------------------------------------------------------

#[test]
fn piggybacking_is_correct_and_reduces_messages() {
    let run = |piggyback| {
        let cfg = TreeConfig {
            piggyback,
            ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3)
        };
        let (mut cluster, expected) = run_workload(cfg, 4, 50, 600, Mix::INSERT_ONLY, 21);
        assert_clean(&mut cluster, &expected);
        let s = cluster.sim.stats();
        s.kind("insert.relay").remote + s.kind("insert.relay-batch").remote
    };
    let plain = run(None);
    let batched = run(Some(dbtree::PiggybackCfg::default()));
    assert!(
        batched < plain / 2,
        "batching cuts relay messages: {batched} vs {plain}"
    );
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

#[test]
fn runs_are_deterministic_given_seed() {
    let run = || {
        let (cluster, _) = run_workload(
            TreeConfig::default(),
            4,
            100,
            300,
            Mix {
                search_fraction: 0.3,
                ..Mix::INSERT_ONLY
            },
            77,
        );
        (
            cluster.sim.stats().total_messages(),
            cluster.sim.now(),
            cluster.sim.events_delivered(),
        )
    };
    assert_eq!(run(), run());
}

// ---------------------------------------------------------------------------
// History off
// ---------------------------------------------------------------------------

/// With `record_history: false` the node manager never touches the shared
/// history lock: the test thread holds it for the whole run while a second
/// thread drives splits, relays and a merge-at-empty delete churn to
/// quiescence. A handler that still locked would park the driving thread for
/// good (and, on the threaded runtime, every write would bounce the lock's
/// cache line between the workers). The `record_history: true` suites above
/// are the other side of the switch.
#[test]
fn history_off_means_no_shared_lock() {
    let cfg = TreeConfig {
        record_history: false,
        merge_at_empty: true,
        ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3)
    };
    // Inserts densely fill [0, 2000) (splits, relays to two peers each); the
    // deletes empty every preloaded leaf above it (retirements, absorbs).
    let preload: Vec<u64> = (0..400).map(|k| k * 10).collect();
    let inserts = (0..2_000u64).map(|key| (key, Intent::Insert(key + 1)));
    let deletes = preload
        .iter()
        .filter(|&&key| key >= 2_000)
        .map(|&key| (key, Intent::Delete));
    let ops: Vec<ClientOp> = inserts
        .chain(deletes)
        .enumerate()
        .map(|(i, (key, intent))| ClientOp {
            origin: ProcId(i as u32 % 4),
            key,
            intent,
        })
        .collect();

    // The simulator is not `Send`, so the driving thread builds the cluster
    // (the build records into the log: the lock must still be free), hands
    // the log over, and drives once the test thread holds the lock.
    let (log_tx, log_rx) = std::sync::mpsc::channel();
    let (held_tx, held_rx) = std::sync::mpsc::channel();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let driver = std::thread::spawn(move || {
        let mut cluster = DbCluster::build(
            &BuildSpec::new(preload, 4, cfg),
            SimConfig::jittery(3, 2, 25),
        );
        log_tx.send(cluster.log()).expect("test thread waits");
        held_rx.recv().expect("test thread holds the lock");
        let stats = cluster.try_run_closed_loop(&ops, 4).expect("run drains");
        done_tx.send(()).expect("test thread waits");

        assert_eq!(stats.records.len(), 2_200, "every op completes");
        let total = |f: fn(&dbtree::ProcMetrics) -> u64| -> u64 {
            cluster.sim.procs().map(|(_, p)| f(&p.metrics)).sum()
        };
        assert!(total(|m| m.splits_initiated) > 0, "inserts split leaves");
        assert!(total(|m| m.relays_applied) > 0, "writes were relayed");
        assert!(total(|m| m.retires_applied) > 0, "the churn merged leaves");
        let view = checker::GlobalView::new(&cluster.sim);
        for key in 0..2_000 {
            assert_eq!(view.find(key), Some(key + 1), "key {key}");
        }
    });
    let log = log_rx.recv().expect("cluster built");
    let held = log.lock();
    held_tx.send(()).expect("driver waits");
    done_rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("the run never finished: an action is waiting for the history lock");
    drop(held);
    driver.join().expect("the run checks out");
}

//! End-to-end tests for the lazily-maintained distributed hash table: the
//! §3 requirements and structural invariants under concurrent workloads,
//! plus the designed failure of the link-less naive protocol.

use std::collections::BTreeMap;

use dhash::{check_hash_cluster, DirProtocol, HKind, HashCluster, HashConfig, HashSpec};
use simnet::{ProcId, SimConfig};

fn spec(protocol: DirProtocol, preload: u64, n_procs: u32) -> HashSpec {
    HashSpec {
        preload: (0..preload).map(|k| k * 3).collect(),
        n_procs,
        cfg: HashConfig {
            capacity: 8,
            protocol,
            record_history: true,
        },
    }
}

/// Drive a mixed workload; returns the expected final map and stats.
fn drive(
    cluster: &mut HashCluster,
    preload: u64,
    n_ops: u64,
    seed: u64,
) -> (BTreeMap<u64, u64>, dhash::HashStats) {
    let mut expected: BTreeMap<u64, u64> = (0..preload).map(|k| (k * 3, k * 3)).collect();
    let n_procs = cluster.sim.num_procs() as u64;
    let mut all = dhash::HashStats::default();
    for i in 0..n_ops {
        // Deterministic pseudo-random ops (keys beyond the preload range so
        // value expectations stay exact under concurrency).
        let r = (i ^ seed).wrapping_mul(0x9E3779B97F4A7C15);
        let key = 10_000 + (r % 5_000);
        let origin = ProcId((r >> 32) as u32 % n_procs as u32);
        match r % 10 {
            0..=6 => {
                cluster.submit(origin, key, HKind::Insert(key + 1));
                expected.insert(key, key + 1);
            }
            7 => {
                cluster.submit(origin, key, HKind::Delete);
                expected.remove(&key);
            }
            _ => {
                cluster.submit(origin, key, HKind::Search);
            }
        }
        // Sequential submission: each op completes before the next starts,
        // so `expected` is exact. Concurrency is exercised by the batch
        // tests below.
        let stats = cluster.try_run_to_quiescence().expect("run quiesces");
        all.records.extend(stats.records);
    }
    (expected, all)
}

#[test]
fn lazy_protocol_sequential_ops_exact() {
    let mut cluster = HashCluster::build(
        &spec(DirProtocol::Lazy, 100, 4),
        SimConfig::jittery(1, 2, 25),
    );
    let (expected, stats) = drive(&mut cluster, 100, 300, 1);
    assert_eq!(stats.lost_count(), 0);
    let violations = check_hash_cluster(&mut cluster, &expected);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn lazy_protocol_concurrent_inserts_converge() {
    for seed in 0..6u64 {
        let mut cluster = HashCluster::build(
            &spec(DirProtocol::Lazy, 50, 4),
            SimConfig::jittery(seed, 2, 30),
        );
        // Fire a large concurrent batch: splits, patches, and operations
        // race freely.
        let mut expected: BTreeMap<u64, u64> = (0..50).map(|k| (k * 3, k * 3)).collect();
        for i in 0..600u64 {
            let key = 20_000 + i; // distinct keys: exact expectations
            cluster.submit(ProcId((i % 4) as u32), key, HKind::Insert(key * 2));
            expected.insert(key, key * 2);
        }
        let stats = cluster.try_run_to_quiescence().expect("run quiesces");
        assert_eq!(stats.records.len(), 600);
        assert_eq!(stats.lost_count(), 0, "seed {seed}");
        let violations = check_hash_cluster(&mut cluster, &expected);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        // Splits happened and some operations needed link recovery.
        let splits: u64 = cluster.sim.procs().map(|(_, p)| p.metrics.splits).sum();
        assert!(splits > 20, "seed {seed}: splits {splits}");
    }
}

#[test]
fn stale_directories_recover_through_image_links() {
    // With jittery latency, some processors route through stale directory
    // copies during split storms; every such operation must still succeed
    // via image links.
    let mut total_recoveries = 0u64;
    for seed in 0..6u64 {
        let mut cluster = HashCluster::build(
            &spec(DirProtocol::Lazy, 20, 6),
            SimConfig::jittery(seed, 2, 60),
        );
        for i in 0..400u64 {
            let key = 30_000 + i;
            cluster.submit(ProcId((i % 6) as u32), key, HKind::Insert(key));
        }
        let stats = cluster.try_run_to_quiescence().expect("run quiesces");
        assert_eq!(stats.lost_count(), 0);
        total_recoveries += stats.total_chases();
    }
    assert!(
        total_recoveries > 0,
        "stale routing actually happened (and was recovered)"
    );
}

#[test]
fn sync_protocol_correct_but_blocks_and_costs_more() {
    let run = |protocol| {
        let mut cluster = HashCluster::build(&spec(protocol, 50, 4), SimConfig::jittery(3, 2, 25));
        let mut expected: BTreeMap<u64, u64> = (0..50).map(|k| (k * 3, k * 3)).collect();
        for i in 0..500u64 {
            let key = 40_000 + i;
            cluster.submit(ProcId((i % 4) as u32), key, HKind::Insert(key));
            expected.insert(key, key);
        }
        let stats = cluster.try_run_to_quiescence().expect("run quiesces");
        assert_eq!(stats.lost_count(), 0);
        let violations = check_hash_cluster(&mut cluster, &expected);
        assert!(violations.is_empty(), "{violations:?}");
        let blocked: u64 = cluster.sim.procs().map(|(_, p)| p.metrics.blocked).sum();
        let dir_msgs = cluster
            .sim
            .stats()
            .remote_matching(|k| k.starts_with("dir."));
        (blocked, dir_msgs)
    };
    let (lazy_blocked, lazy_msgs) = run(DirProtocol::Lazy);
    let (sync_blocked, sync_msgs) = run(DirProtocol::Sync);
    assert_eq!(lazy_blocked, 0, "lazy never blocks");
    assert!(sync_blocked > 0, "sync blocks ops behind the ack barrier");
    assert!(
        sync_msgs > lazy_msgs * 3 / 2,
        "sync directory maintenance costs more: {sync_msgs} vs {lazy_msgs}"
    );
}

#[test]
fn naive_no_links_drops_operations() {
    let mut total_dropped = 0usize;
    for seed in 0..8u64 {
        let mut cluster = HashCluster::build(
            &spec(DirProtocol::NaiveNoLinks, 20, 4),
            SimConfig::jittery(seed, 2, 60),
        );
        for i in 0..400u64 {
            let key = 50_000 + i;
            cluster.submit(ProcId((i % 4) as u32), key, HKind::Insert(key));
        }
        let stats = cluster.try_run_to_quiescence().expect("run quiesces");
        total_dropped += stats.lost_count();
    }
    assert!(
        total_dropped > 0,
        "without split-image links, stale routing drops operations"
    );
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let mut cluster = HashCluster::build(
            &spec(DirProtocol::Lazy, 30, 4),
            SimConfig::jittery(9, 2, 30),
        );
        for i in 0..200u64 {
            cluster.submit(ProcId((i % 4) as u32), 60_000 + i, HKind::Insert(i));
        }
        cluster.try_run_to_quiescence().expect("run quiesces");
        (cluster.sim.stats().total_messages(), cluster.sim.now())
    };
    assert_eq!(run(), run());
}

#[test]
fn delete_then_search_misses() {
    let mut cluster = HashCluster::build(&spec(DirProtocol::Lazy, 10, 2), SimConfig::seeded(4));
    cluster.submit(ProcId(0), 3, HKind::Search);
    let s = cluster.try_run_to_quiescence().expect("run quiesces");
    assert_eq!(s.records[0].outcome.found, Some(3), "preloaded");
    cluster.submit(ProcId(1), 3, HKind::Delete);
    let s = cluster.try_run_to_quiescence().expect("run quiesces");
    assert_eq!(s.records[0].outcome.found, Some(3), "delete returns old");
    cluster.submit(ProcId(0), 3, HKind::Search);
    let s = cluster.try_run_to_quiescence().expect("run quiesces");
    assert_eq!(s.records[0].outcome.found, None, "gone");
}

//! Property-based tests: arbitrary operation streams and schedules leave
//! the lazily-maintained hash table converged, complete, and findable.

use std::collections::BTreeMap;

use dhash::{check_hash_cluster, DirProtocol, HKind, HashCluster, HashConfig, HashSpec};
use proptest::prelude::*;
use simnet::{ProcId, SimConfig};

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Lazy and sync directory maintenance both satisfy every invariant for
    /// any key stream, capacity, cluster size, and schedule.
    #[test]
    fn any_run_is_clean(
        protocol in prop_oneof![Just(DirProtocol::Lazy), Just(DirProtocol::Sync)],
        capacity in 4usize..16,
        n_procs in 1u32..6,
        seed in 0u64..1_000_000,
        keys in proptest::collection::vec(0u64..50_000, 10..200),
    ) {
        let spec = HashSpec {
            preload: (0..30).map(|k| k * 7).collect(),
            n_procs,
            cfg: HashConfig {
                capacity,
                protocol,
                record_history: true,
            },
        };
        let mut cluster = HashCluster::build(&spec, SimConfig::jittery(seed, 1, 30));
        let mut expected: BTreeMap<u64, u64> = (0..30).map(|k| (k * 7, k * 7)).collect();
        for (i, &key) in keys.iter().enumerate() {
            // Concurrent batch of inserts with per-key-deterministic values
            // (re-inserts overwrite with the same value, so expectations
            // stay exact under concurrency).
            cluster.submit(ProcId(i as u32 % n_procs), key, HKind::Insert(key ^ 0xABCD));
            expected.insert(key, key ^ 0xABCD);
        }
        let stats = cluster.try_run_to_quiescence().expect("run quiesces");
        prop_assert_eq!(stats.records.len(), keys.len());
        prop_assert_eq!(stats.lost_count(), 0);
        let violations = check_hash_cluster(&mut cluster, &expected);
        prop_assert!(violations.is_empty(), "{:?}", violations);
    }

    /// Bucket splitting is self-similar: whatever the hash skew, every
    /// bucket ends within capacity + its entries match its pattern.
    #[test]
    fn buckets_end_within_capacity(
        seed in 0u64..1_000_000,
        keys in proptest::collection::vec(0u64..1_000, 50..300),
    ) {
        let spec = HashSpec {
            preload: vec![],
            n_procs: 3,
            cfg: HashConfig {
                capacity: 6,
                protocol: DirProtocol::Lazy,
                record_history: false,
            },
        };
        let mut cluster = HashCluster::build(&spec, SimConfig::jittery(seed, 1, 20));
        for (i, &key) in keys.iter().enumerate() {
            cluster.submit(ProcId(i as u32 % 3), key, HKind::Insert(key));
        }
        cluster.try_run_to_quiescence().expect("run quiesces");
        for (_, proc) in cluster.sim.procs() {
            for (id, b) in &proc.buckets {
                prop_assert!(b.invariant_ok(), "{:?} broke its pattern", id);
                prop_assert!(
                    b.entries.len() <= 6,
                    "{:?} still overfull: {}",
                    id,
                    b.entries.len()
                );
            }
        }
    }
}

//! Property-based tests over the whole stack: random workloads, random
//! schedules (seeds), random tree shapes — the §3 requirements and the
//! structural invariants must hold for every protocol, always.

use std::collections::BTreeSet;

use dbtree::{
    checker, BuildSpec, ClientOp, DbCluster, Intent, Placement, ProtocolKind, TreeConfig,
};
use proptest::prelude::*;
use simnet::{ProcId, SimConfig};

fn protocol_strategy() -> impl Strategy<Value = ProtocolKind> {
    prop_oneof![
        Just(ProtocolKind::SemiSync),
        Just(ProtocolKind::Sync),
        Just(ProtocolKind::AvailableCopies),
    ]
}

fn placement_strategy() -> impl Strategy<Value = Placement> {
    prop_oneof![
        Just(Placement::PathReplication),
        (1usize..4).prop_map(|copies| Placement::Uniform { copies }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 200,
    })]

    /// Whatever the protocol, placement, fanout, schedule, and operation
    /// stream: every acknowledged insert is findable, all copies converge,
    /// the leaf chain tiles the key space, and the history log is clean.
    #[test]
    fn any_run_satisfies_the_section3_requirements(
        protocol in protocol_strategy(),
        placement in placement_strategy(),
        fanout in 4usize..12,
        seed in 0u64..1_000_000,
        n_procs in 2u32..6,
        keys in proptest::collection::vec(0u64..2_000, 20..120),
    ) {
        let cfg = TreeConfig {
            protocol,
            placement,
            fanout,
            ..Default::default()
        };
        let preload: Vec<u64> = (0..40).map(|k| k * 50).collect();
        let spec = BuildSpec::new(preload.clone(), n_procs, cfg);
        let mut cluster = DbCluster::build(&spec, SimConfig::jittery(seed, 1, 30));

        let ops: Vec<ClientOp> = keys
            .iter()
            .enumerate()
            .map(|(i, &key)| ClientOp {
                origin: ProcId(i as u32 % n_procs),
                key,
                intent: Intent::Insert(key + 1),
            })
            .collect();
        let stats = cluster.try_run_closed_loop(&ops, 3).expect("workload drains");
        prop_assert_eq!(stats.records.len(), ops.len(), "every op completes");

        let mut expected: BTreeSet<u64> = preload.into_iter().collect();
        expected.extend(keys.iter().copied());
        let violations = checker::check_all(&mut cluster, &expected);
        prop_assert!(violations.is_empty(), "{:?}", violations);
    }

    /// Migrations at arbitrary points never lose data (mobile nodes, §4.2),
    /// with or without forwarding addresses.
    #[test]
    fn migrations_never_lose_data(
        seed in 0u64..1_000_000,
        forwarding in any::<bool>(),
        migrate_points in proptest::collection::vec((0usize..60, 0u32..4), 1..8),
        keys in proptest::collection::vec(0u64..3_000, 30..60),
    ) {
        let cfg = TreeConfig {
            placement: Placement::Uniform { copies: 1 },
            forwarding,
            ..Default::default()
        };
        let preload: Vec<u64> = (0..60).map(|k| k * 40).collect();
        let spec = BuildSpec::new(preload.clone(), 4, cfg);
        let mut cluster = DbCluster::build(&spec, SimConfig::jittery(seed, 1, 25));

        for (i, &key) in keys.iter().enumerate() {
            cluster.submit(ClientOp {
                origin: ProcId(i as u32 % 4),
                key,
                intent: Intent::Insert(key),
            });
            for &(point, dest) in &migrate_points {
                if point == i {
                    // Pick a deterministic leaf to shove around.
                    let leaf = cluster.leaves().into_iter().min_by_key(|(id, _)| *id);
                    if let Some((leaf, owner)) = leaf {
                        cluster.migrate(leaf, owner, ProcId(dest));
                    }
                }
            }
            // Interleave some progress.
            for _ in 0..10 {
                if !cluster.sim.step() {
                    break;
                }
            }
        }
        cluster.try_run_to_quiescence().expect("run quiesces");

        let mut expected: BTreeSet<u64> = preload.into_iter().collect();
        expected.extend(keys.iter().copied());
        let violations = checker::check_all(&mut cluster, &expected);
        prop_assert!(violations.is_empty(), "{:?}", violations);
    }

    /// §4.3 variable copies: joins/unjoins under churn keep the dB-tree
    /// path property and all §3 requirements.
    #[test]
    fn variable_copies_keep_the_path_property(
        seed in 0u64..1_000_000,
        churn in 2usize..10,
        keys in proptest::collection::vec(0u64..3_000, 20..50),
    ) {
        let cfg = TreeConfig {
            variable_copies: true,
            ..Default::default()
        };
        let preload: Vec<u64> = (0..80).map(|k| k * 30).collect();
        let spec = BuildSpec::new(preload.clone(), 4, cfg);
        let mut cluster = DbCluster::build(&spec, SimConfig::jittery(seed, 1, 25));

        for (i, &key) in keys.iter().enumerate() {
            cluster.submit(ClientOp {
                origin: ProcId(i as u32 % 4),
                key,
                intent: Intent::Insert(key),
            });
            if i % churn == churn - 1 {
                let leaf = cluster
                    .leaves()
                    .into_iter()
                    .min_by_key(|(id, _)| id.raw().wrapping_mul(seed | 1));
                if let Some((leaf, owner)) = leaf {
                    let dest = ProcId((owner.0 + 1 + (seed % 3) as u32) % 4);
                    cluster.migrate(leaf, owner, dest);
                }
            }
            for _ in 0..10 {
                if !cluster.sim.step() {
                    break;
                }
            }
        }
        cluster.try_run_to_quiescence().expect("run quiesces");

        let mut expected: BTreeSet<u64> = preload.into_iter().collect();
        expected.extend(keys.iter().copied());
        let violations = checker::check_all(&mut cluster, &expected);
        prop_assert!(violations.is_empty(), "{:?}", violations);
        let path = checker::check_path_property(&cluster.sim);
        prop_assert!(path.is_empty(), "{:?}", path);
    }
}

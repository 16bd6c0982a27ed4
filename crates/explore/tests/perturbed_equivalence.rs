//! Equivalence under perturbed schedules (satellite of the exploration
//! harness): the canonical cross-runtime equivalence workloads — the same
//! ones `tests/threaded_equivalence.rs` and the dhash suite drive, shared
//! via `testkit` — must reach their schedule-independent final contents
//! under explorer-perturbed delivery orders too, not just under the latency
//! model's order and the thread scheduler's.
//!
//! This closes the loop between the two suites: the threaded runs sample
//! whatever interleavings the OS happens to produce; here the schedule
//! controller *chooses* adversarial ones (uniform random and LIFO) and the
//! same facts must hold.

use std::collections::BTreeSet;

use dbtree::{checker, BuildSpec, DbCluster, GlobalView, ProtocolKind, TreeConfig};
use dhash::{check_hash_cluster, HashCluster};
use explore::Strategy;
use simnet::SimConfig;
use testkit::{blink_fresh_workload, hash_fresh_workload, EQ_N_PROCS, EQ_SEEDS};

/// How many of the canonical seeds the perturbed suite covers (the full
/// matrix is the threaded suites' job; two seeds here keep the perturbed
/// leg affordable while sharing the exact same workload definitions).
const PERTURBED_SEEDS: u64 = 2;

#[test]
fn blink_equivalence_holds_under_perturbed_schedules() {
    for seed in EQ_SEEDS.take(PERTURBED_SEEDS as usize) {
        for strategy in [Strategy::Random, Strategy::Lifo] {
            let (preload, ops, expected) = blink_fresh_workload(seed, 60);
            let spec = BuildSpec::new(
                preload,
                EQ_N_PROCS,
                TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3),
            );
            let mut cluster = DbCluster::build(&spec, SimConfig::seeded(seed));
            cluster
                .sim
                .set_scheduler(strategy.build(seed ^ 0x5EED, EQ_N_PROCS));
            for op in &ops {
                cluster.submit(*op);
            }
            let records = cluster
                .try_run_to_quiescence()
                .unwrap_or_else(|e| panic!("seed {seed} {}: {e}", strategy.name()));
            assert_eq!(
                records.len(),
                ops.len(),
                "seed {seed} {}: operations lost acknowledgement",
                strategy.name()
            );

            // Same facts the threaded suite asserts: exact final contents
            // findable by root navigation, and a clean oracle stack.
            {
                let procs: Vec<_> = cluster.sim.procs().map(|(pid, p)| (pid, &**p)).collect();
                let view = GlobalView::from_procs(procs.iter().copied());
                for (&k, &v) in &expected {
                    assert_eq!(
                        view.find(k),
                        Some(v),
                        "seed {seed} {}: key {k} missing or wrong",
                        strategy.name()
                    );
                }
            }
            let keys: BTreeSet<u64> = expected.keys().copied().collect();
            let violations = checker::check_all(&mut cluster, &keys);
            assert!(
                violations.is_empty(),
                "seed {seed} {}: {violations:?}",
                strategy.name()
            );
        }
    }
}

#[test]
fn hash_equivalence_holds_under_perturbed_schedules() {
    for seed in EQ_SEEDS.take(PERTURBED_SEEDS as usize) {
        for strategy in [Strategy::Random, Strategy::Lifo] {
            let (spec, ops, expected) = hash_fresh_workload(seed, 80);
            let mut cluster = HashCluster::build(&spec, SimConfig::seeded(seed));
            cluster
                .sim
                .set_scheduler(strategy.build(seed ^ 0x5EED, spec.n_procs));
            for op in &ops {
                cluster.submit(op.origin, op.key, op.kind);
            }
            let stats = cluster
                .try_run_to_quiescence()
                .unwrap_or_else(|e| panic!("seed {seed} {}: {e}", strategy.name()));
            assert_eq!(
                stats.records.len(),
                ops.len(),
                "seed {seed} {}: operations lost acknowledgement",
                strategy.name()
            );
            assert_eq!(
                stats.lost_count(),
                0,
                "seed {seed}: lazy protocol dropped ops"
            );
            let violations = check_hash_cluster(&mut cluster, &expected);
            assert!(
                violations.is_empty(),
                "seed {seed} {}: {violations:?}",
                strategy.name()
            );
        }
    }
}

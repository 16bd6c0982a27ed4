//! Shared harness for the `experiments` binary (`src/bin/experiments/`)
//! and the `benchsuite` gate.
//!
//! Each experiment, E1–E21, is a module of `experiments` that regenerates
//! one figure or quantitative claim from the paper; its `main.rs` is the
//! registry, and `EXPERIMENTS.md` at the repository root has the mapping and
//! recorded results.

#![warn(missing_docs)]

pub mod reclaim;
pub mod report;
pub mod suite;

use std::collections::BTreeSet;

use dbtree::{
    BuildSpec, ClientOp, DbCluster, DbSubmission, DriverStats, Intent, Key, ScanSpec, TreeConfig,
};
use simnet::{ProcId, Release, SimConfig};
use workload::{KeyDist, Mix, Op, OpKind, WorkloadGen};

/// Entries a generated scan asks for (small: scans ride along in mixed
/// workloads to exercise the leaf-chain walk, not to dump the tree).
pub const SCAN_LIMIT: u32 = 16;

/// Convert a workload op into a driver op. Scans are a different submission
/// type — route mixed workloads through [`to_submission`] instead.
pub fn to_client(op: &Op) -> ClientOp {
    ClientOp {
        origin: ProcId(op.origin),
        key: op.key,
        intent: match op.kind {
            OpKind::Search => Intent::Search,
            OpKind::Insert => Intent::Insert(op.value),
            OpKind::Delete => Intent::Delete,
            OpKind::Scan => unreachable!("scan ops go through to_submission"),
        },
    }
}

/// Convert a workload op into a mixed-workload submission (point ops and
/// range scans both).
pub fn to_submission(op: &Op) -> DbSubmission {
    match op.kind {
        OpKind::Scan => DbSubmission::Scan(ScanSpec {
            origin: ProcId(op.origin),
            from: op.key,
            limit: SCAN_LIMIT,
        }),
        _ => DbSubmission::Op(to_client(op)),
    }
}

/// Standard experiment setup: preloaded cluster on a jittery network.
pub fn build_cluster(cfg: TreeConfig, n_procs: u32, preload: u64, seed: u64) -> DbCluster {
    let keys: Vec<Key> = (0..preload).map(|k| k * 10).collect();
    let spec = BuildSpec::new(keys, n_procs, cfg);
    DbCluster::build(&spec, SimConfig::jittery(seed, 2, 25))
}

/// The keys a standard preload installs.
pub fn preload_keys(preload: u64) -> BTreeSet<Key> {
    (0..preload).map(|k| k * 10).collect()
}

/// Drive a generated workload closed-loop; returns driver stats and the set
/// of keys expected to be findable afterwards. Scans in the mix open window
/// slots like any op and complete through [`DbCluster::take_scans`].
pub fn drive(
    cluster: &mut DbCluster,
    preload: u64,
    n_ops: usize,
    mix: Mix,
    key_space: u64,
    seed: u64,
    concurrency: usize,
) -> (DriverStats, BTreeSet<Key>) {
    let mut gen = WorkloadGen::new(
        KeyDist::Uniform { n: key_space },
        mix,
        cluster.n_procs(),
        seed ^ 0x9E37,
    );
    let items: Vec<DbSubmission> = gen.batch(n_ops).iter().map(to_submission).collect();
    let stats = cluster
        .try_run_mixed(&items, Release::Window(concurrency))
        .expect("workload failed to quiesce");
    let mut expected = preload_keys(preload);
    for r in &stats.records {
        match r.op.intent {
            Intent::Insert(_) => {
                expected.insert(r.op.key);
            }
            Intent::Delete => {
                expected.remove(&r.op.key);
            }
            Intent::Search => {}
        }
    }
    (stats, expected)
}

/// Sum a per-processor metric over the cluster.
pub fn sum_metric(cluster: &DbCluster, f: impl Fn(&dbtree::ProcMetrics) -> u64) -> u64 {
    cluster.sim.procs().map(|(_, p)| f(&p.metrics)).sum()
}

/// Format a float to 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float to 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

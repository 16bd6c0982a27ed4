#![allow(dead_code)]

//! Shared harness for the protocol integration tests.

use std::collections::BTreeSet;

use dbtree::{checker, BuildSpec, ClientOp, DbCluster, Intent, Key, TreeConfig};
use simnet::{ProcId, SimConfig};
use workload::{KeyDist, Mix, Op, OpKind, WorkloadGen};

/// Convert a workload op to a driver op.
pub fn to_client(op: &Op) -> ClientOp {
    ClientOp {
        origin: ProcId(op.origin),
        key: op.key,
        intent: match op.kind {
            OpKind::Search => Intent::Search,
            OpKind::Insert => Intent::Insert(op.value),
            OpKind::Delete => Intent::Delete,
            OpKind::Scan => unreachable!("these tests drive point-op mixes"),
        },
    }
}

/// Run `n_ops` operations against a fresh cluster; return the cluster and
/// the set of keys that must be findable afterwards (preloaded + inserted).
pub fn run_workload(
    cfg: TreeConfig,
    n_procs: u32,
    preload: u64,
    n_ops: usize,
    mix: Mix,
    seed: u64,
) -> (DbCluster, BTreeSet<Key>) {
    let preload_keys: Vec<Key> = (0..preload).map(|k| k * 10).collect();
    let spec = BuildSpec::new(preload_keys.clone(), n_procs, cfg);
    let mut cluster = DbCluster::build(&spec, SimConfig::jittery(seed, 2, 25));

    let mut gen = WorkloadGen::new(
        KeyDist::Uniform {
            n: (preload * 10).max(1000),
        },
        mix,
        n_procs,
        seed ^ 0xABCD,
    );
    let ops: Vec<ClientOp> = gen.batch(n_ops).iter().map(to_client).collect();
    let stats = cluster
        .try_run_closed_loop(&ops, 4)
        .expect("workload drains");
    assert_eq!(stats.records.len(), n_ops, "every op completes");

    let mut expected: BTreeSet<Key> = preload_keys.into_iter().collect();
    for r in &stats.records {
        if let Intent::Insert(_) = r.op.intent {
            expected.insert(r.op.key);
        }
    }
    (cluster, expected)
}

/// Assert a run satisfied every global + history requirement.
pub fn assert_clean(cluster: &mut DbCluster, expected: &BTreeSet<Key>) {
    let violations = checker::check_all(cluster, expected);
    assert!(
        violations.is_empty(),
        "violations:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The first field named `name` in a traced payload's `{:?}`
/// (`.. name: value, ..`).
pub fn traced_field<'a>(detail: &'a str, name: &str) -> Option<&'a str> {
    let rest = detail.split_once(name)?.1.strip_prefix(": ")?;
    Some(&rest[..rest.find(',')?])
}

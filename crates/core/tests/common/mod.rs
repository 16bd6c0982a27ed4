#![allow(dead_code)]

//! Shared harness for the protocol integration tests.

use std::collections::BTreeSet;

use dbtree::{checker, BuildSpec, ClientOp, DbCluster, Intent, Key, OpRecord, TreeConfig, Value};
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

/// The cheap, schedule-independent fragment of the per-key register check
/// (DESIGN § "Client contract": on single-copy leaves, completed writes and
/// reads of a key linearize as a register). Two operations are concurrent
/// when their submit-to-reply intervals touch. A search is judged only when
/// it is concurrent with no write of its key and the latest write completed
/// before it was concurrent with no other write of the key: every
/// linearization then puts that write last before the search, so the search
/// must return its value (`None` after a delete) — or, with no write before
/// it, what `preload` says the key started with. No search over
/// linearizations, sound on every schedule. Returns how many searches were
/// judged against a write (those judged against the preload come free).
///
/// Must-catch: with `nav.rs::leaf_write`'s mint-above-the-resident-stamp
/// lines removed it fires on ROADMAP item 1's migrate recipe (60 inserts of
/// one key, migrate every leaf, insert 7777, search: `Some(1059)`) — see
/// `mobility.rs::the_register_check_catches_a_write_dropped_after_a_migration`.
pub fn assert_sequential_register(
    records: &[OpRecord],
    preload: impl Fn(Key) -> Option<Value>,
) -> usize {
    let touch =
        |a: &OpRecord, b: &OpRecord| a.submitted <= b.completed && b.submitted <= a.completed;
    let mut judged = 0;
    for search in records.iter().filter(|r| r.op.intent == Intent::Search) {
        let key = search.op.key;
        let writes = || {
            let same_key = records.iter().filter(move |r| r.op.key == key);
            same_key.filter(|r| r.op.intent != Intent::Search)
        };
        if writes().any(|w| touch(w, search)) {
            continue;
        }
        let expected = match writes()
            .filter(|w| w.completed < search.submitted)
            .max_by_key(|w| w.completed)
        {
            Some(last) if writes().any(|w| w.id != last.id && touch(w, last)) => continue,
            Some(last) => {
                judged += 1;
                match last.op.intent {
                    Intent::Insert(value) => Some(value),
                    _ => None,
                }
            }
            None => preload(key),
        };
        assert_eq!(
            search.outcome.found, expected,
            "op {} read key {key} submitted at {:?}: not the register's value",
            search.id, search.submitted
        );
    }
    judged
}

//! Runtime equivalence: the same workload, driven through the same
//! `DbCluster` facade, must produce the same final tree on the
//! deterministic simulator and on real OS threads.
//!
//! Thread scheduling is nondeterministic, so the comparison is over
//! schedule-independent facts: every op inserts a *distinct fresh* key with
//! a value derived from the key, so whatever order the runtimes interleave
//! the operations in, the final key→value contents are fixed. Each run must
//! (a) acknowledge every submitted operation, (b) end with exactly the
//! expected contents findable by root navigation, and (c) pass the §3
//! history check — on both runtimes.

use std::collections::BTreeMap;

use dbtree::{
    record_final_digests_from, BuildSpec, DbCluster, DbProc, GlobalView, ProtocolKind, SeededBug,
    ThreadedDbCluster, TreeConfig,
};
use simnet::{ProcId, SessionProc, SimConfig};
// The workload and the seed matrix are shared with the trace, dhash, and
// explorer perturbed-schedule suites — see `testkit` for the freshness
// argument the equivalence comparison rests on.
use testkit::{blink_fresh_workload as workload, EQ_N_PROCS as N_PROCS, EQ_SEEDS};

/// Assert facts (a)–(c) over a finished run's records and final states.
fn assert_run(
    label: &str,
    n_ops: usize,
    n_records: usize,
    procs: Vec<(ProcId, &DbProc)>,
    log: &std::sync::Arc<parking_lot::Mutex<history::HistoryLog>>,
    expected: &BTreeMap<u64, u64>,
) {
    assert_eq!(n_records, n_ops, "{label}: operations lost acknowledgement");
    let view = GlobalView::from_procs(procs.iter().copied());
    for (&k, &v) in expected {
        assert_eq!(
            view.find(k),
            Some(v),
            "{label}: key {k} missing or wrong in final tree"
        );
    }
    record_final_digests_from(log, procs);
    let violations = log.lock().check();
    assert!(
        violations.is_empty(),
        "{label}: history violations: {violations:?}"
    );
}

fn check_equivalence(cfg: TreeConfig, n_inserts: u64) {
    for seed in EQ_SEEDS {
        let (preload, ops, expected) = workload(seed, n_inserts);
        let spec = BuildSpec::new(preload, N_PROCS, cfg.clone());

        // Simulator run (jittery service times: adversarial interleavings).
        let mut sim = DbCluster::build(&spec, SimConfig::jittery(seed, 2, 20));
        let stats = sim.try_run_closed_loop(&ops, 4).expect("workload drains");
        let log = sim.log();
        let procs: Vec<(ProcId, &DbProc)> = sim.sim.procs().map(|(pid, p)| (pid, &**p)).collect();
        assert_run(
            &format!("sim seed {seed} ({:?})", cfg.protocol),
            ops.len(),
            stats.records.len(),
            procs,
            &log,
            &expected,
        );

        // Threaded run: same processes, same driver, real interleavings.
        let mut thr = ThreadedDbCluster::build_threaded(&spec);
        let stats = thr.try_run_closed_loop(&ops, 4).expect("workload drains");
        let log = thr.log();
        let final_procs: Vec<SessionProc<DbProc>> = thr.into_procs();
        let procs: Vec<(ProcId, &DbProc)> = final_procs
            .iter()
            .enumerate()
            .map(|(i, p)| (ProcId(i as u32), &**p))
            .collect();
        assert_run(
            &format!("threaded seed {seed} ({:?})", cfg.protocol),
            ops.len(),
            stats.records.len(),
            procs,
            &log,
            &expected,
        );
    }
}

#[test]
fn semisync_equivalent_across_runtimes() {
    check_equivalence(TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3), 60);
}

#[test]
fn sync_equivalent_across_runtimes() {
    check_equivalence(TreeConfig::fixed_copies(ProtocolKind::Sync, 3), 60);
}

#[test]
fn available_copies_equivalent_across_runtimes() {
    check_equivalence(
        TreeConfig::fixed_copies(ProtocolKind::AvailableCopies, 3),
        60,
    );
}

/// `DiscardOutOfRange` drops inserts that race a split (Fig 4) — *which*
/// inserts depends on the schedule, so equivalence only holds on a
/// split-free workload: with fanout 1024 nothing splits and the seeded bug
/// behaves like the others.
#[test]
fn naive_equivalent_across_runtimes_without_splits() {
    let cfg = TreeConfig {
        fanout: 1024,
        seeded: Some(SeededBug::DiscardOutOfRange),
        ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3)
    };
    check_equivalence(cfg, 60);
}

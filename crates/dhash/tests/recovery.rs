//! Self-healing chaos tests for the hash table: a processor crashes
//! mid-workload while clients keep submitting to it, with the failure
//! detector and the client retry layer enabled. Unlike the dB-tree, the
//! hash table's entire state (directory + buckets) is stable across a
//! crash, so recovery needs no rejoin — the reliable session layer's
//! retransmissions deliver everything the outage delayed, the detector's
//! suspicion keeps the clients off the dead processor in the meantime, and
//! the assertions stay exactly those of a crash-free run. The detector-off
//! variants pin the degraded baseline: the driver's own timeout-driven
//! suspicion must self-heal the run alone.

use std::collections::BTreeMap;

use dhash::{
    check_hash_cluster, check_hash_procs, record_final_digests_from, HKind, HashCluster,
    HashConfig, HashOp, HashSpec, ThreadedHashCluster,
};
use simnet::{
    CrashEvent, DetectorConfig, FaultPlan, ProcId, RetryPolicy, SessionConfig, SimConfig, SimTime,
};

const N_PROCS: u32 = 4;
const CRASHED: ProcId = ProcId(2);
const SEED: u64 = 0xD4A5;

fn spec() -> HashSpec {
    HashSpec {
        preload: (0..64).map(|k| k * 3).collect(),
        n_procs: N_PROCS,
        cfg: HashConfig::default(),
    }
}

fn chaos_session(detector: bool) -> SessionConfig {
    if detector {
        SessionConfig::reliable().with_detector(DetectorConfig::on())
    } else {
        SessionConfig::reliable()
    }
}

fn build_chaos(seed: u64, detector: bool) -> HashCluster {
    let sim_cfg = SimConfig {
        faults: FaultPlan::lossy(0.02).with_crash(CrashEvent {
            proc: CRASHED,
            at: SimTime(150),
            restart_at: Some(SimTime(1_200)),
        }),
        ..SimConfig::jittery(seed, 2, 20)
    };
    let mut cluster = HashCluster::build_with_session(&spec(), sim_cfg, chaos_session(detector));
    cluster.set_retry(RetryPolicy {
        enabled: true,
        deadline: 600,
        ..RetryPolicy::default()
    });
    cluster
}

/// Origins cycle over all processors, the crasher included; values derive
/// from keys so a retried insert is idempotent on the final contents.
fn workload(n_ops: u64) -> Vec<HashOp> {
    (0..n_ops)
        .map(|i| {
            let key = 5 * i + 1;
            HashOp {
                origin: ProcId((i % N_PROCS as u64) as u32),
                key,
                kind: if i % 4 == 3 {
                    HKind::Search
                } else {
                    HKind::Insert(key + 1)
                },
            }
        })
        .collect()
}

/// The expected final contents: preload plus every insert in `ops`.
fn expected_map(ops: &[HashOp]) -> BTreeMap<u64, u64> {
    let mut expected: BTreeMap<u64, u64> = (0..64).map(|k| (k * 3, k * 3)).collect();
    for op in ops {
        if let HKind::Insert(v) = op.kind {
            expected.insert(op.key, v);
        }
    }
    expected
}

fn sim_chaos(detector: bool) {
    let mut cluster = build_chaos(SEED, detector);
    let ops = workload(160);
    let stats = cluster
        .try_run_closed_loop(&ops, 3)
        .expect("workload drains");

    assert_eq!(
        stats.records.len(),
        ops.len(),
        "an operation never completed"
    );
    assert_eq!(
        stats.lost_count(),
        0,
        "the lazy protocol dropped operations"
    );
    assert!(stats.timeouts > 0, "no attempt ever timed out");
    assert!(stats.retries > 0, "no operation was ever retried");
    assert_eq!(stats.abandoned, 0, "an operation ran out of attempts");

    let suspects: u64 = cluster
        .sim
        .procs()
        .map(|(_, p)| p.session_stats().suspects)
        .sum();
    if detector {
        assert!(suspects > 0, "the detector never suspected the dead proc");
    } else {
        assert_eq!(suspects, 0, "no detector, no suspicion");
    }

    let expected = expected_map(&ops);
    let violations = check_hash_cluster(&mut cluster, &expected);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn crash_mid_workload_self_heals() {
    sim_chaos(true);
}

#[test]
fn crash_recovers_without_detector() {
    sim_chaos(false);
}

/// Same seed, same run — the chaos machinery (detector timers, retry
/// backoff jitter, fault plan) is deterministic end to end.
#[test]
fn chaos_run_is_deterministic() {
    let fingerprint = |seed: u64| {
        let mut cluster = build_chaos(seed, true);
        let stats = cluster
            .try_run_closed_loop(&workload(160), 3)
            .expect("workload drains");
        let records: Vec<(u64, u64)> = stats
            .records
            .iter()
            .map(|r| (r.submitted.0, r.completed.0))
            .collect();
        (
            records,
            (stats.timeouts, stats.retries, stats.redirects),
            cluster.sim.events_delivered(),
        )
    };
    assert_eq!(fingerprint(SEED), fingerprint(SEED));
}

/// The threaded twin: a real crash/restart envelope pair around an
/// open-loop middle chunk submitted straight into the outage. Bucket and
/// directory state survive the crash (only the volatile queue is lost), so
/// the final contents must match the crash-free expectation exactly.
fn threaded_chaos(detector: bool) {
    let mut cluster =
        ThreadedHashCluster::build_threaded_with_session(&spec(), chaos_session(detector));
    // Threaded ticks are microseconds: deadlines sized for thread-scheduling
    // jitter rather than simulator hops.
    cluster.set_retry(RetryPolicy {
        enabled: true,
        deadline: 50_000,
        backoff_base: 1_000,
        backoff_max: 20_000,
        max_attempts: 20,
        ..RetryPolicy::default()
    });

    let ops = workload(160);
    let (before, during_and_after) = ops.split_at(40);
    let (during, after) = during_and_after.split_at(80);

    let mut completed = cluster
        .try_run_closed_loop(before, 3)
        .expect("workload drains")
        .records
        .len();

    cluster.sim.crash(CRASHED);
    for op in during {
        cluster.submit(op.origin, op.key, op.kind);
    }
    // The outage lasts 30 ms of wall clock; processor 0 runs meanwhile.
    let outage = std::time::Duration::from_millis(30);
    cluster.sim.run_until(std::time::Instant::now() + outage);
    cluster.sim.restart(CRASHED);
    completed += cluster
        .try_run_to_quiescence()
        .expect("run quiesces")
        .records
        .len();

    let stats = cluster
        .try_run_closed_loop(after, 3)
        .expect("workload drains");
    // Driver counters are cumulative, so this snapshot covers the outage.
    assert!(
        stats.timeouts > 0,
        "no attempt timed out against the dead proc"
    );
    assert_eq!(stats.abandoned, 0, "an operation ran out of attempts");
    completed += stats.records.len();
    assert_eq!(completed, ops.len(), "an operation never completed");

    let expected = expected_map(&ops);
    let log = cluster.log();
    let final_procs = cluster.into_procs();
    let suspects: u64 = final_procs.iter().map(|p| p.session_stats().suspects).sum();
    if detector {
        assert!(suspects > 0, "the detector never suspected the dead proc");
    } else {
        assert_eq!(suspects, 0, "no detector, no suspicion");
    }
    let procs: Vec<_> = final_procs
        .iter()
        .enumerate()
        .map(|(i, p)| (ProcId(i as u32), &**p))
        .collect();
    record_final_digests_from(&log, procs.iter().copied());
    let violations = check_hash_procs(&procs, &log, &expected);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn threaded_crash_mid_workload_self_heals() {
    threaded_chaos(true);
}

#[test]
fn threaded_crash_recovers_without_detector() {
    threaded_chaos(false);
}

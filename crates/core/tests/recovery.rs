//! Self-healing chaos tests: a processor crashes in the middle of a
//! workload whose clients *keep submitting to it*, and nothing in the
//! assertions special-cases the crash. The stack under test:
//!
//! * the session-layer failure detector suspects the dead processor and
//!   tells the protocol layer ([`simnet::DetectorConfig`]);
//! * the protocol layer quarantines it — relays stop, per-node missed bits
//!   accumulate ([`dbtree::ProcMetrics::quarantines`]);
//! * the client driver times out stuck operations, backs off, and
//!   redirects resubmissions away from the suspect
//!   ([`simnet::RetryPolicy`]), so **every accepted operation completes**;
//! * on restart the processor rejoins its interior copies (§4.3), pulls
//!   state for the copies it kept, and rehabilitated peers push what the
//!   quarantine suppressed — anti-entropy lands in `NodeCopy::merge_from`
//!   and the tree ends converged under the full oracle stack.
//!
//! Everything is seeded; the determinism test pins the whole run.

mod common;

use std::collections::BTreeSet;

use common::assert_clean;
use dbtree::{
    check_history_sequences, record_final_digests_from, BuildSpec, ClientOp, DbCluster, GlobalView,
    Intent, Key, ThreadedDbCluster, TreeConfig,
};
use simnet::{
    CrashEvent, DetectorConfig, FaultPlan, ProcId, RetryPolicy, SessionConfig, SimConfig, SimTime,
};

const N_PROCS: u32 = 4;
const CRASHED: ProcId = ProcId(2);
const SEED: u64 = 0xC4A5;

// Large enough that the built tree has two interior levels and the crashed
// processor is the PC of some replicated interior node (with fanout 8 the
// builder packs 5 keys per leaf: 240 keys → 48 leaves → the leaf partition
// boundaries land mid-group, so every processor ends up owning an interior
// node whose members cross into its neighbour). That makes the restart
// *pull* half of anti-entropy observable, not just the push half.
fn preload_keys() -> Vec<Key> {
    (0..240).map(|k| k * 20).collect()
}

/// A workload whose origins cycle over *all* processors — the crasher
/// included. The retry layer, not the workload, is responsible for getting
/// those operations answered.
fn workload(n_ops: u64) -> Vec<ClientOp> {
    (0..n_ops)
        .map(|i| ClientOp {
            origin: ProcId((i % N_PROCS as u64) as u32),
            key: 7 * i + 3,
            intent: if i % 4 == 3 {
                Intent::Search
            } else {
                Intent::Insert(i)
            },
        })
        .collect()
}

/// Crash `CRASHED` mid-workload and restart it later, over a mildly lossy
/// network (the loss keeps the reliable session layer honest).
fn chaos_plan() -> FaultPlan {
    FaultPlan::lossy(0.02).with_crash(CrashEvent {
        proc: CRASHED,
        at: SimTime(150),
        restart_at: Some(SimTime(1_200)),
    })
}

/// Retry policy tight enough that operations stuck on the dead processor
/// time out and redirect *during* the outage, not after it.
fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        enabled: true,
        deadline: 600,
        ..RetryPolicy::default()
    }
}

fn chaos_session(detector: bool) -> SessionConfig {
    if detector {
        SessionConfig::reliable().with_detector(DetectorConfig::on())
    } else {
        SessionConfig::reliable()
    }
}

fn build_chaos(seed: u64, detector: bool) -> DbCluster {
    let spec = BuildSpec::new(preload_keys(), N_PROCS, TreeConfig::default());
    let sim_cfg = SimConfig {
        faults: chaos_plan(),
        ..SimConfig::jittery(seed, 2, 20)
    };
    let mut cluster = DbCluster::build_with_session(&spec, sim_cfg, chaos_session(detector));
    cluster.set_retry(chaos_retry());
    cluster
}

fn sum_metric(cluster: &DbCluster, f: impl Fn(&dbtree::ProcMetrics) -> u64) -> u64 {
    cluster.sim.procs().map(|(_, p)| f(&p.metrics)).sum()
}

/// Shared body for the simulator chaos cells: one processor crashes
/// mid-workload, clients retry, the restart rejoins and anti-entropy
/// catches up — and the assertions are exactly the ones a crash-free run
/// would make, plus "the machinery actually fired". With the detector off,
/// the detector-driven half (suspicion, quarantine, rehabilitation pushes)
/// is asserted absent; the client retry layer and the restart pull must
/// still self-heal the run on their own.
fn sim_chaos(detector: bool) {
    let mut cluster = build_chaos(SEED, detector);
    let ops = workload(160);
    let stats = cluster
        .try_run_closed_loop(&ops, 3)
        .expect("workload drains");

    // Every accepted operation completes, crash or no crash.
    assert_eq!(
        stats.records.len(),
        ops.len(),
        "an operation never completed"
    );
    // The clients felt the crash: stuck submissions timed out and retried.
    assert!(stats.timeouts > 0, "no attempt ever timed out");
    assert!(stats.retries > 0, "no operation was ever retried");
    assert!(
        stats.redirects > 0,
        "no resubmission was redirected off the suspect"
    );
    assert_eq!(stats.abandoned, 0, "an operation ran out of attempts");

    let suspects: u64 = cluster
        .sim
        .procs()
        .map(|(_, p)| p.session_stats().suspects)
        .sum();
    let alives: u64 = cluster
        .sim
        .procs()
        .map(|(_, p)| p.session_stats().alives)
        .sum();
    if detector {
        // The detector and the quarantine/rehabilitation layer fired.
        assert!(suspects > 0, "the detector never suspected the dead proc");
        assert!(alives > 0, "the detector never saw the proc come back");
        assert!(sum_metric(&cluster, |m| m.quarantines) > 0, "no quarantine");
        assert!(
            sum_metric(&cluster, |m| m.sync_pushes) > 0,
            "no peer ever pushed catch-up state"
        );
    } else {
        assert_eq!(suspects, 0, "no detector, no suspicion");
        assert_eq!(sum_metric(&cluster, |m| m.quarantines), 0);
    }
    // Restart recovery is detector-independent: the fault plan's restart
    // drives the §4.3 rejoin and the catch-up pull either way.
    assert_eq!(
        sum_metric(&cluster, |m| m.recoveries),
        1,
        "exactly one restart recovery"
    );
    assert!(
        sum_metric(&cluster, |m| m.sync_pulls) > 0,
        "the restarted proc never pulled state for its retained copies"
    );

    // The full oracle stack — convergence digests, findability from every
    // processor, leaf chain, stashes, §3 history coverage and sequences —
    // with no crash-specific carve-outs.
    let mut expected: BTreeSet<Key> = preload_keys().into_iter().collect();
    for r in &stats.records {
        if let Intent::Insert(_) = r.op.intent {
            expected.insert(r.op.key);
        }
    }
    assert_clean(&mut cluster, &expected);
}

/// The acceptance test: detector on, full self-healing stack.
#[test]
fn crash_mid_workload_self_heals() {
    sim_chaos(true);
}

/// Detector off: the degraded baseline the detector improves on. The
/// driver's own timeout-driven suspicion and the restart pull must still
/// complete and converge the run — just without quarantine or pushes.
#[test]
fn crash_recovers_without_detector() {
    sim_chaos(false);
}

/// The same chaos run is a pure function of its seed: records, retry
/// counters, metrics, and every copy digest are byte-identical across two
/// runs.
#[test]
fn chaos_run_is_deterministic() {
    let fingerprint = |seed: u64| {
        let mut cluster = build_chaos(seed, true);
        let ops = workload(160);
        let stats = cluster
            .try_run_closed_loop(&ops, 3)
            .expect("workload drains");
        let records: Vec<(u64, u64, u64, u64)> = stats
            .records
            .iter()
            .map(|r| (r.op.origin.0 as u64, r.op.key, r.submitted.0, r.completed.0))
            .collect();
        let metrics: Vec<(String, u64)> = {
            let mut total = dbtree::ProcMetrics::default();
            for (_, p) in cluster.sim.procs() {
                total.merge(&p.metrics);
            }
            total
                .named()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect()
        };
        let digests: Vec<(u64, u32, u64)> = {
            let procs: Vec<_> = cluster.sim.procs().map(|(pid, p)| (pid, &**p)).collect();
            let mut out = Vec::new();
            for (pid, proc) in procs {
                for copy in proc.store.iter() {
                    out.push((copy.id.raw(), pid.0, copy.digest()));
                }
            }
            out.sort_unstable();
            out
        };
        (
            records,
            (stats.timeouts, stats.retries, stats.redirects),
            metrics,
            digests,
        )
    };
    assert_eq!(fingerprint(SEED), fingerprint(SEED));
}

/// The threaded twin: same stack on real OS threads. Crash and restart are
/// injected from the driving thread (real time has no fault plan): the
/// middle chunk is submitted open-loop *into the outage* — some of those
/// operations land on the dead processor, some need leaves it owns — and
/// only then does the processor come back. As in the simulator test, the
/// assertions make no crash-specific allowance: every operation completes
/// and the final states pass the same oracles.
fn threaded_chaos(detector: bool) {
    let spec = BuildSpec::new(preload_keys(), N_PROCS, TreeConfig::default());
    let mut cluster =
        ThreadedDbCluster::build_threaded_with_session(&spec, chaos_session(detector));
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

    let mut records = Vec::new();
    records.extend(
        cluster
            .try_run_closed_loop(before, 3)
            .expect("workload drains")
            .records,
    );

    // Crash, then submit straight into the outage. Injections into the dead
    // processor are its lost volatile queue; only the retry layer gets them
    // answered. `run_until` keeps the outage real on a wall clock — long
    // enough for the peers' detectors to suspect the silence — while the
    // caller-hosted processor 0 keeps running.
    cluster.sim.crash(CRASHED);
    for op in during {
        cluster.submit(*op);
    }
    let outage = std::time::Duration::from_millis(30);
    cluster.sim.run_until(std::time::Instant::now() + outage);
    cluster.sim.restart(CRASHED);
    records.extend(cluster.try_run_to_quiescence().expect("run quiesces"));

    let stats = cluster
        .try_run_closed_loop(after, 3)
        .expect("workload drains");
    // Driver counters are cumulative, so this snapshot covers the outage.
    assert!(
        stats.timeouts > 0,
        "no attempt timed out against the dead proc"
    );
    assert_eq!(stats.abandoned, 0, "an operation ran out of attempts");
    records.extend(stats.records);

    assert_eq!(records.len(), ops.len(), "an operation never completed");

    let mut expected: BTreeSet<Key> = preload_keys().into_iter().collect();
    for r in &records {
        if let Intent::Insert(_) = r.op.intent {
            expected.insert(r.op.key);
        }
    }

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

    // Convergence: every copy of every node ends at the same digest.
    let view = GlobalView::from_procs(procs.iter().copied());
    for (node, list) in &view.copies {
        let digests: BTreeSet<u64> = list.iter().map(|(_, c)| c.digest()).collect();
        assert_eq!(
            digests.len(),
            1,
            "copies of node {node:?} diverged: {list:?}"
        );
    }
    // Findability of every acknowledged insert by root navigation.
    for r in &records {
        if let Intent::Insert(v) = r.op.intent {
            assert_eq!(view.find(r.op.key), Some(v), "key {} lost", r.op.key);
        }
    }
    for k in &expected {
        assert!(view.find(*k).is_some(), "preloaded key {k} lost");
    }
    // §3 history oracles: coverage + final digests, and sequence laws.
    let log = log.lock();
    let violations = log.check();
    assert!(violations.is_empty(), "history: {violations:?}");
    let seq = check_history_sequences(&log);
    assert!(seq.is_empty(), "sequences: {seq:?}");
}

#[test]
fn threaded_crash_mid_workload_self_heals() {
    threaded_chaos(true);
}

/// Threaded, detector off: crash/restart envelopes with only the session
/// layer's retransmissions and the driver's timeout-driven retries.
#[test]
fn threaded_crash_recovers_without_detector() {
    threaded_chaos(false);
}

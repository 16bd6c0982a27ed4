//! E18 — self-healing: detection latency vs false suspects vs op latency.
//!
//! The failure detector's one real tunable is *how long silence means
//! dead* (`PING_INTERVAL × suspect_after`). Setting it low detects a
//! crash fast — and mistakes every lossy-network hiccup for one; setting
//! it high never errs — and leaves clients hammering a corpse until
//! their own deadlines fire. This experiment sweeps that threshold over
//! a crash-restart run (one processor dies at t=150, restarts at t=1200,
//! clients keep submitting to it, client retry enabled) and measures all
//! three costs at once, then repeats the endpoints on the threaded
//! runtime where the crash is a real envelope into a live worker.
//!
//! The simulator tables are pure functions of `SEED`.

use bench::f1;
use bench::report::{note, Table};
use dbtree::{BuildSpec, ClientOp, DbCluster, Intent, ThreadedDbCluster, TreeConfig};
use simnet::{
    CrashEvent, DetectorConfig, FaultPlan, ProcId, RetryPolicy, SessionConfig, SimConfig, SimTime,
    TraceEvent, PING_INTERVAL,
};

const N_PROCS: u32 = 4;
const N_OPS: u64 = 160;
const CRASHED: ProcId = ProcId(2);
const CRASH_AT: u64 = 150;
const RESTART_AT: u64 = 1_200;
const SEED: u64 = 0xE18;

fn spec() -> BuildSpec {
    BuildSpec::new(
        (0..240).map(|k| k * 20).collect(),
        N_PROCS,
        TreeConfig::default(),
    )
}

/// Origins cycle over all processors — the crasher included; the retry
/// layer, not the workload, is responsible for answering those ops.
fn workload() -> Vec<ClientOp> {
    (0..N_OPS)
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

fn retry() -> RetryPolicy {
    RetryPolicy {
        enabled: true,
        deadline: 600,
        ..RetryPolicy::default()
    }
}

fn build(faults: FaultPlan, detector: Option<DetectorConfig>) -> DbCluster {
    let sim_cfg = SimConfig {
        faults,
        trace_capacity: 1 << 17,
        ..SimConfig::jittery(SEED, 2, 20)
    };
    let session = match detector {
        Some(d) => SessionConfig::reliable().with_detector(d),
        None => SessionConfig::reliable(),
    };
    let mut cluster = DbCluster::build_with_session(&spec(), sim_cfg, session);
    cluster.set_retry(retry());
    cluster
}

fn crash_plan() -> FaultPlan {
    FaultPlan::lossy(0.02).with_crash(CrashEvent {
        proc: CRASHED,
        at: SimTime(CRASH_AT),
        restart_at: Some(SimTime(RESTART_AT)),
    })
}

/// Split the run's suspect transitions into (first true detection tick,
/// true count, false count): a suspicion is *true* iff it names the
/// crashed processor during its outage. With `outage: None` (no crash in
/// the run) every suspicion is a mistake.
fn suspect_stats(cluster: &mut DbCluster, outage: Option<(u64, u64)>) -> (Option<u64>, u64, u64) {
    let tag = format!("{CRASHED:?} ");
    let obs = cluster.take_obs();
    assert_eq!(obs.trace.dropped(), 0, "trace ring buffer overflowed");
    let (mut first, mut truthy, mut falsy) = (None, 0u64, 0u64);
    for e in obs.trace.iter() {
        if e.event != TraceEvent::Suspect {
            continue;
        }
        let of_crashed = outage
            .map(|(from, to)| e.detail().starts_with(&tag) && e.at.0 >= from && e.at.0 <= to)
            .unwrap_or(false);
        if of_crashed {
            truthy += 1;
            if first.is_none() {
                first = Some(e.at.0);
            }
        } else {
            falsy += 1;
        }
    }
    (first, truthy, falsy)
}

/// The sweep: detection latency, false suspects, and op latency as the
/// silence threshold moves. The detector-off row is the degraded
/// baseline — the client deadline is then the only failure signal.
fn detection_sweep() {
    let mut table = Table::new(&[
        "threshold (ticks)",
        "detect after",
        "true/false suspects",
        "lat mean",
        "p99",
        "timeouts",
        "retries",
        "completed",
    ]);
    let mut configs: Vec<(String, Option<DetectorConfig>)> = vec![("off".into(), None)];
    for suspect_after in [1u32, 2, 3, 5] {
        let d = DetectorConfig {
            suspect_after,
            ..DetectorConfig::on()
        };
        configs.push((format!("{}", PING_INTERVAL * suspect_after as u64), Some(d)));
    }
    for (label, detector) in configs {
        let mut cluster = build(crash_plan(), detector);
        let ops = workload();
        let stats = cluster
            .try_run_closed_loop(&ops, 3)
            .expect("workload drains");
        assert_eq!(stats.records.len(), ops.len(), "an op never completed");
        let (first, truthy, falsy) = suspect_stats(&mut cluster, Some((CRASH_AT, RESTART_AT)));
        table.row(&[
            label,
            match first {
                Some(at) => format!("{} ticks", at - CRASH_AT),
                None => "—".to_string(),
            },
            format!("{truthy}/{falsy}"),
            f1(stats.mean_latency()),
            stats.latency_quantile(0.99).to_string(),
            stats.timeouts.to_string(),
            stats.retries.to_string(),
            format!("{}/{}", stats.records.len(), ops.len()),
        ]);
    }
    table.print();
    note("every row completes 100% of accepted ops — the threshold trades how soon");
    note("peers stop relaying to the corpse (quarantine) against misfires; the");
    note("client's own deadline keeps ops moving even with the detector off");
}

/// False-suspect rate without any crash: the same thresholds on an
/// increasingly lossy (but fully live) network. Every suspicion here is
/// a mistake.
fn false_suspect_control() {
    let mut table = Table::new(&["threshold (ticks)", "5% loss", "15% loss", "25% loss"]);
    for suspect_after in [1u32, 2, 3, 5] {
        let d = DetectorConfig {
            suspect_after,
            ..DetectorConfig::on()
        };
        let mut row = vec![format!("{}", PING_INTERVAL * suspect_after as u64)];
        for loss in [0.05, 0.15, 0.25] {
            let mut cluster = build(FaultPlan::lossy(loss), Some(d));
            let ops = workload();
            let stats = cluster
                .try_run_closed_loop(&ops, 3)
                .expect("workload drains");
            assert_eq!(stats.records.len(), ops.len());
            let (_, truthy, falsy) = suspect_stats(&mut cluster, None);
            assert_eq!(truthy, 0, "nothing crashed");
            row.push(falsy.to_string());
        }
        table.row(&row);
    }
    table.print();
    note("false suspicions (suspect events with every processor live): pings are");
    note("unsequenced, so heavy loss can silence a peer past a short threshold;");
    note("each misfire costs one quarantine + one catch-up push when it clears");
}

/// The threaded endpoints: detector on vs off around a real crash/restart
/// envelope pair, wall-clock latency in microseconds.
fn threaded() {
    let mut table = Table::new(&[
        "detector",
        "suspects",
        "timeouts",
        "lat mean (us)",
        "completed",
    ]);
    for detector in [true, false] {
        let session = if detector {
            SessionConfig::reliable().with_detector(DetectorConfig::on())
        } else {
            SessionConfig::reliable()
        };
        let mut cluster = ThreadedDbCluster::build_threaded_with_session(&spec(), session);
        cluster.set_retry(RetryPolicy {
            enabled: true,
            deadline: 50_000,
            backoff_base: 1_000,
            backoff_max: 20_000,
            max_attempts: 20,
            ..RetryPolicy::default()
        });
        let ops = workload();
        let (before, rest) = ops.split_at(40);
        let (during, after) = rest.split_at(80);

        let mut records = cluster
            .try_run_closed_loop(before, 3)
            .expect("workload drains")
            .records;
        cluster.sim.crash(CRASHED);
        for op in during {
            cluster.submit(*op);
        }
        // 30 ms of outage, with processor 0 running on this thread.
        let outage = std::time::Duration::from_millis(30);
        cluster.sim.run_until(std::time::Instant::now() + outage);
        cluster.sim.restart(CRASHED);
        records.extend(cluster.try_run_to_quiescence().expect("run quiesces"));
        let stats = cluster
            .try_run_closed_loop(after, 3)
            .expect("workload drains");
        records.extend(stats.records.iter().cloned());

        let mean = records
            .iter()
            .map(|r| (r.completed.0 - r.submitted.0) as f64)
            .sum::<f64>()
            / records.len().max(1) as f64;
        let final_procs = cluster.into_procs();
        let suspects: u64 = final_procs.iter().map(|p| p.session_stats().suspects).sum();
        table.row(&[
            if detector { "on" } else { "off" }.to_string(),
            suspects.to_string(),
            stats.timeouts.to_string(),
            f1(mean),
            format!("{}/{}", records.len(), ops.len()),
        ]);
    }
    table.print();
    note("same stack on OS threads: the 30ms outage is long enough for the peers'");
    note("detectors to suspect the silence; either way every op completes and the");
    note("final states pass the oracle stack (asserted in tests/recovery.rs)");
}

pub fn run(_: &crate::Args) {
    detection_sweep();
    false_suspect_control();
    threaded();
}

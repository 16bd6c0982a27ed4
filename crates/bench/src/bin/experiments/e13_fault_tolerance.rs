//! E13 — fault tolerance: lazy updates over a network that actually fails.
//!
//! The paper assumes exactly-once FIFO channels and reliable processors
//! (§4), noting that the queue managers are "stable" (§1.1) so the
//! structure survives crashes. This experiment measures what it costs to
//! *earn* those assumptions:
//!
//! 1. **Drop sweep** — the same insert workload over networks losing
//!    0%–20% of messages (plus 5% duplication). The reliable-delivery
//!    session layer retransmits and deduplicates until every operation
//!    completes and every copy converges; the price is retransmissions,
//!    acks (`msgs/payload` = everything the session sends per payload it
//!    carries — 1.0 would be free), payloads that wait in the reorder
//!    buffer behind a hole (`held %` of those carried; descents never do)
//!    and latency, never correctness.
//! 2. **Without the session layer** — the same lossy network with raw
//!    channels: operations hang and updates are silently lost, the Fig 4
//!    failure mode writ large.
//! 3. **Crash/recovery** — a processor crashes mid-storm and restarts; its
//!    volatile interior copies are re-acquired through the §4.3 join
//!    protocol and the tree ends converged.
//!
//! Deterministic: every table is a pure function of the seeds below.

use bench::report::{note, Table};
use bench::{f1, f2};
use dbtree::{checker, BuildSpec, ClientOp, DbCluster, Intent, TreeConfig};
use simnet::{CrashEvent, FaultPlan, ProcId, SessionConfig, SessionStats, SimConfig, SimTime};

const N_PROCS: u32 = 4;
const N_OPS: u64 = 300;
const SEED: u64 = 13;

fn spec() -> BuildSpec {
    BuildSpec::new(
        (0..100).map(|k| k * 20).collect(),
        N_PROCS,
        TreeConfig::default(),
    )
}

fn sim_cfg(faults: FaultPlan) -> SimConfig {
    SimConfig {
        faults,
        ..SimConfig::jittery(SEED, 2, 20)
    }
}

fn workload(avoid: Option<ProcId>) -> Vec<ClientOp> {
    let origins: Vec<ProcId> = (0..N_PROCS)
        .map(ProcId)
        .filter(|p| Some(*p) != avoid)
        .collect();
    (0..N_OPS)
        .map(|i| ClientOp {
            origin: origins[i as usize % origins.len()],
            key: 7 * i + 3,
            intent: Intent::Insert(i),
        })
        .collect()
}

fn session_totals(cluster: &DbCluster) -> SessionStats {
    let mut total = SessionStats::default();
    for (_, p) in cluster.sim.procs() {
        total.merge(p.session_stats());
    }
    total
}

fn drop_sweep() {
    let mut table = Table::new(&[
        "drop rate",
        "dup rate",
        "lost+duped",
        "retransmits",
        "acks",
        "msgs/payload",
        "dups suppressed",
        "held %",
        "mean latency",
        "p99",
        "violations",
    ]);
    for drop_pct in [0u32, 5, 10, 15, 20] {
        let plan = FaultPlan::lossy(drop_pct as f64 / 100.0).with_dup(0.05);
        let mut cluster = DbCluster::build(&spec(), sim_cfg(plan));
        let ops = workload(None);
        let stats = cluster
            .try_run_closed_loop(&ops, 3)
            .expect("workload drains");
        assert_eq!(stats.records.len(), ops.len(), "an op never completed");

        let mut expected = bench::preload_keys(0);
        expected.extend((0..100).map(|k| k * 20));
        for r in &stats.records {
            expected.insert(r.op.key);
        }
        let violations = checker::check_all(&mut cluster, &expected);

        let faults = *cluster.sim.stats().faults();
        let session = session_totals(&cluster);
        table.row(&[
            format!("{drop_pct}%"),
            "5%".to_string(),
            format!("{}+{}", faults.total_lost(), faults.duplicated),
            session.retransmissions.to_string(),
            session.acks_sent.to_string(),
            f2(
                (session.data_sent + session.retransmissions + session.acks_sent) as f64
                    / session.data_sent as f64,
            ),
            session.dup_suppressed.to_string(),
            f1(100.0 * session.held as f64 / session.data_sent as f64),
            f1(stats.mean_latency()),
            stats.latency_quantile(0.99).to_string(),
            violations.len().to_string(),
        ]);
    }
    table.print();
    note("every run completes all 300 inserts with zero violations; the drop rate");
    note("buys latency (retransmission round-trips), never correctness");
}

fn without_session() {
    let mut table = Table::new(&["drop rate", "completed of 300", "history violations"]);
    for drop_pct in [5u32, 15] {
        let plan = FaultPlan::lossy(drop_pct as f64 / 100.0);
        // Explicitly disable the session layer: raw lossy channels.
        let mut cluster =
            DbCluster::build_with_session(&spec(), sim_cfg(plan), SessionConfig::default());
        let ops = workload(None);
        // Open-loop: a closed loop would stall on the first lost reply.
        for op in &ops {
            cluster.submit(*op);
        }
        let records = cluster.try_run_to_quiescence().expect("run quiesces");
        let violations = cluster.log().lock().check().len();
        table.row(&[
            format!("{drop_pct}%"),
            format!("{}", records.len()),
            violations.to_string(),
        ]);
    }
    table.print();
    note("raw channels: operations vanish mid-descent and relays are lost —");
    note("the history checker catches the damage the session layer prevents");
}

fn crash_recovery() {
    let crashed = ProcId(2);
    let crash_at = 300u64;
    let mut table = Table::new(&[
        "restart at",
        "recoveries",
        "rejoins",
        "retransmits",
        "makespan",
        "violations",
    ]);
    for restart_at in [600u64, 1_200, 2_400] {
        let plan = FaultPlan::lossy(0.02).with_crash(CrashEvent {
            proc: crashed,
            at: SimTime(crash_at),
            restart_at: Some(SimTime(restart_at)),
        });
        let mut cluster = DbCluster::build(&spec(), sim_cfg(plan));
        let ops = workload(Some(crashed));
        let stats = cluster
            .try_run_closed_loop(&ops, 3)
            .expect("workload drains");
        assert_eq!(stats.records.len(), ops.len(), "an op never completed");

        let mut expected: std::collections::BTreeSet<u64> = (0..100).map(|k| k * 20).collect();
        for r in &stats.records {
            expected.insert(r.op.key);
        }
        let violations = checker::check_all(&mut cluster, &expected);
        let recoveries = bench::sum_metric(&cluster, |m| m.recoveries);
        let rejoins = bench::sum_metric(&cluster, |m| m.recovery_rejoins);
        let session = session_totals(&cluster);
        table.row(&[
            format!("t={restart_at}"),
            recoveries.to_string(),
            rejoins.to_string(),
            session.retransmissions.to_string(),
            stats.makespan.to_string(),
            violations.len().to_string(),
        ]);
    }
    table.print();
    note("the restarted processor drops its volatile interior copies and rejoins");
    note("each one through the §4.3 version-numbered join protocol; peers' session");
    note("endpoints retransmit everything it missed, and the tree ends converged");
}

fn zero_overhead() {
    // The fault machinery must cost nothing when unused: a FaultPlan::none()
    // run is message-for-message identical to the pre-fault simulator.
    let run = |faults: FaultPlan| {
        let mut cluster = DbCluster::build(&spec(), sim_cfg(faults));
        let ops = workload(None);
        let stats = cluster
            .try_run_closed_loop(&ops, 3)
            .expect("workload drains");
        (
            cluster.sim.events_delivered(),
            cluster.sim.stats().total_messages(),
            f2(stats.mean_latency()),
        )
    };
    let (events, msgs, lat) = run(FaultPlan::none());
    let (events2, msgs2, lat2) = run(FaultPlan::none());
    assert_eq!((events, msgs, &lat), (events2, msgs2, &lat2));
    note(&format!(
        "fault-free baseline: {events} deliveries, {msgs} messages, mean latency {lat} \
         (session layer pass-through, zero overhead)"
    ));
}

pub fn run(_: &crate::Args) {
    drop_sweep();
    without_session();
    crash_recovery();
    zero_overhead();
}

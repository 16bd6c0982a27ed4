//! Observability-layer guarantees at the tree level: observation never
//! perturbs the computation (the zero-overhead pin), the lazy-lag gauges
//! surface in the sampled series, and the seeded relay-suppression fault
//! trips the `backlog_growth` watchdog on exactly the suppressed processor.

mod common;

use common::to_client;
use dbtree::{BuildSpec, ClientOp, DbCluster, PiggybackCfg, ProtocolKind, SeededBug, TreeConfig};
use simnet::{HealthConfig, SimConfig};
use workload::{KeyDist, Mix, WorkloadGen};

const N_PROCS: u32 = 4;
const SEED: u64 = 4242;

fn tree_cfg(suppress: Option<u32>) -> TreeConfig {
    TreeConfig {
        piggyback: Some(PiggybackCfg::default()),
        seeded: suppress.map(SeededBug::RelaySuppress),
        ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3)
    }
}

/// Run one fixed workload and return `(event digest, completion digest,
/// cluster)`. The event digest is the simulator's externally visible
/// footprint; the completion digest is every op's timing and outcome.
fn run(sim_cfg: SimConfig, suppress: Option<u32>) -> (u64, u64, u64, Vec<String>, DbCluster) {
    let spec = BuildSpec::new(
        (0..120).map(|k| k * 10).collect(),
        N_PROCS,
        tree_cfg(suppress),
    );
    let mut cluster = DbCluster::build(&spec, sim_cfg);
    let mut gen = WorkloadGen::new(
        KeyDist::Uniform { n: 2000 },
        Mix {
            search_fraction: 0.3,
            delete_fraction: 0.1,
            scan_fraction: 0.0,
        },
        N_PROCS,
        SEED,
    );
    let ops: Vec<ClientOp> = gen.batch(600).iter().map(to_client).collect();
    let stats = cluster
        .try_run_closed_loop(&ops, 6)
        .expect("workload drains");
    let completions: Vec<String> = stats
        .records
        .iter()
        .map(|r| {
            format!(
                "{}@{}..{}:{:?}",
                r.id,
                r.submitted.ticks(),
                r.completed.ticks(),
                r.outcome
            )
        })
        .collect();
    (
        cluster.sim.stats().total_messages(),
        cluster.sim.now().ticks(),
        cluster.sim.events_delivered(),
        completions,
        cluster,
    )
}

/// The zero-overhead pin: a run with the full observability stack on —
/// tracing, sampling, gauges, health watchdogs — is event-for-event and
/// completion-for-completion identical to the same seed with `ObsConfig`
/// fully disabled. Observation draws no RNG and schedules no events.
#[test]
fn enabled_observability_is_byte_identical_to_disabled() {
    let disabled = SimConfig::jittery(SEED, 2, 25);
    assert_eq!(disabled.trace_capacity, 0);
    assert_eq!(disabled.sample_interval, 0);
    assert!(!disabled.health.enabled);
    let enabled = SimConfig {
        trace_capacity: 1 << 14,
        sample_interval: 100,
        health: HealthConfig::watchdogs(),
        ..SimConfig::jittery(SEED, 2, 25)
    };

    let (msgs_a, now_a, events_a, completions_a, mut off) = run(disabled, None);
    let (msgs_b, now_b, events_b, completions_b, mut on) = run(enabled, None);
    assert_eq!(msgs_a, msgs_b, "message counts diverge");
    assert_eq!(now_a, now_b, "virtual clocks diverge");
    assert_eq!(events_a, events_b, "delivered event counts diverge");
    assert_eq!(completions_a, completions_b, "op outcomes/timings diverge");

    // The disabled side observed nothing at all...
    let obs_off = off.take_obs();
    assert!(obs_off.trace.is_empty());
    assert!(obs_off.series.is_empty());
    assert!(obs_off.alerts.is_empty());
    // ...while the enabled side genuinely observed the same run.
    let obs_on = on.take_obs();
    assert!(!obs_on.trace.is_empty());
    assert!(!obs_on.series.is_empty());
    assert!(obs_on.alerts.is_empty(), "healthy run must not alert");
}

/// Every documented lazy-lag gauge shows up in the sampled series, and the
/// simulator appends its own event-queue depth gauge to each sample.
#[test]
fn lazy_lag_gauges_surface_in_the_series() {
    let cfg = SimConfig {
        sample_interval: 100,
        ..SimConfig::jittery(SEED, 2, 25)
    };
    let (_, _, _, _, mut cluster) = run(cfg, None);
    let obs = cluster.take_obs();
    assert!(!obs.series.is_empty());
    for name in [
        "proc.merge_pending",
        "proc.parked_dwell",
        "proc.parked_writes",
        "relay.backlog_age",
        "relay.backlog_depth",
        "relay.deferred_depth",
        "store.staleness_max",
        "rt.event_queue_depth",
    ] {
        assert!(
            obs.series
                .iter()
                .any(|s| s.gauges.iter().any(|(n, _)| *n == name)),
            "gauge {name} never sampled"
        );
    }
    // Relays flowed, so at least one sample caught a non-empty backlog and
    // at least one copy carries a staleness stamp.
    let nonzero = |name: &str| {
        obs.series
            .iter()
            .flat_map(|s| s.gauges.iter())
            .any(|(n, v)| *n == name && *v > 0)
    };
    assert!(nonzero("relay.backlog_depth"), "backlog never observed");
    assert!(nonzero("store.staleness_max"), "staleness never stamped");
}

/// The seeded E21 fault: suppressing relay batches on one processor makes
/// its backlog depth/age grow until `backlog_growth` fires — on that
/// processor and no other, with no other rule involved.
#[test]
fn relay_suppression_trips_the_backlog_watchdog_on_the_right_proc() {
    const VICTIM: u32 = 2;
    let cfg = SimConfig {
        sample_interval: 100,
        health: HealthConfig::watchdogs(),
        ..SimConfig::jittery(SEED, 2, 25)
    };
    let (_, _, _, _, mut cluster) = run(cfg, Some(VICTIM));
    let obs = cluster.take_obs();
    assert!(
        !obs.alerts.is_empty(),
        "suppressed backlog never tripped the watchdog"
    );
    for a in &obs.alerts {
        assert_eq!(a.rule, "backlog_growth");
        assert_eq!(a.proc.0, VICTIM, "alert named the wrong processor: {a:?}");
    }
    let report = obs.health_report();
    assert!(!report.healthy());
    assert_eq!(
        report.by_rule.get("backlog_growth"),
        Some(&(obs.alerts.len() as u64))
    );
}

//! Byte-level pins of the observability exports.
//!
//! The trace records raw and renders at export (DESIGN, "Observability"),
//! so what these tests hold fixed is the *rendered* output: an FNV-1a
//! digest of `trace_jsonl() + series_jsonl() + alerts_jsonl()` for three
//! fixed-seed runs — two whose ring holds the whole run, captured from the
//! eager `format!`-per-delivery recorder, and one whose ring wraps many
//! times over, captured from the boxed-payload recorder. Any drift in a
//! detail string, a counter delta, a sample, an alert, the eviction order
//! or the `seq` gap moves a digest.

mod common;

use common::to_client;
use dbtree::{BuildSpec, ClientOp, DbCluster, PiggybackCfg, ProtocolKind, SeededBug, TreeConfig};
use simnet::{FaultPlan, HealthConfig, Obs, SessionConfig, SimConfig, TraceEvent};
use workload::{KeyDist, Mix, WorkloadGen};

const N_PROCS: u32 = 4;
const SEED: u64 = 2024;
const N_OPS: usize = 600;

fn fnv1a(parts: &[&str]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in parts.iter().flat_map(|p| p.bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(obs: &Obs) -> u64 {
    fnv1a(&[&obs.trace_jsonl(), &obs.series_jsonl(), &obs.alerts_jsonl()])
}

fn ops() -> Vec<ClientOp> {
    let mut gen = WorkloadGen::new(
        KeyDist::Uniform { n: 5000 },
        Mix {
            search_fraction: 0.2,
            delete_fraction: 0.1,
            scan_fraction: 0.0,
        },
        N_PROCS,
        SEED,
    );
    gen.batch(N_OPS).iter().map(to_client).collect()
}

/// P = 4 SemiSync, three copies of every node, fanout 8 (so the stream
/// splits leaves and relays every write), full obs stack on.
fn cluster(lossy: bool) -> DbCluster {
    let cfg = TreeConfig {
        fanout: 8,
        ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3)
    };
    let spec = BuildSpec::new((0..120).map(|k| k * 10).collect(), N_PROCS, cfg);
    let mut sim_cfg = SimConfig {
        trace_capacity: 1 << 16,
        sample_interval: 50,
        health: HealthConfig::watchdogs(),
        ..SimConfig::jittery(SEED, 2, 25)
    };
    if lossy {
        sim_cfg.faults = FaultPlan::lossy(0.03).with_dup(0.01);
        DbCluster::build_with_session(&spec, sim_cfg, SessionConfig::reliable())
    } else {
        DbCluster::build(&spec, sim_cfg)
    }
}

fn run(lossy: bool) -> Obs {
    let mut c = cluster(lossy);
    let stats = c.try_run_closed_loop(&ops(), 4).expect("workload drains");
    assert_eq!(stats.records.len(), N_OPS);
    let obs = c.take_obs();
    assert_eq!(obs.trace.dropped(), 0, "capacity must hold the run");
    obs
}

fn count(jsonl: &str, needle: &str) -> usize {
    jsonl.lines().filter(|l| l.contains(needle)).count()
}

#[test]
fn clean_run_exports_are_pinned() {
    let obs = run(false);
    let trace = obs.trace_jsonl();
    assert!(count(&trace, "\"kind\":\"split.relay\"") > 0, "splits ran");
    assert!(count(&trace, "\"relays_applied\":1") > 0, "relays ran");
    assert!(!obs.series.is_empty());
    assert_eq!(
        digest(&obs),
        0xb91c_16b2_3c18_fd15,
        "clean-run export digest"
    );
}

#[test]
fn lossy_run_exports_are_pinned() {
    let obs = run(true);
    let trace = obs.trace_jsonl();
    for needle in [
        "\"event\":\"drop\"",
        "\"event\":\"duplicate\"",
        "\"event\":\"timer\"",
        "\"redelivery\":true",
        "\"session.retransmissions\":",
        "\"session.early\":",
        "\"session.held\":",
    ] {
        assert!(count(&trace, needle) > 0, "no line with {needle}");
    }
    assert_eq!(
        digest(&obs),
        0x889d_c578_0775_2110,
        "lossy-run export digest"
    );
}

/// Drop the `"seq":N,` prefix: a fresh ring restarts its numbering.
fn without_seq(jsonl: &str) -> Vec<&str> {
    jsonl
        .lines()
        .map(|l| &l[l.find("\"at\"").expect("at follows seq")..])
        .collect()
}

/// Taking the capture mid-run must not disturb what is recorded next: the
/// counter deltas of later actions are still per action (not "since the
/// capture was taken") and their details still render.
#[test]
fn take_obs_mid_run_keeps_deltas_and_details() {
    for lossy in [false, true] {
        let mut c = cluster(lossy);
        let ops = ops();
        let (first, second) = ops.split_at(N_OPS / 2);
        c.try_run_closed_loop(first, 4).expect("first half drains");
        let a = c.take_obs();
        c.try_run_closed_loop(second, 4)
            .expect("second half drains");
        let b = c.take_obs();

        // The same two phases again, never taking the first capture.
        let mut r = cluster(lossy);
        r.try_run_closed_loop(first, 4).expect("first half drains");
        r.try_run_closed_loop(second, 4)
            .expect("second half drains");
        let replay = r.take_obs();

        let (ta, tb, tr) = (a.trace_jsonl(), b.trace_jsonl(), replay.trace_jsonl());
        let mut split = without_seq(&ta);
        split.extend(without_seq(&tb));
        assert_eq!(split, without_seq(&tr), "lossy={lossy}: trace lines");
        assert_eq!(
            a.series_jsonl() + &b.series_jsonl(),
            replay.series_jsonl(),
            "lossy={lossy}: series"
        );
        assert!(tb.contains("\"deltas\":{\""), "second capture has deltas");
        assert!(tb.contains("\"detail\":\"Raw(") || tb.contains("\"detail\":\"Data {"));
    }
}

/// The ring wraps: 256 slots against a run that records some two thousand
/// events, with relay batches suppressed on one processor (E21's seeded
/// fault) so that `backlog_growth` fires early. The export is the newest
/// records, a `seq` gap at the front exactly as long as `dropped()`, and
/// every alert — kept while the ordinary traffic around it was evicted.
#[test]
fn wrapped_ring_exports_are_pinned() {
    const CAP: usize = 256;
    const VICTIM: u32 = 2;
    let cfg = TreeConfig {
        fanout: 8,
        piggyback: Some(PiggybackCfg::default()),
        seeded: Some(SeededBug::RelaySuppress(VICTIM)),
        ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3)
    };
    let spec = BuildSpec::new((0..120).map(|k| k * 10).collect(), N_PROCS, cfg);
    let sim_cfg = SimConfig {
        trace_capacity: CAP,
        sample_interval: 50,
        health: HealthConfig::watchdogs(),
        ..SimConfig::jittery(SEED, 2, 25)
    };
    let mut c = DbCluster::build(&spec, sim_cfg);
    let stats = c.try_run_closed_loop(&ops(), 4).expect("workload drains");
    assert_eq!(stats.records.len(), N_OPS);
    let obs = c.take_obs();

    let trace = &obs.trace;
    assert_eq!(trace.len(), CAP);
    assert!(trace.dropped() > 5 * CAP as u64, "{}", trace.dropped());
    let seqs: Vec<u64> = trace.iter().map(|e| e.seq).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq order");
    assert_eq!(
        seqs.last().map(|s| s + 1),
        Some(trace.dropped() + CAP as u64),
        "every record is retained or counted dropped"
    );
    let alerts: Vec<_> = trace.of_event(TraceEvent::Alert).collect();
    assert!(
        !obs.alerts.is_empty(),
        "the suppressed backlog tripped a watchdog"
    );
    assert_eq!(alerts.len(), obs.alerts.len(), "every alert is retained");
    assert!(alerts.iter().all(|e| e.kind == "backlog_growth"));
    let oldest_other = trace.iter().find(|e| e.event != TraceEvent::Alert);
    assert!(
        alerts[0].seq < oldest_other.expect("traffic retained").seq,
        "the first alert outlived the traffic recorded after it"
    );
    assert_eq!(
        digest(&obs),
        0x1ab0_58d5_6206_efbb,
        "wrapped-ring export digest"
    );
}

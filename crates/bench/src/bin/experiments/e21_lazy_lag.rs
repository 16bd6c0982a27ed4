//! E21 — lazy lag under load, and catching a relay-suppression incident.
//!
//! The paper's lazy-update pitch is that replica maintenance can trail the
//! initial update arbitrarily — but a *healthy* deployment keeps that lag
//! bounded by the piggyback flush interval, and an operator needs to see
//! when it is not. This experiment measures the lag directly and proves the
//! online watchdogs catch its failure mode:
//!
//! * **Clean run** — a mixed workload over a replicated tree with
//!   piggybacked relays and the health watchdogs armed. The
//!   `relay.backlog_age` gauge (oldest buffered relay's age at each sample)
//!   stays bounded by the flush interval on every processor, and **zero**
//!   alerts fire.
//! * **Faulted run** — identical except `SeededBug::RelaySuppress` injects
//!   the seeded E21 fault on one processor: it keeps buffering relays but never
//!   sends a batch and never arms the flush timer. Its backlog depth and
//!   age grow monotonically, the `backlog_growth` watchdog fires on exactly
//!   that processor, and no other rule (and no other processor) alerts.
//!
//! Per-`OpKind` latency quantiles come from `DriverStats::split_by` — the
//! lazy protocol's reads are not paying for the injected write backlog.
//!
//! `--export DIR` writes the four JSONL exports
//! (`e21_{clean,faulted}.{trace,samples}.jsonl`) for `obsctl`; CI
//! post-mortems them with `obsctl report --must-alert backlog_growth` /
//! `--must-not-alert`. `--smoke` shrinks the op count.

use bench::report::{note, Table};
use bench::to_client;
use dbtree::{
    BuildSpec, ClientOp, DbCluster, Intent, PiggybackCfg, ProtocolKind, SeededBug, TreeConfig,
};
use simnet::{HealthConfig, Obs, SimConfig};
use workload::{KeyDist, Mix, WorkloadGen};

const N_PROCS: u32 = 4;
/// The processor the faulted run suppresses relays on.
const FAULT_PROC: u32 = 1;
const SAMPLE_INTERVAL: u64 = 100;
const SEED: u64 = 21;

fn config(faulted: bool) -> TreeConfig {
    TreeConfig {
        piggyback: Some(PiggybackCfg::default()),
        seeded: faulted.then_some(SeededBug::RelaySuppress(FAULT_PROC)),
        ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3)
    }
}

fn observe(faulted: bool, n_ops: usize) -> (dbtree::DriverStats, Obs) {
    let spec = BuildSpec::new((0..200).map(|k| k * 10).collect(), N_PROCS, config(faulted));
    let sim_cfg = SimConfig {
        trace_capacity: 1 << 16,
        sample_interval: SAMPLE_INTERVAL,
        health: HealthConfig::watchdogs(),
        ..SimConfig::jittery(SEED, 2, 25)
    };
    let mut cluster = DbCluster::build(&spec, sim_cfg);
    let mut gen = WorkloadGen::new(
        KeyDist::Uniform { n: 4000 },
        Mix {
            search_fraction: 0.4,
            delete_fraction: 0.1,
            scan_fraction: 0.0,
        },
        N_PROCS,
        SEED,
    );
    let ops: Vec<ClientOp> = gen.batch(n_ops).iter().map(to_client).collect();
    let stats = cluster
        .try_run_closed_loop(&ops, 8)
        .expect("workload drains");
    (stats, cluster.take_obs())
}

/// Per-processor max of one gauge across the series.
fn gauge_max(obs: &Obs, name: &str) -> Vec<(u32, u64)> {
    let mut max = vec![0u64; N_PROCS as usize];
    for s in &obs.series {
        if let Some(&(_, v)) = s.gauges.iter().find(|(n, _)| *n == name) {
            max[s.proc.index()] = max[s.proc.index()].max(v);
        }
    }
    max.into_iter()
        .enumerate()
        .map(|(p, v)| (p as u32, v))
        .collect()
}

fn kind_of(op: &ClientOp) -> &'static str {
    match op.intent {
        Intent::Search => "search",
        Intent::Insert(_) => "insert",
        Intent::Delete => "delete",
    }
}

fn export(dir: &std::path::Path, label: &str, obs: &Obs) {
    std::fs::create_dir_all(dir).expect("create export dir");
    let write = |suffix: &str, body: String| {
        let path = dir.join(format!("e21_{label}.{suffix}.jsonl"));
        std::fs::write(&path, body).expect("write export");
        note(&format!("wrote {}", path.display()));
    };
    write("trace", obs.trace_jsonl());
    write("samples", obs.series_jsonl());
}

pub fn run(args: &crate::Args) {
    let n_ops = if args.smoke { 600 } else { 2000 };

    // -- clean control ------------------------------------------------------
    let (clean_stats, clean_obs) = observe(false, n_ops);
    let clean_report = clean_obs.health_report();
    // The lag bound: a buffered relay lives at most `flush_interval` ticks
    // before the timer flushes it, plus one sampling window of slack for the
    // sample landing between buffering and flush.
    let bound = PiggybackCfg::default().flush_interval + SAMPLE_INTERVAL;
    let clean_age = gauge_max(&clean_obs, "relay.backlog_age");
    let mut t = Table::new(&["proc", "max backlog age (clean)", "bound"]);
    for (p, v) in &clean_age {
        t.row(&[format!("P{p}"), v.to_string(), bound.to_string()]);
    }
    t.print();
    assert!(
        clean_report.healthy(),
        "clean run must not alert, got {:?}",
        clean_obs.alerts
    );
    for (p, v) in &clean_age {
        assert!(
            v <= &bound,
            "P{p}: clean backlog age {v} exceeds the lazy bound {bound}"
        );
    }
    note("clean: zero alerts; lazy lag bounded by the piggyback flush interval on every proc");

    // -- injected relay suppression ----------------------------------------
    let (faulted_stats, faulted_obs) = observe(true, n_ops);
    let report = faulted_obs.health_report();
    let faulted_age = gauge_max(&faulted_obs, "relay.backlog_age");
    let faulted_depth = gauge_max(&faulted_obs, "relay.backlog_depth");
    let mut t = Table::new(&["proc", "max backlog age", "max backlog depth"]);
    for ((p, age), (_, depth)) in faulted_age.iter().zip(&faulted_depth) {
        t.row(&[format!("P{p}"), age.to_string(), depth.to_string()]);
    }
    t.print();
    assert!(
        !report.healthy(),
        "the injected suppression must trip a watchdog"
    );
    for a in &faulted_obs.alerts {
        assert_eq!(a.rule, "backlog_growth", "unexpected rule: {a:?}");
        assert_eq!(a.proc.0, FAULT_PROC, "alert on the wrong processor: {a:?}");
    }
    let suppressed_age = faulted_age[FAULT_PROC as usize].1;
    assert!(
        suppressed_age > bound,
        "suppressed proc's lag ({suppressed_age}) should blow through the bound ({bound})"
    );
    note(&format!(
        "faulted: {} backlog_growth alert(s), all on P{FAULT_PROC}; its lag reached {} ticks \
         (clean bound: {bound})",
        faulted_obs.alerts.len(),
        suppressed_age,
    ));

    // -- per-kind latency (split_by) ----------------------------------------
    let mut t = Table::new(&["kind", "ops", "mean", "p50", "p99", "(faulted) mean", "p99"]);
    let clean_kinds = clean_stats.split_by(kind_of);
    let faulted_kinds = faulted_stats.split_by(kind_of);
    for (kind, part) in &clean_kinds {
        let f = faulted_kinds.get(kind);
        t.row(&[
            kind.to_string(),
            part.records.len().to_string(),
            format!("{:.1}", part.mean_latency()),
            part.latency_quantile(0.5).to_string(),
            part.latency_quantile(0.99).to_string(),
            f.map_or("-".to_string(), |s| format!("{:.1}", s.mean_latency())),
            f.map_or("-".to_string(), |s| s.latency_quantile(0.99).to_string()),
        ]);
    }
    t.print();
    note("suppressed relays are off every op's critical path: per-kind latency is unmoved");

    if let Some(dir) = &args.export {
        export(dir, "clean", &clean_obs);
        export(dir, "faulted", &faulted_obs);
    }
}

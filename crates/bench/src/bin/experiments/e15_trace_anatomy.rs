//! E15 — causal op anatomy: where does an operation's latency go?
//!
//! The observability layer stamps every runtime event with the span of the
//! operation it is causally attributable to, and the JSONL export is the
//! only input this experiment consumes — proving an injected operation is
//! reconstructible end-to-end from the trace alone.
//!
//! A replicated tree is driven closed-loop under jittery latency *with the
//! service-time model on*, so operations genuinely queue behind busy node
//! managers. The trace then decomposes each op's latency into:
//!
//! * **queueing** — ticks the op's own navigation hops spent waiting for a
//!   busy node manager (the `wait` field on on-path deliveries),
//! * **transit** — the remainder: link latency between hops,
//!
//! and separates the op's **off-path** work — relays, split rounds, copy
//! installs attributed to its span — which executes *after* the reply left
//! (the paper's lazy-update claim, visible per operation).
//!
//! The slowest operations are printed hop by hop, with the protocol-counter
//! deltas each hop caused (link chases and relays made visible per-hop).

use std::collections::BTreeMap;

use bench::report::{note, Table};
use bench::{f1, to_client};
use dbtree::{BuildSpec, ClientOp, DbCluster, ProtocolKind, TreeConfig};
use obs::model::{parse_trace_jsonl, TraceRec as Rec};
use simnet::{SimConfig, SimTime};
use workload::{KeyDist, Mix, WorkloadGen};

const N_PROCS: u32 = 4;
const SERVICE_TIME: u64 = 4;
const SAMPLE_INTERVAL: u64 = 250;

/// Message kinds on an operation's critical path: the request injection and
/// the navigation hops that carry it to its reply. Everything else a span
/// owns (relays, split rounds, installs) is off-path fan-out.
const ON_PATH: &[&str] = &["client", "descend", "scan"];

struct Anatomy {
    latency: u64,
    /// Ticks on-path deliveries waited for a busy node manager.
    queueing: u64,
    /// Executed on-path actions (hops).
    hops: u64,
    /// Executed off-path actions attributed to the span.
    off_path: u64,
    /// Ticks the off-path actions spent queued (never on the op's clock).
    off_queueing: u64,
    chases: u64,
    relays: u64,
}

fn anatomy(chain: &[&Rec], latency: u64) -> Anatomy {
    let actions: Vec<&&Rec> = chain.iter().filter(|r| r.event == "deliver").collect();
    let delta_sum = |name: &str| {
        actions
            .iter()
            .flat_map(|r| &r.deltas)
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v)
            .sum()
    };
    let chases = delta_sum("link_chases");
    let relays = delta_sum("relays_applied");
    let (on, off): (Vec<&&Rec>, Vec<&&Rec>) = actions
        .into_iter()
        .partition(|r| ON_PATH.contains(&r.kind.as_str()));
    Anatomy {
        latency,
        queueing: on.iter().map(|r| r.wait).sum(),
        hops: on.len() as u64,
        off_path: off.len() as u64,
        off_queueing: off.iter().map(|r| r.wait).sum(),
        chases,
        relays,
    }
}

pub fn run(_: &crate::Args) {
    let cfg = TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3);
    let spec = BuildSpec::new((0..100).map(|k| k * 10).collect(), N_PROCS, cfg);
    let sim_cfg = SimConfig {
        trace_capacity: 1 << 20,
        sample_interval: SAMPLE_INTERVAL,
        service_time: SERVICE_TIME,
        ..SimConfig::jittery(15, 2, 25)
    };
    let mut cluster = DbCluster::build(&spec, sim_cfg);

    let mut gen = WorkloadGen::new(
        KeyDist::Uniform { n: 4000 },
        Mix {
            search_fraction: 0.5,
            ..Mix::INSERT_ONLY
        },
        N_PROCS,
        15,
    );
    let ops: Vec<ClientOp> = gen.batch(400).iter().map(to_client).collect();
    let stats = cluster
        .try_run_closed_loop(&ops, 4)
        .expect("workload drains");
    let obs = cluster.take_obs();

    // Everything below reads only the exports.
    let trace_jsonl = obs.trace_jsonl();
    let series_jsonl = obs.series_jsonl();
    let recs = parse_trace_jsonl(&trace_jsonl).expect("the export parses under its own schema");
    let mut by_span: BTreeMap<u64, Vec<&Rec>> = BTreeMap::new();
    for r in &recs {
        if let Some(sp) = r.span {
            by_span.entry(sp).or_default().push(r);
        }
    }
    note(&format!(
        "trace: {} records ({} spans); series: {} samples",
        recs.len(),
        by_span.len(),
        series_jsonl.lines().count()
    ));

    // Latency per span from the driver's completion records.
    let latency_of: BTreeMap<u64, u64> = stats
        .records
        .iter()
        .map(|r| (r.outcome.op.0, r.latency()))
        .collect();

    // Aggregate decomposition over every completed op.
    let mut total = Anatomy {
        latency: 0,
        queueing: 0,
        hops: 0,
        off_path: 0,
        off_queueing: 0,
        chases: 0,
        relays: 0,
    };
    for (span, latency) in &latency_of {
        let Some(chain) = by_span.get(span) else {
            continue;
        };
        let a = anatomy(chain, *latency);
        total.latency += a.latency;
        total.queueing += a.queueing;
        total.hops += a.hops;
        total.off_path += a.off_path;
        total.off_queueing += a.off_queueing;
        total.chases += a.chases;
        total.relays += a.relays;
    }
    let n = latency_of.len() as f64;
    let pct = |x: u64| format!("{:.0}%", 100.0 * x as f64 / total.latency as f64);
    let mut table = Table::new(&["phase", "ticks/op", "share of latency"]);
    table.row(&[
        "queueing (wait for node manager)".to_string(),
        f1(total.queueing as f64 / n),
        pct(total.queueing),
    ]);
    table.row(&[
        "transit (link latency between hops)".to_string(),
        f1(total.latency.saturating_sub(total.queueing) as f64 / n),
        pct(total.latency - total.queueing.min(total.latency)),
    ]);
    table.row(&[
        "total (mean latency)".to_string(),
        f1(stats.mean_latency()),
        "100%".to_string(),
    ]);
    table.print();
    note(&format!(
        "per op: {:.1} on-path hops ({:.0} ticks of server occupancy), {:.2} link chases",
        total.hops as f64 / n,
        total.hops as f64 * SERVICE_TIME as f64 / n,
        total.chases as f64 / n,
    ));
    note(&format!(
        "off the critical path: {:.1} actions/op ({:.2} relays applied), {:.1} queued \
         ticks/op that never touched the op's latency",
        total.off_path as f64 / n,
        total.relays as f64 / n,
        total.off_queueing as f64 / n,
    ));
    let h = stats.latency_histogram();
    note(&format!(
        "latency histogram: p50<={} p90<={} p99<={} max={}",
        h.quantile(0.50),
        h.quantile(0.90),
        h.quantile(0.99),
        h.max()
    ));

    // Hop-chain anatomy of the slowest operations.
    let mut slowest: Vec<(&u64, &u64)> = latency_of.iter().collect();
    slowest.sort_by_key(|(_, l)| std::cmp::Reverse(**l));
    for (span, latency) in slowest.into_iter().take(2) {
        let chain = &by_span[span];
        let a = anatomy(chain, *latency);
        let submitted = SimTime(chain.first().map_or(0, |r| r.at));
        println!(
            "\nslowest op: span {span}, latency {latency} \
             (queueing {}, transit {})",
            a.queueing,
            latency.saturating_sub(a.queueing)
        );
        for r in chain.iter() {
            let deltas = if r.deltas.is_empty() {
                String::new()
            } else {
                format!(
                    "  [{}]",
                    r.deltas
                        .iter()
                        .map(|(n, v)| format!("{n}+{v}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                )
            };
            println!(
                "  +{:<5} {:<9} {:>2} -> {:<2} {:<20} wait={}{}",
                r.at - submitted.ticks(),
                r.event,
                r.from,
                r.to,
                r.kind,
                r.wait,
                deltas
            );
        }
    }
    note("every line above was reconstructed from the JSONL trace export alone");
}

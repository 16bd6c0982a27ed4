//! `obsctl` — post-mortem a run from its JSONL exports alone.
//!
//! A run (e.g. the E21 experiment or the CI chaos cell) writes a pair of
//! export files named `<prefix>.trace.jsonl` and `<prefix>.samples.jsonl`.
//! `obsctl` re-parses them against the pinned schemas and prints the
//! incident story:
//!
//! ```text
//! obsctl report <prefix> [--window TICKS] [--json]
//!               [--must-alert RULE] [--must-not-alert]
//! obsctl deltas <prefix> --from T --to T [--json]
//! obsctl diff <prefixA> <prefixB> [--json]
//! ```
//!
//! * `report` — run summary, every alert with an incident timeline of the
//!   trace around it, per-processor lazy-lag percentiles, and the slowest
//!   reconstructed op chains. `--must-alert RULE` exits 2 unless at least
//!   one alert of that rule fired; `--must-not-alert` exits 2 if *any*
//!   alert fired — the CI guards.
//! * `deltas` — first-to-last movement of every counter and gauge inside
//!   a time window.
//! * `diff` — alert counts per rule and lag p99 per processor, side by
//!   side for two runs.
//!
//! Exit codes: 0 success, 1 usage/parse error, 2 a `--must-*` guard failed.

use std::process::ExitCode;

use obs::{parse_samples_jsonl, parse_trace_jsonl, Diff, Report, SampleRec, TraceRec};

/// Default incident-timeline half-width, in ticks.
const DEFAULT_WINDOW: u64 = 200;
/// Most trace lines shown per incident timeline.
const TIMELINE_LIMIT: usize = 14;

fn usage() -> ExitCode {
    eprintln!(
        "usage: obsctl report <prefix> [--window TICKS] [--json] [--must-alert RULE] [--must-not-alert]\n\
         \u{20}      obsctl deltas <prefix> --from T --to T [--json]\n\
         \u{20}      obsctl diff <prefixA> <prefixB> [--json]\n\
         \n\
         <prefix> names a pair of exports: <prefix>.trace.jsonl + <prefix>.samples.jsonl"
    );
    ExitCode::from(1)
}

fn load(prefix: &str) -> Result<(Vec<TraceRec>, Vec<SampleRec>), String> {
    let read = |path: String| {
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let trace = parse_trace_jsonl(&read(format!("{prefix}.trace.jsonl"))?)
        .map_err(|e| format!("{prefix}.trace.jsonl: {e}"))?;
    let samples = parse_samples_jsonl(&read(format!("{prefix}.samples.jsonl"))?)
        .map_err(|e| format!("{prefix}.samples.jsonl: {e}"))?;
    Ok((trace, samples))
}

fn print_report(report: &Report, trace: &[TraceRec], window: u64) {
    println!(
        "run: {} procs, {} trace records (head gap {}), {} samples, ticks {}..{}",
        report.procs,
        report.events,
        report.head_gap,
        report.samples,
        report.first_at.map_or("-".to_string(), |t| t.to_string()),
        report.last_at.map_or("-".to_string(), |t| t.to_string()),
    );
    if report.healthy() {
        println!("health: OK — no watchdog fired");
    } else {
        println!("health: {} alert(s)", report.alerts.len());
        for (rule, n) in &report.by_rule {
            println!("  {rule}: {n}");
        }
    }
    for alert in &report.alerts {
        println!(
            "\nincident: {} on P{} at {} (value {} > threshold {}, {} windows)",
            alert.rule, alert.proc, alert.at, alert.value, alert.threshold, alert.windows
        );
        let around = obs::timeline(trace, alert.at, window);
        let shown = around.len().min(TIMELINE_LIMIT);
        for r in around.iter().take(shown) {
            println!(
                "  {:>8}  {:<9} {:>3} -> {:<3} {:<22} {}",
                r.at,
                r.event,
                r.from,
                r.to,
                r.kind,
                if r.detail.len() > 48 {
                    &r.detail[..48]
                } else {
                    &r.detail
                }
            );
        }
        if around.len() > shown {
            println!(
                "  ... {} more within ±{} ticks",
                around.len() - shown,
                window
            );
        }
    }
    if !report.lag.is_empty() {
        println!("\nlazy lag (relay.backlog_age per proc):");
        println!("  proc      p50      p90      p99      max");
        for (p, q) in &report.lag {
            println!(
                "  P{:<4} {:>8} {:>8} {:>8} {:>8}",
                p, q.p50, q.p90, q.p99, q.max
            );
        }
    }
    let by_kind = obs::kind_visits(trace);
    if !by_kind.is_empty() {
        println!(
            "\ndeliveries by kind (an action keeps going in-process while its next node is local):"
        );
        println!(
            "  kind                   deliveries   visits  visits/delivery  link chases  update chases"
        );
        for (kind, k) in &by_kind {
            println!(
                "  {:<22} {:>10} {:>8} {:>16.2} {:>12} {:>14}",
                kind,
                k.deliveries,
                k.visits,
                k.visits as f64 / k.deliveries as f64,
                k.link_chases,
                k.update_chases
            );
        }
    }
    if !report.slowest.is_empty() {
        println!("\nslowest op chains:");
        for c in &report.slowest {
            println!(
                "  span {:<8} {:>3} hops, {:>6} ticks elapsed, {:>5} queued",
                c.span, c.hops, c.elapsed, c.wait
            );
        }
    }
}

fn cmd_report(args: &[String]) -> ExitCode {
    let Some(prefix) = args.first() else {
        return usage();
    };
    let mut window = DEFAULT_WINDOW;
    let mut json = false;
    let mut must_alert: Option<String> = None;
    let mut must_not_alert = false;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--window" => match it.next().and_then(|v| v.parse().ok()) {
                Some(w) => window = w,
                None => return usage(),
            },
            "--json" => json = true,
            "--must-alert" => match it.next() {
                Some(rule) => must_alert = Some(rule.clone()),
                None => return usage(),
            },
            "--must-not-alert" => must_not_alert = true,
            _ => return usage(),
        }
    }
    let (trace, samples) = match load(prefix) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("obsctl: {e}");
            return ExitCode::from(1);
        }
    };
    let report = Report::build(&trace, &samples);
    if json {
        println!("{}", report.to_json());
    } else {
        print_report(&report, &trace, window);
    }
    if let Some(rule) = must_alert {
        if !report.alerts.iter().any(|a| a.rule == rule) {
            eprintln!("obsctl: guard failed — expected a {rule:?} alert, none fired");
            return ExitCode::from(2);
        }
    }
    if must_not_alert && !report.healthy() {
        eprintln!(
            "obsctl: guard failed — expected a clean run, {} alert(s) fired",
            report.alerts.len()
        );
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

fn cmd_deltas(args: &[String]) -> ExitCode {
    let Some(prefix) = args.first() else {
        return usage();
    };
    let mut from: Option<u64> = None;
    let mut to: Option<u64> = None;
    let mut json = false;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--from" => from = it.next().and_then(|v| v.parse().ok()),
            "--to" => to = it.next().and_then(|v| v.parse().ok()),
            "--json" => json = true,
            _ => return usage(),
        }
    }
    let (Some(t0), Some(t1)) = (from, to) else {
        return usage();
    };
    let (_, samples) = match load(prefix) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("obsctl: {e}");
            return ExitCode::from(1);
        }
    };
    let deltas = obs::window_deltas(&samples, t0, t1);
    if json {
        let body: Vec<String> = deltas
            .iter()
            .map(|d| {
                format!(
                    "{{\"proc\":{},\"name\":\"{}\",\"first\":{},\"last\":{},\"gauge\":{}}}",
                    d.proc, d.name, d.first, d.last, d.gauge
                )
            })
            .collect();
        println!("[{}]", body.join(","));
    } else {
        println!("metric movement in [{t0}, {t1}]:");
        for d in &deltas {
            println!(
                "  P{:<4} {:<28} {:>8} -> {:<8} ({}{})",
                d.proc,
                d.name,
                d.first,
                d.last,
                if d.delta() >= 0 { "+" } else { "" },
                d.delta()
            );
        }
        if deltas.is_empty() {
            println!("  (nothing moved)");
        }
    }
    ExitCode::SUCCESS
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let (Some(a), Some(b)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let json = args.iter().any(|x| x == "--json");
    let (ra, rb) = match (load(a), load(b)) {
        (Ok((ta, sa)), Ok((tb, sb))) => (Report::build(&ta, &sa), Report::build(&tb, &sb)),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("obsctl: {e}");
            return ExitCode::from(1);
        }
    };
    let diff = Diff::of(&ra, &rb);
    if json {
        println!("{}", diff.to_json());
    } else {
        println!("alerts: A={} B={}", diff.alerts.0, diff.alerts.1);
        for (rule, (na, nb)) in &diff.rules {
            println!("  {rule}: A={na} B={nb}");
        }
        println!("lag p99 (relay.backlog_age):");
        for (p, (qa, qb)) in &diff.lag_p99 {
            println!("  P{p}: A={qa} B={qb}");
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => cmd_report(&args[1..]),
        Some("deltas") => cmd_deltas(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        _ => usage(),
    }
}

//! `explore` — the schedule-exploration CLI.
//!
//! Runs the canned scenarios (dB-tree protocols × hash table, with and
//! without faults) under an iteration/time budget, reports schedules
//! explored and oracle verdicts, and writes a shrunk repro file for every
//! failure found. Exit status is non-zero iff any oracle fired, so CI can
//! run it as a smoke job.
//!
//! ```text
//! cargo run --release -p explore -- --iters 200 --seed 7 --out target/repros
//! cargo run --release -p explore -- --secs 60          # wall-clock budget
//! cargo run --release -p explore -- --scenario naive   # the broken variant
//! ```

use std::path::PathBuf;
use std::time::Duration;

use dbtree::{ProtocolKind, SeededBug};
use explore::repro::MAX_PROCS;
use explore::{
    blink_scenario, check, crash_faults, dpor, emit_test, explore, format_repro_lossy, frontier,
    hash_scenario, light_faults, merge_race_scenario, merge_scenario, Budget, CheckOptions,
    CheckState, Scenario,
};
use simnet::FaultPlan;

struct Args {
    iters: u64,
    secs: Option<u64>,
    seed: u64,
    out: Option<PathBuf>,
    scenario: String,
    ops: usize,
    exhaustive: bool,
    dpor: bool,
    depth: usize,
    max_schedules: u64,
    frontier: Option<PathBuf>,
    procs: Option<u32>,
}

fn usage() -> ! {
    eprintln!(
        "usage: explore [--iters N] [--secs S] [--seed S] [--ops N] \
         [--scenario all|blink|hash|crash|merge|unsafe-merge|naive|wedged] [--out DIR]\n\
         \n\
         Explores schedules for the canned scenarios, checking every run\n\
         against the structural and history-theory oracles. Writes shrunk\n\
         repro files (and a generated #[test] next to each) to --out.\n\
         Exits non-zero if any oracle violation was found.\n\
         \n\
         Model-checking mode:\n\
         --exhaustive          bounded-exhaustive search instead of random\n\
         --dpor                partial-order reduction (also prints the\n\
                               unreduced schedule count for comparison)\n\
         --depth N             choice-point depth bound (default 12)\n\
         --max-schedules N     schedule budget per scenario (default 5000)\n\
         --frontier FILE       persist/resume the search frontier\n\
         --procs N             override the scenario's processor count\n\
                               (1..={MAX_PROCS}, as in a repro file)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        iters: 100,
        secs: None,
        seed: 1,
        out: None,
        scenario: "all".to_string(),
        ops: 10,
        exhaustive: false,
        dpor: false,
        depth: 12,
        max_schedules: 5_000,
        frontier: None,
        procs: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| usage_missing(name));
        match flag.as_str() {
            "--iters" => args.iters = val("--iters").parse().unwrap_or_else(|_| usage()),
            "--secs" => args.secs = Some(val("--secs").parse().unwrap_or_else(|_| usage())),
            "--seed" => args.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--ops" => args.ops = val("--ops").parse().unwrap_or_else(|_| usage()),
            "--scenario" => args.scenario = val("--scenario"),
            "--out" => args.out = Some(PathBuf::from(val("--out"))),
            "--exhaustive" => args.exhaustive = true,
            "--dpor" => args.dpor = true,
            "--depth" => args.depth = val("--depth").parse().unwrap_or_else(|_| usage()),
            "--max-schedules" => {
                args.max_schedules = val("--max-schedules").parse().unwrap_or_else(|_| usage())
            }
            "--frontier" => args.frontier = Some(PathBuf::from(val("--frontier"))),
            "--procs" => {
                let p = val("--procs").parse().unwrap_or_else(|_| usage());
                if !(1..=MAX_PROCS).contains(&p) {
                    usage();
                }
                args.procs = Some(p);
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn usage_missing(name: &str) -> ! {
    eprintln!("missing value for {name}");
    usage();
}

/// The scenario matrix. `naive` seeds Fig 4's lost-insert bug
/// (`SeededBug::DiscardOutOfRange`) — useful for watching the explorer
/// catch and shrink a real bug.
fn scenarios(which: &str, seed: u64, ops: usize) -> Vec<(&'static str, Scenario)> {
    let mut out: Vec<(&'static str, Scenario)> = Vec::new();
    let blink = |p, f| blink_scenario(p, seed, ops, f);
    match which {
        "blink" => {
            out.push((
                "blink-semisync",
                blink(ProtocolKind::SemiSync, light_faults()),
            ));
            out.push(("blink-sync", blink(ProtocolKind::Sync, light_faults())));
        }
        "hash" => {
            out.push(("hash", hash_scenario(seed, ops, light_faults())));
        }
        "crash" => {
            out.push((
                "blink-crash",
                blink(ProtocolKind::SemiSync, crash_faults(1)),
            ));
            out.push(("hash-crash", hash_scenario(seed, ops, crash_faults(1))));
        }
        "naive" => {
            let naive = blink(ProtocolKind::SemiSync, FaultPlan::none());
            out.push(("naive", naive.with_bug(SeededBug::DiscardOutOfRange)));
        }
        "merge" => {
            out.push((
                "merge-semisync",
                merge_scenario(ProtocolKind::SemiSync, seed, ops, light_faults()),
            ));
            out.push((
                "merge-crash",
                merge_scenario(ProtocolKind::SemiSync, seed, ops, crash_faults(1)),
            ));
        }
        "unsafe-merge" => {
            // The injected check-then-act bug — like `naive`, exists to
            // watch the explorer catch and shrink a real violation.
            let scenario = merge_race_scenario().with_bug(SeededBug::MergeNoReverify);
            out.push(("unsafe-merge", scenario));
        }
        "wedged" => {
            // The injected liveness bug: every schedule that empties a leaf
            // wedges its merge forever — the liveness oracle's test dummy.
            let scenario = merge_race_scenario().with_bug(SeededBug::MergeWedgeGrants);
            out.push(("wedged", scenario));
        }
        "all" => {
            out.push((
                "blink-semisync",
                blink(ProtocolKind::SemiSync, light_faults()),
            ));
            out.push(("blink-sync", blink(ProtocolKind::Sync, light_faults())));
            out.push((
                "blink-crash",
                blink(ProtocolKind::SemiSync, crash_faults(1)),
            ));
            out.push((
                "merge-semisync",
                merge_scenario(ProtocolKind::SemiSync, seed, ops, light_faults()),
            ));
            out.push((
                "merge-crash",
                merge_scenario(ProtocolKind::SemiSync, seed, ops, crash_faults(1)),
            ));
            out.push(("hash", hash_scenario(seed, ops, light_faults())));
            out.push(("hash-crash", hash_scenario(seed, ops, crash_faults(1))));
        }
        _ => usage(),
    }
    out
}

/// Report one failure and write its repro artifacts. Never panics: an
/// unrepresentable failure (e.g. a liveness trip whose plan carries
/// partitions) degrades to a commented, non-replayable file — the exit
/// status still goes non-zero and the evidence still lands on disk.
fn emit_failure(out: &Option<PathBuf>, name: &str, i: usize, failure: &explore::Failure) {
    println!(
        "  failure {i}: strategy={} ops={} choices={} — {}",
        failure.strategy,
        failure.scenario.ops.len(),
        failure.choices.len(),
        failure.violations.first().map(String::as_str).unwrap_or(""),
    );
    let repro = format_repro_lossy(failure);
    if let Some(dir) = out {
        let path = dir.join(format!("{name}-{i}.repro"));
        std::fs::write(&path, &repro).expect("write repro file");
        if let Ok(test) = emit_test(&format!("repro_{}_{i}", name.replace('-', "_")), failure) {
            std::fs::write(dir.join(format!("{name}-{i}.rs")), test).expect("write repro test");
        }
        println!("  wrote {}", path.display());
    } else {
        print!("{repro}");
    }
}

/// Run the model checker over one scenario, chunking through the frontier
/// file (if any) so an interrupted run resumes. Returns the aggregated
/// report.
fn check_chunked(
    scenario: &Scenario,
    opts: &CheckOptions,
    frontier_path: Option<&PathBuf>,
) -> Result<dpor::CheckReport, String> {
    let id = frontier::scenario_id(scenario, opts);
    let mut state: Option<CheckState> = match frontier_path {
        Some(p) => frontier::load(p, id)?,
        None => None,
    };
    let mut agg = dpor::CheckReport::default();
    loop {
        let remaining = opts.max_schedules.saturating_sub(agg.schedules);
        if remaining == 0 {
            agg.capped = true;
            return Ok(agg);
        }
        let chunk = CheckOptions {
            // Checkpoint the frontier every few hundred schedules; without
            // a frontier file there is nothing to checkpoint, so run the
            // whole budget in one call.
            max_schedules: if frontier_path.is_some() {
                remaining.min(250)
            } else {
                remaining
            },
            ..opts.clone()
        };
        let (r, s) = check(scenario, &chunk, state.take())?;
        agg.schedules += r.schedules;
        agg.total_schedules = r.total_schedules;
        agg.steps += r.steps;
        agg.pruned += r.pruned;
        agg.races += r.races;
        agg.sleep_skips += r.sleep_skips;
        agg.failing_runs += r.failing_runs;
        agg.shrink_stats.candidates += r.shrink_stats.candidates;
        agg.shrink_stats.accepted += r.shrink_stats.accepted;
        let room = opts.max_failures.saturating_sub(agg.failures.len());
        agg.failures.extend(r.failures.into_iter().take(room));
        agg.complete = r.complete;
        if let Some(p) = frontier_path {
            frontier::save(p, id, &s)?;
        }
        if r.complete {
            return Ok(agg);
        }
        state = Some(s);
    }
}

/// The `--exhaustive` mode: bounded-exhaustive model checking per scenario,
/// with an unreduced comparison pass when `--dpor` is on. Returns the
/// failure count.
fn run_exhaustive(args: &Args, matrix: Vec<(&'static str, Scenario)>) -> usize {
    let mut total_failures = 0usize;
    let multi = matrix.len() > 1;
    for (name, mut scenario) in matrix {
        // A scenario keyword can expand to several sub-scenarios; each gets
        // its own frontier file (they are distinct searches, and the store
        // rightly refuses to mix them).
        let frontier_path = args.frontier.as_ref().map(|p| {
            if multi {
                let mut os = p.clone().into_os_string();
                os.push(format!(".{name}"));
                PathBuf::from(os)
            } else {
                p.clone()
            }
        });
        if let Some(p) = args.procs {
            scenario.n_procs = p;
            // Scenarios script their ops and crashes against their native
            // processor count; fold both into the override so no op targets
            // a processor that doesn't exist (it would never complete and
            // read as a livelock).
            for op in &mut scenario.ops {
                op.origin %= p;
            }
            scenario.faults.crashes.retain(|c| c.proc.0 < p);
        }
        // Probabilistic faults are RNG draws, not schedule choices — the
        // checker can't enumerate them and they poison state fingerprints.
        // Scripted crashes stay: they are schedulable control events.
        if scenario.faults.drop_prob > 0.0 || scenario.faults.dup_prob > 0.0 {
            scenario.faults.drop_prob = 0.0;
            scenario.faults.dup_prob = 0.0;
            println!("{name:16} note: probabilistic faults stripped for exhaustive search");
        }
        if !dpor::supports(&scenario) {
            println!("{name:16} skipped: not model-checkable (hash or partitions)");
            continue;
        }
        let opts = CheckOptions {
            dpor: args.dpor,
            depth: args.depth,
            max_schedules: args.max_schedules,
            ..CheckOptions::default()
        };
        // The unreduced baseline: same bound, no reduction, count only.
        // Skipped when a frontier file is in play — the comparison would
        // re-pay the full unreduced search on every resume.
        let baseline = if args.dpor && args.frontier.is_none() {
            let unreduced = CheckOptions {
                dpor: false,
                max_failures: 0,
                shrink_candidates: 0,
                ..opts.clone()
            };
            match check_chunked(&scenario, &unreduced, None) {
                Ok(r) => Some(r),
                Err(e) => {
                    eprintln!("{name}: baseline pass failed: {e}");
                    None
                }
            }
        } else {
            None
        };
        let start = std::time::Instant::now();
        let report = match check_chunked(&scenario, &opts, frontier_path.as_ref()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{name}: {e}");
                std::process::exit(2);
            }
        };
        let secs = start.elapsed().as_secs_f64();
        let mut line = format!("exhaustive {name}: schedules={}", report.total_schedules);
        if let Some(b) = &baseline {
            let suffix = if b.capped { "+" } else { "" };
            line += &format!(" unreduced={}{suffix}", b.total_schedules);
            line += &format!(
                " reduction={:.1}x",
                b.total_schedules as f64 / report.total_schedules.max(1) as f64
            );
        }
        line += &format!(
            " steps={} pruned={} races={} sleep-skips={} failing={} {} ({:.1}s)",
            report.steps,
            report.pruned,
            report.races,
            report.sleep_skips,
            report.failing_runs,
            if report.complete {
                "complete"
            } else {
                "capped"
            },
            secs,
        );
        println!("{line}");
        if report.failing_runs > 0 && report.failures.is_empty() {
            // Count-only configuration still must fail the job.
            total_failures += report.failing_runs as usize;
        }
        for (i, failure) in report.failures.iter().enumerate() {
            total_failures += 1;
            emit_failure(&args.out, name, i, failure);
        }
    }
    total_failures
}

fn main() {
    let args = parse_args();
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).expect("create --out directory");
    }
    let matrix = scenarios(&args.scenario, args.seed, args.ops);

    if args.exhaustive {
        let total_failures = run_exhaustive(&args, matrix);
        println!("total: {total_failures} failure(s)");
        if total_failures > 0 {
            std::process::exit(1);
        }
        return;
    }

    let budget = Budget {
        iterations: args.iters,
        wall: args.secs.map(Duration::from_secs),
        ..Budget::default()
    };
    let mut total_runs = 0u64;
    let mut total_failures = 0usize;
    for (name, scenario) in matrix {
        let start = std::time::Instant::now();
        let report = explore(&scenario, args.seed, &budget);
        let secs = start.elapsed().as_secs_f64();
        total_runs += report.runs;
        println!(
            "{name:16} {:6} schedules  {:8} choices  digest {:016x}  {:7.1} sched/s  {}",
            report.runs,
            report.choices_made,
            report.schedule_digest,
            report.runs as f64 / secs.max(1e-9),
            if report.failures.is_empty() {
                "ok".to_string()
            } else {
                format!("{} FAILURE(S)", report.failures.len())
            },
        );
        for (i, failure) in report.failures.iter().enumerate() {
            total_failures += 1;
            emit_failure(&args.out, name, i, failure);
        }
    }
    println!("total: {total_runs} schedules, {total_failures} failure(s)");
    if total_failures > 0 {
        std::process::exit(1);
    }
}

//! The continuous benchmark suite runner.
//!
//! Runs the pinned cell matrix (see `bench::suite::matrix`), prints a
//! summary table, writes the schema-pinned `BENCH.json`, and — with
//! `--check` — diffs the run against a committed baseline and exits
//! non-zero on any regression.
//!
//! ```text
//! benchsuite [--smoke] [--only SUBSTR] [--out PATH] [--folded DIR]
//!            [--check] [--baseline PATH] [--update-baseline PATH]
//!            [--gate-rel F] [--gate-abs F]
//! ```
//!
//! * `--smoke` — the reduced CI matrix: simulator cells only (deterministic,
//!   so tight tolerances survive noisy runners), smaller op counts.
//! * `--only SUBSTR` — run only cells whose id contains the substring
//!   (e.g. `--only scale` for the throughput cell alone).
//! * `--folded DIR` — also write per-cell folded-stack exports
//!   (`<id>.paths.folded`, `<id>.waits.folded`) for flamegraph tooling.
//! * `--check` — compare against `--baseline` (default
//!   `BENCH_BASELINE.json`); regressions print and the process exits 1.
//! * `--update-baseline PATH` — write this run as the new baseline (use
//!   after an intentional performance change, in the same commit).

use std::path::PathBuf;
use std::process::ExitCode;
use std::{env, fs};

use bench::report::{note, section, Table};
use bench::suite::{compare, matrix, run_cell, BenchReport, GateCfg};
use bench::{f1, f2};

struct Args {
    smoke: bool,
    only: Option<String>,
    out: PathBuf,
    folded: Option<PathBuf>,
    check: bool,
    baseline: PathBuf,
    update_baseline: Option<PathBuf>,
    gate: GateCfg,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        only: None,
        out: PathBuf::from("BENCH.json"),
        folded: None,
        check: false,
        baseline: PathBuf::from("BENCH_BASELINE.json"),
        update_baseline: None,
        gate: GateCfg::default(),
    };
    let mut it = env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--only" => args.only = Some(val("--only")),
            "--check" => args.check = true,
            "--out" => args.out = PathBuf::from(val("--out")),
            "--folded" => args.folded = Some(PathBuf::from(val("--folded"))),
            "--baseline" => args.baseline = PathBuf::from(val("--baseline")),
            "--update-baseline" => {
                args.update_baseline = Some(PathBuf::from(val("--update-baseline")))
            }
            "--gate-rel" => args.gate.rel = val("--gate-rel").parse().expect("--gate-rel"),
            "--gate-abs" => args.gate.abs = val("--gate-abs").parse().expect("--gate-abs"),
            other => panic!("unknown flag {other:?}"),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut specs = matrix(args.smoke);
    if let Some(only) = &args.only {
        specs.retain(|s| s.id.contains(only.as_str()));
        assert!(!specs.is_empty(), "--only {only:?} matched no cell");
    }
    section(
        "BENCH",
        if args.smoke {
            "continuous benchmark suite (smoke matrix)"
        } else {
            "continuous benchmark suite (full matrix)"
        },
    );

    let mut report = BenchReport::default();
    let mut table = Table::new(&[
        "cell",
        "ops",
        "thr (op/ktick)",
        "lat mean",
        "p99",
        "hops",
        "msgs/op (remote+local)",
        "msgs/split (paper)",
        "Mev/s",
        "queue/transit/serve/stall",
    ]);
    for spec in &specs {
        eprintln!("running {} ...", spec.id);
        let out = run_cell(spec);
        let r = &out.result;
        table.row(&[
            r.id.clone(),
            format!("{}/{}", r.completed, r.ops),
            f2(r.throughput_kops),
            f1(r.lat_mean),
            r.lat_p99.to_string(),
            f2(r.hops_mean),
            format!(
                "{} ({}+{})",
                f2(r.msgs_per_op),
                f2(r.remote_msgs_per_op),
                f2(r.local_msgs_per_op)
            ),
            format!("{} ({})", f2(r.msgs_per_split), r.paper_msgs_per_split),
            if r.events_per_sec > 0.0 {
                f2(r.events_per_sec / 1e6)
            } else {
                "-".to_string()
            },
            if r.profiled > 0 {
                format!(
                    "{:.0}/{:.0}/{:.0}/{:.0}%",
                    100.0 * r.seg_queueing,
                    100.0 * r.seg_transit,
                    100.0 * r.seg_service,
                    100.0 * r.seg_stall
                )
            } else {
                "-".to_string()
            },
        ]);
        if let Some(dir) = &args.folded {
            fs::create_dir_all(dir).expect("create folded dir");
            if !out.folded_paths.is_empty() {
                fs::write(
                    dir.join(format!("{}.paths.folded", r.id)),
                    &out.folded_paths,
                )
                .expect("write folded paths");
            }
            if !out.folded_waits.is_empty() {
                fs::write(
                    dir.join(format!("{}.waits.folded", r.id)),
                    &out.folded_waits,
                )
                .expect("write folded waits");
            }
        }
        report.cells.push(out.result);
    }
    table.print();

    if let Some(parent) = args.out.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent).expect("create output dir");
    }
    fs::write(&args.out, report.to_json()).expect("write BENCH.json");
    note(&format!("wrote {}", args.out.display()));
    if let Some(p) = &args.update_baseline {
        fs::write(p, report.to_json()).expect("write baseline");
        note(&format!("baseline updated: {}", p.display()));
    }

    if args.check {
        let text = match fs::read_to_string(&args.baseline) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", args.baseline.display());
                return ExitCode::FAILURE;
            }
        };
        let baseline = match BenchReport::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot parse baseline {}: {e}", args.baseline.display());
                return ExitCode::FAILURE;
            }
        };
        let regressions = compare(&report, &baseline, &args.gate);
        if regressions.is_empty() {
            note(&format!(
                "regression gate: OK ({} gated cells, rel {:.0}% + abs {})",
                baseline.cells.iter().filter(|c| c.deterministic).count(),
                100.0 * args.gate.rel,
                args.gate.abs
            ));
        } else {
            eprintln!("regression gate: {} failure(s)", regressions.len());
            for r in &regressions {
                eprintln!("  {r}");
            }
            eprintln!(
                "if the change is intentional, re-run with --update-baseline {}",
                args.baseline.display()
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

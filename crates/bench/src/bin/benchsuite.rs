//! The benchmark suite runner.
//!
//! Runs the pinned cell matrix (see `bench::suite::matrix`), prints a
//! summary table, writes the schema-pinned `BENCH.json`, and — with
//! `--check` — compares the run with a committed baseline and exits 1 on
//! any difference.
//!
//! ```text
//! benchsuite [--only SUBSTR] [--out PATH] [--folded DIR]
//!            [--check] [--baseline PATH] [--update-baseline PATH]
//! ```
//!
//! * `--only SUBSTR` — run only cells whose id contains the substring
//!   (e.g. `--only scale`). A partial run is not a baseline: refused
//!   together with `--check` or `--update-baseline`.
//! * `--folded DIR` — also write per-cell folded-stack exports
//!   (`<id>.paths.folded`, `<id>.waits.folded`) for flamegraph tooling.
//! * `--check` — compare with `--baseline` (default `BENCH_BASELINE.json`);
//!   the cells are deterministic, so the comparison is exact: every
//!   differing cell / field prints with both values.
//! * `--update-baseline PATH` — write this run as the new baseline (use
//!   after an intentional cost change, in the same commit).
//!
//! A bad command line prints the reason and exits 2 with nothing run or
//! written.

use std::path::PathBuf;
use std::process::ExitCode;
use std::{env, fs};

use bench::report::{note, section, Table};
use bench::suite::{diff, matrix, run_cell, BenchReport};
use bench::{f1, f2};

#[derive(Debug)]
struct Args {
    only: Option<String>,
    out: PathBuf,
    folded: Option<PathBuf>,
    check: bool,
    baseline: PathBuf,
    update_baseline: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        only: None,
        out: PathBuf::from("BENCH.json"),
        folded: None,
        check: false,
        baseline: PathBuf::from("BENCH_BASELINE.json"),
        update_baseline: None,
    };
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--only" => args.only = Some(val()?),
            "--check" => args.check = true,
            "--out" => args.out = val()?.into(),
            "--folded" => args.folded = Some(val()?.into()),
            "--baseline" => args.baseline = val()?.into(),
            "--update-baseline" => args.update_baseline = Some(val()?.into()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.only.is_some() && (args.check || args.update_baseline.is_some()) {
        return Err(
            "--only runs part of the matrix; it cannot --check or --update-baseline".to_string(),
        );
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchsuite: {e}");
            return ExitCode::from(2);
        }
    };
    let mut specs = matrix();
    if let Some(only) = &args.only {
        specs.retain(|s| s.id.contains(only.as_str()));
        if specs.is_empty() {
            eprintln!("benchsuite: --only {only:?} matched no cell");
            return ExitCode::from(2);
        }
    }
    section("BENCH", "benchmark suite (pinned tick-domain cells)");

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
        "queue/transit/serve/stall",
    ]);
    for spec in &specs {
        eprintln!("running {} ...", spec.id);
        let out = run_cell(spec);
        let r = &out.result;
        table.row(&[
            r.id.to_string(),
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

    let doc = report.to_json();
    if let Some(parent) = args.out.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent).expect("create output dir");
    }
    fs::write(&args.out, &doc).expect("write BENCH.json");
    note(&format!("wrote {}", args.out.display()));
    if let Some(p) = &args.update_baseline {
        fs::write(p, &doc).expect("write baseline");
        note(&format!("baseline updated: {}", p.display()));
    }

    if args.check {
        let path = args.baseline.display();
        let diffs = match fs::read_to_string(&args.baseline)
            .map_err(|e| e.to_string())
            .and_then(|baseline| diff(&doc, &baseline))
        {
            Ok(diffs) => diffs,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if !diffs.is_empty() {
            eprintln!("gate: {} difference(s) from {path}", diffs.len());
            for d in &diffs {
                eprintln!("  {d}");
            }
            eprintln!("if the change is intentional, re-run with --update-baseline {path}");
            return ExitCode::FAILURE;
        }
        note(&format!("gate: OK ({} cells, exact)", report.cells.len()));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    /// `--only` used to filter the matrix and then overwrite the ten-cell
    /// baseline with what was left (and `--check` reported every other cell
    /// missing): a partial run may do neither.
    #[test]
    fn only_refuses_check_and_update_baseline() {
        assert!(parse("--only scale --update-baseline BENCH_BASELINE.json").is_err());
        assert!(parse("--update-baseline B.json --only scale").is_err());
        assert!(parse("--only scale --check").is_err());
        let ok = parse("--only scale --out x.json --folded f").expect("a partial run alone");
        assert_eq!(ok.only.as_deref(), Some("scale"));
        assert!(!ok.check && ok.update_baseline.is_none());
        let full = parse("--check --update-baseline B.json").expect("the full matrix may do both");
        assert!(full.check && full.update_baseline == Some(PathBuf::from("B.json")));
    }

    #[test]
    fn malformed_command_lines_are_usage_errors() {
        for line in ["--tolerance 0.25", "--out", "--check --baseline", "x"] {
            assert!(parse(line).is_err(), "{line:?} must be refused");
        }
        let defaults = parse("").expect("no flags");
        assert_eq!(defaults.baseline, PathBuf::from("BENCH_BASELINE.json"));
        assert_eq!(defaults.out, PathBuf::from("BENCH.json"));
    }
}

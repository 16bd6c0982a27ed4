//! `ledger`: the perf ledger's one command.
//!
//! ```text
//! ledger [--seed N] [--seconds S] [--quick] [--out FILE]
//!     every workload, both passes, the rungs: table on stderr, one JSON
//!     document on stdout (or in FILE)
//! ledger --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--detail]
//!     one pass of one workload; the last line of stdout is its result
//! ledger compare A.json B.json
//!     per workload and end-to-end metric: both medians, ratio, bound, verdict
//! ```

use std::process::ExitCode;

use perf::json::{self, Json};
use perf::run::{self, Options};
use perf::{ledger, workloads};

const USAGE: &str = "usage: ledger [--seed N] [--seconds S] [--quick] [--out FILE]
       ledger --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--detail]
       ledger compare A.json B.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: u8,
    quick: bool,
    detail: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 12.0,
        trace: 0,
        quick: false,
        detail: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &str| format!("{flag}: cannot read {v:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--out" => a.out = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v.parse().map_err(|_| bad(v))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err(bad(v));
                }
            }
            "--trace" => {
                let v = value()?;
                a.trace = match v.as_str() {
                    "0" => 0,
                    "1" => 1,
                    _ => return Err(bad(v)),
                };
            }
            "--quick" => a.quick = true,
            "--detail" => a.detail = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err(USAGE.into());
    };
    let bench = ledger::benchmark_json();
    let bench = read_json(&bench.to_string_lossy())?;
    let (report, regressed) = ledger::compare(&read_json(a)?, &read_json(b)?, &bench);
    print!("{report}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn one_pass(name: &str, a: &Args) -> Result<ExitCode, String> {
    let known = || {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    };
    let w = workloads::find(name).ok_or_else(known)?;
    let opt = Options {
        seed: a.seed,
        seconds: a.seconds,
        quick: a.quick,
    };
    let outcome = match a.trace {
        0 => run::end_to_end(&w, &opt),
        _ => run::per_layer(&w, &opt),
    };
    for e in &outcome.errors {
        eprintln!("error: {e}");
    }
    println!("{}", outcome.to_json(a.detail).compact());
    Ok(ExitCode::SUCCESS)
}

fn full(a: &Args) -> Result<ExitCode, String> {
    let (doc, ok) = ledger::full(a.seed, a.seconds, a.quick);
    eprint!("{}", ledger::table(&doc));
    let text = doc.pretty(4);
    match &a.out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{text}"),
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare(&args[1..])
    } else {
        parse_args(&args).and_then(|a| match &a.workload {
            Some(name) => one_pass(name, &a),
            None => full(&a),
        })
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

//! `--quick` runs every workload and every rung, and what comes out is what
//! `BENCHMARK.json` promises: every metric named there, finite, with its
//! unit.

use std::path::Path;
use std::process::Command;

use perf::json::{self, Json};
use perf::ledger;

const LEDGER: &str = env!("CARGO_BIN_EXE_ledger");

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(ledger::benchmark_json()).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(bench: &Json, section: &str) -> Vec<(String, String)> {
    bench
        .get(section)
        .expect("section")
        .items()
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("a string")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_metric(holder: &Json, name: &str, unit: &str, at: &str) {
    let m = holder
        .get(name)
        .unwrap_or_else(|| panic!("{at}: {name} missing"));
    let v = m.get("value").and_then(Json::as_f64);
    assert!(v.is_some_and(f64::is_finite), "{at}: {name} = {v:?}");
    assert_eq!(
        m.get("unit").and_then(Json::as_str),
        Some(unit),
        "{at}: {name}"
    );
}

#[test]
fn quick_run_prints_every_metric_benchmark_json_names() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick.json");
    let status = Command::new(LEDGER)
        .args(["--quick", "--seed", "1", "--out"])
        .arg(&out)
        .status()
        .expect("ledger runs");
    assert!(status.success(), "ledger --quick: {status}");
    let doc = json::parse(&std::fs::read_to_string(&out).expect("the document")).expect("JSON");

    let bench = benchmark_json();
    for w in bench.get("workloads").expect("workloads").items() {
        let name = w.get("name").and_then(Json::as_str).expect("name");
        let run = doc
            .get("workloads")
            .and_then(|ws| ws.get(name))
            .unwrap_or_else(|| panic!("{name} did not run"));
        assert_eq!(run.get("correct"), Some(&Json::Bool(true)), "{name}");
        assert_eq!(run.get("failed"), Some(&Json::Num(0.0)), "{name}");
        for section in ["end_to_end", "per_layer"] {
            let got = run.get(section).expect("section");
            for (metric, unit) in names(&bench, section) {
                assert_metric(got, &metric, &unit, name);
            }
        }
        assert_metric(
            run.get("end_to_end").unwrap(),
            "failed_share",
            "ratio",
            name,
        );
        let spans = perf::run::spans_path(name);
        let first = std::fs::read_to_string(&spans).expect("spans were written");
        let first = json::parse(first.lines().next().expect("a drive span")).expect("JSON");
        assert_eq!(
            first.get("id"),
            Some(&Json::Num(1.0)),
            "{name}: drive span first"
        );
    }
    let rungs = doc.get("rungs").expect("rungs");
    for (rung, unit) in [
        ("calib.ns_per_iter", "ns"),
        ("event.ns_per_push_pop", "ns"),
        ("sim.null_ns_per_event", "ns"),
        ("sim.null_traced_ns_per_event", "ns"),
        ("session.null_ns_per_event", "ns"),
        ("driver.null_ns_per_op", "ns"),
        ("threaded.null_ns_per_hop", "ns"),
        ("threaded.null_msgs_per_s", "msgs/s"),
        ("threaded.ops_per_s_p1", "ops/s"),
        ("blink.local_ops_per_s", "ops/s"),
        ("cost.local_over_thr", "ratio"),
        ("dhash.sim_ops_per_s", "ops/s"),
        ("history.overhead_ratio", "ratio"),
        ("workload.ns_per_op", "ns"),
    ] {
        assert_metric(rungs, rung, unit, "rungs");
    }
    let env = doc.get("env").expect("env");
    for key in ["nproc", "cpu", "rustc", "commit", "calib.ns_per_iter"] {
        assert!(env.get(key).is_some(), "env.{key}");
    }

    // A document agrees with itself.
    let (report, regressed) = ledger::compare(&doc, &doc, &bench);
    assert!(!regressed, "{report}");
}

/// The driver's view: one pass of one workload, whose last line holds
/// exactly `correct`, `attempted`, `failed` and the listed metrics.
#[test]
fn one_pass_prints_the_result_line_the_contract_asks_for() {
    let bench = benchmark_json();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(LEDGER)
            .args(["--workload", "sim-append", "--seed", "5", "--seconds", "1"])
            .args(["--quick", "--trace", trace])
            .output()
            .expect("ledger runs");
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).expect("UTF-8");
        let line = json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let listed: Vec<String> = names(&bench, section).into_iter().map(|(n, _)| n).collect();
        let metrics = line.get("metrics").expect("metrics");
        let printed: Vec<&str> = metrics.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(printed, listed, "--trace {trace}");
        for (_, m) in metrics.members() {
            let keys: Vec<&str> = m.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"]);
        }
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "no-such"][..],
        &["--seed", "x"],
        &["--trace", "2"],
        &["compare", "only-one.json"],
    ] {
        let out = Command::new(LEDGER)
            .args(args)
            .output()
            .expect("ledger runs");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

//! The full run (every workload, both passes, the rungs, one document) and
//! `ledger compare`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::{self, Json};
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::rungs;
use crate::workloads::WORKLOADS;

/// `BENCHMARK.json` sits beside this package's directory.
pub fn benchmark_json() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What the numbers were measured on.
fn env_block(calib_ns_per_iter: f64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let unknown = || "unknown".to_string();
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let repo = repo.to_string_lossy();
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu", Json::Str(cpu)),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "commit",
            Json::Str(
                command_line("git", &["-C", &repo, "rev-parse", "HEAD"]).unwrap_or_else(unknown),
            ),
        ),
        ("calib.ns_per_iter", Json::Num(calib_ns_per_iter)),
    ])
}

/// Run one pass of one workload in a child process, so that heaps do not
/// leak between workloads and `VmHWM` is the workload's own; returns its
/// result line.
fn child(workload: &str, seed: u64, seconds: f64, quick: bool, trace: u8) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--detail"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} --trace {trace}: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    json::parse(line).map_err(|e| format!("{workload} --trace {trace}: {e}"))
}

fn num(doc: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(doc, |d, k| d.get(k))?.as_f64()
}

/// Run everything and build the ledger document. The second value is
/// `false` if any workload failed to run or to verify.
pub fn full(seed: u64, seconds: f64, quick: bool) -> (Json, bool) {
    let mut ok = true;
    eprintln!("rungs ...");
    let rung_list = rungs::run_all(seed, quick);
    let calib = rung_list[0].value;
    let mut rung_pairs: Vec<(String, Json)> = rung_list
        .iter()
        .map(|r| {
            let v = Json::obj([
                ("value", Json::Num(r.value)),
                ("unit", Json::Str(r.unit.into())),
            ]);
            (r.name.to_string(), v)
        })
        .collect();

    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        eprintln!("{} ...", w.name);
        let passes = [0, 1].map(|trace| child(w.name, seed, seconds, quick, trace));
        let [Ok(e2e), Ok(layers)] = passes else {
            for e in passes.iter().filter_map(|p| p.as_ref().err()) {
                eprintln!("error: {e}");
            }
            ok = false;
            continue;
        };
        let both =
            |key: &str| num(&e2e, &[key]).unwrap_or(0.0) + num(&layers, &[key]).unwrap_or(0.0);
        let correct = [&e2e, &layers]
            .iter()
            .all(|p| p.get("correct").and_then(Json::as_bool) == Some(true));
        ok &= correct;
        let errors: Vec<Json> = [&e2e, &layers]
            .iter()
            .flat_map(|p| p.get("errors").map_or(&[][..], Json::items))
            .cloned()
            .collect();
        let take = |p: &Json, key: &str| p.get(key).cloned().unwrap_or(Json::Null);
        workloads.push((
            w.name.to_string(),
            Json::obj([
                ("why", Json::Str(w.why.into())),
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(both("attempted"))),
                ("failed", Json::Num(both("failed"))),
                ("errors", Json::Arr(errors)),
                ("reps", take(&e2e, "reps")),
                ("traced_reps", take(&layers, "reps")),
                ("end_to_end", take(&e2e, "metrics")),
                ("per_layer", take(&layers, "metrics")),
                ("kinds", take(&layers, "kinds")),
            ]),
        ));
    }

    // The COST headline: one thread of the local tree against the
    // distributed one, on the same stream.
    let local = rung_list.iter().find(|r| r.name == "blink.local_ops_per_s");
    let thr = workloads
        .iter()
        .find(|(name, _)| name == "thr-mixed")
        .and_then(|(_, w)| num(w, &["end_to_end", "ops_per_s", "value"]));
    if let (Some(local), Some(thr)) = (local, thr) {
        let v = Json::obj([
            ("value", Json::Num(local.value / thr)),
            ("unit", Json::Str("ratio".into())),
        ]);
        rung_pairs.push(("cost.local_over_thr".into(), v));
    }

    let doc = Json::obj([
        ("schema", Json::Str("perf-ledger/1".into())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(quick)),
        ("env", env_block(calib)),
        ("workloads", Json::Obj(workloads)),
        ("rungs", Json::Obj(rung_pairs)),
    ]);
    (doc, ok)
}

/// The human table: every metric by name with its unit.
pub fn table(doc: &Json) -> String {
    let mut out = String::new();
    let env = doc.get("env").map_or(String::new(), Json::compact);
    writeln!(
        out,
        "perf ledger, seed {}: {env}",
        num(doc, &["seed"]).unwrap_or(0.0)
    )
    .ok();
    for (name, w) in doc.get("workloads").map_or(&[][..], Json::members) {
        writeln!(
            out,
            "\n{name}: {} attempted, {} failed, {} + {} repetitions",
            num(w, &["attempted"]).unwrap_or(0.0),
            num(w, &["failed"]).unwrap_or(0.0),
            num(w, &["reps"]).unwrap_or(0.0),
            num(w, &["traced_reps"]).unwrap_or(0.0),
        )
        .ok();
        for e in w.get("errors").map_or(&[][..], Json::items) {
            writeln!(out, "  ERROR {}", e.as_str().unwrap_or("?")).ok();
        }
        for section in ["end_to_end", "per_layer"] {
            for (metric, v) in w.get(section).map_or(&[][..], Json::members) {
                let f = |k: &str| num(v, &[k]).unwrap_or(f64::NAN);
                writeln!(
                    out,
                    "  {metric:<28} {:>16.4} {:<8} [{:.4} .. {:.4}] n={}",
                    f("value"),
                    v.get("unit").and_then(Json::as_str).unwrap_or(""),
                    f("min"),
                    f("max"),
                    f("n"),
                )
                .ok();
            }
        }
    }
    writeln!(out, "\nrungs:").ok();
    for (name, v) in doc.get("rungs").map_or(&[][..], Json::members) {
        writeln!(
            out,
            "  {name:<28} {:>16.4} {}",
            num(v, &["value"]).unwrap_or(f64::NAN),
            v.get("unit").and_then(Json::as_str).unwrap_or(""),
        )
        .ok();
    }
    out
}

/// The bound `BENCHMARK.json` fixes for an end-to-end metric.
/// `failed_share` is not listed there: it may not rise at all.
fn bound_of(bench: &Json, metric: &str) -> f64 {
    bench
        .get("end_to_end")
        .map_or(&[][..], Json::items)
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
        .and_then(|m| num(m, &["bound"]))
        .unwrap_or(0.0)
}

/// Compare two ledger documents: per workload and end-to-end metric, both
/// medians, the ratio with its base, the bound, and a verdict. Returns the
/// report and whether anything regressed.
pub fn compare(a: &Json, b: &Json, bench: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut bad = false;
    let same = |key: &str| a.get(key) == b.get(key);
    // Two runs of one commit, seed and size must agree on every count.
    let same_program = a.get("env").and_then(|e| e.get("commit"))
        == b.get("env").and_then(|e| e.get("commit"))
        && same("seed")
        && same("quick");
    writeln!(
        out,
        "{:<11} {:<16} {:>14} {:>14} {:>12} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    )
    .ok();
    for (name, wa) in a.get("workloads").map_or(&[][..], Json::members) {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            continue;
        };
        let sim = name.starts_with("sim-");
        for d in &END_TO_END {
            let side = |w: &Json, k: &str| num(w, &["end_to_end", d.name, k]);
            let (Some(va), Some(vb)) = (side(wa, "value"), side(wb, "value")) else {
                continue;
            };
            let bound = bound_of(bench, d.name);
            let worse_by = match d.better {
                "higher" => (va - vb) / va,
                _ if va == 0.0 => vb,
                _ => (vb - va) / va,
            };
            // How far a side's own repetitions say its median may be off:
            // the distance between their quartiles over the root of their
            // count (about the standard error of a median), as a share of
            // the median.
            let spread = [wa, wb]
                .iter()
                .filter_map(|w| {
                    let iqr = side(w, "q3")? - side(w, "q1")?;
                    Some(iqr / side(w, "n")?.sqrt() / side(w, "value")?)
                })
                .fold(0.0, f64::max);
            let gated = d.listed || d.name == "failed_share";
            let verdict = if !gated {
                "not gated"
            } else if d.exact && sim && same_program && va != vb {
                "regressed (an exact metric differs)"
            } else if worse_by > bound {
                "regressed"
            } else if !d.exact && spread > bound {
                "unresolved"
            } else {
                "ok"
            };
            bad |= verdict.starts_with("regressed");
            let ratio = match va {
                0.0 => "-".to_string(),
                _ => format!("{:.4} of A", vb / va),
            };
            let bound = match d.listed {
                true => format!("{bound:.2}"),
                false => "-".to_string(),
            };
            writeln!(
                out,
                "{name:<11} {:<16} {va:>14.4} {vb:>14.4} {ratio:>12} {bound:>6}  {verdict}",
                d.name,
            )
            .ok();
        }
        if !(sim && same_program) {
            continue;
        }
        for d in PER_LAYER.iter().filter(|d: &&Def| d.exact) {
            let side = |w: &Json| num(w, &["per_layer", d.name, "value"]);
            if side(wa) != side(wb) {
                bad = true;
                writeln!(
                    out,
                    "{name:<11} {}: {:?} against {:?}  regressed (an exact metric differs)",
                    d.name,
                    side(wa),
                    side(wb)
                )
                .ok();
            }
        }
    }
    writeln!(out, "{}", if bad { "REGRESSED" } else { "no regression" }).ok();
    (out, bad)
}

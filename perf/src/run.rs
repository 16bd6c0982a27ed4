//! The two passes of one workload: the end-to-end pass (no instrumentation,
//! `--trace 0`) and the traced pass (`--trace 1`), each repeating on
//! freshly built clusters until its time budget is used and reporting
//! medians.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{self, Value};
use crate::reference::{self, Reference};
use crate::timed::{self, LayerAgg, SpanRec, DRIVE_SPAN};
use crate::workloads::{repetition, Plain, Rep, RuntimeKind, Traced, Workload};

/// Ops of `thr-mixed`'s stream replayed on the simulator for its
/// virtual-time metrics.
const TWIN_OPS: usize = 100_000;

#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    /// How long to keep repeating.
    pub seconds: f64,
    /// Sizes divided by ten, one repetition, no warm-up.
    pub quick: bool,
}

/// What one pass found.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub reps: usize,
    pub metrics: Vec<Value>,
    /// Calls and nanoseconds per layer and `Payload::kind()` (traced pass).
    pub kinds: Option<Json>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and the
    /// metrics `BENCHMARK.json` lists, unless `detail` asks for the ledger's
    /// extras (the unlisted metrics among them).
    pub fn to_json(&self, detail: bool) -> Json {
        let listed = self.metrics.iter().filter(|v| detail || v.listed);
        let mut pairs = vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(listed.map(|v| (v.name, v.to_json(detail)))),
            ),
        ];
        if detail {
            pairs.push(("reps", Json::Num(self.reps as f64)));
            let errors = self.errors.iter().cloned().map(Json::Str).collect();
            pairs.push(("errors", Json::Arr(errors)));
            if let Some(k) = &self.kinds {
                pairs.push(("kinds", k.clone()));
            }
        }
        Json::obj(pairs)
    }
}

/// Run `cycle` until the next one would overrun the budget (once if
/// `quick`).
fn repeat(opt: &Options, mut cycle: impl FnMut()) {
    let t = Instant::now();
    let mut n = 0.0;
    loop {
        cycle();
        n += 1.0;
        let elapsed = t.elapsed().as_secs_f64();
        if opt.quick || elapsed + elapsed / n > opt.seconds {
            return;
        }
    }
}

/// Let lazy set-up finish (allocator arenas, code pages, thread start-up)
/// on a tenth-size run before anything is timed.
fn warm_up(w: &Workload, opt: &Options) {
    if !opt.quick {
        std::hint::black_box(repetition::<Plain>(&w.quick(), opt.seed));
    }
}

/// Fold the repetitions' verdicts together; on the simulator, repetitions
/// of one seed must also agree exactly with each other.
fn judge(w: &Workload, groups: &[&[Rep]]) -> (u64, u64, Vec<String>) {
    let (mut attempted, mut failed, mut errors) = (0, 0, Vec::new());
    for reps in groups {
        for r in *reps {
            attempted += r.submitted;
            failed += r.failed();
            errors.extend(r.errors.iter().cloned());
        }
        if w.runtime == RuntimeKind::Sim && reps.iter().any(|r| r.exact() != reps[0].exact()) {
            errors.push(format!("{}: repetitions of one seed disagree", w.name));
        }
    }
    errors.truncate(16);
    (attempted, failed, errors)
}

/// The end-to-end pass.
pub fn end_to_end(w: &Workload, opt: &Options) -> Outcome {
    let w = if opt.quick { w.quick() } else { *w };
    let reference = Reference::new();
    warm_up(&w, opt);
    let mut reps: Vec<Rep> = Vec::new();
    let mut rss_mb = 0.0;
    // One reference pass between every two repetitions; each repetition is
    // divided by the mean of the passes on either side of it.
    let mut before = reference.pass();
    repeat(opt, || {
        let mut rep = repetition::<Plain>(&w, opt.seed);
        let after = reference.pass();
        rep.ref_s = (before + after) / 2.0;
        before = after;
        if reps.is_empty() {
            // After one repetition, not at exit: how far fragmentation
            // pushes the high-water mark depends on how many repetitions
            // the budget allowed, which is the machine's doing.
            rss_mb = (peak_rss_mb() - reference::RESIDENT_MIB).max(0.0);
        }
        reps.push(rep);
    });
    let twin = match w.runtime {
        RuntimeKind::Sim => Vec::new(),
        RuntimeKind::Threaded => vec![repetition::<Plain>(&w.sim_twin(TWIN_OPS), opt.seed)],
    };
    let (attempted, failed, errors) = judge(&w, &[&reps, &twin]);
    let virt = if twin.is_empty() { &reps } else { &twin };
    Outcome {
        attempted,
        failed,
        errors,
        reps: reps.len(),
        metrics: metrics::end_to_end(&reps, virt, rss_mb),
        kinds: None,
    }
}

/// The traced pass: plain and traced repetitions alternate, so both see the
/// same machine; `sim-traced` also alternates its obs-off control.
pub fn per_layer(w: &Workload, opt: &Options) -> Outcome {
    let w = if opt.quick { w.quick() } else { *w };
    warm_up(&w, opt);
    let cost = timed::calibrate();
    let (mut plain, mut traced, mut control) = (Vec::new(), Vec::new(), Vec::new());
    repeat(opt, || {
        plain.push(repetition::<Plain>(&w, opt.seed));
        traced.push(repetition::<Traced>(&w, opt.seed));
        if w.obs {
            control.push(repetition::<Plain>(&w.without_obs(), opt.seed));
        }
    });
    let (attempted, failed, mut errors) = judge(&w, &[&plain, &traced, &control]);
    // Wrapping must not change what the program does.
    if w.runtime == RuntimeKind::Sim && traced[0].exact() != plain[0].exact() {
        errors.push(format!(
            "{}: the traced run diverged from the plain one",
            w.name
        ));
    }
    let last = traced.last().expect("at least one cycle ran");
    if let Err(e) = write_spans(&w, last) {
        errors.push(format!("{}: writing spans: {e}", w.name));
    }
    let t = last.trace.as_ref().expect("a traced repetition");
    let kinds = Json::obj([
        ("runtime", kinds_json(&t.runtime)),
        ("session", kinds_json(&t.session)),
        ("core", kinds_json(&t.core)),
    ]);
    Outcome {
        attempted,
        failed,
        errors,
        reps: traced.len(),
        metrics: metrics::per_layer(&w, &plain, &traced, &control, &cost),
        kinds: Some(kinds),
    }
}

fn kinds_json(agg: &LayerAgg) -> Json {
    let mut kinds = agg.by_kind.clone();
    kinds.sort_by_key(|k| k.kind);
    Json::obj(kinds.iter().map(|k| {
        let v = Json::obj([
            ("calls", Json::Num(k.calls as f64)),
            ("ns", Json::Num(k.ns as f64)),
        ]);
        (k.kind, v)
    }))
}

/// Where the sampled spans go: `perf/out/`, next to this package's sources
/// wherever the checkout is.
pub fn spans_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.spans.jsonl"))
}

/// One span per line, parents before children in time order; the first line
/// is the drive itself.
fn write_spans(w: &Workload, rep: &Rep) -> std::io::Result<()> {
    let t = rep.trace.as_ref().expect("a traced repetition");
    let path = spans_path(w.name);
    fs::create_dir_all(path.parent().expect("spans_path has a parent"))?;
    let mut out = BufWriter::new(fs::File::create(&path)?);
    let start_ns = (rep.setup_s * 1e9) as u64;
    let drive = SpanRec {
        id: DRIVE_SPAN,
        parent: 0,
        layer: "drive",
        kind: w.name,
        proc: u32::MAX,
        op: 0,
        start_ns,
        end_ns: start_ns + (rep.drive_s * 1e9) as u64,
    };
    let mut spans: Vec<&SpanRec> = [&t.runtime, &t.session, &t.core]
        .iter()
        .flat_map(|agg| agg.spans.iter())
        .collect();
    spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
    for s in std::iter::once(&drive).chain(spans) {
        let proc = if s.proc == u32::MAX {
            Json::Null
        } else {
            Json::Num(s.proc as f64)
        };
        let line = Json::obj([
            ("id", Json::Num(s.id as f64)),
            ("parent", Json::Num(s.parent as f64)),
            ("name", Json::Str(format!("{}.{}", s.layer, s.kind))),
            ("proc", proc),
            ("op", Json::Num(s.op as f64)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
        ]);
        writeln!(out, "{}", line.compact())?;
    }
    out.flush()
}

/// This process's `VmHWM`, in MiB (0 where `/proc` does not say).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

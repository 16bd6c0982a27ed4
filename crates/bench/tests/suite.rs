//! Tests of the benchmark suite: the pinned `BENCH.json` schema, its one
//! writer list read back through `obs::Json`, the exact gate (`diff`), and
//! real cells on the simulator — including the tier-1 pin: the committed
//! `BENCH_BASELINE.json` is byte for byte what this build measures.

use bench::suite::{
    diff, matrix, rows, run_cell, BenchReport, CellResult, CellSpec, DriveMode, Network, Structure,
};
use dbtree::{ProtocolKind, TreeConfig};
use dhash::HashConfig;
use obs::Json;
use workload::Mix;

const GOLDEN: &str = include_str!("golden/bench_schema.json");
const BASELINE: &str = include_str!("../../../BENCH_BASELINE.json");

/// A fully-populated row with values that are exact in four decimals, so
/// the golden bytes are stable.
fn golden_cell() -> CellResult {
    CellResult {
        id: "golden-cell",
        structure: "blink",
        drive: "closed",
        network: "clean",
        protocol: "semisync",
        n_procs: 6,
        ops: 400,
        completed: 400,
        makespan: 12345,
        throughput_kops: 32.5,
        lat_mean: 44.25,
        lat_p50: 40,
        lat_p95: 90,
        lat_p99: 120,
        lat_max: 250,
        hops_mean: 2.5,
        msgs_total: 4000,
        msgs_per_op: 10.0,
        remote_msgs_per_op: 7.5,
        local_msgs_per_op: 2.5,
        splits: 12,
        split_msgs: 24,
        msgs_per_split: 2.0,
        copies: 3,
        paper_msgs_per_split: 2,
        merges: 3,
        live_nodes: 42,
        seg_queueing: 0.5,
        seg_transit: 0.25,
        seg_service: 0.125,
        seg_stall: 0.125,
        offpath_per_op: 1.5,
        profiled: 400,
        prof_skipped: 0,
        prof_inexact: 0,
        events_total: 48000,
    }
}

fn doc_of(cells: Vec<CellResult>) -> String {
    BenchReport { cells }.to_json()
}

/// The `BENCH.json` schema is frozen by a golden file, exactly like the
/// trace schema: changing the field set, order, or encodings must be a
/// deliberate commit that updates `tests/golden/bench_schema.json`.
#[test]
fn bench_json_schema_is_pinned() {
    assert_eq!(
        doc_of(vec![golden_cell()]),
        GOLDEN,
        "BENCH.json schema drifted; if intentional, update \
         tests/golden/bench_schema.json in the same commit"
    );
}

/// What the writer's list emits is what the one reader hands back: every
/// field, in order, under its name, with the value written — as the float,
/// integer or string the consumers (E17, `diff`) ask for.
#[test]
fn report_roundtrips_through_json() {
    let cell = golden_cell();
    let parsed = rows(GOLDEN).expect("parse own output");
    assert_eq!(parsed.len(), 1);
    let read: Vec<(&str, &Json)> = parsed[0]
        .members()
        .iter()
        .map(|(k, v)| (k.as_str(), v))
        .collect();
    let written = cell.fields();
    assert_eq!(read.len(), written.len());
    for ((name, value), (written_name, text)) in read.into_iter().zip(&written) {
        assert_eq!(name, *written_name);
        assert_eq!(Some(value), Json::parse(text).ok().as_ref(), "{name}");
    }
    let row = &parsed[0];
    assert_eq!(row.get("protocol").unwrap().as_str(), Some("semisync"));
    assert_eq!(row.get("lat_mean").unwrap().as_f64(), Some(44.25));
    assert_eq!(row.get("lat_p99").unwrap().as_u64(), Some(120));
    assert_eq!(row.get("seg_stall").unwrap().as_f64(), Some(0.125));
    assert_eq!(row.get("lat_mean").unwrap().as_u64(), None, "a decimal");
}

#[test]
fn parse_rejects_foreign_documents() {
    assert!(rows("{\"schema\":\"other\",\"cells\":[]}").is_err());
    assert!(rows(&GOLDEN.replace("bench-v2", "bench-v1")).is_err());
    assert!(rows("{\"schema\":\"bench-v2\"}").is_err());
    assert!(rows("not json").is_err());
    assert!(diff(GOLDEN, "{\"schema\":\"other\",\"cells\":[]}").is_err());
}

#[test]
fn gate_is_quiet_on_identical_reports() {
    assert_eq!(diff(GOLDEN, GOLDEN), Ok(vec![]));
    assert_eq!(diff(BASELINE, BASELINE), Ok(vec![]));
}

/// `doc` with its `"name":value` rewritten to another value of the same
/// JSON type.
fn flipped(doc: &str, name: &str, value: &str) -> String {
    let other = if let Some(s) = value.strip_suffix('"') {
        format!("{s}-x\"")
    } else if value.contains('.') {
        format!("{:.4}", value.parse::<f64>().unwrap() + 1.0)
    } else {
        (value.parse::<u64>().unwrap() + 1).to_string()
    };
    let from = format!("\"{name}\":{value}");
    assert_eq!(doc.matches(&from).count(), 1, "{from} once in the document");
    doc.replace(&from, &format!("\"{name}\":{other}"))
}

/// The gate is exact and names what moved: flipping any one field of the
/// row — every one the writer lists — is reported under that field's name
/// with both values; so are a missing cell, an extra cell, an op-count
/// drift, and a move the old 25 % band would have let through.
#[test]
fn gate_names_every_differing_field() {
    for (name, value) in golden_cell().fields() {
        let diffs = diff(&flipped(GOLDEN, name, &value), GOLDEN).expect("both parse");
        if name == "id" {
            // A renamed cell is one the baseline lacks plus one it misses.
            let fields: Vec<&str> = diffs.iter().map(|d| d.field.as_str()).collect();
            assert_eq!(fields, ["cell", "cell"], "{diffs:?}");
            continue;
        }
        assert_eq!(diffs.len(), 1, "{name}: {diffs:?}");
        let d = &diffs[0];
        assert_eq!((d.cell.as_str(), d.field.as_str()), ("golden-cell", name));
        assert_eq!(d.baseline, value.trim_matches('"'));
        assert_ne!(d.current, d.baseline);
    }

    let mut other = golden_cell();
    other.id = "second-cell";
    let both = doc_of(vec![golden_cell(), other]);
    let missing = diff(GOLDEN, &both).unwrap();
    assert_eq!(missing.len(), 1);
    assert_eq!(
        missing[0].to_string(),
        "second-cell: cell — baseline second-cell, now absent"
    );
    let extra = diff(&both, GOLDEN).unwrap();
    assert_eq!(extra.len(), 1);
    assert_eq!(
        (extra[0].cell.as_str(), extra[0].field.as_str()),
        ("second-cell", "cell")
    );
    assert_eq!(extra[0].baseline, "absent");

    let mut drifted = golden_cell();
    drifted.ops += 1;
    let diffs = diff(&doc_of(vec![drifted]), GOLDEN).unwrap();
    assert_eq!(diffs.len(), 1);
    assert_eq!(
        diffs[0].to_string(),
        "golden-cell: ops — baseline 400, now 401"
    );

    // +10 % latency, −5 % throughput: inside the tolerance band the gate
    // used to have, a reviewed change now.
    let mut wobble = golden_cell();
    wobble.lat_mean *= 1.1;
    wobble.throughput_kops *= 0.95;
    let fields: Vec<String> = diff(&doc_of(vec![wobble]), GOLDEN)
        .unwrap()
        .into_iter()
        .map(|d| d.field)
        .collect();
    assert_eq!(fields, ["throughput_kops", "lat_mean"]);

    // A field only one side has is a difference too.
    let without = GOLDEN.replace(",\"events_total\":48000", "");
    let diffs = diff(GOLDEN, &without).unwrap();
    assert_eq!(diffs.len(), 1);
    assert_eq!(
        diffs[0].to_string(),
        "golden-cell: events_total — baseline absent, now 48000"
    );
    assert_eq!(diff(&without, GOLDEN).unwrap()[0].current, "absent");
}

/// The two structures the tiny cells run: the semisync dB-tree on §4.1's
/// test bed (every node on three processors) and the lazy hash table.
fn structures() -> [Structure; 2] {
    [
        Structure::Blink(TreeConfig {
            record_history: false,
            ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3)
        }),
        Structure::Dhash(HashConfig {
            record_history: false,
            ..HashConfig::default()
        }),
    ]
}

fn tiny_cell(structure: Structure) -> CellSpec {
    CellSpec {
        id: "tiny",
        structure,
        drive: DriveMode::Closed(4),
        network: Network::Clean,
        ops: 60,
        seed: 21,
        n_procs: 4,
        preload: 40,
        service_time: 2,
        service_override: None,
        origins: 4,
        mix: Mix {
            search_fraction: 0.25,
            ..Mix::INSERT_ONLY
        },
        key_space: 20_000,
        profile: true,
    }
}

/// ACCEPTANCE: a real simulator cell re-runs bit-identically (so the gate
/// passes against itself exactly), and a change injected into the
/// measurements trips the gate under the changed field's name.
#[test]
fn real_cell_is_deterministic_and_gateable() {
    let [blink, _] = structures();
    let spec = tiny_cell(blink);
    let a = run_cell(&spec);
    let b = run_cell(&spec);
    assert_eq!(a.folded_paths, b.folded_paths);
    let base = doc_of(vec![a.result.clone()]);
    let rerun = doc_of(vec![b.result]);
    assert_eq!(base, rerun, "identical sim cells must measure identically");
    assert_eq!(diff(&rerun, &base), Ok(vec![]));

    let mut regressed = a.result;
    regressed.lat_p99 += 1;
    let diffs = diff(&doc_of(vec![regressed]), &base).unwrap();
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    assert_eq!(
        (diffs[0].cell.as_str(), diffs[0].field.as_str()),
        ("tiny", "lat_p99")
    );
}

/// Chaos cells — crash + restart with the detector and retry layer on —
/// are still pure functions of their spec (every timer, backoff jitter,
/// and anti-entropy exchange is seeded), still complete every operation,
/// and therefore gate exactly like the clean cells.
#[test]
fn chaos_cell_is_deterministic_and_completes() {
    for structure in structures() {
        let spec = CellSpec {
            network: Network::Chaos,
            ..tiny_cell(structure.clone())
        };
        let a = run_cell(&spec);
        let b = run_cell(&spec);
        assert_eq!(
            a.result, b.result,
            "{structure:?}: identical chaos cells must measure identically"
        );
        assert_eq!(
            a.result.completed, a.result.ops,
            "{structure:?}: the retry layer must land every operation"
        );
    }
}

/// The profiler output embedded in a cell is internally consistent: every
/// completed op is either profiled or counted skipped, every profiled op
/// decomposes exactly, and the segment shares partition the latency.
#[test]
fn cell_profile_is_consistent() {
    for structure in structures() {
        let out = run_cell(&tiny_cell(structure.clone()));
        let r = &out.result;
        assert_eq!(r.completed, r.ops, "{structure:?}: closed loop completes");
        assert_eq!(
            r.profiled + r.prof_skipped,
            r.completed,
            "{structure:?}: every op profiled or skipped"
        );
        assert!(r.profiled > 0, "{structure:?}: profiler found the ops");
        assert_eq!(r.prof_inexact, 0, "{structure:?}: clean cells are exact");
        let sum = r.seg_queueing + r.seg_transit + r.seg_service + r.seg_stall;
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "{structure:?}: segment shares partition latency (sum {sum})"
        );
        assert!(!out.folded_paths.is_empty());
        // Folded-path weights conserve total latency: their sum is the
        // summed latency the shares are fractions of.
        let folded_total: u64 = out
            .folded_paths
            .lines()
            .filter_map(|l| l.rsplit_once(' ').and_then(|(_, w)| w.parse::<u64>().ok()))
            .sum();
        assert!(folded_total > 0);
    }
}

/// The delete-heavy reclamation cell from the real matrix — merge races,
/// retirements, scans across retired nodes and all — is byte-identical
/// across two in-process runs: every field of the row and the complete
/// folded profiler outputs. This is the cell the gate leans on for
/// reclamation metrics.
#[test]
fn delete_cell_is_byte_identical_across_runs() {
    let specs = matrix();
    let spec = specs
        .iter()
        .find(|s| s.id == "blink-sim-closed-deletes")
        .expect("the matrix carries the delete-churn cell");
    let a = run_cell(spec);
    let b = run_cell(spec);
    assert_eq!(
        a.result, b.result,
        "delete-churn cell rows must reproduce byte-for-byte"
    );
    assert_eq!(a.folded_paths, b.folded_paths);
    assert_eq!(a.folded_waits, b.folded_waits);
    assert!(a.result.merges > 0, "the cell must exercise merge-at-empty");
}

/// TIER-1 PIN: the committed baseline is, byte for byte, what this build
/// measures on all ten cells (debug or release — nothing in a row depends
/// on the build). A change that moves a cost fails here with the cell, the
/// field and both values; if it is meant, regenerate the file in the same
/// commit.
#[test]
fn committed_baseline_is_this_builds_output() {
    let doc = doc_of(matrix().iter().map(|s| run_cell(s).result).collect());
    let lines: Vec<String> = diff(&doc, BASELINE)
        .expect("the committed baseline parses")
        .iter()
        .map(|d| format!("  {d}"))
        .collect();
    assert!(
        doc == BASELINE,
        "BENCH_BASELINE.json is not this build's output:\n{}\n\
         intentional? `benchsuite --update-baseline BENCH_BASELINE.json`, same commit",
        lines.join("\n")
    );
}

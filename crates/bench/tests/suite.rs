//! Tests of the benchmark suite: the pinned `BENCH.json` schema, the
//! JSON roundtrip, the regression gate's tolerances and direction rules,
//! and an end-to-end run of a real (tiny) cell on the simulator —
//! including the acceptance checks: an identical re-run gates clean, and
//! an injected 2× latency regression is caught.

use bench::suite::{
    compare, matrix, run_cell, BenchReport, CellResult, CellSpec, DriveMode, GateCfg, Network,
    Proto, RuntimeKind, Structure,
};
use workload::Mix;

const GOLDEN: &str = include_str!("golden/bench_schema.json");

/// A fully-populated row with values that are exact in four decimals, so
/// the golden bytes and the parse roundtrip are both stable.
fn golden_cell() -> CellResult {
    CellResult {
        id: "golden-cell".into(),
        structure: "blink".into(),
        runtime: "sim".into(),
        drive: "closed".into(),
        network: "clean".into(),
        protocol: "semisync".into(),
        deterministic: true,
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
        events_per_sec: 1500000.5,
    }
}

/// The `BENCH.json` schema is frozen by a golden file, exactly like the
/// trace schema: changing the field set, order, or encodings must be a
/// deliberate commit that updates `tests/golden/bench_schema.json`.
#[test]
fn bench_json_schema_is_pinned() {
    let report = BenchReport {
        cells: vec![golden_cell()],
    };
    assert_eq!(
        report.to_json(),
        GOLDEN,
        "BENCH.json schema drifted; if intentional, update \
         tests/golden/bench_schema.json in the same commit"
    );
}

#[test]
fn report_roundtrips_through_json() {
    let mut other = golden_cell();
    other.id = "golden-threaded".into();
    other.runtime = "threaded".into();
    other.deterministic = false;
    other.profiled = 0;
    let report = BenchReport {
        cells: vec![golden_cell(), other],
    };
    let parsed = BenchReport::parse(&report.to_json()).expect("parse own output");
    assert_eq!(parsed, report);
}

#[test]
fn parse_rejects_foreign_documents() {
    assert!(BenchReport::parse("{\"schema\":\"other\",\"cells\":[]}").is_err());
    assert!(CellResult::from_json("{\"id\":\"x\"}").is_err());
}

#[test]
fn gate_is_quiet_on_identical_reports() {
    let report = BenchReport {
        cells: vec![golden_cell()],
    };
    assert!(compare(&report, &report, &GateCfg::default()).is_empty());
}

#[test]
fn gate_catches_each_regression_direction() {
    let base = BenchReport {
        cells: vec![golden_cell()],
    };
    let gate = GateCfg::default();

    // 2x latency: over any sane tolerance.
    let mut slow = base.clone();
    slow.cells[0].lat_mean *= 2.0;
    slow.cells[0].lat_p99 *= 2;
    let regs = compare(&slow, &base, &gate);
    assert!(regs.iter().any(|r| r.metric == "lat_mean"), "{regs:?}");
    assert!(regs.iter().any(|r| r.metric == "lat_p99"), "{regs:?}");

    // Halved throughput (lower-is-worse direction).
    let mut starved = base.clone();
    starved.cells[0].throughput_kops /= 2.0;
    assert!(compare(&starved, &base, &gate)
        .iter()
        .any(|r| r.metric == "throughput_kops"));

    // A lost op is a regression with zero tolerance.
    let mut lossy = base.clone();
    lossy.cells[0].completed -= 1;
    assert!(compare(&lossy, &base, &gate)
        .iter()
        .any(|r| r.metric == "completed"));

    // Small wobbles within rel+abs pass.
    let mut wobble = base.clone();
    wobble.cells[0].lat_mean *= 1.1;
    wobble.cells[0].throughput_kops *= 0.95;
    assert!(compare(&wobble, &base, &gate).is_empty());

    // A missing cell and an op-count drift are both flagged.
    let empty = BenchReport::default();
    assert!(compare(&empty, &base, &gate)
        .iter()
        .any(|r| r.metric == "present"));
    let mut drifted = base.clone();
    drifted.cells[0].ops += 1;
    assert!(compare(&drifted, &base, &gate)
        .iter()
        .any(|r| r.metric == "ops"));
}

#[test]
fn nondeterministic_cells_are_not_gated() {
    let mut base = golden_cell();
    base.deterministic = false;
    let base = BenchReport { cells: vec![base] };
    let mut noisy = base.clone();
    noisy.cells[0].lat_mean *= 10.0;
    noisy.cells[0].throughput_kops /= 10.0;
    assert!(compare(&noisy, &base, &GateCfg::default()).is_empty());
}

fn tiny_cell(structure: Structure) -> CellSpec {
    CellSpec {
        id: "tiny",
        structure,
        runtime: RuntimeKind::Sim,
        drive: DriveMode::Closed(4),
        network: Network::Clean,
        protocol: match structure {
            Structure::Blink => Proto::SemiSync,
            Structure::Dhash => Proto::Lazy,
        },
        ops: 60,
        seed: 21,
        n_procs: 4,
        preload: 40,
        copies: 3,
        service_time: 2,
        service_override: None,
        origins: 4,
        mix: Mix {
            search_fraction: 0.25,
            ..Mix::INSERT_ONLY
        },
        key_space: 20_000,
        merge: false,
        fanout: 8,
        profile: true,
    }
}

/// A cell row with the one wall-clock field zeroed, for byte-determinism
/// comparisons: everything else in a sim cell must reproduce exactly.
fn masked(mut r: CellResult) -> CellResult {
    r.events_per_sec = 0.0;
    r
}

/// ACCEPTANCE: a real simulator cell re-runs bit-identically (so the gate
/// passes against itself exactly), and injecting a 2x latency regression
/// into the measurements trips the gate.
#[test]
fn real_cell_is_deterministic_and_gateable() {
    let spec = tiny_cell(Structure::Blink);
    let a = run_cell(&spec);
    let b = run_cell(&spec);
    assert_eq!(
        masked(a.result.clone()).to_json(),
        masked(b.result.clone()).to_json(),
        "identical sim cells must measure identically"
    );
    assert_eq!(a.folded_paths, b.folded_paths);

    let base = BenchReport {
        cells: vec![a.result.clone()],
    };
    let rerun = BenchReport {
        cells: vec![b.result],
    };
    let gate = GateCfg::default();
    assert!(compare(&rerun, &base, &gate).is_empty());

    let mut regressed = base.clone();
    regressed.cells[0].lat_mean *= 2.0;
    regressed.cells[0].lat_p50 *= 2;
    regressed.cells[0].lat_p95 *= 2;
    regressed.cells[0].lat_p99 *= 2;
    regressed.cells[0].throughput_kops /= 2.0;
    let regs = compare(&regressed, &base, &gate);
    assert!(
        regs.iter().any(|r| r.metric == "lat_mean")
            && regs.iter().any(|r| r.metric == "throughput_kops"),
        "2x latency injection must trip the gate: {regs:?}"
    );
}

/// Chaos cells — crash + restart with the detector and retry layer on —
/// are still pure functions of their spec (every timer, backoff jitter,
/// and anti-entropy exchange is seeded), still complete every operation,
/// and therefore gate exactly like the clean cells.
#[test]
fn chaos_cell_is_deterministic_and_completes() {
    for structure in [Structure::Blink, Structure::Dhash] {
        let spec = CellSpec {
            network: Network::Chaos,
            ..tiny_cell(structure)
        };
        let a = run_cell(&spec);
        let b = run_cell(&spec);
        assert_eq!(
            masked(a.result.clone()).to_json(),
            masked(b.result.clone()).to_json(),
            "{structure:?}: identical chaos cells must measure identically"
        );
        assert_eq!(
            a.result.completed, a.result.ops,
            "{structure:?}: the retry layer must land every operation"
        );
        assert!(a.result.deterministic, "{structure:?}: chaos is sim-only");
    }
}

/// The profiler output embedded in a cell is internally consistent: every
/// completed op is either profiled or counted skipped, every profiled op
/// decomposes exactly, and the segment shares partition the latency.
#[test]
fn cell_profile_is_consistent() {
    for structure in [Structure::Blink, Structure::Dhash] {
        let out = run_cell(&tiny_cell(structure));
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

/// The delete-heavy reclamation cell from the real smoke matrix — merge
/// races, retirements, scans across retired nodes and all — is
/// byte-identical across two in-process runs: every field of the row
/// except the wall-clock `events_per_sec`, and the complete folded
/// profiler outputs. This is the cell the regression gate leans on for
/// reclamation metrics, so its determinism is what makes that gate
/// noise-proof on shared runners.
#[test]
fn smoke_delete_cell_is_byte_identical_across_runs() {
    let specs = matrix(true);
    let spec = specs
        .iter()
        .find(|s| s.id == "blink-sim-closed-deletes")
        .expect("smoke matrix carries the delete-churn cell");
    let a = run_cell(spec);
    let b = run_cell(spec);
    assert!(a.result.deterministic, "sim cells are deterministic");
    assert_eq!(
        masked(a.result.clone()).to_json(),
        masked(b.result.clone()).to_json(),
        "delete-churn cell rows must reproduce byte-for-byte"
    );
    assert_eq!(a.folded_paths, b.folded_paths);
    assert_eq!(a.folded_waits, b.folded_waits);
    assert!(a.result.merges > 0, "the cell must exercise merge-at-empty");
}

/// The committed smoke baseline matches the smoke matrix cell-for-cell.
#[test]
fn committed_baseline_covers_the_smoke_matrix() {
    let text = include_str!("../../../BENCH_BASELINE.json");
    let baseline = BenchReport::parse(text).expect("parse committed baseline");
    let specs = matrix(true);
    assert_eq!(baseline.cells.len(), specs.len());
    for spec in specs {
        let cell = baseline
            .cells
            .iter()
            .find(|c| c.id == spec.id)
            .unwrap_or_else(|| panic!("baseline missing cell {}", spec.id));
        assert_eq!(cell.ops, spec.ops as u64, "{}: op count drifted", spec.id);
        assert!(cell.deterministic, "{}: smoke cells are sim-only", spec.id);
    }
}

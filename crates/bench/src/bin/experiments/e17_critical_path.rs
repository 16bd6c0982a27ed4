//! E17 — critical-path anatomy of the slow-replica scenario (E12 revisited).
//!
//! E12 showed *that* a degraded replica slows every operation under
//! available-copies locking but none under semisync relays. The
//! critical-path profiler shows *where the time goes*: we degrade one of
//! four processors' node manager (20× service time — a slow CPU, not a
//! slow link), drive inserts from the three healthy processors, and
//! decompose each op's latency into queueing / transit / service / stall.
//!
//! The paper's claim, refined: the straggler hurts through **queueing** —
//! messages pile up behind its busy node manager — not through transit.
//! Under semisync the straggler's queueing is *off the critical path*
//! (relays to it are fire-and-forget); under available-copies every
//! write's lock round trips through the straggler, putting that queue on
//! every op's path.
//!
//! This experiment is deliberately two-phase: phase 1 runs the cells and
//! writes `target/e17/BENCH.json` + folded stacks; phase 2 **re-reads
//! only those artifacts** and derives every number it prints from them —
//! demonstrating that the exports carry the full analysis.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use bench::report::{note, Table};
use bench::suite::{rows, run_cell, BenchReport, CellSpec, DriveMode, Network, Structure};
use bench::{f1, f2};
use dbtree::{ProtocolKind, TreeConfig};
use obs::Json;
use simnet::ProcId;
use workload::Mix;

const SLOW: ProcId = ProcId(3);

fn cell(id: &'static str, protocol: ProtocolKind) -> CellSpec {
    CellSpec {
        id,
        structure: Structure::Blink(TreeConfig {
            record_history: false,
            ..TreeConfig::fixed_copies(protocol, 4)
        }),
        drive: DriveMode::Closed(6),
        network: Network::Clean,
        ops: 600,
        seed: 12,
        n_procs: 4,
        preload: 100,
        service_time: 4,
        service_override: Some((SLOW, 80)),
        // Healthy processors only submit; P3 is the degraded replica.
        origins: 3,
        mix: Mix::INSERT_ONLY,
        key_space: 20_000,
        profile: true,
    }
}

/// Sum folded-stack weights by their leading frame's processor
/// (`"P2;deliver;relay 37"` → P2 += 37).
fn weight_by_proc(folded: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for line in folded.lines() {
        let Some((stack, w)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(w) = w.parse::<u64>() else { continue };
        let proc = stack.split(';').next().unwrap_or("?").to_string();
        *out.entry(proc).or_insert(0) += w;
    }
    out
}

/// A field of a `BENCH.json` row.
fn field<'a>(row: &'a Json, name: &str) -> &'a Json {
    row.get(name)
        .unwrap_or_else(|| panic!("BENCH.json row lacks {name:?}"))
}

pub fn run(_: &crate::Args) {
    let dir = Path::new("target/e17");
    fs::create_dir_all(dir).expect("create target/e17");

    // Phase 1: run the cells, write the artifacts, drop everything else.
    let mut report = BenchReport::default();
    for spec in [
        cell("e17-semisync-degraded", ProtocolKind::SemiSync),
        cell("e17-availablecopies-degraded", ProtocolKind::AvailableCopies),
    ] {
        eprintln!("running {} ...", spec.id);
        let out = run_cell(&spec);
        fs::write(
            dir.join(format!("{}.paths.folded", spec.id)),
            &out.folded_paths,
        )
        .expect("write paths.folded");
        fs::write(
            dir.join(format!("{}.waits.folded", spec.id)),
            &out.folded_waits,
        )
        .expect("write waits.folded");
        report.cells.push(out.result);
    }
    fs::write(dir.join("BENCH.json"), report.to_json()).expect("write BENCH.json");

    // Phase 2: the analysis consumes only the written artifacts.
    let cells = rows(&fs::read_to_string(dir.join("BENCH.json")).expect("read BENCH.json"))
        .expect("parse BENCH.json");
    let text = |c: &Json, name: &str| field(c, name).as_str().expect("a label").to_string();
    let num = |c: &Json, name: &str| field(c, name).as_f64().expect("a number");

    let mut table = Table::new(&[
        "protocol",
        "lat mean",
        "p99",
        "queueing",
        "transit",
        "service",
        "stall",
        "off-path acts/op",
    ]);
    for c in &cells {
        table.row(&[
            text(c, "protocol"),
            f1(num(c, "lat_mean")),
            field(c, "lat_p99").as_u64().expect("ticks").to_string(),
            f2(num(c, "seg_queueing")),
            f2(num(c, "seg_transit")),
            f2(num(c, "seg_service")),
            f2(num(c, "seg_stall")),
            f2(num(c, "offpath_per_op")),
        ]);
    }
    table.print();

    // Where does the queueing happen? The waits export attributes every
    // queued tick to the processor whose node manager was busy.
    let mut table = Table::new(&["cell", "proc", "queued ticks", "share"]);
    for c in &cells {
        let id = text(c, "id");
        let folded =
            fs::read_to_string(dir.join(format!("{id}.waits.folded"))).expect("read waits.folded");
        let by_proc = weight_by_proc(&folded);
        let total: u64 = by_proc.values().sum::<u64>().max(1);
        for (proc, w) in &by_proc {
            table.row(&[
                id.clone(),
                proc.clone(),
                w.to_string(),
                format!("{:.0}%", 100.0 * *w as f64 / total as f64),
            ]);
        }
        let slow_share = *by_proc.get("P3").unwrap_or(&0) as f64 / total as f64;
        assert!(
            slow_share > 0.5,
            "{id}: the degraded processor should dominate queueing (got {:.0}%)",
            100.0 * slow_share
        );
    }
    table.print();

    assert!(
        num(&cells[1], "lat_mean") > num(&cells[0], "lat_mean"),
        "available-copies must import the straggler's latency"
    );
    note("both protocols queue almost exclusively at P3 (the degraded node manager) —");
    note("but semisync keeps that queue OFF the critical path (relays are fire-and-forget,");
    note("visible as off-path actions), while available-copies' lock round trip puts P3's");
    note("queue on every insert's path: queueing — not transit — is what a slow replica costs");
}

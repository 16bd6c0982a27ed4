//! E20 — node reclamation under delete churn (lazy merge-at-empty).
//!
//! The merge-at-empty protocol exists so a long-running tree under
//! insert/delete churn does not leak node-manager storage: a leaf whose
//! entries are all tombstones is retired, its parent edge is stamped dead,
//! its range is absorbed by the left sibling, and its **arena slot is
//! freed and reused** by the next split. Two workloads probe the claim
//! from both sides (the workloads themselves live in [`bench::reclaim`] so
//! the deterministic row output can be digest-pinned by tests).
//!
//! **Part A — wrapping churn, the boundedness claim.** A retention window
//! slides over a *fixed* domain of four key bands, wrapping around: each
//! phase ingests one band, expires the band behind it, and re-sweeps the
//! one behind that (merging is opportunistic — a request that loses a race
//! is only re-armed by the next tombstone write). Expired bands merge away;
//! on the next lap their keys are re-ingested into the surviving skeleton
//! leaves, which revive past the fanout and re-split into the freed slots.
//! The experiment asserts that across many laps the cluster-wide live-slot
//! count and the slab high-water mark plateau (within 2x of the lap-1
//! level) while cumulative ops keep growing and merges/splits continue
//! past lap one: reclamation is real and the arena reuses freed slots.
//!
//! **Part B — sliding-window churn, the contrast.** The retention pattern
//! (time-series ingest with expiry): phase `p` inserts a band of fresh
//! increasing keys and expires band `p − 1`. With merging off every
//! drained leaf persists; with merging on each drained band collapses to
//! the interior *skeleton* — leaf merges stop at the leftmost live edge of
//! each interior node, and interior nodes are outside the merge family
//! (see DESIGN.md), so roughly one stuck leaf per interior survives. The
//! experiment asserts the merged run carries at least 2× fewer leaf copies
//! than the unmerged run and reports the skeleton explicitly.

use bench::f1;
use bench::reclaim::{run_sliding, run_wrapping, Row, DOMAIN_BANDS, SMOKE_LAPS, SMOKE_PHASES};
use bench::report::{note, Table};

fn print_rows(label: &str, unit: &str, rows: &[Row]) {
    let mut t = Table::new(&[
        unit,
        "ops",
        "leaves",
        "interiors",
        "slots",
        "slab cap",
        "merges",
        "splits",
    ]);
    for (i, r) in rows.iter().enumerate() {
        t.row(&[
            (i + 1).to_string(),
            r.ops_total.to_string(),
            r.leaves.to_string(),
            r.interiors.to_string(),
            r.slots.to_string(),
            r.capacity.to_string(),
            r.merges.to_string(),
            r.splits.to_string(),
        ]);
    }
    note(label);
    t.print();
}

pub fn run(args: &crate::Args) {
    let laps: u64 = if args.smoke { SMOKE_LAPS } else { 6 };
    let phases: u64 = if args.smoke { SMOKE_PHASES } else { 16 };

    // -- Part A ------------------------------------------------------------
    let wrap = run_wrapping(laps * DOMAIN_BANDS);
    print_rows(
        "Part A: retention window wrapping a fixed domain (merge on)",
        "phase",
        &wrap,
    );
    // The first lap populates the domain; measure from its end onward.
    let early = &wrap[DOMAIN_BANDS as usize - 1];
    let last = wrap.last().unwrap();
    note(&format!(
        "lap 1 end -> phase {}: ops {} -> {}, slots {} -> {}, slab cap {} -> {}, \
         merges {} -> {}, splits {} -> {}",
        wrap.len(),
        early.ops_total,
        last.ops_total,
        early.slots,
        last.slots,
        early.capacity,
        last.capacity,
        early.merges,
        last.merges,
        early.splits,
        last.splits,
    ));
    // Churn never stalls: later laps keep merging and keep re-splitting the
    // revived skeleton leaves.
    assert!(
        last.merges > early.merges && last.splits > early.splits,
        "churn stalled: merges {} -> {}, splits {} -> {}",
        early.merges,
        last.merges,
        early.splits,
        last.splits
    );
    // The boundedness claim: cumulative ops grew by laps, live slots did not.
    let slot_peak = wrap.iter().map(|r| r.slots).max().unwrap();
    assert!(
        slot_peak <= early.slots * 2,
        "live slots not bounded: peak {} vs lap-1 {}",
        slot_peak,
        early.slots
    );
    // The reuse claim: the slab high-water mark plateaus even though every
    // lap's re-splits mint fresh node ids — those installs landed in slots
    // the merges freed.
    let cap_peak = wrap.iter().map(|r| r.capacity).max().unwrap();
    assert!(
        cap_peak <= early.capacity * 2,
        "slab capacity tracked cumulative installs (no slot reuse): \
         peak {} vs lap-1 {}",
        cap_peak,
        early.capacity
    );

    // -- Part B ------------------------------------------------------------
    let off = run_sliding(false, phases);
    let on = run_sliding(true, phases);
    print_rows(
        "Part B: sliding-window retention, merge off (drained leaves leak)",
        "phase",
        &off,
    );
    print_rows(
        "Part B: sliding-window retention, merge on (bands collapse to the skeleton)",
        "phase",
        &on,
    );
    let last_off = off.last().unwrap();
    let last_on = on.last().unwrap();
    note(&format!(
        "after {} ops: leaf copies {} -> {} ({}x), slab cap {} -> {}, {} merges; \
         residual = interior skeleton (leaf merges stop at each interior's \
         leftmost live edge; interior reclamation is out of scope)",
        last_on.ops_total,
        last_off.leaves,
        last_on.leaves,
        f1(last_off.leaves as f64 / last_on.leaves.max(1) as f64),
        last_off.capacity,
        last_on.capacity,
        last_on.merges,
    ));
    assert!(
        last_on.merges > 0,
        "the sliding window never committed a merge"
    );
    assert!(
        last_off.leaves >= 2 * last_on.leaves,
        "merging should at least halve the leaked leaf copies ({} vs {})",
        last_off.leaves,
        last_on.leaves
    );
    assert!(
        last_on.capacity < last_off.capacity,
        "slab capacity shows no reclamation ({} vs {})",
        last_on.capacity,
        last_off.capacity
    );
    note("reclamation holds: slots bounded under wrapping churn, leak halved+ under retention");
}

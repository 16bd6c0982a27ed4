//! The E20 reclamation workloads (see `bin/experiments/e20_reclaim.rs` for
//! the full experiment narrative), as library functions so tests can replay
//! the exact `--smoke` configuration and pin its digest.
//!
//! Everything here is simulator-only and seed-fixed, so each phase row —
//! and therefore [`digest`] over the whole experiment — is bit-identical
//! across runs and across machines. A digest change means the protocol,
//! the simulator, or the workload changed behaviour, never noise; the
//! pinned-digest test turns silent drift in the reclamation path into a
//! loud diff.

use crate::{sum_metric, to_client};
use dbtree::{BuildSpec, ClientOp, DbCluster, Key, ProtocolKind, TreeConfig};
use simnet::SimConfig;
use workload::{Op, OpKind};

/// Keys per band.
pub const BAND: u64 = 48;
/// Key stride inside a band (matches the standard preload spacing).
pub const STRIDE: u64 = 10;
/// Bands in Part A's fixed wrapping domain.
pub const DOMAIN_BANDS: u64 = 4;
/// Part A laps in `--smoke` mode.
pub const SMOKE_LAPS: u64 = 3;
/// Part B phases in `--smoke` mode. The ratio the smoke asserts (≥ 2×)
/// climbs with the phase count: 6 phases sat on the knee (2.13×, then 1.97×
/// on a differently interleaved run), 12 read 2.2×, the full 16 read 2.3×.
pub const SMOKE_PHASES: u64 = 12;

fn tree_cfg(merge: bool) -> TreeConfig {
    TreeConfig {
        record_history: false,
        merge_at_empty: merge,
        fanout: 4,
        ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3)
    }
}

fn band_keys(band: u64) -> impl Iterator<Item = Key> {
    (0..BAND).map(move |i| (band * BAND + i) * STRIDE)
}

fn delete_op(k: Key) -> Op {
    Op {
        kind: OpKind::Delete,
        key: k,
        value: 0,
        origin: (k / STRIDE % 6) as u32,
    }
}

fn insert_op(k: Key) -> Op {
    Op {
        kind: OpKind::Insert,
        key: k,
        value: k.wrapping_mul(31).wrapping_add(7),
        origin: (k / STRIDE % 6) as u32,
    }
}

/// Cluster-wide (leaf copies, interior copies, live slots, slab capacity).
fn census(cluster: &DbCluster) -> (usize, usize, usize, usize) {
    let mut leaves = 0;
    let mut interiors = 0;
    let mut slots = 0;
    let mut capacity = 0;
    for (_, p) in cluster.sim.procs() {
        slots += p.store.len();
        capacity += p.store.slot_capacity();
        for c in p.store.iter() {
            if c.is_leaf() {
                leaves += 1;
            } else {
                interiors += 1;
            }
        }
    }
    (leaves, interiors, slots, capacity)
}

/// One measured phase of either workload. Every field is deterministic.
pub struct Row {
    /// Cumulative client operations injected.
    pub ops_total: usize,
    /// Live leaf copies across the cluster.
    pub leaves: usize,
    /// Live interior copies across the cluster.
    pub interiors: usize,
    /// Occupied arena slots across the cluster.
    pub slots: usize,
    /// Arena slab capacity (high-water mark) across the cluster.
    pub capacity: usize,
    /// Merge-at-empty commits so far.
    pub merges: u64,
    /// Splits initiated so far.
    pub splits: u64,
}

fn measure(cluster: &DbCluster, ops_total: usize) -> Row {
    let (leaves, interiors, slots, capacity) = census(cluster);
    Row {
        ops_total,
        leaves,
        interiors,
        slots,
        capacity,
        merges: sum_metric(cluster, |m| m.merges_completed),
        splits: sum_metric(cluster, |m| m.splits_initiated),
    }
}

/// Part A: a retention window sliding over a *wrapping* fixed domain,
/// merging on. Phase `p` ingests band `p mod DOMAIN_BANDS`, expires the
/// band behind it, and re-sweeps the one behind that (the merge-retry
/// trigger). Later laps re-ingest merged-away bands, reviving skeleton
/// leaves and re-splitting into the slots the merges freed.
pub fn run_wrapping(phases: u64) -> Vec<Row> {
    let keys: Vec<Key> = band_keys(0).collect();
    let spec = BuildSpec::new(keys, 6, tree_cfg(true));
    let mut cluster = DbCluster::build(&spec, SimConfig::jittery(31, 2, 25));

    let mut rows = Vec::new();
    let mut ops_total = 0usize;
    for phase in 1..=phases {
        let ingest = phase % DOMAIN_BANDS;
        let expire = (phase + DOMAIN_BANDS - 1) % DOMAIN_BANDS;
        let sweep = (phase + DOMAIN_BANDS - 2) % DOMAIN_BANDS;
        let ops: Vec<ClientOp> = band_keys(ingest)
            .map(insert_op)
            .chain(band_keys(expire).map(delete_op))
            .chain(band_keys(sweep).map(delete_op))
            .map(|op| to_client(&op))
            .collect();
        ops_total += ops.len();
        cluster
            .try_run_closed_loop(&ops, 8)
            .expect("workload drains");
        rows.push(measure(&cluster, ops_total));
    }
    rows
}

/// Part B: sliding-window retention churn (fresh increasing bands, expiry
/// two phases deep), merge off or on.
pub fn run_sliding(merge: bool, phases: u64) -> Vec<Row> {
    let keys: Vec<Key> = band_keys(0).collect();
    let spec = BuildSpec::new(keys, 6, tree_cfg(merge));
    let mut cluster = DbCluster::build(&spec, SimConfig::jittery(29, 2, 25));

    let mut rows = Vec::new();
    let mut ops_total = 0usize;
    for phase in 1..=phases {
        let ops: Vec<ClientOp> = band_keys(phase)
            .map(insert_op)
            .chain(band_keys(phase - 1).map(delete_op))
            .chain(band_keys(phase.saturating_sub(2)).map(delete_op))
            .map(|op| to_client(&op))
            .collect();
        ops_total += ops.len();
        cluster
            .try_run_closed_loop(&ops, 8)
            .expect("workload drains");
        rows.push(measure(&cluster, ops_total));
    }
    rows
}

/// FNV-1a over every field of every row, labelled per part, so any change
/// anywhere in the experiment's deterministic output moves the digest.
pub fn digest(parts: &[(&str, &[Row])]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (label, rows) in parts {
        fold(label.as_bytes());
        for r in *rows {
            for v in [
                r.ops_total as u64,
                r.leaves as u64,
                r.interiors as u64,
                r.slots as u64,
                r.capacity as u64,
                r.merges,
                r.splits,
            ] {
                fold(&v.to_le_bytes());
            }
        }
    }
    h
}

/// Replay exactly what `experiments e20 --smoke` runs and digest it.
pub fn smoke_digest() -> u64 {
    let wrap = run_wrapping(SMOKE_LAPS * DOMAIN_BANDS);
    let off = run_sliding(false, SMOKE_PHASES);
    let on = run_sliding(true, SMOKE_PHASES);
    digest(&[("wrap", &wrap), ("off", &off), ("on", &on)])
}

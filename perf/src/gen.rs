//! The benchmark's own input generator: splitmix64 from `--seed`, nothing
//! else. The program under test only ever sees the generated `ClientOp`s, so
//! a change to the `workload` crate cannot silently change a workload (that
//! crate is measured as a rung instead).

use dbtree::{ClientOp, Intent};
use simnet::ProcId;

/// splitmix64 (Steele, Lea & Flood): one u64 of state, full period.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; the bias is below 2⁻⁴⁰ for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Values written by generated inserts start here, so they can never be
/// mistaken for a preloaded entry (whose value is its key, below 10⁷).
pub const VALUE_BASE: u64 = 1_000_000_000;

/// The keys a cluster is preloaded with: `k * 10` for `k < count`.
pub fn preload_keys(count: u64) -> Vec<u64> {
    (0..count).map(|k| k * 10).collect()
}

/// Was `key` preloaded into a cluster built from `preload_keys(count)`?
pub fn is_preloaded(key: u64, count: u64) -> bool {
    key.is_multiple_of(10) && key / 10 < count
}

/// Shape of one op stream. Two workloads that name the same `tag` and seed
/// draw the same stream, so "sim-insert's stream cut to N ops" is a prefix.
#[derive(Clone, Copy, Debug)]
pub struct StreamSpec {
    /// Decorrelates streams of different shapes under one `--seed`.
    pub tag: u64,
    pub ops: usize,
    pub procs: u32,
    /// Keys are uniform over `[0, key_range)`.
    pub key_range: u64,
    /// Percentage of searches; the rest are inserts.
    pub search_pct: u64,
}

/// Generate the stream: op `i` inserts the unique value `VALUE_BASE + i`,
/// which is how the verifier maps a completion back to its op.
pub fn stream(spec: &StreamSpec, seed: u64) -> Vec<ClientOp> {
    let mut rng = SplitMix64::new(seed ^ spec.tag);
    (0..spec.ops)
        .map(|i| {
            let origin = ProcId(rng.below(spec.procs as u64) as u32);
            let key = rng.below(spec.key_range);
            let intent = if rng.below(100) < spec.search_pct {
                Intent::Search
            } else {
                Intent::Insert(VALUE_BASE + i as u64)
            };
            ClientOp {
                origin,
                key,
                intent,
            }
        })
        .collect()
}

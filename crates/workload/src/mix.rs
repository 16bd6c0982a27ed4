//! Operation mixes and the workload generator.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::dist::KeyDist;

/// The kind of a client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Point lookup.
    Search,
    /// Insert (the paper's primary update).
    Insert,
    /// Delete (a lazy tombstone write; exercises merge-at-empty when the
    /// tree enables it).
    Delete,
    /// Range scan starting at the key (the leaf-chain walk).
    Scan,
}

/// One client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// What to do.
    pub kind: OpKind,
    /// The key.
    pub key: u64,
    /// The value, for inserts (derived from the key by default).
    pub value: u64,
    /// The processor the client submits the operation to.
    pub origin: u32,
}

/// Operation-kind ratios. One uniform draw per op is partitioned
/// search → delete → scan → insert, so a mix with zero delete and scan
/// fractions generates the byte-identical stream it did before those kinds
/// existed (same RNG consumption, same boundaries).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mix {
    /// Probability an operation is a search.
    pub search_fraction: f64,
    /// Probability an operation is a delete (the merge-at-empty driver).
    pub delete_fraction: f64,
    /// Probability an operation is a range scan.
    pub scan_fraction: f64,
}

impl Mix {
    /// All inserts.
    pub const INSERT_ONLY: Mix = Mix {
        search_fraction: 0.0,
        delete_fraction: 0.0,
        scan_fraction: 0.0,
    };
    /// All searches.
    pub const SEARCH_ONLY: Mix = Mix {
        search_fraction: 1.0,
        delete_fraction: 0.0,
        scan_fraction: 0.0,
    };
    /// The read-mostly mix the dB-tree targets (interior nodes rarely
    /// updated, leaves mostly updated).
    pub const READ_HEAVY: Mix = Mix {
        search_fraction: 0.9,
        delete_fraction: 0.0,
        scan_fraction: 0.0,
    };
    /// Insert/delete churn with a sprinkle of reads and scans: the
    /// delete-heavy regime where lazy merge-at-empty must reclaim nodes.
    pub const DELETE_CHURN: Mix = Mix {
        search_fraction: 0.05,
        delete_fraction: 0.45,
        scan_fraction: 0.05,
    };
}

/// A deterministic operation stream.
#[derive(Debug)]
pub struct WorkloadGen {
    dist: KeyDist,
    mix: Mix,
    procs: u32,
    rng: SmallRng,
}

impl WorkloadGen {
    /// A generator drawing keys from `dist`, kinds from `mix`, and origins
    /// round-robin-randomly over `procs` processors.
    pub fn new(dist: KeyDist, mix: Mix, procs: u32, seed: u64) -> Self {
        assert!(procs > 0, "need at least one processor");
        WorkloadGen {
            dist,
            mix,
            procs,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Next operation.
    pub fn next_op(&mut self) -> Op {
        let key = self.dist.next_key(&mut self.rng);
        let r = self.rng.gen::<f64>();
        let m = self.mix;
        let kind = if r < m.search_fraction {
            OpKind::Search
        } else if r < m.search_fraction + m.delete_fraction {
            OpKind::Delete
        } else if r < m.search_fraction + m.delete_fraction + m.scan_fraction {
            OpKind::Scan
        } else {
            OpKind::Insert
        };
        Op {
            kind,
            key,
            value: key.wrapping_mul(31).wrapping_add(7),
            origin: self.rng.gen_range(0..self.procs),
        }
    }

    /// Generate a batch.
    pub fn batch(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

impl Iterator for WorkloadGen {
    type Item = Op;
    fn next(&mut self) -> Option<Op> {
        Some(self.next_op())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_respected() {
        let mut gen = WorkloadGen::new(KeyDist::Uniform { n: 100 }, Mix::READ_HEAVY, 4, 9);
        let ops = gen.batch(10_000);
        let searches = ops.iter().filter(|o| o.kind == OpKind::Search).count();
        assert!((8_500..9_500).contains(&searches), "searches: {searches}");
        assert!(ops.iter().all(|o| o.origin < 4));
    }

    #[test]
    fn deterministic_by_seed() {
        let mk =
            || WorkloadGen::new(KeyDist::Uniform { n: 50 }, Mix::INSERT_ONLY, 2, 77).batch(100);
        assert_eq!(mk(), mk());
    }

    #[test]
    fn insert_only_mix() {
        let mut gen = WorkloadGen::new(KeyDist::Uniform { n: 10 }, Mix::INSERT_ONLY, 1, 0);
        assert!(gen.batch(100).iter().all(|o| o.kind == OpKind::Insert));
    }

    #[test]
    fn churn_mix_draws_all_kinds() {
        let mut gen = WorkloadGen::new(KeyDist::Uniform { n: 100 }, Mix::DELETE_CHURN, 2, 3);
        let ops = gen.batch(10_000);
        let count = |k: OpKind| ops.iter().filter(|o| o.kind == k).count();
        assert!(
            (4_000..5_000).contains(&count(OpKind::Delete)),
            "deletes: {}",
            count(OpKind::Delete)
        );
        assert!(count(OpKind::Scan) > 0);
        assert!(count(OpKind::Search) > 0);
        assert!(count(OpKind::Insert) > 0);
    }

    #[test]
    fn zero_fractions_never_emit_new_kinds() {
        // Mixes predating delete/scan must generate the identical stream:
        // one draw per op, partitioned, with both new regions empty.
        let mut gen = WorkloadGen::new(KeyDist::Uniform { n: 100 }, Mix::READ_HEAVY, 4, 9);
        assert!(gen
            .batch(5_000)
            .iter()
            .all(|o| matches!(o.kind, OpKind::Search | OpKind::Insert)));
    }

    #[test]
    fn iterator_impl() {
        let gen = WorkloadGen::new(KeyDist::Uniform { n: 10 }, Mix::SEARCH_ONLY, 1, 0);
        let v: Vec<Op> = gen.into_iter().take(5).collect();
        assert_eq!(v.len(), 5);
        assert!(v.iter().all(|o| o.kind == OpKind::Search));
    }
}

//! The sequence oracle: §3's history requirements checked against the
//! *order* in which copies applied updates, not just the sets they ended up
//! with.
//!
//! [`crate::log::HistoryLog::check`] verifies completeness and convergence
//! from coverage sets and final digests. That misses a class of bug the
//! paper's theory is specifically about: two copies can cover the same
//! update set and still have applied a *conflicting* pair of actions in
//! opposite orders — their agreement at the end of one run is then a
//! coincidence of the workload, not a guarantee. This module reconstructs
//! each copy's history `H_c` (recorded by the log as its applied sequence)
//! and asserts the §3.1 compatibility condition directly: whenever two live
//! copies of a node applied the same pair of updates in opposite orders,
//! that pair must commute — under the class taxonomy of §4.1, as supplied
//! by the caller through a conflict relation.
//!
//! The relation receives each action *as the copy saw it* (class + the
//! initial/relayed flag), because commutativity in the paper is a property
//! of action forms, not of update identities: rule 3 lets a relayed
//! half-split commute with a relayed insert while the initial forms of the
//! same updates conflict. A reordered pair is a violation only if it
//! conflicts under **both** copies' views — if either copy saw forms that
//! commute, that copy's order is free, and the paper permits the
//! discrepancy.

use std::collections::HashMap;
use std::fmt;

use crate::log::HistoryLog;

/// One applied action, as presented to the conflict relation: the §4.1
/// classification inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeqAction {
    /// The update's uniform identity (log tag).
    pub tag: u64,
    /// The class given at issue time (`"split"`, `"leaf-write"`, …).
    pub class: &'static str,
    /// Was this the *initial* (capital-letter) form at this copy?
    pub initial: bool,
}

/// A violation found by the sequence oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeqViolation {
    /// Complete-history violation: an issued update observed nowhere.
    Lost {
        /// The lost update's tag.
        tag: u64,
        /// Its issue-time class.
        class: &'static str,
    },
    /// Compatible-history violation: two live copies of a node applied a
    /// conflicting pair of updates in opposite orders.
    ConflictingReorder {
        /// The logical node.
        node: u64,
        /// The copy that applied `first` before `second`.
        proc_a: u32,
        /// The copy that applied them in the opposite order.
        proc_b: u32,
        /// The earlier action in `proc_a`'s history (its view).
        first: SeqAction,
        /// The later action in `proc_a`'s history (its view).
        second: SeqAction,
    },
    /// Ordered-history violation: an ordered-class action was applied after
    /// one that should follow it.
    OrderedRegressed {
        /// The logical node.
        node: u64,
        /// The processor holding the copy.
        proc: u32,
        /// The ordered class.
        class: &'static str,
        /// Order key applied earlier.
        prev: u128,
        /// Order key applied after it (≤ `prev`).
        next: u128,
    },
}

impl fmt::Display for SeqViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqViolation::Lost { tag, class } => {
                write!(f, "sequence oracle: lost update #{tag} ({class})")
            }
            SeqViolation::ConflictingReorder {
                node,
                proc_a,
                proc_b,
                first,
                second,
            } => write!(
                f,
                "sequence oracle: node {node} applied conflicting pair in opposite orders: \
                 P{proc_a} ran #{} ({}) before #{} ({}); P{proc_b} ran them reversed",
                first.tag, first.class, second.tag, second.class
            ),
            SeqViolation::OrderedRegressed {
                node,
                proc,
                class,
                prev,
                next,
            } => write!(
                f,
                "sequence oracle: node {node} at P{proc}: {class} regressed ({next} after {prev})"
            ),
        }
    }
}

/// A class-level conflict relation: `true` when the two action forms do NOT
/// commute. Receives each action as one particular copy saw it.
pub type ConflictFn<'a> = &'a dyn Fn(SeqAction, SeqAction) -> bool;

/// Run the sequence oracle over a finished log.
///
/// Checks, in order: completeness (every issued tag observed somewhere),
/// orderedness (every copy's ordered-class sequence is strictly
/// increasing), and compatibility (no conflicting pair applied in opposite
/// orders by two live copies of the same node, judged by `conflicts` — see
/// the module docs for why both copies' views must conflict).
pub fn check_sequences(log: &HistoryLog, conflicts: ConflictFn<'_>) -> Vec<SeqViolation> {
    let mut out = Vec::new();
    // Completeness, independently of HistoryLog::check.
    for (tag, class) in log.issued_actions() {
        if !log.was_observed(tag) {
            out.push(SeqViolation::Lost { tag, class });
        }
    }
    // Orderedness: re-derive monotonicity from the raw sequences.
    for (node, proc, seq) in log.ordered_sequences() {
        let mut high: HashMap<&'static str, u128> = HashMap::new();
        for &(class, order) in seq {
            if let Some(&prev) = high.get(class) {
                if order <= prev {
                    out.push(SeqViolation::OrderedRegressed {
                        node,
                        proc,
                        class,
                        prev,
                        next: order,
                    });
                    continue;
                }
            }
            high.insert(class, order);
        }
    }
    // Compatibility: pairwise reorder scan over live copies of each node.
    for (node, copies) in log.applied_sequences() {
        for (i, &(proc_a, seq_a)) in copies.iter().enumerate() {
            for &(proc_b, seq_b) in &copies[i + 1..] {
                scan_pair(log, node, proc_a, seq_a, proc_b, seq_b, conflicts, &mut out);
            }
        }
    }
    out
}

/// Report every conflicting pair two copies applied in opposite orders.
#[allow(clippy::too_many_arguments)]
fn scan_pair(
    log: &HistoryLog,
    node: u64,
    proc_a: u32,
    seq_a: &[(u64, bool)],
    proc_b: u32,
    seq_b: &[(u64, bool)],
    conflicts: ConflictFn<'_>,
    out: &mut Vec<SeqViolation>,
) {
    // Position and view of each tag at copy b.
    let pos_b: HashMap<u64, (usize, bool)> = seq_b
        .iter()
        .enumerate()
        .map(|(i, &(tag, initial))| (tag, (i, initial)))
        .collect();
    // Common subsequence as copy a ordered it.
    let common: Vec<(u64, bool)> = seq_a
        .iter()
        .filter(|(tag, _)| pos_b.contains_key(tag))
        .copied()
        .collect();
    let action = |tag: u64, initial: bool| SeqAction {
        tag,
        class: log.class_of(tag).unwrap_or("?"),
        initial,
    };
    for (i, &(x, x_init)) in common.iter().enumerate() {
        for &(y, y_init) in &common[i + 1..] {
            let (bx, bx_init) = pos_b[&x];
            let (by, by_init) = pos_b[&y];
            if by >= bx {
                continue; // same relative order at both copies
            }
            let first_a = action(x, x_init);
            let second_a = action(y, y_init);
            let first_b = action(x, bx_init);
            let second_b = action(y, by_init);
            // A reorder is illegal only when the pair conflicts under both
            // copies' views (see module docs).
            if conflicts(first_a, second_a) && conflicts(first_b, second_b) {
                out.push(SeqViolation::ConflictingReorder {
                    node,
                    proc_a,
                    proc_b,
                    first: first_a,
                    second: second_a,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::ObserveKind;

    /// Splits conflict with each other; writes commute; a split conflicts
    /// with a write when either form is initial (§4.1 rules 2–4).
    fn db_like(a: SeqAction, b: SeqAction) -> bool {
        let split = |s: SeqAction| s.class == "split";
        if split(a) && split(b) {
            return true;
        }
        if split(a) || split(b) {
            return a.initial || b.initial;
        }
        false
    }

    #[test]
    fn clean_log_passes() {
        let mut log = HistoryLog::new();
        let t1 = log.issue("leaf-write");
        let t2 = log.issue("leaf-write");
        for p in 0..2 {
            log.copy_created(7, p, []);
        }
        // Opposite orders, but writes commute.
        log.observe(7, 0, t1, ObserveKind::Applied);
        log.observe(7, 0, t2, ObserveKind::Applied);
        log.observe(7, 1, t2, ObserveKind::Applied);
        log.observe(7, 1, t1, ObserveKind::Applied);
        assert_eq!(check_sequences(&log, &db_like), vec![]);
    }

    #[test]
    fn reordered_splits_flagged() {
        let mut log = HistoryLog::new();
        let s1 = log.issue("split");
        let s2 = log.issue("split");
        log.copy_created(7, 0, []);
        log.copy_created(7, 1, []);
        log.observe_initial(7, 0, s1);
        log.observe(7, 0, s2, ObserveKind::Applied);
        log.observe_initial(7, 1, s2);
        log.observe(7, 1, s1, ObserveKind::Applied);
        let violations = check_sequences(&log, &db_like);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, SeqViolation::ConflictingReorder { node: 7, .. })),
            "got {violations:?}"
        );
    }

    #[test]
    fn relayed_reorder_is_legal_when_one_view_commutes() {
        // The PC saw both as initial (conflict); the replica saw both
        // relayed (rule 3: commute) — the replica's order is free, so the
        // inversion is legal.
        let mut log = HistoryLog::new();
        let w = log.issue("leaf-write");
        let s = log.issue("split");
        log.copy_created(7, 0, []);
        log.copy_created(7, 1, []);
        log.observe_initial(7, 0, s);
        log.observe_initial(7, 0, w);
        log.observe(7, 1, w, ObserveKind::Applied);
        log.observe(7, 1, s, ObserveKind::Applied);
        assert_eq!(check_sequences(&log, &db_like), vec![]);
    }

    #[test]
    fn lost_and_regressed_reported() {
        let mut log = HistoryLog::new();
        let _ghost = log.issue("leaf-write");
        log.copy_created(1, 0, []);
        log.ordered_applied(1, 0, "link-change", 5);
        log.ordered_applied(1, 0, "link-change", 4);
        let violations = check_sequences(&log, &db_like);
        assert!(violations
            .iter()
            .any(|v| matches!(v, SeqViolation::Lost { .. })));
        assert!(violations.iter().any(|v| matches!(
            v,
            SeqViolation::OrderedRegressed {
                prev: 5,
                next: 4,
                ..
            }
        )));
    }

    #[test]
    fn dead_copies_are_exempt() {
        let mut log = HistoryLog::new();
        let s1 = log.issue("split");
        let s2 = log.issue("split");
        log.copy_created(7, 0, []);
        log.copy_created(7, 1, []);
        log.observe_initial(7, 0, s1);
        log.observe(7, 0, s2, ObserveKind::Applied);
        log.observe_initial(7, 1, s2);
        log.observe(7, 1, s1, ObserveKind::Applied);
        log.copy_deleted(7, 1);
        assert_eq!(check_sequences(&log, &db_like), vec![]);
    }
}

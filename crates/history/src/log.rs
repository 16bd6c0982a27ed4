//! Runtime recorder for protocol executions.
//!
//! A protocol implementation reports three things while it runs:
//!
//! 1. every *issued* update action ([`HistoryLog::issue`] allocates the tag
//!    that then travels inside protocol messages),
//! 2. every *observation* of an update at a copy — applied, discarded as
//!    out-of-range, or forwarded onward ([`HistoryLog::observe`] /
//!    [`HistoryLog::observe_initial`]), and
//! 3. replication-set changes ([`HistoryLog::copy_created`] with the
//!    creation snapshot — the paper's *backwards extension* — and
//!    [`HistoryLog::copy_deleted`]).
//!
//! At the end of the computation, [`HistoryLog::check`] evaluates the three
//! §3 requirements and returns every violation found.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How a copy observed an update action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObserveKind {
    /// The update was applied to the copy's value.
    Applied,
    /// The update arrived but its key had already left the copy's range
    /// (a relayed insert dropped after a split — legal because the split
    /// carried the key's fate).
    Discarded,
    /// The update arrived out of range and was re-issued toward its proper
    /// home (the semisync "rewrite history" move).
    Forwarded,
}

/// One violation of the §3 requirements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Complete-history violation: an issued update was never observed by
    /// any copy of any node.
    Lost {
        /// The lost update's tag.
        tag: u64,
        /// The class given at issue time.
        class: &'static str,
    },
    /// Compatible-history violation: a live copy's snapshot ∪ observations
    /// is missing updates from its node's initial-update set `M_n`.
    Incomplete {
        /// The logical node.
        node: u64,
        /// The processor holding the deficient copy.
        proc: u32,
        /// Tags in `M_n` the copy never saw.
        missing: Vec<u64>,
    },
    /// Compatible-history violation: live copies of a node finished with
    /// different values.
    Diverged {
        /// The logical node.
        node: u64,
        /// `(proc, digest)` of each live copy.
        digests: Vec<(u32, u64)>,
    },
    /// Ordered-history violation: an ordered-class action was applied after
    /// one that should follow it.
    OutOfOrder {
        /// The logical node.
        node: u64,
        /// The processor holding the copy.
        proc: u32,
        /// The ordered class.
        class: &'static str,
        /// Order key of the previously applied action.
        prev: u128,
        /// Order key of the action applied after it (≤ `prev`).
        next: u128,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Lost { tag, class } => write!(f, "lost update #{tag} ({class})"),
            Violation::Incomplete {
                node,
                proc,
                missing,
            } => write!(
                f,
                "copy of node {node} at P{proc} missing {} update(s): {missing:?}",
                missing.len()
            ),
            Violation::Diverged { node, digests } => {
                write!(f, "copies of node {node} diverged: {digests:?}")
            }
            Violation::OutOfOrder {
                node,
                proc,
                class,
                prev,
                next,
            } => write!(
                f,
                "node {node} at P{proc}: {class} applied out of order ({next} after {prev})"
            ),
        }
    }
}

#[derive(Clone, Debug, Default)]
struct CopyRecord {
    snapshot: BTreeSet<u64>,
    observed: BTreeSet<u64>,
    last_ordered: BTreeMap<&'static str, u128>,
    live: bool,
    final_digest: Option<u64>,
    out_of_order: Vec<(&'static str, u128, u128)>,
    /// Applied updates in local application order: `(tag, initial_here)`.
    /// This is the copy's history `H_c` from §3.1, which the sequence
    /// oracle ([`crate::oracle`]) compares across copies for commutativity.
    applied_seq: Vec<(u64, bool)>,
    /// Ordered-class applications in local application order, violations
    /// included (the oracle re-derives monotonicity independently).
    ordered_seq: Vec<(&'static str, u128)>,
}

/// Summary counters, for experiment reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogSummary {
    /// Updates issued.
    pub issued: u64,
    /// Observation events recorded.
    pub observations: u64,
    /// Observations that discarded the update.
    pub discards: u64,
    /// Observations that forwarded the update.
    pub forwards: u64,
    /// Live copies at check time.
    pub live_copies: u64,
}

/// The recorder. Construct with [`HistoryLog::new`] (recording) or
/// [`HistoryLog::disabled`] (all methods are cheap no-ops, for benchmarks).
#[derive(Clone, Debug)]
pub struct HistoryLog {
    enabled: bool,
    next_tag: u64,
    issued: BTreeMap<u64, &'static str>,
    observed_anywhere: BTreeSet<u64>,
    /// `M_n`: initial updates performed on each node.
    initial_sets: BTreeMap<u64, BTreeSet<u64>>,
    copies: BTreeMap<(u64, u32), CopyRecord>,
}

impl Default for HistoryLog {
    fn default() -> Self {
        Self::new()
    }
}

impl HistoryLog {
    /// A recording log.
    pub fn new() -> Self {
        HistoryLog {
            enabled: true,
            next_tag: 1,
            issued: BTreeMap::new(),
            observed_anywhere: BTreeSet::new(),
            initial_sets: BTreeMap::new(),
            copies: BTreeMap::new(),
        }
    }

    /// A log that records nothing and reports no violations.
    pub fn disabled() -> Self {
        HistoryLog {
            enabled: false,
            ..Self::new()
        }
    }

    /// Is this log recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The next tag [`HistoryLog::issue`] will mint — a watermark over
    /// issued actions, folded into state fingerprints so two schedules that
    /// issued different numbers of actions never collide.
    pub fn tag_watermark(&self) -> u64 {
        self.next_tag
    }

    /// Allocate a tag for a new initial update action of `class`.
    /// Tags are nonzero; 0 can be used by callers as "untracked".
    pub fn issue(&mut self, class: &'static str) -> u64 {
        if !self.enabled {
            return 0;
        }
        let tag = self.next_tag;
        self.next_tag += 1;
        self.issued.insert(tag, class);
        tag
    }

    /// Record that the copy of `node` on `proc` observed update `tag`.
    pub fn observe(&mut self, node: u64, proc: u32, tag: u64, kind: ObserveKind) {
        if !self.enabled || tag == 0 {
            return;
        }
        self.observed_anywhere.insert(tag);
        let rec = self.copy_entry(node, proc);
        if rec.observed.insert(tag) && kind == ObserveKind::Applied {
            rec.applied_seq.push((tag, false));
        }
    }

    /// Record that `tag` was consumed somewhere without a specific copy
    /// observing it (e.g. a routing-hint update dropped because its target
    /// node migrated away — hints are not part of any copy's value).
    /// Satisfies the complete-history requirement without creating a
    /// phantom copy record.
    pub fn observe_global(&mut self, tag: u64) {
        if !self.enabled || tag == 0 {
            return;
        }
        self.observed_anywhere.insert(tag);
    }

    /// Record that `tag` was performed as an *initial* action on `node` (at
    /// the copy on `proc`): it becomes a member of `M_node`, which every
    /// live copy must eventually cover.
    pub fn observe_initial(&mut self, node: u64, proc: u32, tag: u64) {
        if !self.enabled || tag == 0 {
            return;
        }
        self.initial_sets.entry(node).or_default().insert(tag);
        self.observed_anywhere.insert(tag);
        let rec = self.copy_entry(node, proc);
        if rec.observed.insert(tag) {
            rec.applied_seq.push((tag, true));
        } else if let Some(entry) = rec.applied_seq.iter_mut().rev().find(|e| e.0 == tag) {
            // Some protocols record the application first and flag it as
            // initial afterwards; upgrade in place.
            entry.1 = true;
        }
    }

    /// Record an applied ordered-class action (e.g. a link-change) with its
    /// position in the class's total order: a version number, or — for a
    /// class ordered by a pair, like the parent hint's `(low, version)` —
    /// the pair packed most-significant first.
    pub fn ordered_applied(&mut self, node: u64, proc: u32, class: &'static str, order: u128) {
        if !self.enabled {
            return;
        }
        let rec = self.copy_entry(node, proc);
        rec.ordered_seq.push((class, order));
        if let Some(&prev) = rec.last_ordered.get(class) {
            if order <= prev {
                rec.out_of_order.push((class, prev, order));
                return;
            }
        }
        rec.last_ordered.insert(class, order);
    }

    /// Record creation of a copy of `node` on `proc`, whose initial value
    /// synthesizes the updates in `snapshot` (the backwards extension `B_c`).
    pub fn copy_created(&mut self, node: u64, proc: u32, snapshot: impl IntoIterator<Item = u64>) {
        if !self.enabled {
            return;
        }
        let rec = self.copy_entry(node, proc);
        rec.snapshot.extend(snapshot);
        rec.live = true;
    }

    /// The tags a copy has observed (snapshot ∪ observations) — used to seed
    /// the snapshot of a copy it spawns.
    pub fn copy_coverage(&self, node: u64, proc: u32) -> Vec<u64> {
        self.copies
            .get(&(node, proc))
            .map(|r| r.snapshot.union(&r.observed).copied().collect())
            .unwrap_or_default()
    }

    /// Record deletion of a copy (it is excluded from end-of-run checks, as
    /// the paper's unjoin semantics allow).
    pub fn copy_deleted(&mut self, node: u64, proc: u32) {
        if !self.enabled {
            return;
        }
        self.copy_entry(node, proc).live = false;
    }

    /// Record the copy's final value digest, compared across live copies.
    pub fn set_final_digest(&mut self, node: u64, proc: u32, digest: u64) {
        if !self.enabled {
            return;
        }
        self.copy_entry(node, proc).final_digest = Some(digest);
    }

    fn copy_entry(&mut self, node: u64, proc: u32) -> &mut CopyRecord {
        self.copies
            .entry((node, proc))
            .or_insert_with(|| CopyRecord {
                live: true,
                ..CopyRecord::default()
            })
    }

    /// Evaluate the complete, compatible, and ordered history requirements.
    /// Returns every violation (empty = the run satisfies all three).
    pub fn check(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        if !self.enabled {
            return out;
        }
        // Complete histories: every issued update observed somewhere.
        for (&tag, &class) in &self.issued {
            if !self.observed_anywhere.contains(&tag) {
                out.push(Violation::Lost { tag, class });
            }
        }
        // Compatible histories, part 1: coverage of M_n per live copy.
        for ((node, proc), rec) in &self.copies {
            if !rec.live {
                continue;
            }
            if let Some(mn) = self.initial_sets.get(node) {
                let missing: Vec<u64> = mn
                    .iter()
                    .filter(|t| !rec.observed.contains(t) && !rec.snapshot.contains(t))
                    .copied()
                    .collect();
                if !missing.is_empty() {
                    out.push(Violation::Incomplete {
                        node: *node,
                        proc: *proc,
                        missing,
                    });
                }
            }
            for &(class, prev, next) in &rec.out_of_order {
                out.push(Violation::OutOfOrder {
                    node: *node,
                    proc: *proc,
                    class,
                    prev,
                    next,
                });
            }
        }
        // Compatible histories, part 2: live copies converge in value.
        let mut nodes: BTreeMap<u64, Vec<(u32, u64)>> = BTreeMap::new();
        for ((node, proc), rec) in &self.copies {
            if rec.live {
                if let Some(d) = rec.final_digest {
                    nodes.entry(*node).or_default().push((*proc, d));
                }
            }
        }
        for (node, digests) in nodes {
            if digests.len() > 1 && digests.iter().any(|&(_, d)| d != digests[0].1) {
                out.push(Violation::Diverged { node, digests });
            }
        }
        out
    }

    /// The class `tag` was issued under, if it was issued by this log.
    pub fn class_of(&self, tag: u64) -> Option<&'static str> {
        self.issued.get(&tag).copied()
    }

    /// Every issued `(tag, class)` pair, in tag order.
    pub fn issued_actions(&self) -> impl Iterator<Item = (u64, &'static str)> + '_ {
        self.issued.iter().map(|(&t, &c)| (t, c))
    }

    /// Was `tag` observed by any copy (or globally consumed)?
    pub fn was_observed(&self, tag: u64) -> bool {
        self.observed_anywhere.contains(&tag)
    }

    /// Per-copy applied histories of *live* copies, grouped by node:
    /// `node → [(proc, applications)]` where each application is
    /// `(tag, initial_here)` in local application order — the copy history
    /// `H_c` of §3.1, as the sequence oracle consumes it.
    pub fn applied_sequences(&self) -> AppliedSequences<'_> {
        let mut out: AppliedSequences<'_> = BTreeMap::new();
        for ((node, proc), rec) in &self.copies {
            if rec.live {
                out.entry(*node)
                    .or_default()
                    .push((*proc, rec.applied_seq.as_slice()));
            }
        }
        out
    }

    /// Per-copy ordered-class application sequences of live copies:
    /// `(node, proc, [(class, order)])` in local application order.
    pub fn ordered_sequences(&self) -> Vec<OrderedSequence<'_>> {
        self.copies
            .iter()
            .filter(|(_, rec)| rec.live)
            .map(|((node, proc), rec)| (*node, *proc, rec.ordered_seq.as_slice()))
            .collect()
    }

    /// Counters for reports.
    pub fn summary(&self) -> LogSummary {
        LogSummary {
            issued: self.issued.len() as u64,
            observations: self.copies.values().map(|r| r.observed.len() as u64).sum(),
            discards: 0,
            forwards: 0,
            live_copies: self.copies.values().filter(|r| r.live).count() as u64,
        }
    }
}

/// Live copy histories grouped by node: `node → [(proc, [(tag,
/// initial_here)])]`, each copy's applications in local order.
pub type AppliedSequences<'a> = BTreeMap<u64, Vec<(u32, &'a [(u64, bool)])>>;

/// One live copy's ordered-class application sequence:
/// `(node, proc, [(class, order)])`.
pub type OrderedSequence<'a> = (u64, u32, &'a [(&'static str, u128)]);

/// FNV-1a over little-endian words — a tiny stable digest helper for final
/// copy values (no external hash dependencies).
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_has_no_violations() {
        let mut log = HistoryLog::new();
        let t1 = log.issue("insert");
        let t2 = log.issue("insert");
        for proc in 0..3 {
            log.copy_created(7, proc, []);
            log.observe(7, proc, t1, ObserveKind::Applied);
            log.observe(7, proc, t2, ObserveKind::Applied);
            log.set_final_digest(7, proc, 42);
        }
        log.observe_initial(7, 0, t1);
        log.observe_initial(7, 1, t2);
        assert!(log.check().is_empty());
    }

    #[test]
    fn lost_update_detected() {
        let mut log = HistoryLog::new();
        let t = log.issue("insert");
        let violations = log.check();
        assert_eq!(
            violations,
            vec![Violation::Lost {
                tag: t,
                class: "insert"
            }]
        );
    }

    #[test]
    fn incomplete_copy_detected() {
        let mut log = HistoryLog::new();
        let t = log.issue("insert");
        log.copy_created(7, 0, []);
        log.copy_created(7, 1, []);
        log.observe_initial(7, 0, t);
        // copy on P1 never sees t.
        let violations = log.check();
        assert!(violations.iter().any(|v| matches!(
            v,
            Violation::Incomplete {
                node: 7,
                proc: 1,
                ..
            }
        )));
    }

    #[test]
    fn snapshot_covers_earlier_updates() {
        let mut log = HistoryLog::new();
        let t = log.issue("insert");
        log.copy_created(7, 0, []);
        log.observe_initial(7, 0, t);
        // New copy joins later; its snapshot covers t (backwards extension).
        let coverage = log.copy_coverage(7, 0);
        log.copy_created(7, 1, coverage);
        assert!(log.check().is_empty());
    }

    #[test]
    fn divergence_detected() {
        let mut log = HistoryLog::new();
        log.copy_created(3, 0, []);
        log.copy_created(3, 1, []);
        log.set_final_digest(3, 0, 1);
        log.set_final_digest(3, 1, 2);
        let violations = log.check();
        assert!(matches!(
            violations.as_slice(),
            [Violation::Diverged { node: 3, .. }]
        ));
    }

    #[test]
    fn dead_copies_exempt() {
        let mut log = HistoryLog::new();
        let t = log.issue("insert");
        log.copy_created(7, 0, []);
        log.copy_created(7, 1, []);
        log.observe_initial(7, 0, t);
        log.set_final_digest(7, 0, 5);
        log.set_final_digest(7, 1, 99); // diverged AND incomplete...
        log.copy_deleted(7, 1); // ...but unjoined, so exempt
        assert!(log.check().is_empty());
    }

    #[test]
    fn ordered_violation_detected() {
        let mut log = HistoryLog::new();
        log.copy_created(1, 0, []);
        log.ordered_applied(1, 0, "link-change", 3);
        log.ordered_applied(1, 0, "link-change", 2);
        let violations = log.check();
        assert!(matches!(
            violations.as_slice(),
            [Violation::OutOfOrder {
                class: "link-change",
                prev: 3,
                next: 2,
                ..
            }]
        ));
    }

    #[test]
    fn ordered_monotone_is_clean() {
        let mut log = HistoryLog::new();
        log.copy_created(1, 0, []);
        for v in 1..10 {
            log.ordered_applied(1, 0, "link-change", v);
        }
        assert!(log.check().is_empty());
    }

    #[test]
    fn disabled_log_is_inert() {
        let mut log = HistoryLog::disabled();
        assert_eq!(log.issue("insert"), 0);
        log.copy_created(1, 0, []);
        log.set_final_digest(1, 0, 1);
        assert!(log.check().is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        assert_eq!(fnv1a([1, 2, 3]), fnv1a([1, 2, 3]));
        assert_ne!(fnv1a([1, 2, 3]), fnv1a([3, 2, 1]));
        assert_ne!(fnv1a([]), fnv1a([0]));
    }
}

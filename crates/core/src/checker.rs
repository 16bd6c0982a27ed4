//! Global end-of-run checkers: the executable form of what the paper's
//! theorems promise at the end of a computation.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use history::oracle::{check_sequences, SeqAction};
use history::HistoryLog;
use simnet::ProcId;

use crate::node::NodeCopy;
use crate::proc::DbProc;
use crate::tree::DbSim;
use crate::types::{Entry, Key, NodeId};

/// A violation found by the global checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeViolation {
    /// Copies of one node ended with different values.
    Diverged {
        /// The node.
        node: NodeId,
        /// Distinct digests seen.
        digests: Vec<u64>,
    },
    /// An expected key is not findable by root navigation.
    KeyLost {
        /// The missing key.
        key: Key,
    },
    /// A deleted key is still findable by root navigation (a lost delete:
    /// its tombstone was dropped, e.g. by an unsafe merge commit).
    DeletedKeyVisible {
        /// The key that should be gone.
        key: Key,
    },
    /// The leaf chain does not tile the key space.
    BrokenLeafChain {
        /// Description of the break.
        detail: String,
    },
    /// A processor owns a leaf but is missing an ancestor copy
    /// (the dB-tree path-replication property, Fig 2).
    PathPropertyBroken {
        /// The processor.
        proc: ProcId,
        /// The leaf it owns.
        leaf: NodeId,
        /// The ancestor it is missing.
        missing: NodeId,
    },
    /// A copy's advisory parent hint names a node that starts right of the
    /// copy (or misstates where it starts): an upward action begun there
    /// would be routed left of its target. Too far *left* is only slow.
    ParentHintRightOfCopy {
        /// The processor holding the copy.
        proc: ProcId,
        /// The copy's node.
        node: NodeId,
        /// The hinted parent.
        parent: NodeId,
    },
    /// A processor still has stashed protocol events at quiescence
    /// (an install never arrived).
    DanglingStash {
        /// The processor.
        proc: ProcId,
        /// The node whose events are stashed.
        node: NodeId,
        /// How many events.
        count: usize,
    },
    /// The history log reported violations (stringified).
    History {
        /// Rendered violations.
        detail: String,
    },
}

impl std::fmt::Display for TreeViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeViolation::Diverged { node, digests } => {
                write!(f, "node {node:?} diverged across copies: {digests:?}")
            }
            TreeViolation::KeyLost { key } => write!(f, "key {key} lost"),
            TreeViolation::DeletedKeyVisible { key } => {
                write!(f, "deleted key {key} still visible")
            }
            TreeViolation::BrokenLeafChain { detail } => write!(f, "broken leaf chain: {detail}"),
            TreeViolation::PathPropertyBroken {
                proc,
                leaf,
                missing,
            } => write!(
                f,
                "{proc} owns leaf {leaf:?} but lacks ancestor {missing:?}"
            ),
            TreeViolation::ParentHintRightOfCopy { proc, node, parent } => write!(
                f,
                "{proc}'s copy of {node:?} hints at parent {parent:?}, which starts right of it"
            ),
            TreeViolation::DanglingStash { proc, node, count } => {
                write!(f, "{proc} has {count} stashed events for {node:?}")
            }
            TreeViolation::History { detail } => write!(f, "history: {detail}"),
        }
    }
}

/// A read-only global view over every processor's store.
pub struct GlobalView<'a> {
    /// node → (proc, copy) for every resident copy.
    pub copies: HashMap<NodeId, Vec<(ProcId, &'a NodeCopy)>>,
    root: Option<NodeId>,
}

impl<'a> GlobalView<'a> {
    /// Snapshot the cluster.
    pub fn new(sim: &'a DbSim) -> Self {
        Self::from_procs(sim.procs().map(|(pid, p)| (pid, &**p)))
    }

    /// Snapshot from bare processor states — the form that works after a
    /// threaded cluster's shutdown handed its processes back.
    pub fn from_procs(procs: impl IntoIterator<Item = (ProcId, &'a DbProc)>) -> Self {
        let mut copies: HashMap<NodeId, Vec<(ProcId, &'a NodeCopy)>> = HashMap::new();
        let mut root = None;
        let mut root_level = 0;
        for (pid, proc) in procs {
            for copy in proc.store.iter() {
                copies.entry(copy.id).or_default().push((pid, copy));
            }
            if let Some(r) = proc.store.root() {
                let level = proc.store.get(r).map(|c| c.level).unwrap_or(0);
                if root.is_none() || level > root_level {
                    root = Some(r);
                    root_level = level;
                }
            }
        }
        GlobalView { copies, root }
    }

    /// An authoritative copy of a node: the PC's copy if resident, else the
    /// lowest-numbered processor's.
    pub fn authoritative(&self, node: NodeId) -> Option<&'a NodeCopy> {
        let list = self.copies.get(&node)?;
        list.iter()
            .find(|(p, c)| *p == c.pc)
            .or_else(|| list.iter().min_by_key(|(p, _)| *p))
            .map(|(_, c)| *c)
    }

    /// Navigate from the root to the leaf responsible for `key`, returning
    /// the path of node ids (root first). `None` if navigation gets stuck.
    pub fn path_to(&self, key: Key) -> Option<Vec<NodeId>> {
        let mut path = Vec::new();
        let mut cur = self.root?;
        let mut fuel = 10_000;
        loop {
            fuel -= 1;
            if fuel == 0 {
                return None;
            }
            let copy = self.authoritative(cur)?;
            if copy.range.is_right_of(key) {
                cur = copy.right?.node;
                continue;
            }
            path.push(cur);
            if copy.is_leaf() {
                return Some(path);
            }
            cur = copy.child_for(key)?.node;
        }
    }

    /// Find `key` by root navigation.
    pub fn find(&self, key: Key) -> Option<u64> {
        let path = self.path_to(key)?;
        let leaf = self.authoritative(*path.last()?)?;
        leaf.entries.get(&key).and_then(Entry::value)
    }

    /// Distinct nodes per level.
    pub fn nodes_per_level(&self) -> BTreeMap<u8, usize> {
        let mut out = BTreeMap::new();
        for copy in self.copies.values().filter_map(|v| v.first()) {
            *out.entry(copy.1.level).or_insert(0) += 1;
        }
        out
    }

    /// Copies per level (for the Fig 2 replication-factor experiment).
    pub fn copies_per_level(&self) -> BTreeMap<u8, usize> {
        let mut out = BTreeMap::new();
        for list in self.copies.values() {
            if let Some((_, c)) = list.first() {
                *out.entry(c.level).or_insert(0) += list.len();
            }
        }
        out
    }

    /// Mean fill factor of nodes at `level`: live entries over the fanout
    /// implied by the fullest node seen. The paper's \[11\] result is that
    /// never-merging loses little utilization; this is the metric.
    pub fn utilization(&self, level: u8) -> f64 {
        let nodes: Vec<&NodeCopy> = self
            .copies
            .values()
            .filter_map(|v| v.first().map(|(_, c)| *c))
            .filter(|c| c.level == level)
            .collect();
        if nodes.is_empty() {
            return 0.0;
        }
        let cap = nodes
            .iter()
            .map(|c| c.entries.len())
            .max()
            .unwrap_or(1)
            .max(1);
        let total: usize = nodes.iter().map(|c| c.entries.len()).sum();
        total as f64 / (cap * nodes.len()) as f64
    }
}

/// Check value convergence of every replicated node.
pub fn check_convergence(sim: &DbSim) -> Vec<TreeViolation> {
    let view = GlobalView::new(sim);
    let mut out = Vec::new();
    for (node, list) in &view.copies {
        if list.len() < 2 {
            continue;
        }
        let digests: BTreeSet<u64> = list.iter().map(|(_, c)| c.digest()).collect();
        if digests.len() > 1 {
            out.push(TreeViolation::Diverged {
                node: *node,
                digests: digests.into_iter().collect(),
            });
        }
    }
    out
}

/// Check that every key in `expected` is findable by root navigation.
pub fn check_keys(sim: &DbSim, expected: &BTreeSet<Key>) -> Vec<TreeViolation> {
    let view = GlobalView::new(sim);
    expected
        .iter()
        .filter(|&&k| view.find(k).is_none())
        .map(|&key| TreeViolation::KeyLost { key })
        .collect()
}

/// Check that no key in `deleted` is findable by root navigation: its
/// tombstone (or the absence left by a retired leaf) must shadow every
/// older value. The complement of [`check_keys`], and the check an unsafe
/// merge commit fails — dropping a leaf without re-verifying emptiness
/// discards tombstones, resurrecting the values they shadowed elsewhere.
pub fn check_deleted_keys(sim: &DbSim, deleted: &BTreeSet<Key>) -> Vec<TreeViolation> {
    let view = GlobalView::new(sim);
    deleted
        .iter()
        .filter(|&&k| view.find(k).is_some())
        .map(|&key| TreeViolation::DeletedKeyVisible { key })
        .collect()
}

/// Check the level-0 chain tiles `[0, +∞)`.
pub fn check_leaf_chain(sim: &DbSim) -> Vec<TreeViolation> {
    let view = GlobalView::new(sim);
    let mut leaves: Vec<&NodeCopy> = view
        .copies
        .values()
        .filter_map(|v| v.first().map(|(_, c)| *c))
        .filter(|c| c.is_leaf())
        .collect();
    leaves.sort_by_key(|c| c.range.low);
    let mut out = Vec::new();
    if leaves.is_empty() {
        out.push(TreeViolation::BrokenLeafChain {
            detail: "no leaves".into(),
        });
        return out;
    }
    if leaves[0].range.low != 0 {
        out.push(TreeViolation::BrokenLeafChain {
            detail: format!("chain starts at {}", leaves[0].range.low),
        });
    }
    for w in leaves.windows(2) {
        if w[0].range.high != Some(w[1].range.low) {
            out.push(TreeViolation::BrokenLeafChain {
                detail: format!(
                    "{:?} ends at {:?} but {:?} starts at {}",
                    w[0].id, w[0].range.high, w[1].id, w[1].range.low
                ),
            });
        }
        // The right link must point at the actual successor.
        match w[0].right {
            Some(link) if link.node == w[1].id => {}
            other => out.push(TreeViolation::BrokenLeafChain {
                detail: format!(
                    "{:?} right link {:?} != successor {:?}",
                    w[0].id,
                    other.map(|l| l.node),
                    w[1].id
                ),
            }),
        }
    }
    if leaves.last().expect("nonempty").range.high.is_some() {
        out.push(TreeViolation::BrokenLeafChain {
            detail: "chain does not end at +inf".into(),
        });
    }
    out
}

/// Check the dB-tree path-replication property (Fig 2): every processor that
/// owns a leaf holds a copy of each node on the root-to-leaf path.
pub fn check_path_property(sim: &DbSim) -> Vec<TreeViolation> {
    let view = GlobalView::new(sim);
    let mut out = Vec::new();
    for (pid, proc) in sim.procs() {
        for leaf in proc.store.iter().filter(|c| c.is_leaf()) {
            let Some(path) = view.path_to(leaf.range.low) else {
                continue;
            };
            for node in &path[..path.len().saturating_sub(1)] {
                if !proc.store.contains(*node) {
                    out.push(TreeViolation::PathPropertyBroken {
                        proc: pid,
                        leaf: leaf.id,
                        missing: *node,
                    });
                }
            }
        }
    }
    out
}

/// Check the one thing an advisory parent hint must get right: the parent
/// it names does not start right of the copy holding it. A live parent is
/// read for its real low key (which the hint must state truthfully); a
/// node stored nowhere is judged by the low key the hint carries.
pub fn check_parent_hints(sim: &DbSim) -> Vec<TreeViolation> {
    let view = GlobalView::new(sim);
    let mut out = Vec::new();
    for (node, list) in &view.copies {
        for &(proc, copy) in list {
            let Some(hint) = copy.parent else {
                continue;
            };
            let parent = hint.link.node;
            let low = view.authoritative(parent).map_or(hint.low, |p| p.range.low);
            if low != hint.low || low > copy.range.low {
                out.push(TreeViolation::ParentHintRightOfCopy {
                    proc,
                    node: *node,
                    parent,
                });
            }
        }
    }
    out
}

/// Check for dangling stashes at quiescence.
pub fn check_stashes(sim: &DbSim) -> Vec<TreeViolation> {
    let mut out = Vec::new();
    for (pid, proc) in sim.procs() {
        for (node, events) in &proc.stash_view() {
            out.push(TreeViolation::DanglingStash {
                proc: pid,
                node: *node,
                count: *events,
            });
        }
    }
    out
}

/// The dB-tree's class-level conflict relation, transcribing §4.1 onto the
/// update classes the protocols issue and onto what the sequence oracle
/// can observe (pairs that were **applied** at two copies):
///
/// * rule 2 — half-splits never commute with each other: the right-link
///   and range depend on application order, so `"split"` vs `"split"`
///   always conflicts. This is the claim that splits of one node are
///   serialized through its PC. The same holds for `"absorb"` (the merge
///   family's structural action) against itself and against `"split"`:
///   both rewrite the same right-link/bound state, so any structural pair
///   is ordered — which the absorb epoch enforces at every copy.
/// * rules 1, 3 & 4 — lazy writes (leaf writes, child insertions,
///   child-home updates, directory patches) commute with each other in any
///   form, and with a half-split *as applied pairs*: the non-commuting
///   insert/split case of §4.1 is an insert whose key the split moved
///   away, and the protocols never leave such a pair applied on both
///   copies — the late relay is discarded or re-routed ("rewriting
///   history"), which the coverage and value checks judge instead. A pair
///   applied under both orders was in range under both orders, and such
///   writes commute. An absorb against a leaf write commutes for the same
///   applied-pairs reason: a write applied on both sides of an absorb was
///   in range on both sides (the absorb only *widens* the range), and
///   entry-wise the absorb is itself a batch of LWW upserts.
/// * link-changes form the ordered class (checked by version monotonicity,
///   not pairwise), and join/unjoin are replication-set bookkeeping — both
///   commute with everything here.
pub fn db_class_conflicts(a: SeqAction, b: SeqAction) -> bool {
    let structural = |x: SeqAction| x.class == "split" || x.class == "absorb";
    structural(a) && structural(b)
}

/// Run the history sequence oracle (completeness, commuting-reorders-only
/// compatibility, orderedness — see [`history::oracle`]) over a finished
/// log, under the dB-tree conflict relation.
pub fn check_history_sequences(log: &HistoryLog) -> Vec<TreeViolation> {
    check_sequences(log, &db_class_conflicts)
        .into_iter()
        .map(|v| TreeViolation::History {
            detail: v.to_string(),
        })
        .collect()
}

/// Run every structural check plus the history log.
pub fn check_all(
    cluster: &mut crate::tree::DbCluster,
    expected_keys: &BTreeSet<Key>,
) -> Vec<TreeViolation> {
    cluster.record_final_digests();
    let mut out = Vec::new();
    out.extend(check_convergence(&cluster.sim));
    out.extend(check_keys(&cluster.sim, expected_keys));
    out.extend(check_leaf_chain(&cluster.sim));
    out.extend(check_parent_hints(&cluster.sim));
    out.extend(check_stashes(&cluster.sim));
    let log = cluster.log();
    let log = log.lock();
    let violations = log.check();
    out.extend(violations.into_iter().map(|v| TreeViolation::History {
        detail: v.to_string(),
    }));
    out.extend(check_history_sequences(&log));
    out
}

impl DbProc {
    /// (node → stashed event count), for the quiescence checker.
    pub fn stash_view(&self) -> BTreeMap<NodeId, usize> {
        self.stash_sizes()
    }
}

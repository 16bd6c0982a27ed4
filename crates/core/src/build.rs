//! Bulk construction of an initial dB-tree across a set of processors.
//!
//! The builder lays out a balanced B-link tree over the initial keys,
//! assigns leaves to processors by contiguous range partition (the locality
//! the dB-tree's replication policy exploits, Fig 2), computes copy sets per
//! the placement policy, and installs the copies directly into each
//! processor's store — no bootstrap messages are needed.

use std::sync::Arc;

use history::HistoryLog;
use parking_lot::Mutex;
use simnet::ProcId;

use crate::config::{Placement, TreeConfig};
use crate::node::NodeCopy;
use crate::proc::DbProc;
use crate::types::{ChildRef, Entry, Key, KeyRange, Link, NodeId, ParentHint};

/// What to build.
#[derive(Clone, Debug)]
pub struct BuildSpec {
    /// Initial keys (each preloaded with value = key).
    pub keys: Vec<Key>,
    /// Cluster size.
    pub n_procs: u32,
    /// Tree configuration.
    pub cfg: TreeConfig,
    /// Entries per initial node (defaults to ~⅔ of fanout when 0).
    pub fill: usize,
}

impl BuildSpec {
    /// A spec preloading `keys` onto `n_procs` processors.
    pub fn new(keys: Vec<Key>, n_procs: u32, cfg: TreeConfig) -> Self {
        BuildSpec {
            keys,
            n_procs,
            cfg,
            fill: 0,
        }
    }
}

struct ProtoNode {
    id: NodeId,
    level: u8,
    range: KeyRange,
    entries: Vec<(Key, Entry)>,
    copies: Vec<ProcId>,
    pc: ProcId,
}

/// Build the processors with the initial tree installed. Returns the procs
/// (index = ProcId) and the shared history log.
pub fn build_procs(spec: &BuildSpec) -> (Vec<DbProc>, Arc<Mutex<HistoryLog>>) {
    assert!(spec.n_procs > 0, "need at least one processor");
    let n = spec.n_procs;
    let log = Arc::new(Mutex::new(if spec.cfg.record_history {
        HistoryLog::new()
    } else {
        HistoryLog::disabled()
    }));
    let mut procs: Vec<DbProc> = (0..n)
        .map(|i| DbProc::new(ProcId(i), n, spec.cfg.clone(), Arc::clone(&log)))
        .collect();

    let fill = if spec.fill == 0 {
        (spec.cfg.fanout * 2 / 3).max(2)
    } else {
        spec.fill.min(spec.cfg.fanout).max(1)
    };

    let mut keys = spec.keys.clone();
    keys.sort_unstable();
    keys.dedup();

    // ---- leaves -----------------------------------------------------------
    let n_leaves = keys.len().div_ceil(fill).max(1);
    let mut levels: Vec<Vec<ProtoNode>> = Vec::new();
    let mut leaves: Vec<ProtoNode> = Vec::with_capacity(n_leaves);
    for i in 0..n_leaves {
        let chunk: Vec<Key> = keys.iter().copied().skip(i * fill).take(fill).collect();
        let low = if i == 0 {
            0
        } else {
            chunk.first().copied().unwrap_or(0)
        };
        // Leaf homes: contiguous partition of the leaf sequence.
        let home = ProcId(((i as u64 * n as u64) / n_leaves as u64) as u32);
        let id = procs[home.index()].store.mint_node_id(home);
        let copies = match spec.cfg.placement {
            Placement::PathReplication => vec![home],
            Placement::Uniform { copies } => (0..copies.min(n as usize) as u32)
                .map(|k| ProcId((home.0 + k) % n))
                .collect(),
        };
        leaves.push(ProtoNode {
            id,
            level: 0,
            range: KeyRange::new(low, None), // highs fixed below
            entries: chunk
                .into_iter()
                .map(|k| (k, Entry::Val { value: k, stamp: 0 }))
                .collect(),
            copies,
            pc: home,
        });
    }
    fix_highs(&mut leaves);
    levels.push(leaves);

    // ---- interior levels ---------------------------------------------------
    while levels.last().expect("at least leaves").len() > 1 {
        let children = levels.last().expect("nonempty");
        let n_parents = children.len().div_ceil(fill);
        let is_root_level = n_parents == 1;
        let mut parents = Vec::with_capacity(n_parents);
        for i in 0..n_parents {
            let group = &children[i * fill..((i + 1) * fill).min(children.len())];
            let level = group[0].level + 1;
            let low = group[0].range.low;
            let mut copies: Vec<ProcId> = match spec.cfg.placement {
                Placement::PathReplication => {
                    if is_root_level {
                        (0..n).map(ProcId).collect()
                    } else {
                        let mut set: Vec<ProcId> = Vec::new();
                        for child in group {
                            for &p in &child.copies {
                                if !set.contains(&p) {
                                    set.push(p);
                                }
                            }
                        }
                        set.sort_unstable();
                        set
                    }
                }
                Placement::Uniform { copies } => {
                    let home = group[0].pc;
                    (0..copies.min(n as usize) as u32)
                        .map(|k| ProcId((home.0 + k) % n))
                        .collect()
                }
            };
            if copies.is_empty() {
                copies.push(group[0].pc);
            }
            let pc = group[0].pc;
            let pc = if copies.contains(&pc) { pc } else { copies[0] };
            let id = procs[pc.index()].store.mint_node_id(pc);
            let entries: Vec<(Key, Entry)> = group
                .iter()
                .map(|c| {
                    (
                        c.range.low,
                        Entry::Child(ChildRef {
                            node: c.id,
                            home: c.pc,
                            version: 0,
                        }),
                    )
                })
                .collect();
            parents.push(ProtoNode {
                id,
                level,
                range: KeyRange::new(low, None),
                entries,
                copies,
                pc,
            });
        }
        fix_highs(&mut parents);
        levels.push(parents);
    }

    // ---- install -----------------------------------------------------------
    let root = {
        let top = &levels.last().expect("root level")[0];
        (top.id, top.level, top.pc)
    };
    {
        let mut log = log.lock();
        for level in &levels {
            for node in level {
                for &p in &node.copies {
                    log.copy_created(node.id.raw(), p.0, []);
                }
            }
        }
    }
    for (li, level) in levels.iter().enumerate() {
        for (i, node) in level.iter().enumerate() {
            let right = level.get(i + 1).map(|next| Link::new(next.id, next.pc));
            let parent = levels.get(li + 1).map(|parents| {
                let p = &parents[i / fill];
                ParentHint {
                    link: Link::new(p.id, p.pc),
                    low: p.range.low,
                    version: 0,
                }
            });
            let mut proto = NodeCopy::new(node.id, node.level, node.range, node.pc);
            proto.entries = node.entries.iter().cloned().collect();
            proto.right = right;
            proto.parent = parent;
            proto.copies = node.copies.clone();
            proto.join_versions = vec![0; node.copies.len()];
            for &p in &node.copies {
                procs[p.index()].store.install(proto.clone());
            }
        }
    }
    for p in &mut procs {
        p.store.set_root(root.0, root.1, root.2);
    }
    (procs, log)
}

/// Set each node's high bound to its successor's low (the last node keeps
/// an unbounded high).
fn fix_highs(nodes: &mut [ProtoNode]) {
    for i in 0..nodes.len() {
        let high = nodes.get(i + 1).map(|n| n.range.low);
        nodes[i].range = KeyRange::new(nodes[i].range.low, high);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;

    fn spec(nkeys: u64, n_procs: u32, cfg: TreeConfig) -> BuildSpec {
        BuildSpec::new((0..nkeys).map(|k| k * 10).collect(), n_procs, cfg)
    }

    #[test]
    fn builds_path_replicated_tree() {
        let (procs, _log) = build_procs(&spec(100, 4, TreeConfig::default()));
        assert_eq!(procs.len(), 4);
        // Every proc knows the root and stores a copy of it.
        let root = procs[0].store.root().expect("root set");
        for p in &procs {
            assert_eq!(p.store.root(), Some(root));
            assert!(p.store.contains(root), "root replicated everywhere");
        }
        // Leaves are single-copy: total leaf copies == number of leaves.
        let leaf_copies: usize = procs.iter().map(|p| p.store.leaf_count()).sum();
        let distinct: std::collections::HashSet<_> = procs
            .iter()
            .flat_map(|p| p.store.iter().filter(|c| c.is_leaf()).map(|c| c.id))
            .collect();
        assert_eq!(leaf_copies, distinct.len());
    }

    #[test]
    fn builds_uniform_copies() {
        let cfg = TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3);
        let (procs, _log) = build_procs(&spec(50, 5, cfg));
        // Every node (leaves included) has exactly 3 copies.
        let mut counts: std::collections::HashMap<NodeId, usize> = Default::default();
        for p in &procs {
            for c in p.store.iter() {
                *counts.entry(c.id).or_default() += 1;
            }
        }
        assert!(!counts.is_empty());
        assert!(counts.values().all(|&c| c == 3), "{counts:?}");
    }

    #[test]
    fn empty_tree_still_has_a_leaf_root() {
        let (procs, _log) = build_procs(&BuildSpec::new(vec![], 2, TreeConfig::default()));
        let root = procs[0].store.root().expect("root");
        let copy = procs
            .iter()
            .find_map(|p| p.store.get(root))
            .expect("root stored");
        assert!(copy.is_leaf());
        assert_eq!(copy.range, KeyRange::ALL);
    }

    #[test]
    fn ranges_tile_per_level() {
        let (procs, _log) = build_procs(&spec(200, 3, TreeConfig::default()));
        // Collect distinct nodes.
        let mut by_level: std::collections::BTreeMap<u8, Vec<(u64, Option<u64>)>> =
            Default::default();
        let mut seen = std::collections::HashSet::new();
        for p in &procs {
            for c in p.store.iter() {
                if seen.insert(c.id) {
                    by_level
                        .entry(c.level)
                        .or_default()
                        .push((c.range.low, c.range.high));
                }
            }
        }
        for (level, mut ranges) in by_level {
            ranges.sort_unstable();
            assert_eq!(ranges[0].0, 0, "level {level} starts at 0");
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, Some(w[1].0), "level {level} tiles");
            }
            assert_eq!(ranges.last().unwrap().1, None, "level {level} ends at inf");
        }
    }
}

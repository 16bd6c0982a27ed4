//! Structural validators.
//!
//! These encode the well-formedness invariants of each structure and are run
//! by tests (including the property-based ones) after every workload.

use std::collections::BTreeSet;

use crate::node::NodeRef;
use crate::{BLinkTree, Key};

/// Why a structure failed validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// Entries in a node are not strictly sorted.
    Unsorted(String),
    /// An entry's key is outside its node's range.
    OutOfRange(String),
    /// Sibling ranges do not abut / chain does not reach +∞.
    BrokenChain(String),
    /// An interior node routes incorrectly.
    BadRouter(String),
    /// Levels are inconsistent (e.g. child level != parent level - 1).
    BadLevel(String),
    /// Keys reachable via the leaf chain differ from keys reachable from the
    /// root.
    Unreachable(String),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Unsorted(s) => write!(f, "unsorted: {s}"),
            CheckError::OutOfRange(s) => write!(f, "out of range: {s}"),
            CheckError::BrokenChain(s) => write!(f, "broken sibling chain: {s}"),
            CheckError::BadRouter(s) => write!(f, "bad router: {s}"),
            CheckError::BadLevel(s) => write!(f, "bad level: {s}"),
            CheckError::Unreachable(s) => write!(f, "unreachable keys: {s}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Validate a [`BLinkTree`]:
/// strict sorting, range containment, per-level sibling chains that tile the
/// key space, correct child levels, and agreement between root-reachable and
/// chain-reachable leaf keys.
pub fn check_blink(tree: &BLinkTree) -> Result<(), CheckError> {
    // Per-node checks.
    for (r, node) in tree.nodes() {
        let mut prev: Option<Key> = None;
        for &(k, _) in &node.entries {
            if let Some(p) = prev {
                if k <= p {
                    return Err(CheckError::Unsorted(format!("node {r:?} keys {p} !< {k}")));
                }
            }
            prev = Some(k);
            if !node.range.contains(k) {
                return Err(CheckError::OutOfRange(format!(
                    "node {r:?} key {k} outside {:?}",
                    node.range
                )));
            }
        }
        if !node.is_leaf() {
            match node.entries.first() {
                Some(&(k, _)) if k == node.range.low => {}
                Some(&(k, _)) => {
                    return Err(CheckError::BadRouter(format!(
                        "node {r:?} first router {k} != low {}",
                        node.range.low
                    )))
                }
                None => {
                    return Err(CheckError::BadRouter(format!("empty interior node {r:?}")));
                }
            }
            // Child levels.
            for &(_, c) in &node.entries {
                let child = tree.node(NodeRef(c as u32));
                if child.level + 1 != node.level {
                    return Err(CheckError::BadLevel(format!(
                        "node {r:?} level {} has child level {}",
                        node.level, child.level
                    )));
                }
            }
        }
    }

    // Per-level chains: walk right links from each level's leftmost node.
    let root = tree.node(tree.root());
    let mut level_start = tree.root();
    for level in (0..=root.level).rev() {
        // Descend to leftmost node of `level`.
        let mut cur = level_start;
        while tree.node(cur).level > level {
            let n = tree.node(cur);
            let (_, c) = n
                .child_for(n.range.low)
                .ok_or_else(|| CheckError::BadRouter(format!("no low child in {cur:?}")))?;
            cur = NodeRef(c as u32);
        }
        level_start = cur;
        // Walk the chain.
        let mut prev_high = Some(tree.node(cur).range.low);
        let mut next = Some(cur);
        while let Some(r) = next {
            let n = tree.node(r);
            if n.level != level {
                return Err(CheckError::BadLevel(format!(
                    "chain at level {level} hit node {r:?} of level {}",
                    n.level
                )));
            }
            if Some(n.range.low) != prev_high {
                return Err(CheckError::BrokenChain(format!(
                    "level {level}: node {r:?} low {} != previous high {:?}",
                    n.range.low, prev_high
                )));
            }
            prev_high = n.range.high;
            next = n.right;
        }
        if prev_high.is_some() {
            return Err(CheckError::BrokenChain(format!(
                "level {level} chain ends at {prev_high:?}, not +inf"
            )));
        }
    }

    // Reachability: every key in the leaf chain must be findable from the
    // root by pure range-routing (a read-only version of `get`).
    let mut chain_keys: BTreeSet<Key> = BTreeSet::new();
    {
        let mut cur = tree.root();
        while !tree.node(cur).is_leaf() {
            let n = tree.node(cur);
            let (_, c) = n.child_for(n.range.low).unwrap();
            cur = NodeRef(c as u32);
        }
        let mut next = Some(cur);
        while let Some(r) = next {
            chain_keys.extend(tree.node(r).entries.iter().map(|e| e.0));
            next = tree.node(r).right;
        }
    }
    for &k in &chain_keys {
        let mut cur = tree.root();
        loop {
            let n = tree.node(cur);
            if n.range.is_right_of(k) {
                match n.right {
                    Some(r) => {
                        cur = r;
                        continue;
                    }
                    None => {
                        return Err(CheckError::Unreachable(format!(
                            "key {k} rightward of rightmost node"
                        )))
                    }
                }
            }
            if n.is_leaf() {
                if n.get(k).is_none() {
                    return Err(CheckError::Unreachable(format!(
                        "key {k} not in leaf {cur:?}"
                    )));
                }
                break;
            }
            let (_, c) = n
                .child_for(k)
                .ok_or_else(|| CheckError::BadRouter(format!("no route for {k} in {cur:?}")))?;
            cur = NodeRef(c as u32);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BLinkTree;

    #[test]
    fn empty_trees_are_valid() {
        check_blink(&BLinkTree::new(4)).unwrap();
    }

    #[test]
    fn populated_trees_are_valid() {
        let mut bl = BLinkTree::new(5);
        for k in 0..2000u64 {
            let key = (k * 2654435761) % 100_000;
            bl.insert(key, k);
        }
        check_blink(&bl).unwrap();
    }
}

//! The sequential B-link tree.

use crate::node::{Node, NodeRef, MIN_FANOUT};
use crate::{Key, KeyRange};

/// Counters describing the work a [`BLinkTree`] has done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Times an operation crossed a right link after misnavigating into a
    /// node whose range had shrunk (the Fig 1 recovery path).
    pub link_chases: u64,
    /// Half-splits performed.
    pub splits: u64,
    /// Root splits (tree height increases).
    pub root_splits: u64,
}

/// A sequential B-link tree (Lehman–Yao / Sagiv).
///
/// Inserts use the half-split discipline of Fig 1: the overflowing node is
/// split and linked to its new sibling first, and only then is the split
/// *completed* by inserting a router into the parent. Between the two steps
/// the tree is fully navigable through right links. This is the local
/// algorithm the dB-tree distributes.
pub struct BLinkTree {
    nodes: Vec<Node>,
    root: NodeRef,
    fanout: usize,
    len: u64,
    stats: TreeStats,
}

impl BLinkTree {
    /// An empty tree whose nodes hold at most `fanout` entries.
    ///
    /// # Panics
    /// If `fanout < MIN_FANOUT`.
    pub fn new(fanout: usize) -> Self {
        assert!(fanout >= MIN_FANOUT, "fanout must be at least {MIN_FANOUT}");
        BLinkTree {
            nodes: vec![Node::new(0, KeyRange::ALL)],
            root: NodeRef(0),
            fanout,
            len: 0,
            stats: TreeStats::default(),
        }
    }

    /// Number of live key/value pairs.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (leaf-only tree has height 1).
    pub fn height(&self) -> u8 {
        self.node(self.root).level + 1
    }

    /// Work counters.
    pub fn stats(&self) -> TreeStats {
        self.stats
    }

    /// The arena reference of the current root.
    pub fn root(&self) -> NodeRef {
        self.root
    }

    /// Borrow a node by reference.
    pub fn node(&self, r: NodeRef) -> &Node {
        &self.nodes[r.index()]
    }

    fn node_mut(&mut self, r: NodeRef) -> &mut Node {
        &mut self.nodes[r.index()]
    }

    fn alloc(&mut self, node: Node) -> NodeRef {
        let r = NodeRef(self.nodes.len() as u32);
        self.nodes.push(node);
        r
    }

    /// Look up `key`.
    pub fn get(&mut self, key: Key) -> Option<u64> {
        let mut cur = self.root;
        loop {
            let node = &self.nodes[cur.index()];
            if node.range.is_right_of(key) {
                self.stats.link_chases += 1;
                cur = node.right.expect("in-range key beyond a rightmost node");
                continue;
            }
            if node.is_leaf() {
                return node.get(key);
            }
            let (_, child) = node
                .child_for(key)
                .expect("interior node routes all in-range keys");
            cur = NodeRef(child as u32);
        }
    }

    /// Insert `key → value`; returns `true` if the key was new.
    pub fn insert(&mut self, key: Key, value: u64) -> bool {
        // Descend, recording the path for split completion.
        let mut path: Vec<NodeRef> = Vec::with_capacity(self.height() as usize);
        let mut cur = self.root;
        loop {
            let node = &self.nodes[cur.index()];
            if node.range.is_right_of(key) {
                self.stats.link_chases += 1;
                cur = node.right.expect("in-range key beyond a rightmost node");
                continue;
            }
            if node.is_leaf() {
                break;
            }
            path.push(cur);
            let (_, child) = node
                .child_for(key)
                .expect("interior node routes all in-range keys");
            cur = NodeRef(child as u32);
        }

        let is_new = self.node_mut(cur).upsert(key, value);
        if is_new {
            self.len += 1;
        }
        self.restructure(cur, path);
        is_new
    }

    /// Complete any overflows from `cur` upward (Fig 1 step two, applied
    /// recursively).
    fn restructure(&mut self, mut cur: NodeRef, mut path: Vec<NodeRef>) {
        while self.node(cur).len() > self.fanout {
            // Half-split `cur`.
            let sib = {
                let fanout_level;
                let (sep, sib_range, sib_entries, old_right) = {
                    let node = self.node_mut(cur);
                    fanout_level = node.level;
                    let (sep, sib_range, sib_entries) = node.half_split();
                    (sep, sib_range, sib_entries, node.right)
                };
                let mut sib_node = Node::new(fanout_level, sib_range);
                sib_node.entries = sib_entries;
                sib_node.right = old_right;
                let sib = self.alloc(sib_node);
                self.node_mut(cur).right = Some(sib);
                self.stats.splits += 1;
                (sep, sib)
            };
            let (sep, sib) = sib;

            // Complete the split at the parent.
            match path.pop() {
                Some(mut parent) => {
                    // The parent may itself have split since we descended:
                    // chase right links until `sep` is in range.
                    while self.node(parent).range.is_right_of(sep) {
                        self.stats.link_chases += 1;
                        parent = self
                            .node(parent)
                            .right
                            .expect("separator beyond rightmost parent");
                    }
                    self.node_mut(parent).upsert(sep, sib.0 as u64);
                    cur = parent;
                }
                None => {
                    // `cur` was the root: grow the tree.
                    let old_root = cur;
                    let level = self.node(old_root).level + 1;
                    let low = self.node(old_root).range.low;
                    let mut root = Node::new(level, KeyRange::new(low, None));
                    root.upsert(low, old_root.0 as u64);
                    root.upsert(sep, sib.0 as u64);
                    self.root = self.alloc(root);
                    self.stats.root_splits += 1;
                    return;
                }
            }
        }
    }

    /// Iterate `(key, value)` pairs in `[from, to)` in key order, walking the
    /// leaf chain through right links.
    pub fn range_scan(&self, from: Key, to: Option<Key>) -> Vec<(Key, u64)> {
        // Find the leaf containing `from` without mutating stats.
        let mut cur = self.root;
        loop {
            let node = self.node(cur);
            if node.range.is_right_of(from) {
                cur = node.right.expect("in-range key beyond a rightmost node");
                continue;
            }
            if node.is_leaf() {
                break;
            }
            let (_, child) = node
                .child_for(from)
                .expect("interior node routes all in-range keys");
            cur = NodeRef(child as u32);
        }
        let mut out = Vec::new();
        let mut next = Some(cur);
        while let Some(r) = next {
            let node = self.node(r);
            for &(k, v) in &node.entries {
                if k < from {
                    continue;
                }
                if let Some(t) = to {
                    if k >= t {
                        return out;
                    }
                }
                out.push((k, v));
            }
            next = node.right;
        }
        out
    }

    /// Visit every node (for validators and size accounting).
    pub fn nodes(&self) -> impl Iterator<Item = (NodeRef, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeRef(i as u32), n))
    }

    /// Maximum entries per node.
    pub fn fanout(&self) -> usize {
        self.fanout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_blink;

    #[test]
    fn insert_and_get_small() {
        let mut t = BLinkTree::new(4);
        assert!(t.insert(5, 50));
        assert!(t.insert(1, 10));
        assert!(!t.insert(5, 55), "overwrite");
        assert_eq!(t.get(5), Some(55));
        assert_eq!(t.get(1), Some(10));
        assert_eq!(t.get(2), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn grows_and_stays_valid() {
        let mut t = BLinkTree::new(4);
        for k in 0..1000u64 {
            t.insert(k * 7 % 1000, k);
        }
        check_blink(&t).expect("valid tree");
        assert!(t.height() > 2, "tree grew: height {}", t.height());
        for k in 0..1000u64 {
            assert!(t.get(k * 7 % 1000).is_some(), "key {k} present");
        }
    }

    #[test]
    fn descending_inserts() {
        let mut t = BLinkTree::new(8);
        for k in (0..500u64).rev() {
            t.insert(k, k);
        }
        check_blink(&t).expect("valid tree");
        assert_eq!(t.len(), 500);
        assert_eq!(t.get(0), Some(0));
        assert_eq!(t.get(499), Some(499));
    }

    #[test]
    fn range_scan_ordered() {
        let mut t = BLinkTree::new(4);
        for k in 0..200u64 {
            t.insert(k * 3, k);
        }
        let got = t.range_scan(30, Some(90));
        let keys: Vec<Key> = got.iter().map(|e| e.0).collect();
        let expect: Vec<Key> = (10..30).map(|k| k * 3).collect();
        assert_eq!(keys, expect);
        // Unbounded scan returns everything from `from` on.
        assert_eq!(t.range_scan(0, None).len(), 200);
    }

    #[test]
    fn splits_counted() {
        let mut t = BLinkTree::new(4);
        for k in 0..100u64 {
            t.insert(k, k);
        }
        let s = t.stats();
        assert!(s.splits >= 20, "many splits: {}", s.splits);
        assert!(s.root_splits >= 1);
    }

    #[test]
    fn leaf_chain_covers_key_space() {
        let mut t = BLinkTree::new(4);
        for k in 0..300u64 {
            t.insert(k, k);
        }
        // Walk the level-0 chain from the leftmost leaf.
        let mut cur = t.root();
        while !t.node(cur).is_leaf() {
            let (_, c) = t.node(cur).child_for(t.node(cur).range.low).unwrap();
            cur = NodeRef(c as u32);
        }
        let mut count = 0;
        let mut next = Some(cur);
        let mut prev_high: Option<Key> = Some(0);
        while let Some(r) = next {
            let n = t.node(r);
            assert_eq!(Some(n.range.low), prev_high, "ranges abut");
            prev_high = n.range.high;
            count += n.len();
            next = n.right;
        }
        assert_eq!(count, 300);
        assert_eq!(prev_high, None, "chain ends at +inf");
    }
}

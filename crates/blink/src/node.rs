//! B-link tree nodes.

use crate::{Key, KeyRange};

/// Smallest supported fanout. Below this, a split cannot leave both halves
/// non-empty with room to grow.
pub const MIN_FANOUT: usize = 4;

/// Index of a node in the tree's arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeRef(pub u32);

impl NodeRef {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// One B-link tree node.
///
/// Interior nodes store router entries `(sep, child)` where `sep` is the
/// lowest key of the child's subtree: the child for `key` is the entry with
/// the greatest `sep <= key`. Leaves store `(key, value)` pairs. Both kinds
/// carry the node's key range and right-sibling link (the B-link invariant:
/// everything that left this node through a split is reachable rightward).
#[derive(Clone, Debug)]
pub struct Node {
    /// Distance to the leaf level (leaves are level 0).
    pub level: u8,
    /// The key interval this node is responsible for.
    pub range: KeyRange,
    /// Sorted entries: router separators or leaf keys, with payloads.
    pub entries: Vec<(Key, u64)>,
    /// Right sibling at the same level, if any.
    pub right: Option<NodeRef>,
}

impl Node {
    /// A fresh empty node.
    pub fn new(level: u8, range: KeyRange) -> Self {
        Node {
            level,
            range,
            entries: Vec::new(),
            right: None,
        }
    }

    /// Is this a leaf?
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the node has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Binary-search position of `key`.
    #[inline]
    pub fn position(&self, key: Key) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// Leaf lookup: the value stored under `key`, if present.
    pub fn get(&self, key: Key) -> Option<u64> {
        debug_assert!(self.is_leaf());
        self.position(key).ok().map(|i| self.entries[i].1)
    }

    /// Insert or overwrite `(key, payload)`, keeping entries sorted.
    /// Returns `true` if the key was new.
    pub fn upsert(&mut self, key: Key, payload: u64) -> bool {
        match self.position(key) {
            Ok(i) => {
                self.entries[i].1 = payload;
                false
            }
            Err(i) => {
                self.entries.insert(i, (key, payload));
                true
            }
        }
    }

    /// Router lookup: the child responsible for `key`.
    ///
    /// `key` must be within `range` (callers handle right-link routing first).
    /// The first entry of an interior node always has `sep == range.low`, so
    /// a match always exists in a well-formed node.
    pub fn child_for(&self, key: Key) -> Option<(Key, u64)> {
        debug_assert!(!self.is_leaf());
        debug_assert!(self.range.contains(key));
        match self.position(key) {
            Ok(i) => Some(self.entries[i]),
            Err(0) => None, // malformed: no router at or below key
            Err(i) => Some(self.entries[i - 1]),
        }
    }

    /// Half-split: keep the low half here, return the new right sibling's
    /// `(range, entries)` and the separator key.
    ///
    /// This is step one of Fig 1: the caller links the sibling into the node
    /// list and later completes the split at the parent.
    pub fn half_split(&mut self) -> (Key, KeyRange, Vec<(Key, u64)>) {
        debug_assert!(self.len() >= 2, "cannot split a node with < 2 entries");
        let mid = self.len() / 2;
        let sep = self.entries[mid].0;
        let sib_entries = self.entries.split_off(mid);
        let (low_range, high_range) = self.range.split_at(sep);
        self.range = low_range;
        (sep, high_range, sib_entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_with(keys: &[Key]) -> Node {
        let mut n = Node::new(0, KeyRange::ALL);
        for &k in keys {
            n.upsert(k, k * 10);
        }
        n
    }

    #[test]
    fn upsert_sorted_and_overwrite() {
        let mut n = leaf_with(&[5, 1, 3]);
        assert_eq!(n.entries.iter().map(|e| e.0).collect::<Vec<_>>(), [1, 3, 5]);
        assert!(!n.upsert(3, 99), "overwrite is not new");
        assert_eq!(n.get(3), Some(99));
        assert_eq!(n.get(4), None);
    }

    #[test]
    fn child_routing() {
        let mut n = Node::new(1, KeyRange::new(0, Some(100)));
        n.upsert(0, 100); // child A covers [0,10)
        n.upsert(10, 200); // child B covers [10,50)
        n.upsert(50, 300); // child C covers [50,100)
        assert_eq!(n.child_for(0), Some((0, 100)));
        assert_eq!(n.child_for(9), Some((0, 100)));
        assert_eq!(n.child_for(10), Some((10, 200)));
        assert_eq!(n.child_for(99), Some((50, 300)));
    }

    #[test]
    fn half_split_partitions() {
        let mut n = leaf_with(&[1, 2, 3, 4, 5, 6]);
        let (sep, sib_range, sib_entries) = n.half_split();
        assert_eq!(sep, 4);
        assert_eq!(n.entries.iter().map(|e| e.0).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(
            sib_entries.iter().map(|e| e.0).collect::<Vec<_>>(),
            [4, 5, 6]
        );
        assert_eq!(n.range, KeyRange::new(0, Some(4)));
        assert_eq!(sib_range, KeyRange::new(4, None));
    }
}

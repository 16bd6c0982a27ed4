//! A node's entries: a sorted array of `(Key, Entry)` held inside the copy.
//!
//! Every node the repo runs holds at most `fanout + 1` entries (fanout 4, 6
//! or 8) plus the odd tombstone, so the ordered map a [`NodeCopy`] needs is a
//! few hundred contiguous bytes, not a tree: a visit that has found the copy
//! has found its entries, with no further pointer to chase. Up to
//! [`INLINE`] entries live in the value itself; past that the same sorted
//! slice lives in one heap `Vec` (wide test fanouts, tombstone pile-ups on a
//! non-PC copy) and comes back inline when a split or merge shrinks it.
//!
//! The API is the slice of the `BTreeMap` API the node manager used, with
//! the same signatures; `crates/core/tests/entries_model.rs` checks it
//! against the map. Identity is the content (`Hash` goes through
//! [`Entries::as_slice`]), never the representation.
//!
//! [`NodeCopy`]: crate::NodeCopy

use std::fmt;
use std::ops::{Bound, RangeBounds};

use crate::types::{Entry, Key};

/// Entries held inline. 10 covers every fanout the repo runs (an overfull
/// fanout-8 node holds 9) with a slot to spare.
const INLINE: usize = 10;

type Slot = (Key, Entry);

/// Filler for the unused tail of the inline array; never observable.
const VACANT: Slot = (0, Entry::Tomb { stamp: 0 });

/// Sorted `(Key, Entry)` pairs with unique keys. `Inline` exactly when the
/// length is at most [`INLINE`]. The large variant is the point: it is the
/// storage, not a payload to box.
#[derive(Clone)]
#[allow(clippy::large_enum_variant)]
enum Repr {
    Inline { len: u8, slots: [Slot; INLINE] },
    Spilled(Vec<Slot>),
}

/// The ordered map of one node copy (see the module docs).
#[derive(Clone)]
pub struct Entries(Repr);

impl Default for Entries {
    fn default() -> Self {
        Self::new()
    }
}

impl Entries {
    /// No entries.
    pub const fn new() -> Self {
        Entries(Repr::Inline {
            len: 0,
            slots: [VACANT; INLINE],
        })
    }

    /// The entries in key order — what a snapshot copies onto the wire.
    #[inline]
    pub fn as_slice(&self) -> &[(Key, Entry)] {
        match &self.0 {
            Repr::Inline { len, slots } => &slots[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [Slot] {
        match &mut self.0 {
            Repr::Inline { len, slots } => &mut slots[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    fn from_sorted(sorted: &[Slot]) -> Self {
        if sorted.len() <= INLINE {
            let mut slots = [VACANT; INLINE];
            slots[..sorted.len()].copy_from_slice(sorted);
            Entries(Repr::Inline {
                len: sorted.len() as u8,
                slots,
            })
        } else {
            Entries(Repr::Spilled(sorted.to_vec()))
        }
    }

    /// Keep the first `len` entries, moving back inline when they fit.
    fn truncate(&mut self, len: usize) {
        match &mut self.0 {
            Repr::Inline { len: l, .. } => *l = len as u8,
            Repr::Spilled(v) if len <= INLINE => *self = Self::from_sorted(&v[..len]),
            Repr::Spilled(v) => v.truncate(len),
        }
    }

    /// How many leading entries have a key that satisfies `below`, which
    /// must hold for a prefix of the sorted keys (`slice::partition_point`).
    /// An inline array is counted through instead of bisected: the loads do
    /// not depend on one another, so the cache lines the slots span are
    /// fetched side by side rather than one probe after the other.
    #[inline]
    fn partition(&self, below: impl Fn(Key) -> bool) -> usize {
        match &self.0 {
            Repr::Inline { len, slots } => {
                slots[..*len as usize].iter().filter(|s| below(s.0)).count()
            }
            Repr::Spilled(v) => v.partition_point(|s| below(s.0)),
        }
    }

    /// Index of `key`, or where it would be inserted.
    #[inline]
    fn position(&self, key: Key) -> Result<usize, usize> {
        let at = self.partition(|k| k < key);
        match self.as_slice().get(at) {
            Some(s) if s.0 == key => Ok(at),
            _ => Err(at),
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Spilled(v) => v.len(),
        }
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry at `key`.
    #[inline]
    pub fn get(&self, key: &Key) -> Option<&Entry> {
        let i = self.position(*key).ok()?;
        Some(&self.as_slice()[i].1)
    }

    /// The entry at `key`, mutably.
    pub fn get_mut(&mut self, key: &Key) -> Option<&mut Entry> {
        let i = self.position(*key).ok()?;
        Some(&mut self.as_mut_slice()[i].1)
    }

    /// Set `key`'s entry, returning the one it replaces.
    pub fn insert(&mut self, key: Key, entry: Entry) -> Option<Entry> {
        let at = match self.position(key) {
            Ok(i) => return Some(std::mem::replace(&mut self.as_mut_slice()[i].1, entry)),
            Err(at) => at,
        };
        match &mut self.0 {
            Repr::Inline { len, slots } if (*len as usize) < INLINE => {
                let n = *len as usize;
                slots.copy_within(at..n, at + 1);
                slots[at] = (key, entry);
                *len += 1;
            }
            Repr::Inline { slots, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE);
                v.extend_from_slice(&slots[..at]);
                v.push((key, entry));
                v.extend_from_slice(&slots[at..]);
                self.0 = Repr::Spilled(v);
            }
            Repr::Spilled(v) => v.insert(at, (key, entry)),
        }
        None
    }

    /// Entries whose keys fall in `range`, in key order (reversible).
    /// Inverted bounds panic, as the map's did.
    pub fn range(&self, range: impl RangeBounds<Key>) -> Iter<'_> {
        let start = match range.start_bound() {
            Bound::Included(&k) => self.partition(|e| e < k),
            Bound::Excluded(&k) => self.partition(|e| e <= k),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&k) => self.partition(|e| e <= k),
            Bound::Excluded(&k) => self.partition(|e| e < k),
            Bound::Unbounded => self.len(),
        };
        Iter(self.as_slice()[start..end].iter())
    }

    /// Move every entry with a key `>= key` into a new `Entries`.
    pub fn split_off(&mut self, key: &Key) -> Entries {
        let at = self.partition(|k| k < *key);
        let tail = Self::from_sorted(&self.as_slice()[at..]);
        self.truncate(at);
        tail
    }

    /// Keep only the entries `keep` approves.
    pub fn retain(&mut self, mut keep: impl FnMut(&Key, &mut Entry) -> bool) {
        let s = self.as_mut_slice();
        let mut kept = 0;
        for i in 0..s.len() {
            let (k, mut e) = s[i];
            if keep(&k, &mut e) {
                s[kept] = (k, e);
                kept += 1;
            }
        }
        self.truncate(kept);
    }

    /// All entries in key order.
    #[inline]
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.as_slice().iter())
    }

    /// The keys, ascending.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &Key> + ExactSizeIterator {
        self.as_slice().iter().map(|s| &s.0)
    }

    /// The entries, in key order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &Entry> + ExactSizeIterator {
        self.as_slice().iter().map(|s| &s.1)
    }
}

impl std::hash::Hash for Entries {
    /// By content: inline and spilled representations of the same entries
    /// hash alike, which is what makes a copy's state fingerprint
    /// ([`NodeCopy::fingerprint_into`](crate::NodeCopy::fingerprint_into))
    /// independent of how the copy got there.
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self.as_slice().hash(h);
    }
}

impl fmt::Debug for Entries {
    /// `{k: v, …}`, as a map renders.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Borrowing iterator over [`Entries`], yielding what the map's did.
#[derive(Clone)]
pub struct Iter<'a>(std::slice::Iter<'a, Slot>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a Key, &'a Entry);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|s| (&s.0, &s.1))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for Iter<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Self::Item> {
        self.0.next_back().map(|s| (&s.0, &s.1))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Entries {
    type Item = (&'a Key, &'a Entry);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl IntoIterator for Entries {
    type Item = (Key, Entry);
    type IntoIter = std::vec::IntoIter<(Key, Entry)>;

    /// By value, in key order. Nothing on a hot path consumes a node's
    /// entries, so the inline case simply goes through a `Vec`.
    fn into_iter(self) -> Self::IntoIter {
        match self.0 {
            Repr::Inline { len, slots } => slots[..len as usize].to_vec(),
            Repr::Spilled(v) => v,
        }
        .into_iter()
    }
}

impl FromIterator<(Key, Entry)> for Entries {
    /// Any order; of two entries with one key the later wins, as in the
    /// map's `from_iter`. Ascending input (a snapshot) appends.
    fn from_iter<I: IntoIterator<Item = (Key, Entry)>>(iter: I) -> Self {
        let mut out = Entries::new();
        for (key, entry) in iter {
            out.insert(key, entry);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(v: u64) -> Entry {
        Entry::Val { value: v, stamp: v }
    }

    #[test]
    fn spills_past_the_inline_capacity_and_comes_back() {
        let mut e = Entries::new();
        for k in (0..INLINE as u64 + 3).rev() {
            assert_eq!(e.insert(k, val(k)), None);
            let inline = matches!(e.0, Repr::Inline { .. });
            assert_eq!(inline, e.len() <= INLINE, "at {} entries", e.len());
        }
        assert!(e.keys().copied().eq(0..INLINE as u64 + 3));
        let tail = e.split_off(&4);
        assert!(matches!(e.0, Repr::Inline { len: 4, .. }));
        assert!(matches!(tail.0, Repr::Inline { len: 9, .. }));
        assert_eq!(tail.get(&4), Some(&val(4)));
    }
}

//! Per-processor node storage.
//!
//! The store is the node manager's hottest data structure: every descent hop
//! does one `get` by [`NodeId`], and every leaf write does a `get_mut`. It
//! is laid out as a slab arena — copies live in slots with a free list, and
//! a hashed side index maps `NodeId -> slot`. Compared to a plain
//! `HashMap<NodeId, NodeCopy>` this keeps the (large) `NodeCopy` values in
//! stable, reusable storage and makes iteration allocation-free and
//! **deterministic** (slot order is a pure function of the install/remove
//! history, never of hash seeds or capacity).
//!
//! A copy carries its entries and up to four members inline
//! ([`crate::Entries`], [`crate::Members`]), so it is 624 bytes (the size
//! `node.rs` pins) and a slot must never move: the slab is a list of
//! fixed-size pages ([`PAGE`] slots each), and growing it allocates one
//! more page instead of re-copying every resident node into a doubled
//! `Vec`. One lookup is one FxHash probe, one load of the page pointer and
//! the copy itself — the entries a visit goes on to read lie in the same
//! slot, not behind another pointer.
//!
//! Forwarding addresses are rare and small, so they live in a compact
//! sorted vector probed by binary search rather than a second hash table.
//!
//! Each slot also has a *staleness stamp* — the tick at which its copy last
//! applied a relayed update — in a dense array beside the slab, so the
//! `store.staleness_max` gauge scans 8 bytes per slot instead of striding
//! the copies. It is observability bookkeeping, not node state: it stays
//! out of the fingerprint and the snapshot, is cleared when a copy is
//! installed or removed, and so leaves with its copy.

use simnet::{FxHashMap, ProcId};

use crate::node::NodeCopy;
use crate::types::{Key, NodeId};

/// A forwarding address left behind by a migration (§4.2). Not required for
/// correctness — misnavigation recovery handles missing nodes — so entries
/// may be garbage-collected at any time.
#[derive(Clone, Copy, Debug)]
pub struct ForwardAddr {
    /// Where the node went.
    pub to: ProcId,
    /// The node's version after the move.
    pub version: u64,
    /// Tick at which the address was created (for TTL GC).
    pub created_at: u64,
}

/// A slot's stamp while its copy has applied no relay since it arrived.
const UNSTAMPED: u64 = u64::MAX;

/// Slots per slab page (≈ 22 KB of copies): small enough that a sparse
/// processor wastes little, large enough that pages are rarely allocated.
const PAGE: usize = 32;

/// The node manager's local store: every copy this processor maintains, its
/// current root pointer, and (optionally) forwarding addresses.
#[derive(Debug, Default)]
pub struct NodeStore {
    /// Slab of node copies: slot `s` is `pages[s / PAGE][s % PAGE]`. `None`
    /// slots below `n_slots` are free and listed in `free`.
    pages: Vec<Box<[Option<NodeCopy>; PAGE]>>,
    /// Slots handed out so far, live and free.
    n_slots: u32,
    /// Free slot indices, reused LIFO.
    free: Vec<u32>,
    /// Staleness stamp of each slot, [`UNSTAMPED`] when free or not yet
    /// reached by a relay.
    stamps: Vec<u64>,
    /// `NodeId -> slot` index. Lookup-only: iteration always goes through
    /// the slab in slot order, never through this map.
    index: FxHashMap<NodeId, u32>,
    /// Forwarding addresses, sorted by node id (binary-searched).
    forwards: Vec<(NodeId, ForwardAddr)>,
    root: Option<NodeId>,
    root_home: Option<ProcId>,
    root_level: u8,
    next_node_counter: u64,
}

impl NodeStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mint a fresh node id for this processor.
    pub fn mint_node_id(&mut self, me: ProcId) -> NodeId {
        let id = NodeId::mint(me, self.next_node_counter);
        self.next_node_counter += 1;
        id
    }

    #[inline]
    fn slot(&self, slot: u32) -> &Option<NodeCopy> {
        &self.pages[slot as usize / PAGE][slot as usize % PAGE]
    }

    #[inline]
    fn slot_mut(&mut self, slot: u32) -> &mut Option<NodeCopy> {
        &mut self.pages[slot as usize / PAGE][slot as usize % PAGE]
    }

    /// Install (or replace) a copy.
    pub fn install(&mut self, copy: NodeCopy) {
        self.drop_forward(copy.id);
        let slot = match self.index.get(&copy.id) {
            Some(&slot) => slot,
            None => {
                let slot = match self.free.pop() {
                    Some(s) => s,
                    None => {
                        if self.n_slots as usize == self.pages.len() * PAGE {
                            // Built in place on the heap: collecting writes
                            // 32 `None` tags, where `Box::new([None; PAGE])`
                            // copied 22 KB of empty slots into the page.
                            let page: Box<[_]> = (0..PAGE).map(|_| None).collect();
                            self.pages.push(page.try_into().expect("PAGE slots"));
                        }
                        self.n_slots += 1;
                        self.stamps.push(UNSTAMPED);
                        self.n_slots - 1
                    }
                };
                debug_assert!(self.slot(slot).is_none());
                self.index.insert(copy.id, slot);
                slot
            }
        };
        *self.slot_mut(slot) = Some(copy);
        self.stamps[slot as usize] = UNSTAMPED;
    }

    /// Remove a copy, returning it.
    pub fn remove(&mut self, id: NodeId) -> Option<NodeCopy> {
        let slot = self.index.remove(&id)?;
        let copy = self.slot_mut(slot).take();
        debug_assert!(copy.is_some(), "index pointed at an empty slot");
        self.stamps[slot as usize] = UNSTAMPED;
        self.free.push(slot);
        copy
    }

    /// Borrow a copy.
    #[inline]
    pub fn get(&self, id: NodeId) -> Option<&NodeCopy> {
        let &slot = self.index.get(&id)?;
        self.slot(slot).as_ref()
    }

    /// Mutably borrow a copy.
    #[inline]
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut NodeCopy> {
        let &slot = self.index.get(&id)?;
        self.slot_mut(slot).as_mut()
    }

    /// Mutably borrow a copy a relay is about to reach, with its staleness
    /// stamp: write the tick into it if the relay applies.
    #[inline]
    pub(crate) fn get_mut_stamp(&mut self, id: NodeId) -> Option<(&mut NodeCopy, &mut u64)> {
        let slot = *self.index.get(&id)? as usize;
        let copy = self.pages[slot / PAGE][slot % PAGE].as_mut()?;
        Some((copy, &mut self.stamps[slot]))
    }

    /// Tick at which the resident copy of `id` last applied a relayed
    /// update (`None` if absent or not reached by a relay since it arrived).
    pub fn relayed_at(&self, id: NodeId) -> Option<u64> {
        let &slot = self.index.get(&id)?;
        Some(self.stamps[slot as usize]).filter(|&t| t != UNSTAMPED)
    }

    /// The oldest staleness stamp among resident copies — the
    /// `store.staleness_max` gauge's one scan, over the dense stamp array.
    pub fn oldest_relayed_at(&self) -> Option<u64> {
        let oldest = self.stamps.iter().copied().min()?;
        (oldest != UNSTAMPED).then_some(oldest)
    }

    /// Does the store hold a copy of `id`?
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.index.contains_key(&id)
    }

    /// All local copies, in slot order — a deterministic order that depends
    /// only on the sequence of installs and removes, never on hashing.
    pub fn iter(&self) -> impl Iterator<Item = &NodeCopy> {
        self.pages.iter().flat_map(|p| p.iter()).flatten()
    }

    /// Number of local copies.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Slots in the slab, live *and* free — the arena's high-water mark.
    /// When churn reuses freed slots this stays near the live-set peak
    /// instead of growing with cumulative installs.
    pub fn slot_capacity(&self) -> usize {
        self.n_slots as usize
    }

    /// True when no copies are stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Local leaf count (load metric for data balancing).
    pub fn leaf_count(&self) -> usize {
        self.iter().filter(|c| c.is_leaf()).count()
    }

    /// Record the root.
    pub fn set_root(&mut self, root: NodeId, level: u8, home: ProcId) {
        if level >= self.root_level || self.root.is_none() {
            self.root = Some(root);
            self.root_level = level;
            self.root_home = Some(home);
        }
    }

    /// The current root, if known.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// A processor guaranteed to hold the root.
    pub fn root_home(&self) -> Option<ProcId> {
        self.root_home
    }

    /// Leave a forwarding address for a departed node.
    pub fn set_forward(&mut self, id: NodeId, addr: ForwardAddr) {
        match self.forwards.binary_search_by_key(&id, |(n, _)| *n) {
            Ok(i) => self.forwards[i].1 = addr,
            Err(i) => self.forwards.insert(i, (id, addr)),
        }
    }

    /// Look up a forwarding address.
    pub fn forward_for(&self, id: NodeId) -> Option<ForwardAddr> {
        self.forwards
            .binary_search_by_key(&id, |(n, _)| *n)
            .ok()
            .map(|i| self.forwards[i].1)
    }

    fn drop_forward(&mut self, id: NodeId) {
        if let Ok(i) = self.forwards.binary_search_by_key(&id, |(n, _)| *n) {
            self.forwards.remove(i);
        }
    }

    /// Drop forwarding addresses older than `ttl` at time `now`. Returns the
    /// number collected.
    pub fn gc_forwards(&mut self, now: u64, ttl: u64) -> usize {
        let before = self.forwards.len();
        self.forwards
            .retain(|(_, f)| now.saturating_sub(f.created_at) < ttl);
        before - self.forwards.len()
    }

    /// Number of live forwarding addresses.
    pub fn forward_count(&self) -> usize {
        self.forwards.len()
    }

    /// Hash the store's protocol-visible state into `h`. Copies are hashed
    /// sorted by node id, so the fingerprint depends only on *what* is
    /// stored, never on the slab's install/remove history (slot order).
    /// Forwarding addresses are hashed without their `created_at` GC
    /// timestamps — two schedules that left the same address at different
    /// virtual times route identically from here on.
    pub fn fingerprint_into(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        let mut copies: Vec<&NodeCopy> = self.iter().collect();
        copies.sort_unstable_by_key(|c| c.id);
        copies.len().hash(h);
        for c in copies {
            c.fingerprint_into(h);
        }
        self.forwards.len().hash(h);
        for (id, f) in &self.forwards {
            (id.raw(), f.to.0, f.version).hash(h);
        }
        self.root.map(NodeId::raw).hash(h);
        self.root_home.map(|p| p.0).hash(h);
        self.root_level.hash(h);
        self.next_node_counter.hash(h);
    }

    /// Misnavigation recovery (§4.2 "missing node"): the best local node to
    /// restart an action for `key` from — the *lowest-level* local copy
    /// whose range contains the key (closest to the destination), falling
    /// back to the highest-level copy present, then `None` if the store is
    /// empty.
    pub fn closest_for(&self, key: Key) -> Option<NodeId> {
        self.iter()
            .filter(|c| c.range().contains(key))
            .min_by_key(|c| (c.level, c.id))
            .map(|c| c.id)
            .or_else(|| self.iter().max_by_key(|c| (c.level, c.id)).map(|c| c.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::KeyRange;

    fn copy(id: u64, level: u8, low: u64, high: Option<u64>) -> NodeCopy {
        NodeCopy::new(NodeId(id), level, KeyRange::new(low, high), ProcId(0))
    }

    #[test]
    fn install_get_remove() {
        let mut s = NodeStore::new();
        s.install(copy(1, 0, 0, None));
        assert!(s.contains(NodeId(1)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.leaf_count(), 1);
        assert!(s.remove(NodeId(1)).is_some());
        assert!(s.is_empty());
    }

    #[test]
    fn root_tracking_prefers_higher_levels() {
        let mut s = NodeStore::new();
        s.set_root(NodeId(1), 1, ProcId(0));
        s.set_root(NodeId(2), 0, ProcId(1)); // stale lower root ignored
        assert_eq!(s.root(), Some(NodeId(1)));
        s.set_root(NodeId(3), 2, ProcId(2));
        assert_eq!(s.root(), Some(NodeId(3)));
        assert_eq!(s.root_home(), Some(ProcId(2)));
    }

    #[test]
    fn closest_prefers_lowest_covering_level() {
        let mut s = NodeStore::new();
        s.install(copy(1, 2, 0, None)); // root-ish
        s.install(copy(2, 1, 0, Some(100)));
        s.install(copy(3, 0, 0, Some(10)));
        assert_eq!(s.closest_for(5), Some(NodeId(3)));
        assert_eq!(s.closest_for(50), Some(NodeId(2)));
        assert_eq!(s.closest_for(500), Some(NodeId(1)));
    }

    #[test]
    fn closest_falls_back_to_highest_level() {
        let mut s = NodeStore::new();
        s.install(copy(3, 0, 0, Some(10)));
        // Key not covered by any copy: fall back to the highest level.
        assert_eq!(s.closest_for(50), Some(NodeId(3)));
        assert_eq!(NodeStore::new().closest_for(5), None);
    }

    #[test]
    fn forwarding_gc() {
        let mut s = NodeStore::new();
        s.set_forward(
            NodeId(1),
            ForwardAddr {
                to: ProcId(2),
                version: 1,
                created_at: 100,
            },
        );
        assert!(s.forward_for(NodeId(1)).is_some());
        assert_eq!(s.gc_forwards(150, 100), 0);
        assert_eq!(s.gc_forwards(300, 100), 1);
        assert!(s.forward_for(NodeId(1)).is_none());
    }

    #[test]
    fn install_clears_forward() {
        let mut s = NodeStore::new();
        s.set_forward(
            NodeId(1),
            ForwardAddr {
                to: ProcId(2),
                version: 1,
                created_at: 0,
            },
        );
        s.install(copy(1, 0, 0, None));
        assert!(s.forward_for(NodeId(1)).is_none(), "node came back");
    }

    #[test]
    fn minted_ids_unique() {
        let mut s = NodeStore::new();
        let a = s.mint_node_id(ProcId(3));
        let b = s.mint_node_id(ProcId(3));
        assert_ne!(a, b);
        assert_eq!(a.minted_by(), ProcId(3));
    }

    proptest::proptest! {
        /// The gauge's one scan of the dense stamp array reads what a scan
        /// of every resident copy's own stamp would (the layout before the
        /// array): over random installs, relay applies, removes and
        /// migrations (the copy leaves, then comes back off the wire), the
        /// array's minimum is the minimum over resident copies, and each
        /// copy's stamp is its own.
        #[test]
        fn stamp_array_min_is_the_full_store_scan(
            ops in proptest::collection::vec((0u8..4, 0u64..12, 0u64..1_000), 0..200),
        ) {
            let mut s = NodeStore::new();
            let mut stamp_of: std::collections::BTreeMap<u64, Option<u64>> = Default::default();
            for (op, id, tick) in ops {
                let node = NodeId(id);
                match op {
                    0 => {
                        s.install(copy(id, 0, 0, None));
                        stamp_of.insert(id, None);
                    }
                    1 => {
                        if let Some((_, stamp)) = s.get_mut_stamp(node) {
                            *stamp = tick;
                            stamp_of.insert(id, Some(tick));
                        }
                    }
                    2 => {
                        s.remove(node);
                        stamp_of.remove(&id);
                    }
                    _ => {
                        if let Some(gone) = s.remove(node) {
                            s.install(gone.snapshot().into_copy());
                            stamp_of.insert(id, None);
                        }
                    }
                }
                let scan = stamp_of.values().flatten().min().copied();
                proptest::prop_assert_eq!(s.oldest_relayed_at(), scan);
                for (&id, &at) in &stamp_of {
                    proptest::prop_assert_eq!(s.relayed_at(NodeId(id)), at);
                }
            }
        }
    }

    #[test]
    fn iteration_is_slot_ordered_and_reuses_slots() {
        // Satellite invariant: `iter()` order is a pure function of the
        // install/remove history — pinned here so a refactor that silently
        // reintroduces hash-ordered iteration fails loudly.
        let mut s = NodeStore::new();
        for id in [7u64, 3, 9, 1] {
            s.install(copy(id, 0, 0, None));
        }
        let order = |s: &NodeStore| s.iter().map(|c| c.id.0).collect::<Vec<_>>();
        assert_eq!(order(&s), vec![7, 3, 9, 1], "insertion order, not id order");

        // Removing frees the slot; the next install reuses it in place.
        s.remove(NodeId(3));
        assert_eq!(order(&s), vec![7, 9, 1]);
        s.install(copy(42, 0, 0, None));
        assert_eq!(order(&s), vec![7, 42, 9, 1], "slot 1 reused by 42");

        // Replacing an existing id keeps its slot.
        s.install(copy(9, 1, 0, Some(5)));
        assert_eq!(order(&s), vec![7, 42, 9, 1]);
        assert_eq!(s.get(NodeId(9)).unwrap().level, 1);

        // Stable across repeated iteration.
        assert_eq!(order(&s), order(&s));
    }
}

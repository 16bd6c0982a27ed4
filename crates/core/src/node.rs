//! A replicated node copy and its local (atomic) mutations.

use history::fnv1a;
use simnet::ProcId;

use crate::entries::Entries;
use crate::msg::{AbsorbInfo, Msg, SplitInfo};
use crate::types::{ChildRef, Entry, Key, KeyRange, Link, NodeId, ParentHint};

/// State of an executing split AAS on this copy (§4.1.1).
#[derive(Clone, Debug, Default)]
pub struct AasState {
    /// PC only: acknowledgements still outstanding.
    pub acks_pending: usize,
    /// Initial insert actions blocked by the AAS, with the tick they were
    /// blocked at; replayed at `split_end`.
    pub blocked: Vec<(u64, Msg)>,
}

/// State of an available-copies lock on this copy.
#[derive(Clone, Debug, Default)]
pub struct LockState {
    /// Actions (searches *and* updates) queued while locked, with the tick
    /// they were queued at.
    pub queued: Vec<(u64, Msg)>,
}

/// Total order over entries for the anti-entropy merge: last-writer-wins on
/// the stamp for leaf entries (matching [`NodeCopy::upsert`], whose stamps
/// are globally unique), child version for routing entries, with the payload
/// as a tie-break so the maximum is well-defined on *any* pair — that
/// totality is what makes [`NodeCopy::merge_from`] order-independent.
fn entry_rank(e: &Entry) -> (u64, u8, u64, u64) {
    match e {
        Entry::Val { value, stamp } => (*stamp, 1, *value, 0),
        Entry::Tomb { stamp } => (*stamp, 3, 0, 0),
        Entry::Child(c) => (c.version, 2, c.node.raw(), c.home.0 as u64),
    }
}

/// Total order over optional links for the merge (`None` sorts lowest).
fn link_rank(l: Option<Link>) -> (u8, u64, u64) {
    match l {
        None => (0, 0, 0),
        Some(l) => (1, l.node.raw(), l.home.0 as u64),
    }
}

/// One physical copy of a logical node.
#[derive(Clone, Debug)]
pub struct NodeCopy {
    /// The logical node this copy replicates.
    pub id: NodeId,
    /// Distance to leaves (leaf = 0).
    pub level: u8,
    /// The node's key range.
    pub range: KeyRange,
    /// §4.2/§4.3 version number (incremented by migrations, joins, unjoins).
    pub version: u64,
    /// Sorted entries, held inline (see [`Entries`]).
    pub entries: Entries,
    /// Right sibling.
    pub right: Option<Link>,
    /// Advisory parent hint: a join register ([`ParentHint::join_into`] is
    /// its only writer) that descents repair as they pass. May be stale —
    /// never right of this copy, so out-of-range routing recovers.
    pub parent: Option<ParentHint>,
    /// The node's primary copy.
    pub pc: ProcId,
    /// Known replication membership (includes self and the PC).
    pub copies: Vec<ProcId>,
    /// Per-member join version (§4.3): `join_versions[i]` is the node
    /// version at which `copies[i]` joined (0 = founding member).
    pub join_versions: Vec<u64>,
    /// Version at which the right link last changed (ordered-action state).
    pub right_link_version: u64,
    /// Absorb epoch: how many retired right neighbours this node has
    /// absorbed (merge-at-empty). Bumped exactly once per absorb at every
    /// copy, in the same per-copy order, which is what lets
    /// [`NodeCopy::merge_from`] order the right link/bound history even
    /// though absorbs *widen* the bound splits narrow.
    pub absorb_count: u64,
    /// Active split AAS, if any (§4.1.1).
    pub aas: Option<AasState>,
    /// A split became necessary while another was in flight.
    pub split_pending: bool,
    /// Available-copies lock, if held.
    pub lock: Option<LockState>,
    /// Tick at which this resident copy last applied a relayed update — the
    /// staleness stamp behind the `store.staleness_max` gauge. Observability
    /// bookkeeping, not protocol state: it stays out of [`NodeCopy::digest`],
    /// [`NodeCopy::fingerprint_into`], [`NodeCopy::merge_from`] and
    /// [`NodeCopy::snapshot`], so a copy that arrives on the wire starts
    /// unstamped and the stamp leaves with the copy.
    pub relayed_at: Option<u64>,
}

impl NodeCopy {
    /// A fresh copy.
    pub fn new(id: NodeId, level: u8, range: KeyRange, pc: ProcId) -> Self {
        NodeCopy {
            id,
            level,
            range,
            version: 0,
            entries: Entries::new(),
            right: None,
            parent: None,
            pc,
            copies: vec![pc],
            join_versions: vec![0],
            right_link_version: 0,
            absorb_count: 0,
            aas: None,
            split_pending: false,
            lock: None,
            relayed_at: None,
        }
    }

    /// This copy as a parent hint for a child it holds an edge to: its node
    /// at its primary copy, where it starts, and the version it knows.
    pub fn as_parent_hint(&self) -> ParentHint {
        ParentHint {
            link: Link::new(self.id, self.pc),
            low: self.range.low,
            version: self.version,
        }
    }

    /// The hinted parent as a routable link.
    pub fn parent_link(&self) -> Option<Link> {
        self.parent.map(|hint| hint.link)
    }

    /// Is this copy a leaf?
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Replication peers other than `me`.
    pub fn peers(&self, me: ProcId) -> impl Iterator<Item = ProcId> + '_ {
        self.copies.iter().copied().filter(move |&p| p != me)
    }

    /// §4.3: members that joined strictly after `version`.
    pub fn members_joined_after(&self, version: u64) -> impl Iterator<Item = ProcId> + '_ {
        self.copies
            .iter()
            .zip(self.join_versions.iter())
            .filter(move |&(_, &jv)| jv > version)
            .map(|(&p, _)| p)
    }

    /// Register a member joining at `version`.
    pub fn add_member(&mut self, member: ProcId, version: u64) {
        if !self.copies.contains(&member) {
            self.copies.push(member);
            self.join_versions.push(version);
        }
    }

    /// Remove a member.
    pub fn remove_member(&mut self, member: ProcId) {
        if let Some(i) = self.copies.iter().position(|&p| p == member) {
            self.copies.remove(i);
            self.join_versions.remove(i);
        }
    }

    /// The child responsible for `key` (interior nodes; `key` in range).
    /// Retired children leave tombstones in interior nodes, so the floor
    /// scan walks back to the nearest *live* child entry (which then covers
    /// the retired child's range, having absorbed it).
    pub fn child_for(&self, key: Key) -> Option<ChildRef> {
        debug_assert!(!self.is_leaf());
        self.entries
            .range(..=key)
            .rev()
            .find_map(|(_, e)| e.child())
    }

    /// Does the copy need to split? Tombstones don't count: they route
    /// nothing and hold no payload, so splitting around them would recreate
    /// the very nodes merge-at-empty reclaims (an absorber inherits the
    /// retired leaf's tombstones and would immediately re-split).
    pub fn overfull(&self, fanout: usize) -> bool {
        self.entries
            .values()
            .filter(|e| !matches!(e, Entry::Tomb { .. }))
            .count()
            > fanout
    }

    /// Perform the local half of a half-split: keep `[low, sep)`, return the
    /// sibling's range and entries. `right`/`version` bookkeeping is the
    /// caller's (protocol-specific).
    pub fn half_split(&mut self) -> (Key, KeyRange, Entries) {
        debug_assert!(self.entries.len() >= 2);
        // Leaves may split at any key; an interior separator must be a
        // *live* child key (a tombstoned edge cannot route the sibling's
        // low end).
        let sep = if self.is_leaf() {
            *self
                .entries
                .keys()
                .nth(self.entries.len() / 2)
                .expect("mid key exists")
        } else {
            let live: Vec<Key> = self
                .entries
                .iter()
                .filter(|(_, e)| e.child().is_some())
                .map(|(k, _)| *k)
                .collect();
            debug_assert!(live.len() >= 2, "interior split needs two live children");
            live[live.len() / 2]
        };
        let sib_entries = self.entries.split_off(&sep);
        let (low, high) = self.range.split_at(sep);
        self.range = low;
        (sep, high, sib_entries)
    }

    /// Apply a relayed/synchronous split at a non-PC copy: shrink the range,
    /// set the right link, discard out-of-range entries. Returns the number
    /// of entries discarded.
    pub fn apply_split(&mut self, info: &SplitInfo) -> usize {
        // Splits from one PC arrive in order (one FIFO channel), but a
        // state merge ([`NodeCopy::merge_from`], crash catch-up) may have
        // narrowed the range *before* an in-flight split is finally
        // delivered. The split is then old news the merged snapshot
        // already carried — re-applying it would widen the range back.
        if !self.range.contains(info.sep) {
            debug_assert!(info.sep >= self.range.low, "split below the range");
            return 0;
        }
        self.range = KeyRange::new(self.range.low, Some(info.sep));
        self.right = Some(Link::new(info.sib, info.sib_home));
        self.right_link_version = self.right_link_version.max(info.sib_version);
        let discarded = self.entries.split_off(&info.sep);
        discarded.len()
    }

    /// Insert or merge an entry. Returns the previous entry.
    ///
    /// Every same-key conflict resolves in the single total order the
    /// anti-entropy merge uses ([`entry_rank`]): stamped leaf entries
    /// (values and tombstones) by last-writer-wins on the globally unique
    /// stamp — a stale write is history-"rewritten" before the newer one,
    /// a no-op on the value — and child entries by version. Stamps dwarf
    /// child versions, so a stamped tombstone *retires* a child edge for
    /// good: a later re-split at the same separator cannot resurrect the
    /// edge, and navigation reaches the reborn sibling through the left
    /// child's right link instead. Using one order for initial actions,
    /// relays, and state merges is what keeps copies convergent whatever
    /// order updates arrive in.
    pub fn upsert(&mut self, key: Key, entry: Entry) -> Option<Entry> {
        debug_assert!(self.range.contains(key), "upsert out of range");
        match self.entries.get(&key) {
            Some(old) => {
                let prev = Some(*old);
                if entry_rank(&entry) > entry_rank(old) {
                    self.entries.insert(key, entry);
                }
                prev
            }
            None => self.entries.insert(key, entry),
        }
    }

    /// Apply an absorb (the reverse of [`NodeCopy::apply_split`]): extend
    /// the range and right link over a retired right neighbour's, and take
    /// over its residual tombstones. Entries join in the LWW order, so a
    /// racing re-insert that already landed here is not clobbered by an
    /// older tombstone riding the absorb.
    pub fn apply_absorb(&mut self, info: &AbsorbInfo, count: u64) {
        debug_assert_eq!(
            self.range.high,
            Some(info.low),
            "absorb extends the adjacent range"
        );
        debug_assert_eq!(count, self.absorb_count + 1, "absorbs apply in order");
        self.range = KeyRange::new(self.range.low, info.high);
        self.right = info.right;
        self.right_link_version = self.right_link_version.max(info.right_link_version);
        self.absorb_count = count;
        for (k, e) in &info.entries {
            match self.entries.get(k) {
                Some(mine) if entry_rank(mine) >= entry_rank(e) => {}
                _ => {
                    self.entries.insert(*k, *e);
                }
            }
        }
    }

    /// A leaf's live (non-tombstone) value for `key`.
    pub fn get_value(&self, key: Key) -> Option<crate::types::Value> {
        self.entries.get(&key).and_then(Entry::value)
    }

    /// The copy's value digest: level, range, entry keys+payloads, and the
    /// right-link target. Copies of a node are *compatible* when these agree
    /// at the end of the computation.
    pub fn digest(&self) -> u64 {
        let mut words: Vec<u64> = Vec::with_capacity(4 + self.entries.len() * 3);
        words.push(self.level as u64);
        words.push(self.range.low);
        words.push(self.range.high.map_or(u64::MAX, |h| h ^ 0x5555));
        words.push(self.right.map_or(0, |l| l.node.raw()));
        if self.absorb_count > 0 {
            // Copies must agree on the absorb epoch too; the word is
            // omitted at zero so merge-free digests are unchanged.
            words.push(self.absorb_count ^ 0xaaaa);
        }
        for (k, e) in &self.entries {
            words.push(*k);
            words.extend(e.digest_words());
        }
        fnv1a(words)
    }

    /// Hash the copy's full protocol-visible state into `h` — the model
    /// checker's per-node state fingerprint. Unlike [`NodeCopy::digest`]
    /// (the end-of-run *value* digest), this covers every field that can
    /// influence future behavior: links and their change versions,
    /// membership, split/lock progress, and in-flight blocked messages.
    /// The wall-clock ticks stored alongside blocked/queued messages are
    /// deliberately excluded — two schedules that park the same messages at
    /// different virtual times behave identically from here on, and the
    /// fingerprint must collide for them. Membership is hashed sorted so
    /// the arrival order of joins does not leak in.
    pub fn fingerprint_into(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        (self.id, self.level, self.range, self.version).hash(h);
        self.entries.hash(h);
        self.right.hash(h);
        self.parent.hash(h);
        self.pc.hash(h);
        let mut members: Vec<(ProcId, u64)> = self
            .copies
            .iter()
            .copied()
            .zip(self.join_versions.iter().copied())
            .collect();
        members.sort_unstable();
        members.hash(h);
        self.right_link_version.hash(h);
        self.absorb_count.hash(h);
        self.split_pending.hash(h);
        // Parked messages without the ticks they were parked at.
        fn msgs(held: &[(u64, Msg)]) -> Vec<&Msg> {
            held.iter().map(|(_tick, m)| m).collect()
        }
        let aas = self.aas.as_ref();
        aas.map(|a| (a.acks_pending, msgs(&a.blocked))).hash(h);
        self.lock.as_ref().map(|l| msgs(&l.queued)).hash(h);
    }

    /// State-based anti-entropy (crash catch-up): merge another copy's
    /// snapshot into this one. The merge is a join-semilattice on copy
    /// state — commutative, associative, and idempotent — so pushes and
    /// pulls may arrive in any order, any number of times, interleaved
    /// with ordinary relays, and every copy still converges:
    ///
    /// * **range** — the intersection. Splits only ever shrink a range,
    ///   and entries outside the merged range were carried away by the
    ///   split that shrank it, exactly as in [`NodeCopy::apply_split`].
    /// * **entries** — per-key maximum in the same last-writer-wins order
    ///   [`NodeCopy::upsert`] applies to relays (child entries compare by
    ///   version, with a total tie-break so merge order never matters).
    /// * **version** — maximum.
    /// * **membership** — union, keeping the greater join version per
    ///   member. A departed member resurfacing is harmless: it discards
    ///   relays addressed to it (§4.3).
    /// * **right link and upper bound** — from the copy in the higher
    ///   *absorb epoch*, falling back to the *narrower bound* within an
    ///   epoch: splits shrink the high bound and absorbs widen it, each
    ///   installing the matching right link in the same atomic action, and
    ///   each absorb bumps `absorb_count` exactly once at every copy. So
    ///   `(absorb_count, narrower bound)` totally orders the link/bound
    ///   history even though the bound alone moves both ways. (The node's
    ///   §4.3 `version` cannot order it: splits deliberately leave the
    ///   version alone, and a stale wide copy pulled during crash catch-up
    ///   must not undo a split.) Ties fall back to the per-link version,
    ///   which migrations bump.
    /// * **the PC** — by the node version (tie-broken by processor).
    /// * **parent hint** — the register's own join
    ///   ([`ParentHint::join_into`]).
    ///
    /// Returns `true` if anything observable changed.
    pub fn merge_from(&mut self, other: &NodeSnapshot) -> bool {
        debug_assert_eq!(self.id, other.id);
        debug_assert_eq!(self.level, other.level);
        let mut changed = false;

        // Right link and bound first, while both sides are still visible:
        // the total order is (absorb epoch, narrower bound, link version,
        // link), and the winning copy's (bound, link, version, epoch)
        // tuple is taken wholesale so repeated merges in any grouping land
        // on the same maximum.
        let right_key = |count: u64, high: Option<Key>, v: u64, l: Option<Link>| {
            (
                count,
                u128::MAX - high.map_or(u128::MAX, |h| h as u128),
                v,
                link_rank(l),
            )
        };
        let merged_high = if right_key(
            other.absorb_count,
            other.range.high,
            other.right_link_version,
            other.right,
        ) > right_key(
            self.absorb_count,
            self.range.high,
            self.right_link_version,
            self.right,
        ) {
            if self.right != other.right {
                self.right = other.right;
                changed = true;
            }
            self.right_link_version = other.right_link_version;
            if self.absorb_count != other.absorb_count {
                self.absorb_count = other.absorb_count;
                changed = true;
            }
            other.range.high
        } else {
            self.range.high
        };

        // Range: low never moves (max is a formality); the high bound is
        // the right-link winner's — within an epoch that is the meet
        // (narrower of the two), across epochs the higher epoch's.
        let merged_range = KeyRange::new(self.range.low.max(other.range.low), merged_high);
        if merged_range != self.range {
            self.range = merged_range;
            changed = true;
        }
        let before = self.entries.len();
        self.entries.retain(|k, _| merged_range.contains(*k));
        changed |= self.entries.len() != before;

        // Entries: per-key join in the total LWW order.
        for (k, e) in &other.entries {
            if !merged_range.contains(*k) {
                continue;
            }
            match self.entries.get(k) {
                Some(mine) if entry_rank(mine) >= entry_rank(e) => {}
                _ => {
                    self.entries.insert(*k, *e);
                    changed = true;
                }
            }
        }

        if let Some(hint) = other.parent {
            changed |= hint.join_into(&mut self.parent);
        }
        let my_v = self.version;
        if (other.version, other.pc.0) > (my_v, self.pc.0) && self.pc != other.pc {
            self.pc = other.pc;
            changed = true;
        }
        if other.version > self.version {
            self.version = other.version;
            changed = true;
        }

        // Membership: union, greater join version per member.
        for (&m, &jv) in other.copies.iter().zip(other.join_versions.iter()) {
            match self.copies.iter().position(|&p| p == m) {
                Some(i) => {
                    if jv > self.join_versions[i] {
                        self.join_versions[i] = jv;
                        changed = true;
                    }
                }
                None => {
                    self.copies.push(m);
                    self.join_versions.push(jv);
                    changed = true;
                }
            }
        }
        changed
    }

    /// Package the copy for the wire.
    pub fn snapshot(&self) -> NodeSnapshot {
        NodeSnapshot {
            id: self.id,
            level: self.level,
            range: self.range,
            version: self.version,
            entries: self.entries.as_slice().to_vec(),
            right: self.right,
            parent: self.parent,
            pc: self.pc,
            copies: self.copies.clone(),
            join_versions: self.join_versions.clone(),
            right_link_version: self.right_link_version,
            absorb_count: self.absorb_count,
        }
    }
}

/// Wire representation of a full node copy (sibling creation, join grants,
/// migrations, bootstrap).
#[derive(Clone, Hash)]
pub struct NodeSnapshot {
    /// Node id.
    pub id: NodeId,
    /// Level.
    pub level: u8,
    /// Range.
    pub range: KeyRange,
    /// Version.
    pub version: u64,
    /// Entries.
    pub entries: Vec<(Key, Entry)>,
    /// Right link.
    pub right: Option<Link>,
    /// Parent hint.
    pub parent: Option<ParentHint>,
    /// Primary copy.
    pub pc: ProcId,
    /// Membership.
    pub copies: Vec<ProcId>,
    /// Join versions aligned with `copies`.
    pub join_versions: Vec<u64>,
    /// Version at which the right link last changed (splits, migrations).
    pub right_link_version: u64,
    /// Absorb epoch (see [`NodeCopy::absorb_count`]).
    pub absorb_count: u64,
}

impl std::fmt::Debug for NodeSnapshot {
    /// Like the derived output, but the absorb epoch appears only once the
    /// node has actually absorbed — merge-free runs keep the byte-identical
    /// trace details they always had (the digest makes the same choice).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("NodeSnapshot");
        d.field("id", &self.id)
            .field("level", &self.level)
            .field("range", &self.range)
            .field("version", &self.version)
            .field("entries", &self.entries)
            .field("right", &self.right)
            .field("parent", &self.parent)
            .field("pc", &self.pc)
            .field("copies", &self.copies)
            .field("join_versions", &self.join_versions)
            .field("right_link_version", &self.right_link_version);
        if self.absorb_count > 0 {
            d.field("absorb_count", &self.absorb_count);
        }
        d.finish()
    }
}

impl NodeSnapshot {
    /// Reconstitute a [`NodeCopy`].
    pub fn into_copy(self) -> NodeCopy {
        NodeCopy {
            id: self.id,
            level: self.level,
            range: self.range,
            version: self.version,
            entries: self.entries.into_iter().collect(),
            right: self.right,
            parent: self.parent,
            pc: self.pc,
            copies: self.copies,
            join_versions: self.join_versions,
            right_link_version: self.right_link_version,
            absorb_count: self.absorb_count,
            aas: None,
            split_pending: false,
            lock: None,
            relayed_at: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(pc: u32) -> NodeCopy {
        NodeCopy::new(NodeId(1), 0, KeyRange::ALL, ProcId(pc))
    }

    fn val(v: u64, stamp: u64) -> Entry {
        Entry::Val { value: v, stamp }
    }

    /// The two values the hot path moves and visits, pinned so that the next
    /// field added to either is a decision somebody made: a [`NodeCopy`] is
    /// one slab slot (its entries inline — 11 cache lines, and the slot's
    /// `Option` must stay free), a [`Msg`] is copied once per in-process
    /// step and once per send. (Field *order* is left to the compiler: a
    /// `repr(C)` hot-fields-first order was tried and measured nothing once
    /// the entries were searched by counting — CHANGES, PR 17.) And the frame
    /// a `Msg` travels in is exactly as large with the session's piggybacked
    /// ack as it was without: the ack shares a word with `retx`, so the
    /// pass-through path of a clean run moves the same bytes.
    #[test]
    fn hot_path_layouts_stay_within_their_budgets() {
        use std::mem::size_of;
        assert!(size_of::<NodeCopy>() <= 656, "{}", size_of::<NodeCopy>());
        assert_eq!(size_of::<Option<NodeCopy>>(), size_of::<NodeCopy>());
        assert!(size_of::<Msg>() <= 104, "{}", size_of::<Msg>());
        let frame = size_of::<simnet::SessionMsg<Msg>>();
        assert_eq!(frame, size_of::<Msg>() + 16);
    }

    #[test]
    fn half_split_moves_upper_half() {
        let mut c = leaf(0);
        for k in [1u64, 3, 5, 7, 9, 11] {
            c.upsert(k, val(k, k));
        }
        let (sep, range, sib) = c.half_split();
        assert_eq!(sep, 7);
        assert_eq!(c.entries.len(), 3);
        assert_eq!(sib.len(), 3);
        assert_eq!(c.range, KeyRange::new(0, Some(7)));
        assert_eq!(range, KeyRange::new(7, None));
    }

    #[test]
    fn apply_split_discards_moved_entries() {
        let mut c = leaf(0);
        for k in [1u64, 5, 9] {
            c.upsert(k, val(k, k));
        }
        let n = c.apply_split(&SplitInfo {
            sep: 6,
            sib: NodeId(2),
            sib_home: ProcId(1),
            sib_version: 1,
        });
        assert_eq!(n, 1);
        assert_eq!(c.entries.len(), 2);
        assert_eq!(c.right.unwrap().node, NodeId(2));
        assert_eq!(c.range.high, Some(6));
    }

    #[test]
    fn digests_converge_regardless_of_order() {
        let mut a = leaf(0);
        let mut b = leaf(1);
        a.upsert(1, val(10, 1));
        a.upsert(2, val(20, 2));
        b.upsert(2, val(20, 2));
        b.upsert(1, val(10, 1));
        assert_eq!(a.digest(), b.digest());
        b.upsert(3, val(30, 3));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn membership_tracking() {
        let mut c = leaf(0);
        c.add_member(ProcId(1), 3);
        c.add_member(ProcId(2), 5);
        c.add_member(ProcId(1), 9); // duplicate ignored
        assert_eq!(c.copies.len(), 3);
        let late: Vec<ProcId> = c.members_joined_after(3).collect();
        assert_eq!(late, vec![ProcId(2)]);
        c.remove_member(ProcId(1));
        assert_eq!(c.copies, vec![ProcId(0), ProcId(2)]);
        assert_eq!(c.join_versions, vec![0, 5]);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut c = leaf(0);
        c.upsert(4, val(40, 4));
        c.right = Some(Link::new(NodeId(9), ProcId(2)));
        let c2 = c.snapshot().into_copy();
        assert_eq!(c.digest(), c2.digest());
        assert_eq!(c2.right, c.right);
        assert_eq!(c2.pc, ProcId(0));
    }

    #[test]
    fn lww_merge_keeps_highest_stamp_either_order() {
        let mut a = leaf(0);
        let mut b = leaf(1);
        let w1 = val(100, 5);
        let w2 = val(200, 9);
        a.upsert(1, w1);
        a.upsert(1, w2);
        b.upsert(1, w2);
        b.upsert(1, w1); // stale write arrives late: ignored
        assert_eq!(a.get_value(1), Some(200));
        assert_eq!(b.get_value(1), Some(200));
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn tombstone_shadows_and_can_be_overwritten() {
        let mut c = leaf(0);
        c.upsert(1, val(100, 1));
        c.upsert(1, Entry::Tomb { stamp: 2 });
        assert_eq!(c.get_value(1), None, "deleted");
        c.upsert(1, val(300, 3));
        assert_eq!(c.get_value(1), Some(300), "re-inserted");
        // A stale delete does not resurrect.
        c.upsert(1, Entry::Tomb { stamp: 2 });
        assert_eq!(c.get_value(1), Some(300));
    }

    #[test]
    fn merge_catches_up_a_stale_copy() {
        let mut a = leaf(0);
        let mut b = leaf(0);
        for k in [1u64, 2, 3] {
            a.upsert(k, val(k * 10, k));
        }
        b.upsert(1, val(10, 1)); // b missed stamps 2 and 3
        assert!(b.merge_from(&a.snapshot()));
        assert_eq!(a.digest(), b.digest());
        // Merging again changes nothing (idempotent).
        assert!(!b.merge_from(&a.snapshot()));
    }

    #[test]
    fn merge_is_symmetric_in_value() {
        let mut a = leaf(0);
        let mut b = leaf(0);
        a.upsert(1, val(10, 7));
        a.upsert(2, Entry::Tomb { stamp: 4 });
        b.upsert(1, val(99, 3)); // older write loses
        b.upsert(5, val(50, 9));
        let (sa, sb) = (a.snapshot(), b.snapshot());
        a.merge_from(&sb);
        b.merge_from(&sa);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.get_value(1), Some(10));
        assert_eq!(a.get_value(5), Some(50));
    }

    #[test]
    fn merge_narrows_to_the_split_range() {
        // `a` saw a split (range shrank, right link set, version bumped);
        // `b` is a pre-split straggler with entries the split moved away.
        let mut a = leaf(0);
        a.version = 3;
        a.range = KeyRange::new(0, Some(10));
        a.right = Some(Link::new(NodeId(2), ProcId(1)));
        a.upsert(1, val(10, 1));
        let mut b = leaf(0);
        b.upsert(1, val(10, 1));
        b.upsert(15, val(150, 2)); // split away; carried by the sibling
        assert!(b.merge_from(&a.snapshot()));
        assert_eq!(b.range.high, Some(10));
        assert_eq!(b.entries.len(), 1, "out-of-range entry dropped");
        assert_eq!(b.right.unwrap().node, NodeId(2), "newer copy's link wins");
        assert_eq!(b.version, 3);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn merge_unions_membership_with_greater_join_version() {
        let mut a = leaf(0);
        a.add_member(ProcId(1), 2);
        let mut b = leaf(0);
        b.add_member(ProcId(2), 5);
        b.merge_from(&a.snapshot());
        assert_eq!(b.copies, vec![ProcId(0), ProcId(2), ProcId(1)]);
        assert_eq!(b.join_versions, vec![0, 5, 2]);
    }

    #[test]
    fn child_routing_uses_floor_entry() {
        let mut c = NodeCopy::new(NodeId(1), 1, KeyRange::ALL, ProcId(0));
        let cr = |n: u64| {
            Entry::Child(ChildRef {
                node: NodeId(n),
                home: ProcId(0),
                version: 0,
            })
        };
        c.upsert(0, cr(10));
        c.upsert(100, cr(11));
        assert_eq!(c.child_for(50).unwrap().node, NodeId(10));
        assert_eq!(c.child_for(100).unwrap().node, NodeId(11));
        assert_eq!(c.child_for(u64::MAX).unwrap().node, NodeId(11));
    }
}

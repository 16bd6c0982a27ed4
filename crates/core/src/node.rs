//! A replicated node copy and its local (atomic) mutations.
//!
//! A copy is its *replicated* state — a [`NodeSnapshot`], what travels on
//! the wire — plus local progress (split AAS, lock, staleness stamp). The
//! replicated state is five join registers, each with private fields and a
//! `join(&mut self, &Self) -> bool` that reports whether it changed:
//! [`Edge`], [`Entries`], the parent hint ([`ParentHint::join_into`]),
//! [`Primary`] and [`Members`]. Every relayed action joins a delta into one
//! of them, and [`NodeSnapshot::merge_from`] is their five joins.

use std::cmp::Reverse;
use std::hash::{Hash, Hasher};

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

/// The right edge of a node: its absorb epoch, exclusive high bound, right
/// link and the version at which the link last changed. A register ordered
/// lexicographically by (absorb epoch, *narrower* bound, link version,
/// link) and taken wholesale. Splits narrow the bound and absorbs widen it,
/// each installing the matching link in the same atomic action, and each
/// absorb bumps the epoch exactly once at every copy: so the order is total
/// over the link/bound history even though the bound alone moves both ways.
/// (The node's [`Primary`] version cannot order it: splits leave it alone.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    absorbs: u64,
    high: Option<Key>,
    link_version: u64,
    right: Option<Link>,
}

impl Edge {
    /// An edge after `absorbs` absorbs, bounded by `high`, linked to `right`
    /// as of `link_version`.
    pub fn new(absorbs: u64, high: Option<Key>, link_version: u64, right: Option<Link>) -> Self {
        Edge {
            absorbs,
            high,
            link_version,
            right,
        }
    }

    /// How many retired right neighbours the node has absorbed.
    pub fn absorbs(&self) -> u64 {
        self.absorbs
    }

    /// The exclusive upper bound of the node's range.
    pub fn high(&self) -> Option<Key> {
        self.high
    }

    /// The version at which the right link last changed (splits,
    /// migrations).
    pub fn link_version(&self) -> u64 {
        self.link_version
    }

    /// The right sibling.
    pub fn right(&self) -> Option<Link> {
        self.right
    }

    fn rank(&self) -> impl Ord {
        let narrow = Reverse(self.high.map_or(u128::MAX, u128::from));
        let link = self.right.map(|l| (l.node, l.home));
        (self.absorbs, narrow, self.link_version, link)
    }

    /// The register's join. Returns `true` when `self` changed.
    pub fn join(&mut self, other: &Edge) -> bool {
        let wins = other.rank() > self.rank();
        if wins {
            *self = *other;
        }
        wins
    }
}

/// The node's §4.2/§4.3 version and its primary copy as of that version: a
/// register ordered by `(version, pc)`. Versions are minted at the PC
/// (joins, unjoins) or by a migration, which also moves the PC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Primary {
    version: u64,
    pc: ProcId,
}

impl Primary {
    /// Version `version`, primary copy at `pc`.
    pub fn new(version: u64, pc: ProcId) -> Self {
        Primary { version, pc }
    }

    /// The node version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The node's primary copy.
    pub fn pc(&self) -> ProcId {
        self.pc
    }

    /// The register's join. Returns `true` when `self` changed.
    pub fn join(&mut self, other: &Primary) -> bool {
        let wins = (other.version, other.pc) > (self.version, self.pc);
        if wins {
            *self = *other;
        }
        wins
    }

    /// Join a relayed version: at least `version`, the primary unchanged.
    pub fn raise(&mut self, version: u64) -> bool {
        self.join(&Primary { version, ..*self })
    }

    /// The PC mints the next version (a join or an unjoin) and returns it.
    pub fn mint(&mut self) -> u64 {
        self.version += 1;
        self.version
    }
}

/// Members a copy holds without a heap allocation: §4.1's three copies
/// and a fourth joining. A path-replicated node's longer list spills.
const INLINE_MEMBERS: usize = 4;

/// Known replication membership (self and the PC included), each member
/// with the node version at which it joined (§4.3; 0 = founding member).
/// Insertion-ordered — peers are sent to in this order — and joined by
/// union, keeping the greater join version per member. A departed member
/// resurfacing is harmless: it discards relays addressed to it (§4.3).
///
/// Held as two index-aligned lists (`procs`, `joined`), inline up to four
/// members and in two `Vec`s past that; a removal that shrinks a spilled
/// list back to four moves it back. Equality, `Debug` and the `Hash`
/// [`NodeSnapshot`] folds in read the two lists as slices, so they do not
/// depend on where the members live.
#[derive(Clone)]
pub struct Members(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` slots of each array.
    Inline {
        len: u8,
        procs: [ProcId; INLINE_MEMBERS],
        joined: [u64; INLINE_MEMBERS],
    },
    /// More than [`INLINE_MEMBERS`] members.
    Spilled {
        procs: Vec<ProcId>,
        joined: Vec<u64>,
    },
}

impl Default for Members {
    fn default() -> Self {
        Members(Repr::Inline {
            len: 0,
            procs: [ProcId(0); INLINE_MEMBERS],
            joined: [0; INLINE_MEMBERS],
        })
    }
}

impl PartialEq for Members {
    fn eq(&self, other: &Self) -> bool {
        self.proc_list() == other.proc_list() && self.joined_list() == other.joined_list()
    }
}

impl Eq for Members {}

impl std::fmt::Debug for Members {
    /// The two lists, as the struct of two `Vec`s this replaced printed.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Members")
            .field("procs", &self.proc_list())
            .field("joined", &self.joined_list())
            .finish()
    }
}

impl Members {
    fn proc_list(&self) -> &[ProcId] {
        match &self.0 {
            Repr::Inline { len, procs, .. } => &procs[..*len as usize],
            Repr::Spilled { procs, .. } => procs,
        }
    }

    fn joined_list(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { len, joined, .. } => &joined[..*len as usize],
            Repr::Spilled { joined, .. } => joined,
        }
    }

    fn joined_mut(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Repr::Inline { len, joined, .. } => &mut joined[..*len as usize],
            Repr::Spilled { joined, .. } => joined,
        }
    }

    /// Each member and its join version, in the order they joined this
    /// copy's view.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (ProcId, u64)> + '_ {
        self.procs().zip(self.joined_list().iter().copied())
    }

    /// The members, in the order they joined this copy's view.
    pub fn procs(&self) -> impl ExactSizeIterator<Item = ProcId> + '_ {
        self.proc_list().iter().copied()
    }

    /// Is `p` a member?
    pub fn contains(&self, p: ProcId) -> bool {
        self.proc_list().contains(&p)
    }

    /// Members other than `me`.
    pub fn peers(&self, me: ProcId) -> impl Iterator<Item = ProcId> + '_ {
        self.procs().filter(move |&p| p != me)
    }

    /// §4.3: members that joined strictly after `version`.
    pub fn joined_after(&self, version: u64) -> impl Iterator<Item = ProcId> + '_ {
        self.iter()
            .filter(move |&(_, jv)| jv > version)
            .map(|(p, _)| p)
    }

    /// Join one member joining at `version`. Returns `true` when `self`
    /// changed.
    pub fn offer(&mut self, member: ProcId, version: u64) -> bool {
        match self.proc_list().iter().position(|&m| m == member) {
            Some(i) if self.joined_list()[i] >= version => false,
            Some(i) => {
                self.joined_mut()[i] = version;
                true
            }
            None => {
                self.push(member, version);
                true
            }
        }
    }

    fn push(&mut self, member: ProcId, version: u64) {
        match &mut self.0 {
            Repr::Inline { len, procs, joined } if usize::from(*len) < INLINE_MEMBERS => {
                procs[usize::from(*len)] = member;
                joined[usize::from(*len)] = version;
                *len += 1;
            }
            Repr::Inline { procs, joined, .. } => {
                let (mut procs, mut joined) = (procs.to_vec(), joined.to_vec());
                procs.push(member);
                joined.push(version);
                self.0 = Repr::Spilled { procs, joined };
            }
            Repr::Spilled { procs, joined } => {
                procs.push(member);
                joined.push(version);
            }
        }
    }

    /// The register's join. Returns `true` when `self` changed.
    pub fn join(&mut self, other: &Members) -> bool {
        other
            .iter()
            .fold(false, |changed, (p, jv)| self.offer(p, jv) | changed)
    }

    /// A member leaves (§4.3 unjoin). Not a join: registered at the PC and
    /// relayed in order.
    pub fn remove(&mut self, member: ProcId) {
        let Some(i) = self.proc_list().iter().position(|&m| m == member) else {
            return;
        };
        match &mut self.0 {
            Repr::Inline { len, procs, joined } => {
                let n = usize::from(*len);
                procs.copy_within(i + 1..n, i);
                joined.copy_within(i + 1..n, i);
                *len -= 1;
            }
            Repr::Spilled { procs, joined } => {
                procs.remove(i);
                joined.remove(i);
                if procs.len() <= INLINE_MEMBERS {
                    *self = self.iter().collect();
                }
            }
        }
    }
}

impl FromIterator<(ProcId, u64)> for Members {
    /// Joins every `(member, join version)` in turn.
    fn from_iter<I: IntoIterator<Item = (ProcId, u64)>>(iter: I) -> Self {
        let mut members = Members::default();
        for (p, jv) in iter {
            members.offer(p, jv);
        }
        members
    }
}

/// The replicated state of a node copy: what a snapshot carries on the wire
/// (sibling creation, join grants, migrations, bootstrap, anti-entropy),
/// and the half of every [`NodeCopy`] its relays and merges write.
#[derive(Clone)]
pub struct NodeSnapshot {
    /// The logical node this copy replicates.
    pub id: NodeId,
    /// Distance to leaves (leaf = 0).
    pub level: u8,
    /// The node's low key, which never moves; the high bound is the edge's.
    pub low: Key,
    /// Absorb epoch, high bound and right link.
    pub edge: Edge,
    /// Sorted entries, held inline, joined per key in the LWW order.
    pub entries: Entries,
    /// Advisory parent hint: a join register ([`ParentHint::join_into`] is
    /// its only writer) that descents repair as they pass. May be stale —
    /// never right of this copy, so out-of-range routing recovers.
    pub parent: Option<ParentHint>,
    /// Version and primary copy.
    pub primary: Primary,
    /// Replication membership.
    pub members: Members,
}

/// One physical copy of a logical node: the replicated state it derefs to,
/// and progress local to this processor.
#[derive(Clone, Debug)]
pub struct NodeCopy {
    state: NodeSnapshot,
    /// Active split AAS, if any (§4.1.1). Boxed, like the lock: only the
    /// synchronous protocols set either, and a `None` box is one word.
    pub aas: Option<Box<AasState>>,
    /// A split became necessary while another was in flight.
    pub split_pending: bool,
    /// Available-copies lock, if held.
    pub lock: Option<Box<LockState>>,
}

impl std::ops::Deref for NodeCopy {
    type Target = NodeSnapshot;

    fn deref(&self) -> &NodeSnapshot {
        &self.state
    }
}

impl std::ops::DerefMut for NodeCopy {
    fn deref_mut(&mut self) -> &mut NodeSnapshot {
        &mut self.state
    }
}

impl NodeCopy {
    /// A fresh copy, its PC the only member.
    pub fn new(id: NodeId, level: u8, range: KeyRange, pc: ProcId) -> Self {
        NodeSnapshot {
            id,
            level,
            low: range.low,
            edge: Edge::new(0, range.high, 0, None),
            entries: Entries::new(),
            parent: None,
            primary: Primary::new(0, pc),
            members: [(pc, 0)].into_iter().collect(),
        }
        .into_copy()
    }

    /// Package the copy for the wire.
    pub fn snapshot(&self) -> NodeSnapshot {
        self.state.clone()
    }

    /// Hash the copy's full protocol-visible state into `h` — the model
    /// checker's per-node state fingerprint. Unlike [`NodeSnapshot::digest`]
    /// (the end-of-run *value* digest), this covers every field that can
    /// influence future behavior: links and their change versions,
    /// membership, split/lock progress, and in-flight blocked messages.
    /// The wall-clock ticks stored alongside blocked/queued messages are
    /// deliberately excluded — two schedules that park the same messages at
    /// different virtual times behave identically from here on, and the
    /// fingerprint must collide for them. Membership is hashed sorted so
    /// the arrival order of joins does not leak in.
    pub fn fingerprint_into(&self, h: &mut impl Hasher) {
        let (s, edge) = (&self.state, &self.edge);
        (s.id, s.level, s.range(), s.primary.version).hash(h);
        s.entries.hash(h);
        edge.right.hash(h);
        s.parent.hash(h);
        s.primary.pc.hash(h);
        let mut members: Vec<_> = s.members.iter().collect();
        members.sort_unstable();
        members.hash(h);
        edge.link_version.hash(h);
        edge.absorbs.hash(h);
        self.split_pending.hash(h);
        // Parked messages without the ticks they were parked at.
        fn msgs(held: &[(u64, Msg)]) -> Vec<&Msg> {
            held.iter().map(|(_tick, m)| m).collect()
        }
        let aas = self.aas.as_ref();
        aas.map(|a| (a.acks_pending, msgs(&a.blocked))).hash(h);
        self.lock.as_ref().map(|l| msgs(&l.queued)).hash(h);
    }
}

impl NodeSnapshot {
    /// Reconstitute a [`NodeCopy`], with no local progress.
    pub fn into_copy(self) -> NodeCopy {
        NodeCopy {
            state: self,
            aas: None,
            split_pending: false,
            lock: None,
        }
    }

    /// The node's key range: its low key to the edge's bound.
    pub fn range(&self) -> KeyRange {
        KeyRange::new(self.low, self.edge.high)
    }

    /// This copy as a parent hint for a child it holds an edge to: its node
    /// at its primary copy, where it starts, and the version it knows.
    pub fn as_parent_hint(&self) -> ParentHint {
        ParentHint {
            link: Link::new(self.id, self.primary.pc),
            low: self.low,
            version: self.primary.version,
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

    /// Where a half-split of this copy separates it from its sibling: the
    /// middle key of a leaf, the middle *live* child key of an interior
    /// node (a tombstoned edge cannot route the sibling's low end).
    pub fn split_key(&self) -> Key {
        let keys: Vec<Key> = self
            .entries
            .iter()
            .filter(|(_, e)| self.is_leaf() || e.child().is_some())
            .map(|(k, _)| *k)
            .collect();
        debug_assert!(keys.len() >= 2, "a split needs two keys to split between");
        keys[keys.len() / 2]
    }

    /// Apply a split, at the PC or relayed: join the edge (narrowed to the
    /// separator, linked to the sibling) and give up the entries at and
    /// above the separator, which are returned.
    pub fn apply_split(&mut self, info: &SplitInfo) -> Entries {
        // Splits from one PC arrive in order (one FIFO channel), but a
        // state merge ([`NodeSnapshot::merge_from`], crash catch-up) may
        // have narrowed the range *before* an in-flight split is finally
        // delivered. The split is then old news the merged snapshot
        // already carried — re-applying it would widen the range back.
        if !self.range().contains(info.sep) {
            debug_assert!(info.sep >= self.low, "split below the range");
            return Entries::new();
        }
        let edge = Edge {
            high: Some(info.sep),
            link_version: self.edge.link_version.max(info.sib_version),
            right: Some(Link::new(info.sib, info.sib_home)),
            ..self.edge
        };
        self.edge.join(&edge);
        self.entries.split_off(&info.sep)
    }

    /// Insert or merge an entry ([`Entries::join`]). Returns the previous
    /// entry.
    pub fn upsert(&mut self, key: Key, entry: Entry) -> Option<Entry> {
        debug_assert!(self.range().contains(key), "upsert out of range");
        let prev = self.entries.get(&key).copied();
        self.entries.join(key, entry);
        prev
    }

    /// Apply an absorb (the reverse of [`NodeSnapshot::apply_split`]):
    /// join the edge (the next epoch, the retired neighbour's bound and
    /// right link), and join its residual tombstones, so a racing re-insert
    /// that already landed here is not clobbered by an older tombstone.
    pub fn apply_absorb(&mut self, info: &AbsorbInfo, count: u64) {
        debug_assert_eq!(
            self.edge.high,
            Some(info.low),
            "absorb extends the adjacent range"
        );
        debug_assert_eq!(count, self.edge.absorbs + 1, "absorbs apply in order");
        let edge = Edge {
            absorbs: count,
            high: info.high,
            link_version: self.edge.link_version.max(info.right_link_version),
            right: info.right,
        };
        self.edge.join(&edge);
        for &(k, e) in &info.entries {
            self.entries.join(k, e);
        }
    }

    /// Join a §4.2 right-link change: only while the link still names the
    /// migrated node (versions of different nodes are not comparable) and
    /// `version` exceeds the link's. Returns `true` if it applied.
    pub fn relink_right(&mut self, link: Link, version: u64) -> bool {
        let names = self.edge.right.is_some_and(|l| l.node == link.node);
        let edge = Edge {
            link_version: version,
            right: Some(link),
            ..self.edge
        };
        names && version > self.edge.link_version && self.edge.join(&edge)
    }

    /// The migration reset (§4.2): the next version, `dest` the primary and
    /// only member.
    pub fn migrate_to(&mut self, dest: ProcId) {
        self.primary = Primary::new(self.primary.version + 1, dest);
        self.members = [(dest, 0)].into_iter().collect();
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
        words.push(self.low);
        words.push(self.edge.high.map_or(u64::MAX, |h| h ^ 0x5555));
        words.push(self.edge.right.map_or(0, |l| l.node.raw()));
        if self.edge.absorbs > 0 {
            // Copies must agree on the absorb epoch too; the word is
            // omitted at zero so merge-free digests are unchanged.
            words.push(self.edge.absorbs ^ 0xaaaa);
        }
        for (k, e) in &self.entries {
            words.push(*k);
            words.extend(e.digest_words());
        }
        fnv1a(words)
    }

    /// State-based anti-entropy (crash catch-up): merge another copy's
    /// snapshot into this one — each register's join, plus the one rule
    /// across registers: entries outside the merged range drop, carried
    /// away by the split that narrowed it, as in
    /// [`NodeSnapshot::apply_split`]. Every join is commutative,
    /// associative and idempotent, so pushes and pulls may arrive in any
    /// order, any number of times, interleaved with ordinary relays, and
    /// every copy still converges. Returns `true` if anything changed.
    pub fn merge_from(&mut self, other: &NodeSnapshot) -> bool {
        debug_assert_eq!((self.id, self.level), (other.id, other.level));
        debug_assert_eq!(self.low, other.low, "a node's low never moves");
        let mut changed = self.edge.join(&other.edge);
        let range = self.range();
        let before = self.entries.len();
        self.entries.retain(|k, _| range.contains(*k));
        changed |= self.entries.len() != before;
        for (&k, &e) in other.entries.iter().filter(|(k, _)| range.contains(**k)) {
            changed |= self.entries.join(k, e);
        }
        changed |= other.parent.is_some_and(|h| h.join_into(&mut self.parent));
        changed |= self.primary.join(&other.primary);
        changed | self.members.join(&other.members)
    }
}

impl Hash for NodeSnapshot {
    /// Field by field, as the flat wire struct this replaced hashed —
    /// message fingerprints and trace digests read it.
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.id.hash(h);
        self.level.hash(h);
        self.range().hash(h);
        self.primary.version.hash(h);
        self.entries.hash(h);
        self.edge.right.hash(h);
        self.parent.hash(h);
        self.primary.pc.hash(h);
        self.members.proc_list().hash(h);
        self.members.joined_list().hash(h);
        self.edge.link_version.hash(h);
        self.edge.absorbs.hash(h);
    }
}

impl std::fmt::Debug for NodeSnapshot {
    /// The flat wire struct's fields, and the absorb epoch only once the
    /// node has actually absorbed — merge-free runs keep the byte-identical
    /// trace details they always had (the digest makes the same choice).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("NodeSnapshot");
        d.field("id", &self.id)
            .field("level", &self.level)
            .field("range", &self.range())
            .field("version", &self.primary.version)
            .field("entries", &self.entries.as_slice())
            .field("right", &self.edge.right)
            .field("parent", &self.parent)
            .field("pc", &self.primary.pc)
            .field("copies", &self.members.proc_list())
            .field("join_versions", &self.members.joined_list())
            .field("right_link_version", &self.edge.link_version);
        if self.edge.absorbs > 0 {
            d.field("absorb_count", &self.edge.absorbs);
        }
        d.finish()
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
    /// one slab slot (its entries and up to four members inline — 10 cache
    /// lines, and the slot's `Option` must stay free; the synchronous
    /// protocols' AAS and lock are boxed), a [`Msg`] is copied once per in-process
    /// step and once per send. (Field *order* is left to the compiler: a
    /// `repr(C)` hot-fields-first order was tried and measured nothing once
    /// the entries were searched by counting — CHANGES, PR 17.) And the frame
    /// a `Msg` travels in is exactly as large with the session's piggybacked
    /// ack as it was without: the ack shares a word with `retx`, so the
    /// pass-through path of a clean run moves the same bytes. A copy's
    /// replicated half is a struct of its own, which costs 16 bytes over
    /// one flat struct: its padding and the local fields' cannot share words.
    #[test]
    fn hot_path_layouts_stay_within_their_budgets() {
        use std::mem::size_of;
        assert!(size_of::<NodeCopy>() <= 624, "{}", size_of::<NodeCopy>());
        assert_eq!(size_of::<Option<NodeCopy>>(), size_of::<NodeCopy>());
        assert!(size_of::<Msg>() <= 104, "{}", size_of::<Msg>());
        let frame = size_of::<simnet::SessionMsg<Msg>>();
        assert_eq!(frame, size_of::<Msg>() + 16);
    }

    fn split_at(sep: Key) -> SplitInfo {
        SplitInfo {
            sep,
            sib: NodeId(2),
            sib_home: ProcId(1),
            sib_version: 1,
        }
    }

    #[test]
    fn half_split_moves_upper_half() {
        let mut c = leaf(0);
        for k in [1u64, 3, 5, 7, 9, 11] {
            c.upsert(k, val(k, k));
        }
        let sep = c.split_key();
        assert_eq!(sep, 7);
        let sib = c.apply_split(&split_at(sep));
        assert_eq!(c.entries.len(), 3);
        assert_eq!(sib.len(), 3);
        assert_eq!(c.range(), KeyRange::new(0, Some(7)));
    }

    #[test]
    fn apply_split_discards_moved_entries() {
        let mut c = leaf(0);
        for k in [1u64, 5, 9] {
            c.upsert(k, val(k, k));
        }
        assert_eq!(c.apply_split(&split_at(6)).len(), 1);
        assert_eq!(c.entries.len(), 2);
        assert_eq!(c.edge.right().unwrap().node, NodeId(2));
        assert_eq!(c.edge.high(), Some(6));
        assert_eq!(c.edge.link_version(), 1);
        // Old news once the range has narrowed past the separator.
        assert!(c.apply_split(&split_at(8)).is_empty());
        assert_eq!(c.edge.high(), Some(6));
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
        let mut m: Members = [(ProcId(0), 0)].into_iter().collect();
        assert!(m.offer(ProcId(1), 3));
        assert!(m.offer(ProcId(2), 5));
        assert!(!m.offer(ProcId(1), 2), "an older join version is no news");
        let late: Vec<ProcId> = m.joined_after(3).collect();
        assert_eq!(late, vec![ProcId(2)]);
        m.remove(ProcId(1));
        assert!(m.iter().eq([(ProcId(0), 0), (ProcId(2), 5)]));
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut c = leaf(0);
        c.upsert(4, val(40, 4));
        c.edge = Edge::new(0, None, 0, Some(Link::new(NodeId(9), ProcId(2))));
        let c2 = c.snapshot().into_copy();
        assert_eq!(c.digest(), c2.digest());
        assert_eq!(c2.edge, c.edge);
        assert_eq!(c2.primary.pc(), ProcId(0));
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

    /// A catch-up that only advances the right link's version — a
    /// migration's link change this copy missed — is a change: the version
    /// gates every later link change.
    #[test]
    fn merge_reports_a_link_version_catch_up() {
        let right = Some(Link::new(NodeId(2), ProcId(1)));
        let mut stale = leaf(0);
        stale.edge = Edge::new(0, Some(10), 1, right);
        let mut fresh = leaf(0);
        fresh.edge = Edge::new(0, Some(10), 4, right);
        assert!(stale.merge_from(&fresh.snapshot()));
        assert_eq!(stale.edge.link_version(), 4);
        assert!(!stale.merge_from(&fresh.snapshot()));
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
        a.primary = Primary::new(3, ProcId(0));
        a.edge = Edge::new(0, Some(10), 0, Some(Link::new(NodeId(2), ProcId(1))));
        a.upsert(1, val(10, 1));
        let mut b = leaf(0);
        b.upsert(1, val(10, 1));
        b.upsert(15, val(150, 2)); // split away; carried by the sibling
        assert!(b.merge_from(&a.snapshot()));
        assert_eq!(b.edge.high(), Some(10));
        assert_eq!(b.entries.len(), 1, "out-of-range entry dropped");
        assert_eq!(b.edge.right().unwrap().node, NodeId(2), "newer link wins");
        assert_eq!(b.primary.version(), 3);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn merge_unions_membership_with_greater_join_version() {
        let mut a = leaf(0);
        a.members.offer(ProcId(1), 2);
        let mut b = leaf(0);
        b.members.offer(ProcId(2), 5);
        b.merge_from(&a.snapshot());
        assert_eq!(b.members.proc_list(), [ProcId(0), ProcId(2), ProcId(1)]);
        assert_eq!(b.members.joined_list(), [0, 5, 2]);
    }

    /// A three-member copy (§4.1's test bed) and a root path-replicated on
    /// nine processors, past the inline capacity.
    fn pinned_copies() -> [NodeCopy; 2] {
        let mut small = leaf(0);
        small.upsert(4, val(40, 4));
        small.members.offer(ProcId(2), 1);
        small.members.offer(ProcId(1), 3);
        let mut root = NodeCopy::new(NodeId(7), 2, KeyRange::ALL, ProcId(3));
        for p in [5u32, 0, 8, 1, 6, 2, 4, 7] {
            root.members.offer(ProcId(p), u64::from(p) + 1);
        }
        [small, root]
    }

    /// What the two-`Vec` `Members` printed and hashed, captured before the
    /// inline form replaced it: message fingerprints, trace details and the
    /// explorer's state fingerprints read these.
    #[test]
    fn inline_and_spilled_members_print_and_hash_as_two_lists_did() {
        let pins = [
            (
                "NodeCopy { state: NodeSnapshot { id: n0.1, level: 0, range: [0, +inf), \
                 version: 0, entries: [(4, Val { value: 40, stamp: 4 })], right: None, \
                 parent: None, pc: P0, copies: [P0, P2, P1], join_versions: [0, 1, 3], \
                 right_link_version: 0 }, aas: None, split_pending: false, lock: None }",
                "Members { procs: [P0, P2, P1], joined: [0, 1, 3] }",
                (0x78cefe092e1c0d9d, 0xef7ad2f9a439d612),
            ),
            (
                "NodeCopy { state: NodeSnapshot { id: n0.7, level: 2, range: [0, +inf), \
                 version: 0, entries: [], right: None, parent: None, pc: P3, \
                 copies: [P3, P5, P0, P8, P1, P6, P2, P4, P7], \
                 join_versions: [0, 6, 1, 9, 2, 7, 3, 5, 8], right_link_version: 0 }, \
                 aas: None, split_pending: false, lock: None }",
                "Members { procs: [P3, P5, P0, P8, P1, P6, P2, P4, P7], \
                 joined: [0, 6, 1, 9, 2, 7, 3, 5, 8] }",
                (0x87837293feb742bf, 0x88c6130ba2075e02),
            ),
        ];
        for (copy, (text, members, hashes)) in pinned_copies().iter().zip(pins) {
            assert_eq!(format!("{copy:?}"), text);
            assert_eq!(format!("{:?}", copy.members), members);
            let mut snapshot = simnet::FxHasher::default();
            copy.snapshot().hash(&mut snapshot);
            let mut fingerprint = simnet::FxHasher::default();
            copy.fingerprint_into(&mut fingerprint);
            assert_eq!((snapshot.finish(), fingerprint.finish()), hashes);
        }
    }

    /// Insertion order survives growing past the inline capacity, joins on
    /// both sides of it, and removals that cross back.
    #[test]
    fn members_keep_insertion_order_across_the_spill() {
        let order = |m: &Members| m.iter().collect::<Vec<_>>();
        let mut m = Members::default();
        for p in 0..INLINE_MEMBERS as u32 {
            assert!(m.offer(ProcId(9 - p), u64::from(p)));
        }
        assert!(matches!(m.0, Repr::Inline { .. }));
        assert!(m.offer(ProcId(1), 7), "the fifth member spills");
        assert!(matches!(m.0, Repr::Spilled { .. }));
        assert!(
            m.offer(ProcId(8), 5),
            "a newer join version moves no member"
        );
        assert!(!m.offer(ProcId(1), 6));
        let spilled = [(9, 0), (8, 5), (7, 2), (6, 3), (1, 7)].map(|(p, v)| (ProcId(p), v));
        assert_eq!(order(&m), spilled);

        // A join appends unknown members in the other side's order.
        let mut small: Members = [(ProcId(7), 9), (ProcId(3), 1)].into_iter().collect();
        assert!(small.join(&m));
        let joined = [(7, 9), (3, 1), (9, 0), (8, 5), (6, 3), (1, 7)];
        assert_eq!(order(&small), joined.map(|(p, v)| (ProcId(p), v)));

        // Back under the capacity: inline again, order kept, and equal to
        // the same list built inline.
        m.remove(ProcId(8));
        assert!(matches!(m.0, Repr::Inline { .. }));
        m.remove(ProcId(9));
        m.remove(ProcId(4)); // not a member
        let left = [(7, 2), (6, 3), (1, 7)].map(|(p, v)| (ProcId(p), v));
        assert_eq!(order(&m), left);
        assert_eq!(m, left.into_iter().collect());
        assert!(m.offer(ProcId(2), 8));
        assert_eq!(m.procs().last(), Some(ProcId(2)));
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

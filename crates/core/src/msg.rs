//! Protocol messages — the paper's *actions*, as network payloads.
//!
//! Naming follows §3's conventions: initial actions are distinct variants
//! from their relayed forms (capital-I `InsertAt` vs lowercase-i
//! `RelayedInsert`), and every update carries the history tag that identifies
//! its uniform action.

use simnet::{Delivery, Payload, ProcId};

use crate::node::NodeSnapshot;
use crate::types::{Entry, Intent, Key, Link, NodeId, OpId, Outcome, ParentHint, Value};

/// The split description a PC relays to the other copies.
#[derive(Clone, Copy, Hash, Debug)]
pub struct SplitInfo {
    /// Split point: the node's new exclusive upper bound.
    pub sep: Key,
    /// The new right sibling.
    pub sib: NodeId,
    /// The sibling's PC.
    pub sib_home: ProcId,
    /// The sibling's starting version (§4.2/§4.3: one greater than the
    /// half-split node's).
    pub sib_version: u64,
}

/// Everything the left sibling needs to absorb a retired node's range:
/// the reverse of a [`SplitInfo`]. Produced once at the merge commit and
/// carried unchanged by the initial [`Msg::Absorb`] and every
/// [`Msg::RelayedAbsorb`].
#[derive(Clone, Hash, Debug)]
pub struct AbsorbInfo {
    /// The retired node's low key — must equal the absorber's exclusive
    /// upper bound (the absorb is routed to the leaf owning `low - 1`).
    pub low: Key,
    /// The retired node's upper bound: the absorber's new upper bound.
    pub high: Option<Key>,
    /// The retired node's right link: the absorber's new right link.
    pub right: Option<Link>,
    /// The retired node's right-link version (joins into the absorber's).
    pub right_link_version: u64,
    /// The retired node's residual entries — tombstones only, carried so
    /// later re-inserts still lose/win by stamp against them (LWW).
    pub entries: Vec<(Key, Entry)>,
    /// History tag of the absorb action.
    pub tag: u64,
}

/// Which link a link-change action targets.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LinkDir {
    /// The right-sibling link.
    Right,
    /// The parent link.
    Parent,
}

impl LinkDir {
    /// Ordered-class label for the history log.
    pub fn class(self) -> &'static str {
        match self {
            LinkDir::Right => "link-right",
            LinkDir::Parent => "link-parent",
        }
    }
}

/// All dB-tree protocol messages.
#[derive(Clone, Hash, Debug)]
pub enum Msg {
    // ---- client plane -------------------------------------------------
    /// A client submits an operation to its local processor.
    Client {
        /// Operation id (driver-minted).
        op: OpId,
        /// The key.
        key: Key,
        /// Search or insert.
        intent: Intent,
    },
    /// Operation completed; sent to `ProcId::EXTERNAL`.
    Done(Outcome),

    // ---- navigation ----------------------------------------------------
    /// Descend: perform the operation's next action at `node`.
    Descend {
        /// Operation id.
        op: OpId,
        /// The key.
        key: Key,
        /// Search or insert.
        intent: Intent,
        /// The node to act on.
        node: NodeId,
        /// Nodes visited so far.
        hops: u32,
        /// Right-link chases so far.
        chases: u32,
        /// The copy that routed this step to its child `node`, offered as
        /// that node's parent hint ([`ParentHint`]); `None` on every other
        /// way of getting here (first hop, link chase, restart).
        via: Option<ParentHint>,
    },

    /// A client range scan: collect up to `limit` live entries starting at
    /// `from`.
    ClientScan {
        /// Operation id.
        op: OpId,
        /// Inclusive start key.
        from: Key,
        /// Maximum entries to return.
        limit: u32,
    },
    /// A scan in progress: walking the leaf chain through right links,
    /// accumulating live entries (tombstones skipped).
    Scan {
        /// Operation id.
        op: OpId,
        /// Next key of interest (lower bound for this step).
        key: Key,
        /// Entries still wanted.
        remaining: u32,
        /// The node to act on.
        node: NodeId,
        /// Accumulated results.
        acc: Vec<(Key, Value)>,
        /// Nodes visited.
        hops: u32,
    },
    /// Scan results; sent to `ProcId::EXTERNAL`.
    ScanResult {
        /// Operation id.
        op: OpId,
        /// The collected entries, in key order.
        items: Vec<(Key, Value)>,
        /// Nodes visited.
        hops: u32,
    },

    // ---- lazy updates ---------------------------------------------------
    /// Initial insert of an entry into a node, outside the client plane:
    /// split completions (child pointers into parents) and the semisync
    /// history-rewrite re-issues. Re-routed right if out of range.
    InsertAt {
        /// The node to insert into (a hint — the action is re-routed by
        /// `key` and `level` if the hint is stale).
        node: NodeId,
        /// The tree level the insert belongs to (0 = leaves).
        level: u8,
        /// The key (a separator for child entries).
        key: Key,
        /// The entry.
        entry: crate::types::Entry,
        /// History tag of this update.
        tag: u64,
    },
    /// Relayed insert: propagate an applied insert to the other copies.
    RelayedInsert {
        /// The node.
        node: NodeId,
        /// The key inserted.
        key: Key,
        /// The entry (value or child ref).
        entry: crate::types::Entry,
        /// History tag (same as the initial action's).
        tag: u64,
        /// Node version at the initial copy when it applied the insert
        /// (§4.3: lets the PC forward to later joiners).
        version: u64,
        /// Span of the client operation that produced the insert, carried
        /// so the relay stays attributable after it leaves the initial
        /// action's context (piggyback buffers outlive their action).
        span: Option<u64>,
        /// The sender copy's absorb epoch (`absorb_count`) when it applied
        /// the insert. A receiver whose range does not (yet) cover the key
        /// and whose epoch is behind holds the relay until it has caught up
        /// — the §4.3 version idea applied to range *widening*.
        epoch: u64,
    },
    /// A batch of relayed inserts (piggybacking, §1.1).
    RelayBatch(Vec<RelayedItem>),

    // ---- synchronous split protocol (§4.1.1) ---------------------------
    /// AAS start: block initial inserts at the copy.
    SplitStart {
        /// The node being split.
        node: NodeId,
    },
    /// Copy acknowledges the AAS.
    SplitAck {
        /// The node being split.
        node: NodeId,
    },
    /// AAS end: install the sibling, apply the split and unblock.
    SplitEnd {
        /// The node that split.
        node: NodeId,
        /// The split parameters.
        info: SplitInfo,
        /// The new sibling's copy for the receiver (see
        /// [`Msg::RelayedSplit::sibling`]).
        sibling: Box<NodeSnapshot>,
        /// History tag of the split.
        tag: u64,
    },

    // ---- semi-synchronous split protocol (§4.1.2) ----------------------
    /// Relayed half-split: apply immediately at the copy. It is what creates
    /// the sibling there (§4.1.2) — the only message a split sends a copy —
    /// and it leaves at the end of the splitting action, carrying that
    /// action's relays to the copy's processor (§1.1's piggybacking).
    RelayedSplit {
        /// The node that split.
        node: NodeId,
        /// The split parameters.
        info: SplitInfo,
        /// The new sibling, taken after the write that overfilled the node
        /// was applied: the receiver installs it and shrinks `node` in one
        /// atomic action. Always `Some` on the wire; `None` only in a
        /// receiver's stash, where a shrink waits for `node`'s own install
        /// after the sibling it arrived with has been installed.
        sibling: Option<Box<NodeSnapshot>>,
        /// History tag of the split.
        tag: u64,
        /// The relays the splitting action produced for the receiver,
        /// applied after the split as a [`Msg::RelayBatch`]'s are. Only the
        /// last split relay an action sends a processor carries them; empty
        /// in a stash, where the items wait on their own.
        relays: Vec<RelayedItem>,
    },

    // ---- lazy merge-at-empty --------------------------------------------
    /// An emptied leaf's PC asks the parent's PC for permission to merge
    /// away. Routed right if the parent has since split past `low`.
    MergeReq {
        /// The parent node (hint; re-routed like other parent actions).
        node: NodeId,
        /// The emptied leaf asking to retire.
        child: NodeId,
        /// The leaf's low key (its separator in the parent).
        low: Key,
        /// The leaf's PC (where the grant/decline goes).
        reply_to: ProcId,
    },
    /// The parent's PC grants the merge: the child edge was verified and a
    /// live left sibling under the same parent was found.
    MergeGrant {
        /// The leaf allowed to retire.
        child: NodeId,
        /// The left sibling that will absorb the leaf's range.
        left: Link,
    },
    /// The parent's PC declines (stale hint, no left sibling under this
    /// parent, or the parent is busy). Unsticks the requester.
    MergeDecline {
        /// The leaf whose request was declined.
        child: NodeId,
    },
    /// The retiring leaf's PC tells the other copies: drop your copy, leave
    /// a forwarding address toward the absorber, reroute anything stashed.
    RelayedRetire {
        /// The retired node.
        node: NodeId,
        /// The absorbing left sibling.
        left: Link,
    },
    /// Initial absorb: extend the left sibling's range/right link over the
    /// retired node's, performed at the absorber's PC. Routed by
    /// `info.low - 1` if the hint is stale.
    Absorb {
        /// The absorbing node (hint).
        node: NodeId,
        /// The retired node's range, right link, and residual tombstones.
        info: AbsorbInfo,
    },
    /// Relayed absorb: propagate an applied absorb to the other copies,
    /// ordered per copy by `count`.
    RelayedAbsorb {
        /// The absorbing node.
        node: NodeId,
        /// The absorb parameters.
        info: AbsorbInfo,
        /// The absorber's absorb-sequence number after this absorb (the
        /// per-copy total order of the absorb class).
        count: u64,
    },

    // ---- copy management ------------------------------------------------
    /// Install a copy of a node (join grants, migration payloads, a new
    /// root). A split's sibling travels inside the split relay instead.
    InstallCopy {
        /// Full copy state (boxed: the snapshot dwarfs every other
        /// message, and installs are rare — boxing keeps `Msg` small for
        /// the hot descend path).
        snapshot: Box<NodeSnapshot>,
        /// Why the copy is being installed (affects follow-up actions).
        reason: InstallReason,
        /// History tags the snapshot's value already covers (the backwards
        /// extension of the new copy).
        covered: Vec<u64>,
    },
    /// A new root was created; update the local root pointer and re-parent
    /// local copies of its children.
    NewRoot {
        /// The new root node.
        root: NodeId,
        /// Its level.
        level: u8,
        /// The processor that created it.
        home: ProcId,
        /// The new root's children (the split halves of the old root),
        /// whose local copies' parent links must be updated.
        children: [NodeId; 2],
    },

    // ---- mobility & membership (§4.2 / §4.3) ----------------------------
    /// Control: migrate `node` (which the receiver owns) to `dest`.
    Migrate {
        /// The node to move.
        node: NodeId,
        /// Destination processor.
        dest: ProcId,
    },
    /// A migrated node's ordered link update (§4.2): point `dir` of the
    /// node of `level` that owns `key` at the migrated node's new home.
    LinkChange {
        /// The node whose link changes. The initial form is walked by `key`
        /// and `level` and starts at the migrated node itself; the PC relays
        /// it to the other copies of the node it landed on.
        node: NodeId,
        /// Which link.
        dir: LinkDir,
        /// New target (node + home).
        link: crate::types::Link,
        /// Position in the link's total order (the target's version).
        version: u64,
        /// Where the update belongs: the key just left of the migrated
        /// node's range (its right link's holder), or a child's separator
        /// (the child's parent hint).
        key: Key,
        /// The level of the node that owns `key` and holds the link.
        level: u8,
        /// History tag.
        tag: u64,
        /// `false` until the node's PC has applied it; `true` when the PC
        /// relays it to the other copies.
        relayed: bool,
    },
    /// Ordered child-home update: the child at `sep` moved to `home`.
    ChildHomeChange {
        /// The parent node.
        node: NodeId,
        /// The child's separator key.
        sep: Key,
        /// The child (sanity check).
        child: NodeId,
        /// The child's new home.
        home: ProcId,
        /// The child's version after the move.
        version: u64,
        /// History tag.
        tag: u64,
        /// `false` when first sent to the PC; `true` when the PC relays it
        /// to the other copies.
        relayed: bool,
    },
    /// §4.3: ask the node's PC to admit the sender to the replication.
    Join {
        /// The node.
        node: NodeId,
        /// The processor joining.
        joiner: ProcId,
    },
    /// §4.3: the PC tells existing copies about a new member.
    RelayedJoin {
        /// The node.
        node: NodeId,
        /// The new member.
        member: ProcId,
        /// The node version assigned to the join.
        version: u64,
        /// History tag.
        tag: u64,
    },
    /// §4.3: a member leaves the replication.
    Unjoin {
        /// The node.
        node: NodeId,
        /// The processor leaving.
        leaver: ProcId,
    },
    /// §4.3: the PC tells remaining copies about a departure.
    RelayedUnjoin {
        /// The node.
        node: NodeId,
        /// The departed member.
        member: ProcId,
        /// The node version assigned to the unjoin.
        version: u64,
        /// History tag.
        tag: u64,
    },

    // ---- crash recovery & anti-entropy -----------------------------------
    /// Anti-entropy pull: ask a peer for its current state of `node`
    /// (crash-recovery catch-up for copies the stable store retained).
    /// Answered with [`Msg::SyncState`] when the peer holds a copy;
    /// silently ignored otherwise.
    SyncReq {
        /// The node to synchronize.
        node: NodeId,
    },
    /// Anti-entropy push: merge `snapshot` into the local copy of `node`
    /// (a join-semilattice merge — see [`crate::NodeSnapshot::merge_from`]). Sent in
    /// reply to a [`Msg::SyncReq`] and spontaneously when a quarantined
    /// peer is heard from again.
    SyncState {
        /// The node.
        node: NodeId,
        /// The sender's full copy state (boxed, like
        /// [`Msg::InstallCopy::snapshot`]).
        snapshot: Box<NodeSnapshot>,
        /// History tags the snapshot's value already covers (the sender's
        /// coverage — relays suppressed during the quarantine are in here,
        /// which is what keeps the history checker's per-copy coverage
        /// requirement satisfied without replaying them individually).
        covered: Vec<u64>,
    },

    // ---- available-copies baseline --------------------------------------
    /// Coordinator asks a copy to lock the node.
    LockReq {
        /// The node.
        node: NodeId,
        /// Lock ticket (coordinator-local).
        ticket: u64,
    },
    /// Copy grants the lock.
    LockGrant {
        /// The node.
        node: NodeId,
        /// The ticket being granted.
        ticket: u64,
    },
    /// Coordinator: apply `update` at the copy and unlock.
    ApplyUnlock {
        /// The node.
        node: NodeId,
        /// The ticket being released.
        ticket: u64,
        /// The update to apply before unlocking.
        update: LockedUpdate,
    },
}

/// One relayed insert inside a piggyback batch.
#[derive(Clone, Hash, Debug)]
pub struct RelayedItem {
    /// The node.
    pub node: NodeId,
    /// The key.
    pub key: Key,
    /// The entry.
    pub entry: crate::types::Entry,
    /// History tag.
    pub tag: u64,
    /// Version at the initial copy.
    pub version: u64,
    /// Span of the originating client operation (see
    /// [`Msg::RelayedInsert::span`]).
    pub span: Option<u64>,
    /// The sender copy's absorb epoch (see [`Msg::RelayedInsert::epoch`]).
    pub epoch: u64,
}

impl From<RelayedItem> for Msg {
    /// The item as a stand-alone relay (unbatched send, or a stash entry).
    fn from(item: RelayedItem) -> Msg {
        let RelayedItem {
            node,
            key,
            entry,
            tag,
            version,
            span,
            epoch,
        } = item;
        Msg::RelayedInsert {
            node,
            key,
            entry,
            tag,
            version,
            span,
            epoch,
        }
    }
}

/// Why a copy is being installed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InstallReason {
    /// A §4.3 join grant.
    JoinGrant,
    /// A §4.2 migration: the receiver becomes the (sole) owner.
    Migration {
        /// Where the node came from (for link bookkeeping).
        from: ProcId,
    },
    /// A new root, sent to every processor by the root split that grew
    /// the tree (`grow_new_root`, its only sender): installed as it is, no
    /// follow-up.
    Bootstrap,
}

/// The update applied under an available-copies lock.
#[derive(Clone, Hash, Debug)]
pub enum LockedUpdate {
    /// Insert an entry.
    Insert {
        /// The key.
        key: Key,
        /// The entry.
        entry: crate::types::Entry,
        /// History tag.
        tag: u64,
    },
    /// Apply a split.
    Split {
        /// The split parameters.
        info: SplitInfo,
        /// The new sibling (see [`Msg::RelayedSplit::sibling`]).
        sibling: Box<NodeSnapshot>,
        /// History tag.
        tag: u64,
    },
    /// Nothing to apply — pure unlock (the coordinated update was re-routed
    /// or had already been satisfied).
    Noop,
}

impl Msg {
    /// The kinds that are fully addressed by key (+ level) and tolerate an
    /// arbitrarily stale `node` hint (`Msg::address`): a step of one of
    /// these whose next node is resident continues in-process instead of
    /// becoming a message (`DbProc::send_to_node`).
    pub fn is_navigable(&self) -> bool {
        self.address().is_some()
    }

    /// What a walked kind ([`crate::DbProc::walk`]) is addressed to: the
    /// node it names — a hint, however stale — and the key and level that
    /// say where it belongs. Reads and absorbs belong at a leaf, an absorb
    /// at the one owning the key just left of the retired range (grants
    /// require a live left sibling, so `low ≥ 1`); a link change until its
    /// PC has applied it wherever its `key` and `level` say. `None` for
    /// every kind that is not key-addressed.
    pub(crate) fn address(&self) -> Option<(NodeId, Key, u8)> {
        match self {
            Msg::Descend { node, key, .. } | Msg::Scan { node, key, .. } => Some((*node, *key, 0)),
            Msg::InsertAt {
                node, key, level, ..
            }
            | Msg::LinkChange {
                node,
                key,
                level,
                relayed: false,
                ..
            } => Some((*node, *key, *level)),
            Msg::Absorb { node, info } => Some((*node, info.low - 1, 0)),
            _ => None,
        }
    }

    /// The walked kinds of the client plane: their link chases are counted
    /// apart from the update plane's (`link_chases` / `update_chases`).
    pub(crate) fn is_read(&self) -> bool {
        matches!(self, Msg::Descend { .. } | Msg::Scan { .. })
    }

    /// Address this message to `to` after `hop` — the one place a walk step
    /// bumps `hops` / `chases` and sets `via`. In place: a scan's `acc` and
    /// an absorb's `info` stay where they are.
    pub(crate) fn readdress(&mut self, to: NodeId, hop: crate::nav::Hop) {
        use crate::nav::Hop;
        match self {
            Msg::Descend {
                node,
                hops,
                chases,
                via,
                ..
            } => {
                *node = to;
                *hops += 1;
                *via = match hop {
                    Hop::Down(parent) => Some(parent),
                    Hop::Chase | Hop::Restart => {
                        *chases += 1;
                        None
                    }
                };
            }
            Msg::Scan { node, hops, .. } => {
                *node = to;
                *hops += 1;
            }
            Msg::InsertAt { node, .. }
            | Msg::Absorb { node, .. }
            | Msg::LinkChange { node, .. } => *node = to,
            _ => debug_assert!(false, "only a walked kind is re-addressed"),
        }
    }
}

impl Payload for Msg {
    fn kind(&self) -> &'static str {
        match self {
            Msg::Client { .. } => "client",
            Msg::Done(_) => "done",
            Msg::Descend { .. } => "descend",
            Msg::ClientScan { .. } => "client",
            Msg::Scan { .. } => "scan",
            Msg::ScanResult { .. } => "scan.result",
            Msg::InsertAt { .. } => "insert.initial",
            Msg::RelayedInsert { .. } => "insert.relay",
            Msg::RelayBatch(_) => "insert.relay-batch",
            Msg::SplitStart { .. } => "split.start",
            Msg::SplitAck { .. } => "split.ack",
            Msg::SplitEnd { .. } => "split.end",
            Msg::RelayedSplit { .. } => "split.relay",
            Msg::MergeReq { .. } => "merge.req",
            Msg::MergeGrant { .. } => "merge.grant",
            Msg::MergeDecline { .. } => "merge.decline",
            Msg::RelayedRetire { .. } => "merge.retire-relay",
            Msg::Absorb { .. } => "merge.absorb",
            Msg::RelayedAbsorb { .. } => "merge.absorb-relay",
            Msg::InstallCopy { .. } => "copy.install",
            Msg::NewRoot { .. } => "copy.new-root",
            Msg::Migrate { .. } => "mobility.migrate",
            Msg::LinkChange { .. } => "mobility.link-change",
            Msg::ChildHomeChange { .. } => "mobility.child-home",
            Msg::Join { .. } => "member.join",
            Msg::RelayedJoin { .. } => "member.join-relay",
            Msg::Unjoin { .. } => "member.unjoin",
            Msg::RelayedUnjoin { .. } => "member.unjoin-relay",
            Msg::SyncReq { .. } => "sync.req",
            Msg::SyncState { .. } => "sync.state",
            Msg::LockReq { .. } => "lock.req",
            Msg::LockGrant { .. } => "lock.grant",
            Msg::ApplyUnlock { .. } => "lock.apply",
        }
    }

    fn span(&self) -> Option<u64> {
        match self {
            // Client-plane and navigation messages name their operation
            // explicitly; everything else inherits the sending action's
            // span at the runtime layer.
            Msg::Client { op, .. }
            | Msg::Descend { op, .. }
            | Msg::ClientScan { op, .. }
            | Msg::Scan { op, .. }
            | Msg::ScanResult { op, .. } => Some(op.0),
            Msg::Done(outcome) => Some(outcome.op.0),
            // Relays carry the originating operation across the piggyback
            // buffer, which outlives the action that filled it.
            Msg::RelayedInsert { span, .. } => *span,
            _ => None,
        }
    }

    fn delivery(&self) -> Delivery {
        match self {
            // A descent step reads routing state and is addressed by key:
            // whatever it overtakes — a split relay, the install of the very
            // copy it names — it recovers by the right-link chase or the
            // missing-node restart, and any processor holding a parent copy
            // may have sent it, so nothing can rely on its channel order.
            Msg::Descend { .. } => Delivery::Unordered,
            _ => Delivery::Ordered,
        }
    }

    fn fingerprint_into<H: std::hash::Hasher>(&self, h: &mut H) {
        std::hash::Hash::hash(self, h);
    }

    fn size_hint(&self) -> usize {
        match self {
            // Rough logical wire sizes, for byte accounting.
            Msg::InstallCopy { snapshot, .. } => 64 + snapshot.entries.len() * 24,
            Msg::RelayedSplit {
                sibling: Some(s),
                relays,
                ..
            } => 112 + s.entries.len() * 24 + relays.len() * 40,
            Msg::SplitEnd { sibling: s, .. } => 112 + s.entries.len() * 24,
            Msg::SyncState {
                snapshot, covered, ..
            } => 64 + snapshot.entries.len() * 24 + covered.len() * 8,
            Msg::RelayBatch(items) => 16 + items.len() * 40,
            Msg::Absorb { info, .. } | Msg::RelayedAbsorb { info, .. } => {
                64 + info.entries.len() * 24
            }
            Msg::Scan { acc, .. } => 48 + acc.len() * 16,
            Msg::ScanResult { items, .. } => 16 + items.len() * 16,
            _ => 48,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_bucket_by_protocol_phase() {
        let m = Msg::SplitStart { node: NodeId(1) };
        assert_eq!(m.kind(), "split.start");
        assert!(Msg::RelayedInsert {
            node: NodeId(1),
            key: 0,
            entry: crate::types::Entry::Tomb { stamp: 0 },
            tag: 0,
            version: 0,
            span: None,
            epoch: 0,
        }
        .kind()
        .starts_with("insert."));
    }

    #[test]
    fn spans_name_the_operation() {
        let m = Msg::Client {
            op: OpId(7),
            key: 1,
            intent: Intent::Search,
        };
        assert_eq!(m.span(), Some(7));
        let r = Msg::RelayedInsert {
            node: NodeId(1),
            key: 0,
            entry: crate::types::Entry::Tomb { stamp: 0 },
            tag: 0,
            version: 0,
            span: Some(9),
            epoch: 0,
        };
        assert_eq!(r.span(), Some(9));
        assert_eq!(Msg::SplitStart { node: NodeId(1) }.span(), None);
    }

    #[test]
    fn link_dir_classes_distinct() {
        assert_ne!(LinkDir::Right.class(), LinkDir::Parent.class());
    }
}

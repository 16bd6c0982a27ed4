//! The half-split engine (Fig 1), shared by every protocol.
//!
//! Splitting is always performed by the node's primary copy. The engine
//! covers the protocol-independent parts: constructing the sibling and its
//! copies, completing the split at the parent, and growing a new root. The
//! old right neighbour is told nothing: the one link a half-split sets is
//! the node's own right link, to the sibling, which inherits the old one.

use simnet::{Context, ProcId};

use crate::metrics::Ctr;
use crate::msg::{InstallReason, Msg, SplitInfo};
use crate::node::{Edge, NodeCopy, NodeSnapshot, Primary};
use crate::proc::DbProc;
use crate::types::{ChildRef, Entry, Key, KeyRange, Link, NodeId, ParentHint};

/// Everything the protocol layers need after the local half of a split.
pub(crate) struct SplitOutcome {
    /// Parameters to relay to the other copies.
    pub info: SplitInfo,
    /// The split node's level.
    pub level: u8,
    /// The split node's parent at split time (None = it was the root).
    pub parent: Option<Link>,
    /// The other copies of the split node and, same membership, of the
    /// sibling: each is owed one message, [`SplitOutcome::relay`]'s.
    pub peers: Vec<ProcId>,
    /// The sibling as those relays carry it, taken after the write that
    /// overfilled the node (`None` when there is no peer to tell).
    sibling: Option<Box<NodeSnapshot>>,
}

impl SplitOutcome {
    /// Hand every peer's split relay the sibling it creates there (§4.1.2):
    /// `relay(peer, sibling)` sends it, or owes it to the peer's relay slot.
    /// The last peer takes the snapshot.
    pub(crate) fn relay(&mut self, mut relay: impl FnMut(ProcId, Box<NodeSnapshot>)) {
        let (Some(sibling), Some((last, rest))) = (self.sibling.take(), self.peers.split_last())
        else {
            return;
        };
        for &p in rest {
            relay(p, sibling.clone());
        }
        relay(*last, sibling);
    }
}

impl DbProc {
    /// Perform the local half-split of `node` (which this processor is the
    /// PC of): move the upper half into a new sibling, install the sibling
    /// locally, and link it into the node list. Sends nothing: the other
    /// copies learn of the sibling from the split relay, which is
    /// protocol-specific, as is completing the split at the parent.
    pub(crate) fn half_split_local(&mut self, node: NodeId) -> SplitOutcome {
        let sib_id = self.store.mint_node_id(self.me);
        let me = self.me;

        let (info, sib, level, parent, peers) = {
            let copy = self.store.get_mut(node).expect("PC holds its copy");
            debug_assert_eq!(copy.primary.pc(), me, "only the PC splits");
            let hint = copy.parent;
            let level = copy.level;
            // §4.2/§4.3: the sibling starts one version past the half-split
            // node's. The node's own version is membership/migration state
            // and does not advance on a split.
            let sib_version = copy.primary.version() + 1;

            let info = SplitInfo {
                sep: copy.split_key(),
                sib: sib_id,
                sib_home: me,
                sib_version,
            };
            // The sibling inherits the bound and right link, and starts
            // from this node's hint — never right of it, and the first
            // descent a parent routes to it repairs it.
            let edge = Edge::new(0, copy.edge.high(), 0, copy.edge.right());
            let sib = NodeSnapshot {
                id: sib_id,
                level,
                low: info.sep,
                edge,
                entries: copy.apply_split(&info),
                parent: hint,
                primary: Primary::new(sib_version, me),
                members: copy.members.procs().map(|p| (p, 0)).collect(),
            }
            .into_copy();
            let peers: Vec<ProcId> = copy.members.peers(me).collect();
            (info, sib, level, hint.map(|h| h.link), peers)
        };

        // The PC records every copy of the sibling as created now; the
        // others come into being when the split relay lands.
        if let Some(mut log) = self.history() {
            for p in sib.members.procs() {
                log.copy_created(sib_id.raw(), p.0, []);
            }
        }
        let sibling = (!peers.is_empty()).then(|| Box::new(sib.snapshot()));
        self.store.install(sib);
        self.metrics.bump(Ctr::SplitsInitiated, 1);

        SplitOutcome {
            info,
            level,
            parent,
            peers,
            sibling,
        }
    }

    /// Non-PC copy, every protocol: a split relay creates the sibling here
    /// and shrinks `node`, in one atomic action. The sibling (`None` only
    /// when a stashed shrink is replayed) is installed whether or not `node`
    /// is resident: the PC counted this processor a member of both. Returns
    /// the entries the shrink discarded, `None` with no copy to shrink.
    pub(crate) fn apply_split_relay(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        info: &SplitInfo,
        sibling: Option<NodeSnapshot>,
        tag: u64,
    ) -> Option<usize> {
        // A sibling merged away while the relay was in flight is a zombie
        // (see `handle_install`).
        if let Some(sib) = sibling.filter(|s| !self.retired.contains_key(&s.id)) {
            let id = sib.id;
            self.store.install(sib.into_copy());
            self.unjoined.remove(&id);
            // Relays from the sibling's other copies may have raced ahead.
            self.replay_stash(ctx, id);
        }
        let discarded = self.store.get_mut(node)?.apply_split(info).len();
        self.observe(node, tag, history::ObserveKind::Applied);
        Some(discarded)
    }

    /// Complete a split: insert the sibling pointer into the parent, or grow
    /// a new root.
    pub(crate) fn complete_split(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        out: &SplitOutcome,
    ) {
        let sib_ref = ChildRef {
            node: out.info.sib,
            home: out.info.sib_home,
            version: out.info.sib_version,
        };
        match out.parent {
            Some(parent) => {
                let tag = self.issue_tag("add-child");
                let msg = Msg::InsertAt {
                    node: parent.node,
                    level: out.level + 1,
                    key: out.info.sep,
                    entry: Entry::Child(sib_ref),
                    tag,
                };
                if !self.store.contains(parent.node) {
                    // A message of its own: the split relays go first.
                    self.send_owed_splits(ctx);
                }
                self.send_to_node(ctx, parent.node, parent.home, msg);
            }
            None => self.grow_new_root(ctx, node, out.info.sep, sib_ref, out.level),
        }
    }

    /// Offer a new root — home `home`, version 0, and like every root
    /// starting at the bottom of the key space — to the local copies of its
    /// two children.
    pub(crate) fn reparent_under_root(
        &mut self,
        root: NodeId,
        home: ProcId,
        children: [NodeId; 2],
    ) {
        let low = self.store.get(root).map_or(0, |c| c.low);
        let hint = ParentHint {
            link: Link::new(root, home),
            low,
            version: 0,
        };
        for child in children {
            if let Some(copy) = self.store.get_mut(child) {
                hint.join_into(&mut copy.parent);
            }
        }
    }

    /// The split node was the root: create a new root one level up,
    /// replicated everywhere, and broadcast the root change.
    fn grow_new_root(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        old_root: NodeId,
        sep: Key,
        sib: ChildRef,
        old_level: u8,
    ) {
        let me = self.me;
        let root_id = self.store.mint_node_id(me);
        let level = old_level + 1;
        let low = self.store.get(old_root).map(|c| c.low).unwrap_or(0);

        let mut root = NodeCopy::new(root_id, level, KeyRange::new(low, None), me);
        root.members = (0..self.n_procs).map(|p| (ProcId(p), 0)).collect();
        root.upsert(
            low,
            Entry::Child(ChildRef {
                node: old_root,
                home: me,
                version: 0,
            }),
        );
        root.upsert(sep, Entry::Child(sib));

        if let Some(mut log) = self.history() {
            for p in root.members.procs() {
                log.copy_created(root_id.raw(), p.0, []);
            }
        }
        let snapshot = root.snapshot();
        // The old root's split relays go ahead of the new root.
        self.send_owed_splits(ctx);
        for p in self.all_other_procs().collect::<Vec<_>>() {
            ctx.send(
                p,
                Msg::InstallCopy {
                    snapshot: Box::new(snapshot.clone()),
                    reason: InstallReason::Bootstrap,
                    covered: Vec::new(),
                },
            );
            ctx.send(
                p,
                Msg::NewRoot {
                    root: root_id,
                    level,
                    home: me,
                    children: [old_root, sib.node],
                },
            );
        }
        self.store.install(root);
        self.store.set_root(root_id, level, me);
        self.reparent_under_root(root_id, me, [old_root, sib.node]);
    }
}

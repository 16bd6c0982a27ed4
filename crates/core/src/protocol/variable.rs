//! §4.3 — variable copies: processors join and unjoin the replication of
//! interior nodes as leaves migrate, preserving the dB-tree property (a
//! processor that owns a leaf holds every node on the root-to-leaf path).
//!
//! The PC registers all joins and unjoins, incrementing the node's version
//! for each; insert relays carry the version their sender knew, so the PC
//! can forward them to members that joined later (the Fig 6 fix; switched
//! off only by `SeededBug::NoJoinVersionRelay`).

use history::ObserveKind;
use simnet::{Context, ProcId};

use crate::msg::{InstallReason, Msg};
use crate::proc::DbProc;
use crate::types::{Key, Link, NodeId};

impl DbProc {
    /// After acquiring a leaf (or joining a node), make sure we replicate
    /// the rest of the path to the root — the path of `key`, the acquired
    /// leaf's low key. `parent` is only a hint: once the parent has split
    /// it names the left half, so the join is addressed by key like every
    /// navigable action. Resident copies are walked along their right links
    /// here; a copy that has to be fetched is checked against the key when
    /// its grant lands ([`Self::continue_path`]).
    pub(crate) fn ensure_path_replication(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        parent: Option<Link>,
        key: Key,
    ) {
        let Some(mut parent) = parent else {
            return; // reached the root
        };
        while let Some(copy) = self.store.get(parent.node) {
            if !copy.range.is_right_of(key) {
                return; // path already held from here up (dB-tree invariant)
            }
            let Some(right) = copy.right else {
                return; // a stale zombie: nothing to join through it
            };
            parent = right;
        }
        if !self.note_pending_join(parent.node, key) {
            return; // a join for this node is already in flight
        }
        // Clear the departed flag *now*: once the PC registers the join,
        // other members may relay updates to us ahead of the grant arriving
        // (different channels) — those must stash, not be discarded.
        self.unjoined.remove(&parent.node);
        ctx.send(
            parent.home,
            Msg::Join {
                node: parent.node,
                joiner: self.me,
            },
        );
    }

    /// A join grant for `node` landed: carry each leaf key the join was
    /// made for onward — up through the parent when the copy covers the
    /// key, sideways to the right neighbour when the node had split before
    /// the PC registered the join. A copy joined only on the strength of a
    /// stale hint holds none of our children and is left again.
    pub(crate) fn continue_path(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId, keys: &[Key]) {
        let Some(copy) = self.store.get(node) else {
            return;
        };
        let (range, right, parent) = (copy.range, copy.right, copy.parent_link());
        let mut misjoined = false;
        for &key in keys {
            if range.is_right_of(key) {
                misjoined = true;
                self.ensure_path_replication(ctx, right, key);
            } else {
                self.ensure_path_replication(ctx, parent, key);
            }
        }
        if misjoined && self.cfg.variable_copies {
            self.maybe_unjoin(ctx, node);
        }
    }

    /// PC: admit `joiner` to the replication of `node`.
    pub(crate) fn handle_join(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId, joiner: ProcId) {
        let me = self.me;
        let Some(copy) = self.store.get_mut(node) else {
            return; // stale join (e.g. the node's PC view was wrong): drop
        };
        debug_assert_eq!(copy.pc, me, "joins are registered at the PC");
        if copy.copies.contains(&joiner) {
            // Already a member (duplicate join from racing migrations):
            // resend the snapshot so the joiner converges.
            let snapshot = Box::new(copy.snapshot());
            let covered = self.copy_coverage(node);
            ctx.send(
                joiner,
                Msg::InstallCopy {
                    snapshot,
                    reason: InstallReason::JoinGrant,
                    covered,
                },
            );
            return;
        }
        copy.version += 1;
        let version = copy.version;
        copy.add_member(joiner, version);
        let snapshot = Box::new(copy.snapshot());
        let peers: Vec<ProcId> = copy.peers(me).filter(|&p| p != joiner).collect();

        let tag = self.issue_tag("join");
        let covered = self.history().map_or_else(Vec::new, |mut log| {
            log.observe_initial(node.raw(), me.0, tag);
            let covered = log.copy_coverage(node.raw(), me.0);
            log.copy_created(node.raw(), joiner.0, covered.clone());
            covered
        });
        ctx.send(
            joiner,
            Msg::InstallCopy {
                snapshot,
                reason: InstallReason::JoinGrant,
                covered,
            },
        );
        for p in peers {
            ctx.send(
                p,
                Msg::RelayedJoin {
                    node,
                    member: joiner,
                    version,
                    tag,
                },
            );
        }
    }

    /// Non-PC copy: learn about a new member.
    pub(crate) fn handle_relayed_join(
        &mut self,
        node: NodeId,
        member: ProcId,
        version: u64,
        tag: u64,
    ) {
        let Some(copy) = self.store.get_mut(node) else {
            if !self.unjoined.contains(&node) {
                self.stash.entry(node).or_default().push(Msg::RelayedJoin {
                    node,
                    member,
                    version,
                    tag,
                });
            }
            return;
        };
        copy.add_member(member, version);
        copy.version = copy.version.max(version);
        self.observe(node, tag, ObserveKind::Applied);
    }

    /// A member deletes its copy and leaves.
    pub(crate) fn handle_unjoin(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        leaver: ProcId,
    ) {
        let me = self.me;
        let Some(copy) = self.store.get_mut(node) else {
            return;
        };
        debug_assert_eq!(copy.pc, me, "unjoins are registered at the PC");
        if !copy.copies.contains(&leaver) {
            return;
        }
        copy.version += 1;
        let version = copy.version;
        copy.remove_member(leaver);
        let peers: Vec<ProcId> = copy.peers(me).collect();
        let tag = self.issue_tag("unjoin");
        self.observe_initial(node, tag);
        self.metrics.unjoins += 1;
        for p in peers {
            ctx.send(
                p,
                Msg::RelayedUnjoin {
                    node,
                    member: leaver,
                    version,
                    tag,
                },
            );
        }
    }

    /// Non-PC copy: learn about a departure.
    pub(crate) fn handle_relayed_unjoin(
        &mut self,
        node: NodeId,
        member: ProcId,
        version: u64,
        tag: u64,
    ) {
        let Some(copy) = self.store.get_mut(node) else {
            if !self.unjoined.contains(&node) {
                self.stash
                    .entry(node)
                    .or_default()
                    .push(Msg::RelayedUnjoin {
                        node,
                        member,
                        version,
                        tag,
                    });
            }
            return;
        };
        copy.remove_member(member);
        copy.version = copy.version.max(version);
        self.observe(node, tag, ObserveKind::Applied);
    }

    /// Leave `node`'s replication if this processor no longer holds any of
    /// its children (the dB-tree invariant in reverse), recursively upward.
    pub(crate) fn maybe_unjoin(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId) {
        let me = self.me;
        let (should_leave, pc, parent) = {
            let Some(copy) = self.store.get(node) else {
                return;
            };
            if copy.pc == me || copy.is_leaf() {
                return; // the PC never leaves; leaves are owned, not joined
            }
            // A child whose join is in flight counts: its grant is about to
            // make this copy part of a held path.
            let holds_child = copy.entries.values().any(|e| {
                e.child().is_some_and(|c| {
                    c.home == me
                        || self.store.contains(c.node)
                        || self.pending_joins.contains_key(&c.node)
                })
            });
            (!holds_child, copy.pc, copy.parent_link())
        };
        if !should_leave {
            return;
        }
        self.drop_copy(node);
        self.unjoined.insert(node);
        ctx.send(pc, Msg::Unjoin { node, leaver: me });
        // Losing this copy may strand the level above, too.
        if let Some(parent) = parent {
            self.maybe_unjoin(ctx, parent.node);
        }
    }
}

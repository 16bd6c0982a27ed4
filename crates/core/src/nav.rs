//! Navigation — the one B-link walk every key-addressed kind takes
//! ([`DbProc::walk`]) — and what the client-plane actions and the generic
//! initial insert (`InsertAt`) do where it ends.
//!
//! These are the straightforward distributed translations of the B-link tree
//! actions: every action is local to one node copy, misnavigation recovers
//! through the right link, and updates never block searches.

use simnet::{Context, ProcId};

use crate::config::{ProtocolKind, SeededBug};
use crate::metrics::Ctr;
use crate::msg::Msg;
use crate::proc::{CoordOp, DbProc, ReplyInfo};
use crate::types::{Entry, Intent, Key, Link, NodeId, OpId, Outcome, ParentHint, Stamp};

/// Entries a scan may still collect: `limit` minus what is already
/// accumulated, saturating at zero. The right-link continuation re-sends the
/// *original* limit with a pre-filled accumulator, so `collected` can equal
/// (or, with a duplicated continuation, exceed) `limit` — plain subtraction
/// would wrap.
pub(crate) fn scan_budget(limit: u32, collected: usize) -> usize {
    (limit as usize).saturating_sub(collected)
}

/// How a walk step re-addresses its message ([`Msg::readdress`]).
#[derive(Clone, Copy)]
pub(crate) enum Hop {
    /// Sideways or up along a link of the copy that could not route it.
    Chase,
    /// Down a child edge; the routing copy offers itself as the child's
    /// parent hint.
    Down(ParentHint),
    /// From the top again: at the root, or at a close local node.
    Restart,
}

impl DbProc {
    /// A client operation arrives at its origin processor: start descending
    /// from the local root.
    pub(crate) fn handle_client(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        op: OpId,
        key: Key,
        intent: Intent,
    ) {
        match self.store.root() {
            Some(root) => {
                let msg = Msg::Descend {
                    op,
                    key,
                    intent,
                    node: root,
                    hops: 0,
                    chases: 0,
                    via: None,
                };
                let home = self.store.root_home().unwrap_or(self.me);
                self.send_to_node(ctx, root, home, msg);
            }
            None => {
                // No tree yet — should not happen after bootstrap.
                self.reply(
                    ctx,
                    Outcome {
                        op,
                        found: None,
                        hops: 0,
                        chases: 0,
                    },
                );
            }
        }
    }

    /// A key-addressed kind was delivered, or continues in-process: one
    /// step of the walk and, where that arrives, the action itself.
    pub(crate) fn navigate(&mut self, ctx: &mut Context<'_, Msg>, msg: Msg) {
        let Some(msg) = self.walk(ctx, msg) else {
            return;
        };
        match msg {
            Msg::Descend {
                op,
                key,
                intent,
                node,
                hops,
                chases,
                ..
            } => {
                let at = ReplyInfo {
                    op,
                    hops: hops + 1,
                    chases,
                };
                self.handle_descend(ctx, node, key, intent, at)
            }
            Msg::Scan { .. } => self.handle_scan(ctx, msg),
            Msg::InsertAt {
                node,
                level,
                key,
                entry,
                tag,
            } => self.handle_insert_at(ctx, node, level, key, entry, tag),
            Msg::Absorb { node, info } => self.handle_absorb(ctx, node, info),
            Msg::LinkChange { .. } => self.handle_link_change(ctx, msg),
            _ => unreachable!("only an addressed kind navigates"),
        }
    }

    /// One step of the B-link walk (§1.1, §4.2), the same for every kind
    /// that [`Msg::address`]es a key at a level from a hinted node; DESIGN
    /// § "Run-to-remote navigation" has the steps and the table of what
    /// differs between the kinds. Returns the message only when it has
    /// *arrived*: its node is a resident, unlocked copy of its level whose
    /// range covers its key. Otherwise the step has been taken —
    /// re-addressed and sent on, queued behind the copy's lock, or
    /// restarted — and `None` comes back.
    ///
    /// `MergeReq` and an initial `ChildHomeChange` chase right along one
    /// level too, but answer a stale hint by declining or dropping, never
    /// by restarting: they are not this walk.
    pub(crate) fn walk(&mut self, ctx: &mut Context<'_, Msg>, mut msg: Msg) -> Option<Msg> {
        let (node, key, level) = msg.address().expect("only an addressed kind navigates");
        let Some(mut copy) = self.store.get(node) else {
            // §4.2 missing node. An `InsertAt` re-descends from the root
            // before it tries a forwarding address or anything local.
            let root_first = matches!(msg, Msg::InsertAt { .. });
            if root_first && self.store.root().is_some_and(|root| root != node) {
                self.restart_at_root(ctx, msg);
            } else {
                self.recover_missing_node(ctx, node, key, msg);
            }
            return None;
        };
        // Lazy repair of the advisory parent link: the copy that routed a
        // descent here is this node's parent as of now. Compared on the
        // shared borrow — a descent that teaches the copy nothing writes
        // nothing.
        if let Msg::Descend {
            via: Some(hint), ..
        } = &msg
        {
            if hint.outranks(copy.parent) {
                let repaired = self.store.get_mut(node).expect("resident above");
                hint.join_into(&mut repaired.parent);
                copy = repaired;
            }
        }
        // Available-copies: actions queue behind a locked copy.
        if copy.lock.is_some() {
            self.queue_behind_lock(ctx, node, msg);
            return None;
        }
        let (next, hop) = if copy.range().is_right_of(key) {
            (copy.edge.right(), Hop::Chase)
        } else if copy.range().is_left_of(key) {
            // Possible after a restart from an arbitrary local node, and
            // where a migrated node's right-link notice starts: climb.
            debug_assert!(
                !matches!(msg, Msg::InsertAt { .. }),
                "InsertAt routed left of its target range"
            );
            (copy.parent_link(), Hop::Chase)
        } else if copy.level > level {
            let edge = copy.child_for(key);
            let child = edge.map(|child| Link::new(child.node, child.home));
            (child, Hop::Down(copy.as_parent_hint()))
        } else {
            debug_assert_eq!(copy.level, level, "routed below its level");
            return Some(msg);
        };
        let Some(next) = next else {
            // The copy lacks a link it should have — a zombie outliving a
            // retirement it has not heard about, a copy left of the key with
            // no parent hint, an interior copy with no live edge at or below
            // the key (the leftmost child is never retired, so only
            // transiently): stale, restart from the root.
            self.restart_at_root(ctx, msg);
            return None;
        };
        match hop {
            Hop::Down(_) => {}
            _ if msg.is_read() => self.metrics.bump(Ctr::LinkChases, 1),
            _ => self.metrics.bump(Ctr::UpdateChases, 1),
        }
        msg.readdress(next.node, hop);
        self.send_to_node(ctx, next.node, next.home, msg);
        None
    }

    /// A descent has arrived at its leaf: perform the operation (`hops`
    /// counts this visit).
    pub(crate) fn handle_descend(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        key: Key,
        intent: Intent,
        at: ReplyInfo,
    ) {
        let ReplyInfo { op, hops, chases } = at;
        match intent {
            Intent::Search => {
                let copy = self.store.get(node).expect("arrived");
                let found = copy.get_value(key);
                self.reply(
                    ctx,
                    Outcome {
                        op,
                        found,
                        hops,
                        chases,
                    },
                );
            }
            Intent::Insert(_) | Intent::Delete => self.leaf_write(ctx, node, key, intent, at),
        }
    }

    /// Perform a client write (insert or tombstone delete) at a leaf copy —
    /// an *initial* update action in the paper's sense.
    fn leaf_write(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        key: Key,
        intent: Intent,
        at: ReplyInfo,
    ) {
        let ReplyInfo { op, hops, chases } = at;
        // The write as a step that can be taken again at this leaf.
        let again = |hops| Msg::Descend {
            op,
            key,
            intent,
            node,
            hops,
            chases,
            via: None,
        };
        if self.seeded(SeededBug::MergeWedgeGrants) && self.merge_pending.contains(&node) {
            // Seeded livelock: a merge is pending on this leaf and the grant
            // will never come, so the write parks forever — the client op
            // never completes. The liveness oracle counts these through
            // `DbProc::parked_write_count`.
            self.parked.push((ctx.now().ticks(), again(hops)));
            return;
        }
        let copy = self.store.get(node).expect("arrived");
        let replicated = copy.members.procs().len() > 1;
        let pc = copy.primary.pc();
        // Mint above the resident entry: it may carry another processor's
        // faster clock (the leaf migrated here, or a peer copy took the last
        // write), and `upsert` drops what does not outrank it.
        if let Some(resident) = copy.entries.get(&key).and_then(Entry::stamp) {
            self.stamp_counter = self.stamp_counter.max(Stamp::counter(resident));
        }
        let stamp = self.next_stamp();
        let entry = match intent {
            Intent::Insert(value) => Entry::Val { value, stamp },
            Intent::Delete => Entry::Tomb { stamp },
            Intent::Search => unreachable!("writes only"),
        };

        if self.cfg.protocol == ProtocolKind::AvailableCopies && replicated {
            if self.me != pc {
                // Writes go through the coordinator.
                ctx.send(pc, again(hops + 1));
                return;
            }
            let tag = self.issue_tag("leaf-write");
            self.coordinate(
                ctx,
                node,
                CoordOp::Insert {
                    key,
                    entry,
                    tag,
                    reply: Some(at),
                },
            );
            return;
        }

        // Sync protocol: the AAS blocks *initial* inserts.
        if self.block_if_aas(ctx, node, again(hops)) {
            return;
        }

        let copy = self.store.get_mut(node).expect("checked above");
        let version = copy.primary.version();
        let prev = copy.upsert(key, entry);
        let tag = self.issue_tag("leaf-write");
        self.observe_initial(node, tag);
        self.relay_update(ctx, node, key, entry, tag, version);
        self.reply(
            ctx,
            Outcome {
                op,
                found: prev.and_then(|e| e.value()),
                hops,
                chases,
            },
        );
        self.maybe_split(ctx, node);
        self.maybe_merge(ctx, node);
    }

    /// The generic initial insert action — split completions arriving at
    /// parents, semisync re-issues, rerouted deletes — has arrived at the
    /// copy of `level` covering `key` (`node` was only a hint).
    pub(crate) fn handle_insert_at(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        level: u8,
        key: Key,
        entry: Entry,
        tag: u64,
    ) {
        let remake = || Msg::InsertAt {
            node,
            level,
            key,
            entry,
            tag,
        };
        let copy = self.store.get(node).expect("arrived");
        let replicated = copy.members.procs().len() > 1;
        let pc = copy.primary.pc();
        if self.cfg.protocol == ProtocolKind::AvailableCopies && replicated {
            if self.me != pc {
                ctx.send(pc, remake());
                return;
            }
            self.coordinate(
                ctx,
                node,
                CoordOp::Insert {
                    key,
                    entry,
                    tag,
                    reply: None,
                },
            );
            return;
        }

        if self.block_if_aas(ctx, node, remake()) {
            return;
        }

        let copy = self.store.get_mut(node).expect("checked above");
        let version = copy.primary.version();
        copy.upsert(key, entry);
        if entry.child().is_some() {
            self.repair_split_halves(node, key);
        }
        self.observe_initial(node, tag);
        self.relay_update(ctx, node, key, entry, tag, version);
        self.maybe_split(ctx, node);
        // Rerouted deletes land here as initial inserts; a tombstone may
        // have emptied the leaf (no-op on interior nodes).
        self.maybe_merge(ctx, node);
    }

    /// A split completion just wrote the edge at `sep` into `parent`: the
    /// walk that brought it here has found the true parent of both halves,
    /// so whichever of them is resident learns it now — the other end of
    /// the lazy repair descents do on their way down. Both are edges of
    /// this copy, which is all a hint has to be true of.
    fn repair_split_halves(&mut self, parent: NodeId, sep: Key) {
        let copy = self.store.get(parent).expect("just written");
        let hint = copy.as_parent_hint();
        let mut edges = copy
            .entries
            .range(..=sep)
            .rev()
            .filter_map(|(_, e)| e.child());
        for half in [edges.next(), edges.next()].into_iter().flatten() {
            if let Some(child) = self.store.get_mut(half.node) {
                hint.join_into(&mut child.parent);
            }
        }
    }

    /// If the copy is mid-AAS and this is an initial insert, block it.
    /// Returns `true` if blocked.
    pub(crate) fn block_if_aas(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        msg: Msg,
    ) -> bool {
        let now = ctx.now().ticks();
        let Some(copy) = self.store.get_mut(node) else {
            return false;
        };
        if let Some(aas) = copy.aas.as_mut() {
            aas.blocked.push((now, msg));
            self.metrics.bump(Ctr::BlockedInitial, 1);
            true
        } else {
            false
        }
    }

    /// Queue an action behind an available-copies lock, stamped with the
    /// tick it started waiting at.
    pub(crate) fn queue_behind_lock(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId, msg: Msg) {
        let now = ctx.now().ticks();
        let copy = self.store.get_mut(node).expect("locked copy exists");
        copy.lock
            .as_mut()
            .expect("caller checked lock")
            .queued
            .push((now, msg));
        self.metrics.bump(Ctr::LockQueued, 1);
    }

    /// Split the node if it is overfull and this processor may initiate the
    /// split (it is the PC and no split is already in flight).
    pub(crate) fn maybe_split(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId) {
        let Some(copy) = self.store.get_mut(node) else {
            return;
        };
        if !copy.overfull(self.cfg.fanout) {
            return;
        }
        if !copy.is_leaf()
            && copy
                .entries
                .values()
                .filter(|e| e.child().is_some())
                .count()
                < 2
        {
            // Overfull only because retired children left tombstones:
            // separators must be live child keys, so there is nothing to
            // split around. Tolerate the overflow like a non-PC copy does.
            return;
        }
        if copy.primary.pc() != self.me {
            // Non-PC copies tolerate overflow (an implicit overflow bucket);
            // the PC will split once the relays reach it.
            return;
        }
        match self.cfg.protocol {
            ProtocolKind::Sync => self.start_sync_split(ctx, node),
            ProtocolKind::SemiSync => self.semisync_split(ctx, node),
            ProtocolKind::AvailableCopies => {
                let replicated = self
                    .store
                    .get(node)
                    .map(|c| c.members.procs().len() > 1)
                    .unwrap_or(false);
                if replicated {
                    self.coordinate(ctx, node, CoordOp::Split);
                } else {
                    // Sole copy: no lock needed.
                    self.semisync_split(ctx, node);
                }
            }
        }
    }

    /// §4.2 missing-node recovery: the message names a node this processor
    /// doesn't store. Follow a forwarding address if one exists, otherwise
    /// restart at the closest local node, otherwise punt to the root's home.
    pub(crate) fn recover_missing_node(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        key: Key,
        mut msg: Msg,
    ) {
        if let Some(fwd) = self.store.forward_for(node) {
            // A forward pointing at this processor (a retirement we
            // performed: the forward aims at the absorber's *home*, which
            // may be us) must fall through to a key-based restart, or the
            // message would loop back here forever.
            if fwd.to != self.me {
                self.metrics.bump(Ctr::ForwardsFollowed, 1);
                ctx.send(fwd.to, msg);
                return;
            }
        }
        self.metrics.bump(Ctr::MissingNodeRecoveries, 1);
        if let Some(local) = self.store.closest_for(key) {
            msg.readdress(local, Hop::Restart);
            self.requeue(ctx, msg);
            return;
        }
        // Nothing local to restart from: the root's home — unless that is
        // us, which can only be an empty store before bootstrap; drop rather
        // than self-loop.
        let home = self.store.root_home().unwrap_or(ProcId(0));
        if home != self.me {
            ctx.send(home, msg);
        }
    }

    /// Defensive restart for a navigable action whose local copy is too
    /// stale to route it: re-address it to the root, through the queue even
    /// when the root is resident ([`DbProc::requeue`]). Drops the action
    /// only when there is no root at all (pre-bootstrap).
    pub(crate) fn restart_at_root(&mut self, ctx: &mut Context<'_, Msg>, mut msg: Msg) {
        self.metrics.bump(Ctr::MissingNodeRecoveries, 1);
        let Some(root) = self.store.root() else {
            return;
        };
        msg.readdress(root, Hop::Restart);
        if self.store.contains(root) {
            self.requeue(ctx, msg);
        } else {
            ctx.send(self.store.root_home().unwrap_or(self.me), msg);
        }
    }

    /// Start a range scan at the local root.
    pub(crate) fn handle_client_scan(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        op: OpId,
        from: Key,
        limit: u32,
    ) {
        match self.store.root() {
            Some(root) => {
                let msg = Msg::Scan {
                    op,
                    key: from,
                    remaining: limit,
                    node: root,
                    acc: Vec::new(),
                    hops: 0,
                };
                let home = self.store.root_home().unwrap_or(self.me);
                self.send_to_node(ctx, root, home, msg);
            }
            None => ctx.send(
                ProcId::EXTERNAL,
                Msg::ScanResult {
                    op,
                    items: Vec::new(),
                    hops: 0,
                },
            ),
        }
    }

    /// A scan step has arrived at the leaf holding `key`: harvest its live
    /// entries, and continue along the right link until `remaining` entries
    /// are collected or the chain ends.
    ///
    /// Scans are pure read actions: like searches, they are never blocked by
    /// lazy updates — a half-split mid-scan is absorbed by the right link
    /// (the sibling holds the moved entries, and the link leads there).
    pub(crate) fn handle_scan(&mut self, ctx: &mut Context<'_, Msg>, scan: Msg) {
        let Msg::Scan {
            op,
            key,
            remaining,
            node,
            mut acc,
            hops,
        } = scan
        else {
            unreachable!("dispatched by kind");
        };
        let copy = self.store.get(node).expect("arrived");

        // At the right leaf: harvest live entries from `key` onward. The
        // budget and the termination check below share one saturating
        // helper — the continuation re-sends the original `remaining` with
        // a pre-filled `acc`, so the two must agree at the boundary.
        let mut left = scan_budget(remaining, acc.len());
        for (&k, e) in copy.entries.range(key..) {
            if left == 0 {
                break;
            }
            if let Some(v) = e.value() {
                acc.push((k, v));
                left -= 1;
            }
        }
        match (copy.edge.right(), copy.edge.high()) {
            (Some(right), Some(next_low)) if scan_budget(remaining, acc.len()) > 0 => {
                let msg = Msg::Scan {
                    op,
                    key: next_low,
                    remaining,
                    node: right.node,
                    acc,
                    hops: hops + 1,
                };
                self.send_to_node(ctx, right.node, right.home, msg);
            }
            _ => ctx.send(
                ProcId::EXTERNAL,
                Msg::ScanResult {
                    op,
                    items: acc,
                    hops: hops + 1,
                },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    // Navigation is exercised end-to-end through the cluster tests in
    // `tree.rs` and the integration suite; unit tests here cover the
    // smallest routable pieces via the public build/run API.
    use super::scan_budget;

    #[test]
    fn scan_budget_saturates_at_the_limit_boundary() {
        assert_eq!(scan_budget(5, 0), 5);
        assert_eq!(scan_budget(5, 3), 2);
        // The continuation re-sends the original limit with a full
        // accumulator: exactly at the boundary the budget is zero...
        assert_eq!(scan_budget(5, 5), 0);
        // ...and a duplicated continuation that overshot must not wrap.
        assert_eq!(scan_budget(5, 6), 0);
        assert_eq!(scan_budget(0, 0), 0);
    }
}

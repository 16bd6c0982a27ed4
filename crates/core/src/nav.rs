//! Navigation and the client-plane actions: descents, leaf operations, and
//! the generic initial-insert action (`InsertAt`).
//!
//! These are the straightforward distributed translations of the B-link tree
//! actions: every action is local to one node copy, misnavigation recovers
//! through the right link, and updates never block searches.

use simnet::{Context, ProcId};

use crate::config::{ProtocolKind, SeededBug};
use crate::msg::Msg;
use crate::proc::{CoordOp, DbProc, ReplyInfo};
use crate::types::{Entry, Intent, Key, NodeId, OpId, Outcome, ParentHint, Stamp};

/// Entries a scan may still collect: `limit` minus what is already
/// accumulated, saturating at zero. The right-link continuation re-sends the
/// *original* limit with a pre-filled accumulator, so `collected` can equal
/// (or, with a duplicated continuation, exceed) `limit` — plain subtraction
/// would wrap.
pub(crate) fn scan_budget(limit: u32, collected: usize) -> usize {
    (limit as usize).saturating_sub(collected)
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

    /// One descent action at one node copy.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_descend(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        op: OpId,
        key: Key,
        intent: Intent,
        node: NodeId,
        hops: u32,
        chases: u32,
        via: Option<ParentHint>,
    ) {
        // Addressed to this same node again (a forward, a lock queue) the
        // step keeps its hint; a step to another node names its own.
        let step = |node, hops, chases, via| Msg::Descend {
            op,
            key,
            intent,
            node,
            hops,
            chases,
            via,
        };
        let Some(mut copy) = self.store.get(node) else {
            let msg = step(node, hops, chases, via);
            self.recover_missing_node(ctx, node, key, msg);
            return;
        };
        // Lazy repair of the advisory parent link: the copy that routed us
        // here is this node's parent as of now. Compared on the shared
        // borrow — a descent that teaches the copy nothing writes nothing.
        if let Some(hint) = via.filter(|hint| hint.outranks(copy.parent)) {
            let repaired = self.store.get_mut(node).expect("resident above");
            hint.join_into(&mut repaired.parent);
            copy = repaired;
        }

        // Available-copies: actions queue behind a locked copy.
        if copy.lock.is_some() {
            let msg = step(node, hops, chases, via);
            self.queue_behind_lock(ctx, node, msg);
            return;
        }

        if copy.range.is_right_of(key) {
            let Some(right) = copy.right else {
                // A copy claiming the key is beyond its range with no right
                // link is stale (a zombie outliving a retirement it has not
                // heard about): restart from the root instead of panicking.
                self.restart_at_root(ctx, |root| step(root, hops + 1, chases + 1, None));
                return;
            };
            self.metrics.link_chases += 1;
            let msg = step(right.node, hops + 1, chases + 1, None);
            self.send_to_node(ctx, right.node, right.home, msg);
            return;
        }

        if copy.range.is_left_of(key) {
            // Possible after a missing-node restart from an arbitrary local
            // node: move left/up toward the key.
            let target = copy.left.or(copy.parent_link());
            match target {
                Some(link) => {
                    self.metrics.link_chases += 1;
                    let msg = step(link.node, hops + 1, chases + 1, None);
                    self.send_to_node(ctx, link.node, link.home, msg);
                }
                None => {
                    // At the root with key left of range: impossible (root
                    // covers [0, +inf)); defensively restart at the root.
                    let msg = step(node, hops + 1, chases + 1, via);
                    let home = self.store.root_home().unwrap_or(self.me);
                    ctx.send(home, msg);
                }
            }
            return;
        }

        if !copy.is_leaf() {
            let Some(child) = copy.child_for(key) else {
                // Every in-range key has a live floor child on a converged
                // interior copy (the leftmost child is never retired);
                // transient staleness restarts from the root.
                self.restart_at_root(ctx, |root| step(root, hops + 1, chases + 1, None));
                return;
            };
            // The routing copy offers itself as the child's parent hint.
            let msg = step(child.node, hops + 1, chases, Some(copy.as_parent_hint()));
            self.send_to_node(ctx, child.node, child.home, msg);
            return;
        }

        // At the leaf: perform the operation.
        match intent {
            Intent::Search => {
                let found = copy.get_value(key);
                self.reply(
                    ctx,
                    Outcome {
                        op,
                        found,
                        hops: hops + 1,
                        chases,
                    },
                );
            }
            Intent::Insert(_) | Intent::Delete => {
                self.leaf_write(ctx, node, op, key, intent, hops + 1, chases);
            }
        }
    }

    /// Perform a client write (insert or tombstone delete) at a leaf copy —
    /// an *initial* update action in the paper's sense.
    #[allow(clippy::too_many_arguments)]
    fn leaf_write(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        op: OpId,
        key: Key,
        intent: Intent,
        hops: u32,
        chases: u32,
    ) {
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
        let copy = self.store.get(node).expect("checked by caller");
        let replicated = copy.copies.len() > 1;
        let pc = copy.pc;
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
                    reply: Some(ReplyInfo { op, hops, chases }),
                },
            );
            return;
        }

        // Sync protocol: the AAS blocks *initial* inserts.
        if self.block_if_aas(ctx, node, again(hops)) {
            return;
        }

        let copy = self.store.get_mut(node).expect("checked above");
        let version = copy.version;
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

    /// The generic initial insert action: split completions arriving at
    /// parents, and semisync re-issues. Routes right when out of range and
    /// descends when the hinted node is above the target level (the `node`
    /// field is only a hint — `key` + `level` fully address the action).
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
        let Some(copy) = self.store.get(node) else {
            // Restart from the root: an InsertAt is fully addressed by
            // (key, level), so it can re-descend like a search.
            if let (Some(root), Some(home)) = (self.store.root(), self.store.root_home()) {
                if root != node {
                    self.metrics.missing_node_recoveries += 1;
                    let msg = Msg::InsertAt {
                        node: root,
                        level,
                        key,
                        entry,
                        tag,
                    };
                    self.restart_to_node(ctx, root, home, msg);
                    return;
                }
            }
            self.recover_missing_node(ctx, node, key, remake());
            return;
        };
        if copy.lock.is_some() {
            self.queue_behind_lock(ctx, node, remake());
            return;
        }
        if copy.range.is_right_of(key) {
            let Some(right) = copy.right else {
                // Stale zombie copy (see `handle_descend`): re-descend by
                // (key, level) from the root.
                self.restart_at_root(ctx, |root| Msg::InsertAt {
                    node: root,
                    level,
                    key,
                    entry,
                    tag,
                });
                return;
            };
            self.metrics.update_chases += 1;
            let msg = Msg::InsertAt {
                node: right.node,
                level,
                key,
                entry,
                tag,
            };
            self.send_to_node(ctx, right.node, right.home, msg);
            return;
        }
        debug_assert!(
            !copy.range.is_left_of(key),
            "InsertAt routed left of its target range"
        );
        if copy.level > level {
            // Stale hint above the target: descend toward the right level.
            let Some(child) = copy.child_for(key) else {
                self.restart_at_root(ctx, |root| Msg::InsertAt {
                    node: root,
                    level,
                    key,
                    entry,
                    tag,
                });
                return;
            };
            let msg = Msg::InsertAt {
                node: child.node,
                level,
                key,
                entry,
                tag,
            };
            self.send_to_node(ctx, child.node, child.home, msg);
            return;
        }
        debug_assert_eq!(copy.level, level, "InsertAt routed below its level");

        let replicated = copy.copies.len() > 1;
        let pc = copy.pc;
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
        let version = copy.version;
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
            self.metrics.blocked_initial += 1;
            true
        } else {
            false
        }
    }

    /// Queue an action behind an available-copies lock. The `ctx` is unused
    /// but kept so call sites read uniformly.
    pub(crate) fn queue_behind_lock(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId, msg: Msg) {
        let now = ctx.now().ticks();
        let copy = self.store.get_mut(node).expect("locked copy exists");
        copy.lock
            .as_mut()
            .expect("caller checked lock")
            .queued
            .push((now, msg));
        self.metrics.lock_queued += 1;
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
        if copy.pc != self.me {
            // Non-PC copies tolerate overflow (an implicit overflow bucket);
            // the PC will split once the relays reach it.
            return;
        }
        match self.cfg.protocol {
            ProtocolKind::Sync => self.start_sync_split(ctx, node),
            ProtocolKind::SemiSync | ProtocolKind::Naive => self.semisync_split(ctx, node),
            ProtocolKind::AvailableCopies => {
                let replicated = self
                    .store
                    .get(node)
                    .map(|c| c.copies.len() > 1)
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
        msg: Msg,
    ) {
        if let Some(fwd) = self.store.forward_for(node) {
            // A forward pointing at this processor (a retirement we
            // performed: the forward aims at the absorber's *home*, which
            // may be us) must fall through to a key-based restart, or the
            // message would loop back here forever.
            if fwd.to != self.me {
                self.metrics.forwards_followed += 1;
                ctx.send(fwd.to, msg);
                return;
            }
        }
        self.metrics.missing_node_recoveries += 1;
        match self.store.closest_for(key) {
            Some(local) if local != node => {
                // Restart the action at a close local node: rewrite the
                // target. Only navigable actions can restart; others are
                // re-addressed to the root's home.
                match msg {
                    Msg::Descend {
                        op,
                        key,
                        intent,
                        hops,
                        chases,
                        ..
                    } => self.requeue(
                        ctx,
                        Msg::Descend {
                            op,
                            key,
                            intent,
                            node: local,
                            hops: hops + 1,
                            chases: chases + 1,
                            via: None,
                        },
                    ),
                    Msg::Scan {
                        op,
                        key,
                        remaining,
                        acc,
                        hops,
                        ..
                    } => self.requeue(
                        ctx,
                        Msg::Scan {
                            op,
                            key,
                            remaining,
                            node: local,
                            acc,
                            hops: hops + 1,
                        },
                    ),
                    // An absorb is fully addressed by `info.low` (it targets
                    // the leaf owning `low - 1`); restart it locally too.
                    Msg::Absorb { info, .. } => {
                        self.requeue(ctx, Msg::Absorb { node: local, info })
                    }
                    other => {
                        let home = self.store.root_home().unwrap_or(self.me);
                        if home == self.me {
                            // We are the root's home and the action is not
                            // key-restartable: drop rather than self-loop.
                            return;
                        }
                        ctx.send(home, other);
                    }
                }
            }
            _ => {
                let home = self.store.root_home().unwrap_or(ProcId(0));
                if home == self.me {
                    // Nothing local to restart from and we *are* the root
                    // home: drop to avoid a self-loop (can only happen on an
                    // empty store, i.e. before bootstrap).
                    return;
                }
                ctx.send(home, msg);
            }
        }
    }

    /// Defensive restart for a navigable action whose local copy is too
    /// stale to route it (a zombie surviving a retirement it has not heard
    /// about): re-address it to the root, through the queue even when the
    /// root is resident ([`DbProc::requeue`]). Drops the action only when
    /// there is no root at all (pre-bootstrap).
    pub(crate) fn restart_at_root(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        rewrite: impl FnOnce(NodeId) -> Msg,
    ) {
        self.metrics.missing_node_recoveries += 1;
        let Some(root) = self.store.root() else {
            return;
        };
        let home = self.store.root_home().unwrap_or(self.me);
        let msg = rewrite(root);
        self.restart_to_node(ctx, root, home, msg);
    }
}

impl DbProc {
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

    /// One scan step: descend to the leaf holding `key`, harvest its live
    /// entries, and continue along the right link until `remaining` entries
    /// are collected or the chain ends.
    ///
    /// Scans are pure read actions: like searches, they are never blocked by
    /// lazy updates — a half-split mid-scan is absorbed by the right link
    /// (the sibling holds the moved entries, and the link leads there).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_scan(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        op: OpId,
        key: Key,
        remaining: u32,
        node: NodeId,
        mut acc: Vec<(Key, crate::types::Value)>,
        hops: u32,
    ) {
        let remake = |acc: Vec<(Key, crate::types::Value)>, hops| Msg::Scan {
            op,
            key,
            remaining,
            node,
            acc,
            hops,
        };
        let Some(copy) = self.store.get(node) else {
            let msg = remake(acc, hops);
            self.recover_missing_node(ctx, node, key, msg);
            return;
        };
        if copy.lock.is_some() {
            let msg = remake(acc, hops);
            self.queue_behind_lock(ctx, node, msg);
            return;
        }
        if copy.range.is_right_of(key) {
            let Some(right) = copy.right else {
                // Stale zombie copy (see `handle_descend`): a merge retired
                // this node's neighbourhood out from under it. Restart from
                // the root — scans are addressed by `key` like searches.
                self.restart_at_root(ctx, |root| Msg::Scan {
                    op,
                    key,
                    remaining,
                    node: root,
                    acc,
                    hops: hops + 1,
                });
                return;
            };
            self.metrics.link_chases += 1;
            let msg = Msg::Scan {
                op,
                key,
                remaining,
                node: right.node,
                acc,
                hops: hops + 1,
            };
            self.send_to_node(ctx, right.node, right.home, msg);
            return;
        }
        if copy.range.is_left_of(key) {
            let target = copy.left.or(copy.parent_link());
            if let Some(link) = target {
                self.metrics.link_chases += 1;
                let msg = Msg::Scan {
                    op,
                    key,
                    remaining,
                    node: link.node,
                    acc,
                    hops: hops + 1,
                };
                self.send_to_node(ctx, link.node, link.home, msg);
            } else {
                let home = self.store.root_home().unwrap_or(self.me);
                ctx.send(home, remake(acc, hops + 1));
            }
            return;
        }
        if !copy.is_leaf() {
            let Some(child) = copy.child_for(key) else {
                // Same audit as the right-link chase above: a retired-child
                // tombstone should always have a live child to its left, but
                // a stale copy restarts from the root instead of panicking.
                self.restart_at_root(ctx, |root| Msg::Scan {
                    op,
                    key,
                    remaining,
                    node: root,
                    acc,
                    hops: hops + 1,
                });
                return;
            };
            let msg = Msg::Scan {
                op,
                key,
                remaining,
                node: child.node,
                acc,
                hops: hops + 1,
            };
            self.send_to_node(ctx, child.node, child.home, msg);
            return;
        }

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
        let next = copy.right;
        let next_low = copy.range.high;
        if scan_budget(remaining, acc.len()) == 0 || next.is_none() || next_low.is_none() {
            ctx.send(
                ProcId::EXTERNAL,
                Msg::ScanResult {
                    op,
                    items: acc,
                    hops: hops + 1,
                },
            );
            return;
        }
        let right = next.expect("checked");
        let msg = Msg::Scan {
            op,
            key: next_low.expect("checked"),
            remaining,
            node: right.node,
            acc,
            hops: hops + 1,
        };
        self.send_to_node(ctx, right.node, right.home, msg);
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

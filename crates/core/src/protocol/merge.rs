//! Lazy merge-at-empty: reclaiming leaves that deletes emptied.
//!
//! The paper stops at "merging is not considered" ([11] leaves nodes in
//! place forever); this module adds the missing action family with the same
//! lazy discipline the half-split uses, inverted:
//!
//! * **Grant-then-commit.** The empty leaf's PC asks the *parent's* PC for
//!   permission ([`Msg::MergeReq`]). The parent verifies — the child edge is
//!   still present at the separator and a *live* left sibling exists under
//!   the same parent — and answers [`Msg::MergeGrant`] naming that sibling,
//!   or [`Msg::MergeDecline`]. The grant is advisory: the child's PC
//!   re-verifies emptiness at commit time, because any number of client
//!   inserts can race the round trip. ([`SeededBug::MergeNoReverify`]
//!   skips exactly that re-check, recreating the Naive protocol's
//!   check-then-act bug for the explorer to catch.)
//! * **Retire, don't redistribute.** The commit deletes the copy, leaves a
//!   forwarding address, and hands the emptied range to the left sibling in
//!   one [`Msg::Absorb`] — the mirror image of a half-split, and with the
//!   mirrored link invariant: the absorber's right link jumps *over* the
//!   retired node, and nothing else names it. A search or scan that still
//!   reaches the retired node chases the forward (or restarts at the root),
//!   exactly as it would chase a half-split's right link.
//! * **The parent edge dies lazily.** Retiring the `sep → child` entry is a
//!   plain stamped tombstone through the ordinary [`Msg::InsertAt`]
//!   machinery, so it inherits right-routing, relaying, and late-joiner
//!   re-relays for free. Update stamps dwarf child versions in the order
//!   [`Entries::join`](crate::Entries::join) keeps, so the tombstone permanently
//!   shadows the retired edge — a node reborn at the same separator is a
//!   *new* node reached through its left sibling's right link, never through
//!   the stale slot.
//!
//! Why retirement commutes with half-splits: both families write one
//! register, the node's [`Edge`](crate::Edge), whose join orders the right
//! link and bound by `(absorb epoch, narrowness, link version)` — a total
//! order ([`Msg::RelayedAbsorb`] carries the epoch), so copies converge no
//! matter how split and absorb relays interleave.

use history::ObserveKind;
use simnet::{Context, ProcId};

use crate::config::SeededBug;
use crate::metrics::Ctr;
use crate::msg::{AbsorbInfo, Msg};
use crate::proc::DbProc;
use crate::store::ForwardAddr;
use crate::types::{Entry, Key, Link, NodeId};

impl DbProc {
    /// Opportunistic merge check, called wherever a tombstone may have just
    /// emptied a leaf (leaf writes, relayed inserts, rerouted inserts,
    /// anti-entropy merges, and absorbs themselves — cascades).
    pub(crate) fn maybe_merge(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId) {
        if !self.cfg.merge_at_empty {
            return;
        }
        let me = self.me;
        let (low, parent) = {
            let Some(copy) = self.store.get(node) else {
                return;
            };
            // Only the PC of a quiescent leaf initiates; interior nodes
            // shrink by losing child edges, never by merging themselves.
            if !copy.is_leaf() || copy.primary.pc() != me {
                return;
            }
            if copy.aas.is_some() || copy.lock.is_some() || copy.split_pending {
                return;
            }
            // The leftmost leaf has no left sibling to absorb its range;
            // parents decline leftmost children anyway, so skip the round
            // trip.
            if copy.low == 0 {
                return;
            }
            let Some(parent) = copy.parent_link() else {
                return;
            };
            if copy
                .entries
                .values()
                .any(|e| !matches!(e, Entry::Tomb { .. }))
            {
                return;
            }
            (copy.low, parent)
        };
        // One request in flight per node; the decline/grant clears it.
        if !self.merge_pending.insert(node) {
            return;
        }
        self.metrics.bump(Ctr::MergesRequested, 1);
        let msg = Msg::MergeReq {
            node: parent.node,
            child: node,
            low,
            reply_to: me,
        };
        self.send_to_node(ctx, parent.node, parent.home, msg);
    }

    /// The parent side of the grant: verify the edge and name the live left
    /// sibling. Read-only — the parent commits nothing; its edge dies later
    /// via the retire tombstone, which re-verifies nothing because the LWW
    /// stamp makes it unconditionally safe.
    pub(crate) fn handle_merge_req(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        child: NodeId,
        low: Key,
        reply_to: ProcId,
    ) {
        if self.seeded(SeededBug::MergeWedgeGrants) {
            // Seeded livelock: swallow the request.
            // The requester's `merge_pending` bit never clears and any leaf
            // writes it parks stay parked — the liveness oracle's prey.
            return;
        }
        let Some(copy) = self.store.get(node) else {
            // Parent hint went stale (migrated or itself retired). Declining
            // is always safe: merging is pure opportunism.
            ctx.send(reply_to, Msg::MergeDecline { child });
            return;
        };
        if copy.is_leaf() {
            ctx.send(reply_to, Msg::MergeDecline { child });
            return;
        }
        if copy.range().is_right_of(low) {
            // The parent split; the edge lives in a right sibling now.
            match copy.edge.right() {
                Some(right) => {
                    self.metrics.bump(Ctr::UpdateChases, 1);
                    let msg = Msg::MergeReq {
                        node: right.node,
                        child,
                        low,
                        reply_to,
                    };
                    self.send_to_node(ctx, right.node, right.home, msg);
                }
                None => ctx.send(reply_to, Msg::MergeDecline { child }),
            }
            return;
        }
        if copy.range().is_left_of(low) {
            ctx.send(reply_to, Msg::MergeDecline { child });
            return;
        }
        if copy.primary.pc() != self.me {
            // Grants come from the parent's PC, whose entry map is the most
            // settled view of the child edges.
            let pc = copy.primary.pc();
            ctx.send(
                pc,
                Msg::MergeReq {
                    node,
                    child,
                    low,
                    reply_to,
                },
            );
            return;
        }
        if copy.aas.is_some() || copy.lock.is_some() {
            // Don't thread a merge through a parent mid-split.
            self.metrics.bump(Ctr::MergesDeclined, 1);
            ctx.send(reply_to, Msg::MergeDecline { child });
            return;
        }
        let edge_ok = copy
            .entries
            .get(&low)
            .and_then(Entry::child)
            .is_some_and(|c| c.node == child);
        // The nearest *live* child edge strictly left of the separator. If
        // none exists the requester is (now) the leftmost child here, and
        // leftmost children are never granted: the interior node keeps at
        // least one live child, and every absorber lies strictly left.
        let left = copy.entries.range(..low).rev().find_map(|(_, e)| e.child());
        match (edge_ok, left) {
            (true, Some(lc)) => {
                let left = Link::new(lc.node, lc.home);
                ctx.send(reply_to, Msg::MergeGrant { child, left });
            }
            _ => {
                self.metrics.bump(Ctr::MergesDeclined, 1);
                ctx.send(reply_to, Msg::MergeDecline { child });
            }
        }
    }

    /// The parent said no (or a routing dead-end did). Clear the in-flight
    /// bit; the next tombstone that lands re-triggers [`Self::maybe_merge`].
    pub(crate) fn handle_merge_decline(&mut self, child: NodeId) {
        self.merge_pending.remove(&child);
    }

    /// The commit half: re-verify, then atomically retire the local copy,
    /// notify the other copies, hand the range to the left sibling, and
    /// tombstone the parent edge.
    pub(crate) fn handle_merge_grant(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        child: NodeId,
        left: Link,
    ) {
        self.merge_pending.remove(&child);
        let me = self.me;
        // Re-verify at commit time: the grant crossed a full round trip and
        // any client insert may have raced it. `MergeNoReverify` skips only
        // the emptiness re-check — the injected bug under study — never the
        // structural ones.
        let ok = match self.store.get(child) {
            Some(c) => {
                c.primary.pc() == me
                    && c.is_leaf()
                    && c.aas.is_none()
                    && c.lock.is_none()
                    && !c.split_pending
                    && (self.seeded(SeededBug::MergeNoReverify)
                        || c.entries.values().all(|e| matches!(e, Entry::Tomb { .. })))
            }
            None => false,
        };
        if !ok {
            self.metrics.bump(Ctr::MergesDeclined, 1);
            return;
        }
        let (low, parent, peers, info, version) = {
            let copy = self.store.get(child).expect("verified above");
            // Carry the tombstones (and only them — the re-verify just
            // guaranteed nothing else exists). Under `MergeNoReverify` that
            // guarantee is assumed rather than checked, so a client insert
            // that raced the grant round-trip dies here with the node: the
            // check-then-act bug the explorer exists to catch.
            let entries: Vec<(Key, Entry)> = copy
                .entries
                .iter()
                .filter(|(_, e)| matches!(e, Entry::Tomb { .. }))
                .map(|(k, e)| (*k, *e))
                .collect();
            let info = AbsorbInfo {
                low: copy.low,
                high: copy.edge.high(),
                right: copy.edge.right(),
                right_link_version: copy.edge.link_version(),
                entries,
                tag: 0, // issued below, outside the borrow
            };
            let peers: Vec<ProcId> = copy.members.peers(me).collect();
            (
                copy.low,
                copy.parent_link(),
                peers,
                info,
                copy.primary.version(),
            )
        };
        let info = AbsorbInfo {
            tag: self.issue_tag("absorb"),
            ..info
        };

        // Atomic local retirement: the copy dies, the slot frees, and both
        // the retirement and its forwarding address go to stable storage
        // (they survive restarts — a zombie chain must never re-tile the
        // leaf chain).
        self.drop_copy(child);
        self.retired.insert(child, left);
        self.unjoined.insert(child);
        self.store.set_forward(
            child,
            ForwardAddr {
                to: left.home,
                version: version + 1,
                created_at: ctx.now().ticks(),
            },
        );
        self.metrics.bump(Ctr::MergesCompleted, 1);

        // Tell the other copies (quarantined peers get the notice from the
        // rehabilitation push instead — `push_sync` answers for retired
        // nodes with the same message).
        for peer in peers {
            if !self.suppress_if_quarantined(peer, child) {
                ctx.send(peer, Msg::RelayedRetire { node: child, left });
            }
        }
        // Anything stashed for the dead node can never be replayed by an
        // install; reroute it now.
        self.reroute_retired_stash(ctx, child, left);

        // Hand the emptied range (and its tombstones — they still shadow
        // older values at the absorber) to the left sibling.
        let msg = Msg::Absorb {
            node: left.node,
            info,
        };
        self.send_to_node(ctx, left.node, left.home, msg);

        // Retire the parent edge: a stamped tombstone through the ordinary
        // insert machinery (level 1 = parent of a leaf). Stamps dwarf child
        // versions, so the edge can never resurface.
        let stamp = self.next_stamp();
        if let Some(parent) = parent {
            let tag = self.issue_tag("retire-child");
            let msg = Msg::InsertAt {
                node: parent.node,
                level: 1,
                key: low,
                entry: Entry::Tomb { stamp },
                tag,
            };
            self.send_to_node(ctx, parent.node, parent.home, msg);
        }
    }

    /// A peer copy learns of the retirement: drop the copy, remember the
    /// absorber, and reroute any relays stranded in the stash.
    pub(crate) fn handle_relayed_retire(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        left: Link,
    ) {
        self.retired.insert(node, left);
        self.unjoined.insert(node);
        self.pending_joins.remove(&node);
        if self.drop_copy(node).is_some() {
            self.metrics.bump(Ctr::RetiresApplied, 1);
        }
        self.store.set_forward(
            node,
            ForwardAddr {
                to: left.home,
                version: 0,
                created_at: ctx.now().ticks(),
            },
        );
        self.reroute_retired_stash(ctx, node, left);
    }

    /// Relays stashed for a now-retired node (they raced an install that
    /// will never come). Inserts are rewritten toward the absorber — they
    /// were applied and possibly client-acknowledged at a live copy, so they
    /// must not be dropped. Splits and absorbs *of the dead node* are moot:
    /// the state they describe died with it.
    fn reroute_retired_stash(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId, left: Link) {
        let Some(items) = self.stash.remove(&node) else {
            return;
        };
        for m in items {
            match m {
                Msg::RelayedInsert {
                    key, entry, tag, ..
                } => {
                    self.metrics.bump(Ctr::RelaysRerouted, 1);
                    let msg = Msg::InsertAt {
                        node: left.node,
                        level: 0,
                        key,
                        entry,
                        tag,
                    };
                    self.send_to_node(ctx, left.node, left.home, msg);
                }
                _ => {
                    self.metrics.bump(Ctr::RelaysDiscarded, 1);
                }
            }
        }
    }

    /// An absorb has arrived at the leaf that owns `low - 1` — the walk
    /// lands it no matter how many splits, migrations or further merges
    /// raced it: apply it there.
    pub(crate) fn handle_absorb(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        info: AbsorbInfo,
    ) {
        let copy = self.store.get(node).expect("arrived");
        // The leaf chain tiles, so the leaf left of a retired `[low, high)`
        // has `high == Some(low)` — unless this absorb already applied (a
        // recovery restart can fork the message), in which case the bound
        // moved past `low`: drop the duplicate.
        if copy.edge.high() != Some(info.low) {
            return;
        }
        if copy.primary.pc() != self.me {
            // Initial absorbs apply at the PC, which relays them.
            let pc = copy.primary.pc();
            ctx.send(pc, Msg::Absorb { node, info });
            return;
        }
        if self.block_if_aas(
            ctx,
            node,
            Msg::Absorb {
                node,
                info: info.clone(),
            },
        ) {
            return;
        }
        self.apply_absorb_initial(ctx, node, info);
    }

    /// Apply an absorb at the absorber's PC: widen the range, splice the
    /// right link over the dead node, and relay to peers.
    fn apply_absorb_initial(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId, info: AbsorbInfo) {
        let me = self.me;
        let (count, peers) = {
            let copy = self.store.get_mut(node).expect("caller ensured resident");
            let count = copy.edge.absorbs() + 1;
            copy.apply_absorb(&info, count);
            (count, copy.members.peers(me).collect::<Vec<_>>())
        };
        self.metrics.bump(Ctr::AbsorbsApplied, 1);
        if let Some(mut log) = self.history() {
            log.observe_initial(node.raw(), me.0, info.tag);
            log.ordered_applied(node.raw(), me.0, "absorb", count.into());
        }
        for peer in peers {
            if !self.suppress_if_quarantined(peer, node) {
                ctx.send(
                    peer,
                    Msg::RelayedAbsorb {
                        node,
                        info: info.clone(),
                        count,
                    },
                );
            }
        }
        // The absorbed tombstones may warrant a cascade (the absorber may
        // itself now be all-tomb), and in principle the widened entry map
        // could be overfull.
        self.maybe_split(ctx, node);
        self.maybe_merge(ctx, node);
    }

    /// A peer copy of the absorber applies the relayed absorb, ordered by
    /// the absorb epoch — exactly once, in issue order.
    pub(crate) fn handle_relayed_absorb(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        info: AbsorbInfo,
        count: u64,
    ) {
        let me = self.me;
        let Some(copy) = self.store.get_mut(node) else {
            if self.retired.contains_key(&node) || self.unjoined.contains(&node) {
                self.metrics.bump(Ctr::RelaysDiscarded, 1);
            } else {
                // Install in flight: replay on arrival.
                self.stash
                    .entry(node)
                    .or_default()
                    .push(Msg::RelayedAbsorb { node, info, count });
            }
            return;
        };
        if copy.edge.absorbs() >= count {
            // Duplicate: an anti-entropy snapshot already carried this
            // epoch.
            self.metrics.bump(Ctr::RelaysDiscarded, 1);
            self.observe(node, info.tag, ObserveKind::Discarded);
            return;
        }
        if copy.edge.absorbs() == count - 1 && copy.edge.high() == Some(info.low) {
            copy.apply_absorb(&info, count);
            self.metrics.bump(Ctr::AbsorbsApplied, 1);
            if let Some(mut log) = self.history() {
                log.observe(node.raw(), me.0, info.tag, ObserveKind::Applied);
                log.ordered_applied(node.raw(), me.0, "absorb", count.into());
            }
            // Relays sent under this epoch may have overtaken the absorb.
            self.replay_stash(ctx, node);
            return;
        }
        // An epoch gap (an earlier relay was suppressed, or this copy was
        // synced sideways past an intermediate state). One anti-entropy pull
        // heals it: the snapshot's merge is ordered by the same epoch.
        let pc = copy.primary.pc();
        self.metrics.bump(Ctr::RelaysDiscarded, 1);
        self.observe(node, info.tag, ObserveKind::Discarded);
        if pc != me {
            ctx.send(pc, Msg::SyncReq { node });
        }
    }
}

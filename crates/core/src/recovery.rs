//! Self-healing (§4.3, automated): failure-detector quarantine and
//! state-based anti-entropy catch-up.
//!
//! The session layer's failure detector is advisory — safety never depends
//! on it — but acting on its transitions removes the two costs a crashed
//! peer otherwise imposes:
//!
//! * **Quarantine.** Relays addressed to a suspect would sit in the
//!   session's retransmit queue burning timers and, eventually, aborting
//!   the channel. Instead [`DbProc`] suppresses them and records *which
//!   node* the suspect missed (one bit per node, not one entry per relay —
//!   the state merge subsumes any number of missed updates).
//! * **Catch-up.** When a suspect is heard from again, each missed node is
//!   pushed as one [`Msg::SyncState`] snapshot. Independently, a restarting
//!   processor *pulls* a sync for every copy its stable store retained
//!   ([`Msg::SyncReq`]). Both directions land in
//!   [`NodeSnapshot::merge_from`](crate::NodeSnapshot::merge_from), a
//!   join-semilattice merge, so duplicated, reordered, or crossed syncs all
//!   converge.
//!
//! Snapshots carry the sender's history-tag coverage, the same way join
//! grants do: the checker's per-copy completeness requirement is met by the
//! merged state's *coverage*, not by replaying each suppressed relay.

use simnet::{Context, ProcId, TraceEvent};

use crate::metrics::Ctr;
use crate::msg::Msg;
use crate::proc::DbProc;
use crate::types::NodeId;

impl DbProc {
    /// React to a failure-detector transition: quarantine a fresh suspect,
    /// or rehabilitate one that was heard from again and push it whatever
    /// state it missed.
    pub(crate) fn handle_peer_change(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        peer: ProcId,
        up: bool,
    ) {
        if !up {
            if self.quarantined.insert(peer) {
                self.metrics.bump(Ctr::Quarantines, 1);
                ctx.mark(
                    TraceEvent::Quarantine,
                    "recovery.quarantine",
                    format!("{peer}"),
                );
            }
            return;
        }
        self.quarantined.remove(&peer);
        if let Some(nodes) = self.missed.remove(&peer) {
            for node in nodes {
                self.push_sync(ctx, peer, node);
            }
        }
    }

    /// Send one full-state sync for `node` to `peer`, if we still hold a
    /// copy (we may have unjoined or migrated it away in the meantime). A
    /// node we *retired* gets a retirement notice instead: the peer is
    /// holding a zombie copy (a stale restart survivor or a quarantine
    /// straggler) that must die, or it would tile the leaf chain twice.
    pub(crate) fn push_sync(&mut self, ctx: &mut Context<'_, Msg>, peer: ProcId, node: NodeId) {
        let Some(copy) = self.store.get(node) else {
            if let Some(&left) = self.retired.get(&node) {
                ctx.send(peer, Msg::RelayedRetire { node, left });
            }
            return;
        };
        let snapshot = Box::new(copy.snapshot());
        let covered = self.copy_coverage(node);
        self.metrics.bump(Ctr::SyncPushes, 1);
        ctx.send(
            peer,
            Msg::SyncState {
                node,
                snapshot,
                covered,
            },
        );
    }

    /// A peer asks for our state of `node` (restart catch-up pull). Not
    /// holding a copy is normal — the requester asks one peer per node and
    /// membership may have moved on — and is silently ignored.
    pub(crate) fn handle_sync_req(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcId,
        node: NodeId,
    ) {
        self.push_sync(ctx, from, node);
    }

    /// Merge an anti-entropy snapshot into the local copy.
    ///
    /// Unsolicited state never *installs* a copy: a missing copy is either
    /// unjoined (§4.3 — strays must stay dead) or mid-rejoin through the
    /// join protocol, whose grant carries the authoritative snapshot.
    pub(crate) fn handle_sync_state(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        snapshot: crate::node::NodeSnapshot,
        covered: Vec<u64>,
    ) {
        let Some(copy) = self.store.get_mut(node) else {
            return;
        };
        if copy.merge_from(&snapshot) {
            self.metrics.bump(Ctr::SyncMerges, 1);
        }
        // The snapshot's coverage becomes part of this copy's backwards
        // extension, exactly as a join grant's would.
        if let Some(mut log) = self.history() {
            log.copy_created(node.raw(), self.me.0, covered);
        }
        // The merge may have advanced the absorb epoch relays were held on.
        self.replay_stash(ctx, node);
        let is_pc = self.store.get(node).map(|c| c.primary.pc()) == Some(self.me);
        if is_pc {
            // Merged-in entries may have pushed the copy over the fanout —
            // or merged-in tombstones may have emptied the leaf.
            self.maybe_split(ctx, node);
            self.maybe_merge(ctx, node);
        }
    }

    /// Restart catch-up (the pull half): ask one peer per retained copy for
    /// its current state. Runs after the §4.3 rejoin pass dropped volatile
    /// interior copies, so the store holds exactly the stable set — leaves
    /// and own-PC copies — which the session's retransmissions alone may
    /// leave stale (peers that quarantined us stopped relaying entirely).
    pub(crate) fn sync_pull_all(&mut self, ctx: &mut Context<'_, Msg>) {
        let me = self.me;
        let mut pulls: Vec<(NodeId, ProcId)> = self
            .store
            .iter()
            .filter_map(|c| {
                let peer = if c.primary.pc() != me {
                    Some(c.primary.pc())
                } else {
                    c.members.peers(me).min()
                };
                peer.map(|p| (c.id, p))
            })
            .collect();
        // Store iteration is hash-ordered; sends must replay identically.
        pulls.sort_unstable();
        for (node, peer) in pulls {
            self.metrics.bump(Ctr::SyncPulls, 1);
            ctx.send(peer, Msg::SyncReq { node });
        }
    }

    /// Restart handling for the quarantine state itself: the failure
    /// detector's opinions died with the crash, so trust nobody's silence —
    /// flush every recorded missed-relay set as a state push (harmless if
    /// the peer is genuinely still down: it will pull at its own restart)
    /// and start with a clean slate.
    pub(crate) fn flush_quarantine_on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
        self.quarantined.clear();
        let missed = std::mem::take(&mut self.missed);
        for (peer, nodes) in missed {
            for node in nodes {
                self.push_sync(ctx, peer, node);
            }
        }
    }
}

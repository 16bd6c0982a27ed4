//! §4.1.1 — the synchronous split protocol.
//!
//! The PC runs an AAS around each split: `split_start` blocks initial
//! inserts at every copy (relayed inserts and searches continue), the PC
//! waits for all acknowledgements, performs the split, and `split_end`
//! unblocks (and carries the sibling). Costs `3·(|copies(n)| − 1)` messages
//! per split and stalls initial
//! inserts for a round trip — the costs the semisync protocol removes.

use simnet::{Context, ProcId};

use crate::metrics::Ctr;
use crate::msg::{Msg, SplitInfo};
use crate::node::{AasState, NodeSnapshot};
use crate::proc::DbProc;
use crate::types::NodeId;

impl DbProc {
    /// PC: begin the split AAS for `node`.
    pub(crate) fn start_sync_split(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId) {
        let me = self.me;
        let peers: Vec<ProcId> = {
            let Some(copy) = self.store.get_mut(node) else {
                return;
            };
            debug_assert_eq!(copy.primary.pc(), me);
            if copy.aas.is_some() {
                // A split is already in flight; run another afterwards.
                copy.split_pending = true;
                return;
            }
            let peers: Vec<ProcId> = copy.members.peers(me).collect();
            copy.aas = Some(AasState {
                acks_pending: peers.len(),
                blocked: Vec::new(),
            });
            peers
        };
        if peers.is_empty() {
            self.finish_sync_split(ctx, node);
            return;
        }
        for p in peers {
            ctx.send(p, Msg::SplitStart { node });
        }
    }

    /// Non-PC copy: the AAS begins — block initial inserts, acknowledge.
    pub(crate) fn handle_split_start(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcId,
        node: NodeId,
    ) {
        let Some(copy) = self.store.get_mut(node) else {
            // Copy not resident (variable-membership race): acknowledge so
            // the PC is not stuck; we will learn the split via the stash.
            ctx.send(from, Msg::SplitAck { node });
            return;
        };
        copy.aas = Some(AasState {
            acks_pending: 0,
            blocked: Vec::new(),
        });
        ctx.send(from, Msg::SplitAck { node });
    }

    /// PC: one copy acknowledged.
    pub(crate) fn handle_split_ack(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId) {
        let ready = {
            let Some(copy) = self.store.get_mut(node) else {
                return;
            };
            let Some(aas) = copy.aas.as_mut() else {
                return;
            };
            aas.acks_pending = aas.acks_pending.saturating_sub(1);
            aas.acks_pending == 0
        };
        if ready {
            self.finish_sync_split(ctx, node);
        }
    }

    /// PC: all copies acknowledged — perform the split and end the AAS.
    pub(crate) fn finish_sync_split(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId) {
        let mut out = self.half_split_local(node);
        let tag = self.issue_tag("split");
        self.observe_initial(node, tag);
        let info = out.info;
        out.relay(|peer, sibling| {
            ctx.send(
                peer,
                Msg::SplitEnd {
                    node,
                    info,
                    sibling,
                    tag,
                },
            );
        });
        self.complete_split(ctx, node, &out);
        // End the local AAS and replay blocked initial inserts.
        self.end_aas(ctx, node);
        let again = {
            let Some(copy) = self.store.get_mut(node) else {
                return;
            };
            let again = copy.split_pending && copy.overfull(self.cfg.fanout);
            copy.split_pending = false;
            again
        };
        if again {
            self.start_sync_split(ctx, node);
        }
    }

    /// Non-PC copy: install the sibling, apply the split and end the AAS.
    pub(crate) fn handle_split_end(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        info: SplitInfo,
        sibling: NodeSnapshot,
        tag: u64,
    ) {
        self.apply_split_relay(ctx, node, &info, Some(sibling), tag);
        self.end_aas(ctx, node);
    }

    /// Clear the AAS state and re-submit the blocked initial inserts (they
    /// re-execute against the post-split copy and route right if their keys
    /// moved).
    fn end_aas(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId) {
        let now = ctx.now().ticks();
        let blocked = {
            let Some(copy) = self.store.get_mut(node) else {
                return;
            };
            copy.aas.take().map(|a| a.blocked).unwrap_or_default()
        };
        for (blocked_at, msg) in blocked {
            self.metrics
                .bump(Ctr::BlockedTicks, now.saturating_sub(blocked_at));
            ctx.send(self.me, msg);
        }
    }
}

//! §4.1.2 — the semi-synchronous split protocol.
//!
//! The PC splits immediately (no AAS, no blocking) and sends one relayed
//! split to each other copy — `|copies(n)|` messages per split, which the
//! paper shows is optimal. Compatibility is restored by *rewriting history*:
//! when a relayed insert reaches the PC after the split moved its key away,
//! the PC re-issues it as an initial insert toward the sibling (see
//! `relay.rs`). The `Naive` protocol shares this module's split path but
//! omits the rewrite — reproducing the Fig 4 lost-insert bug.

use simnet::Context;

use crate::msg::{Msg, SplitInfo};
use crate::proc::DbProc;
use crate::types::NodeId;

impl DbProc {
    /// PC: split `node` immediately and relay.
    pub(crate) fn semisync_split(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId) {
        let out = self.half_split_local(ctx, node);
        let tag = self.issue_tag("split");
        self.observe_initial(node, tag);
        for &p in &out.peers {
            ctx.send(
                p,
                Msg::RelayedSplit {
                    node,
                    info: out.info,
                    tag,
                },
            );
        }
        self.complete_split(ctx, node, &out);
    }

    /// Non-PC copy: apply a relayed split on arrival.
    pub(crate) fn handle_relayed_split(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        info: SplitInfo,
        tag: u64,
    ) {
        if !self.store.contains(node) {
            if self.unjoined.contains(&node) {
                return; // departed member: discard
            }
            // Install in flight: preserve ordering via the stash.
            self.stash
                .entry(node)
                .or_default()
                .push(Msg::RelayedSplit { node, info, tag });
            return;
        }
        let copy = self.store.get_mut(node).expect("checked");
        let discarded = copy.apply_split(&info);
        if discarded > 0 {
            self.metrics.relays_discarded += discarded as u64;
        }
        self.observe(node, tag, history::ObserveKind::Applied);
        let _ = ctx;
    }
}

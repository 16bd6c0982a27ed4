//! §4.1.2 — the semi-synchronous split protocol.
//!
//! The PC splits immediately (no AAS, no blocking) and sends one relayed
//! split to each other copy — `|copies(n)| − 1` messages per split and
//! nothing else, which the paper shows is optimal: the relay carries the new
//! sibling, so it is also what creates the sibling's copies, and it leaves
//! at the end of the splitting action with that action's relays aboard.
//! Compatibility is restored by *rewriting history*:
//! when a relayed insert reaches the PC after the split moved its key away,
//! the PC re-issues it as an initial insert toward the sibling (see
//! `relay.rs`). The `Naive` protocol shares this module's split path but
//! omits the rewrite — reproducing the Fig 4 lost-insert bug.

use simnet::Context;

use crate::metrics::Ctr;
use crate::msg::{Msg, RelayedItem, SplitInfo};
use crate::node::NodeSnapshot;
use crate::proc::DbProc;
use crate::types::NodeId;

impl DbProc {
    /// PC: split `node` immediately and owe each other copy its relay.
    pub(crate) fn semisync_split(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId) {
        let mut out = self.half_split_local(node);
        let tag = self.issue_tag("split");
        self.observe_initial(node, tag);
        let info = out.info;
        out.relay(|peer, sibling| {
            let split = Msg::RelayedSplit {
                node,
                info,
                sibling: Some(sibling),
                tag,
                relays: Vec::new(),
            };
            self.owe_split_relay(peer, split);
        });
        self.complete_split(ctx, node, &out);
    }

    /// Non-PC copy: apply a relayed split on arrival — install the sibling
    /// it carries, shrink `node` — then the relays it carries. When `node`'s
    /// own install is still in flight (a join grant on another channel) the
    /// sibling is installed all the same and only the shrink waits in the
    /// stash, `sibling: None`, with the carried relays for `node` behind it.
    pub(crate) fn handle_relayed_split(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        info: SplitInfo,
        sibling: Option<Box<NodeSnapshot>>,
        tag: u64,
        relays: Vec<RelayedItem>,
    ) {
        match self.apply_split_relay(ctx, node, &info, sibling.map(|s| *s), tag) {
            Some(discarded) => self.metrics.bump(Ctr::RelaysDiscarded, discarded as u64),
            // Departed member: discard.
            None if self.unjoined.contains(&node) => {}
            // Install in flight: preserve ordering via the stash.
            None => self.stash.entry(node).or_default().push(Msg::RelayedSplit {
                node,
                info,
                sibling: None,
                tag,
                relays: Vec::new(),
            }),
        }
        for item in relays {
            self.handle_relayed_insert(ctx, item);
        }
    }
}

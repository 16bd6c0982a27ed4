//! Lazy relays: propagating applied updates to the other copies — batched
//! per destination within an action, and optionally across actions
//! (piggybacking, §1.1).

use std::collections::{BTreeMap, BTreeSet};

use history::ObserveKind;
use simnet::{Context, ProcId};

use crate::config::{ProtocolKind, SeededBug};
use crate::metrics::{Ctr, ProcMetrics};
use crate::msg::{Msg, RelayedItem};
use crate::proc::{DbProc, TIMER_PIGGYBACK};
use crate::types::{Entry, Key, NodeId};

/// [`DbProc::suppress_if_quarantined`] on the fields it touches, for
/// [`DbProc::relay_update`], which holds the store borrowed meanwhile.
fn missed_if_quarantined(
    quarantined: &BTreeSet<ProcId>,
    missed: &mut BTreeMap<ProcId, BTreeSet<NodeId>>,
    metrics: &mut ProcMetrics,
    peer: ProcId,
    node: NodeId,
) -> bool {
    if !quarantined.contains(&peer) {
        return false;
    }
    metrics.bump(Ctr::RelaysSuppressed, 1);
    missed.entry(peer).or_default().insert(node);
    true
}

/// One destination's relays waiting to leave: until the action ends, and —
/// with [`crate::config::PiggybackCfg`] — across actions until a batch
/// fills or the flush timer fires. Slots are kept (sorted by `peer`,
/// capacity and all), so a steady state buffers without allocating.
#[derive(Clone, Debug)]
pub(crate) struct RelaySlot {
    pub peer: ProcId,
    /// Tick at which `items` went non-empty (stale while it is empty).
    /// Feeds `relay.backlog_age`; wall time, so never fingerprinted.
    pub since: u64,
    pub items: Vec<RelayedItem>,
    /// The split relays ([`Msg::RelayedSplit`]) the current action owes the
    /// peer, in split order; the last carries `items`
    /// ([`DbProc::send_owed_splits`]). Empty between actions.
    pub splits: Vec<Msg>,
}

impl RelaySlot {
    /// The slot for `peer`, created in its sorted place on first use.
    fn of(buf: &mut Vec<RelaySlot>, peer: ProcId) -> &mut RelaySlot {
        let at = buf.partition_point(|slot| slot.peer < peer);
        if buf.get(at).map(|slot| slot.peer) != Some(peer) {
            let slot = RelaySlot {
                peer,
                since: 0,
                items: Vec::new(),
                splits: Vec::new(),
            };
            buf.insert(at, slot);
        }
        &mut buf[at]
    }

    /// Empty the slot into one message: a [`Msg::RelayBatch`], or — at the
    /// end of an action (`piggybacked` off) — a lone item as itself.
    fn take_msg(&mut self, piggybacked: bool) -> Msg {
        match self.items.len() {
            1 if !piggybacked => self.items.pop().expect("one item").into(),
            _ => Msg::RelayBatch(self.items.drain(..).collect()),
        }
    }

    /// The peer went suspect after these were buffered: empty the slot into
    /// its missed set instead of sending anything.
    fn withhold(
        &mut self,
        quarantined: &BTreeSet<ProcId>,
        missed: &mut BTreeMap<ProcId, BTreeSet<NodeId>>,
        metrics: &mut ProcMetrics,
    ) {
        for item in self.items.drain(..) {
            missed_if_quarantined(quarantined, missed, metrics, self.peer, item.node);
        }
    }
}

impl DbProc {
    /// Relay an applied update to every other copy of `node`.
    ///
    /// Relays are buffered per destination and leave together: at the end
    /// of the action that produced them ([`DbProc::end_action`]) — §1.1's
    /// "piggybacked onto messages used for other purposes", applied inside
    /// one action: aboard a split relay the action owes the destination, or
    /// as one message of their own — or, with piggybacking enabled, when a
    /// buffer fills or the flush timer fires.
    pub(crate) fn relay_update(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        key: Key,
        entry: Entry,
        tag: u64,
        version: u64,
    ) {
        // Seeded E21 fault: the relays are buffered as always, but never
        // leave and never arm the flush timer.
        let wedged = self.seeded(SeededBug::RelaySuppress(self.me.0));
        // Field by field: the membership list is walked where it lives, in
        // the store, while the relay bookkeeping beside it is updated — no
        // peer list is collected on the way (this runs once per write).
        let DbProc {
            me,
            cfg,
            store,
            metrics,
            quarantined,
            missed,
            relay_buf,
            relay_backlog,
            relay_timer_armed,
            ..
        } = self;
        let Some(copy) = store.get(node) else {
            return;
        };
        // Stamp the relay with the current action's span: piggybacked items
        // sit in the buffer past the end of this action, so the payload must
        // carry the attribution itself.
        let item = RelayedItem {
            node,
            key,
            entry,
            tag,
            version,
            span: ctx.span(),
            epoch: copy.edge.absorbs(),
        };
        let now = ctx.now().ticks();
        for peer in copy.members.peers(*me) {
            // Quarantined peers get no relays — the session layer would only
            // retransmit them into the void. Record the node instead; one
            // state sync at rehabilitation subsumes everything it missed.
            if missed_if_quarantined(quarantined, missed, metrics, peer, node) {
                continue;
            }
            let slot = RelaySlot::of(relay_buf, peer);
            if slot.items.is_empty() {
                slot.since = now;
            }
            slot.items.push(item.clone());
            *relay_backlog += 1;
            let batch = cfg.piggyback.map_or(usize::MAX, |pb| pb.max_batch);
            // A slot owing a split relay waits for it: it must not overtake.
            if slot.items.len() >= batch && !wedged && slot.splits.is_empty() {
                *relay_backlog -= slot.items.len();
                ctx.send(peer, slot.take_msg(true));
            }
        }
        if let Some(pb) = cfg.piggyback {
            if *relay_backlog > 0 && !wedged && !*relay_timer_armed {
                *relay_timer_armed = true;
                ctx.set_timer(pb.flush_interval, TIMER_PIGGYBACK);
            }
        }
    }

    /// Send every buffered relay, one message per destination.
    pub(crate) fn flush_relays(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.relay_backlog == 0 || self.seeded(SeededBug::RelaySuppress(self.me.0)) {
            // Seeded E21 fault: the backlog never drains (restart-triggered
            // flushes included), so its gauges keep growing.
            return;
        }
        self.relay_backlog = 0;
        let piggybacked = self.cfg.piggyback.is_some();
        for slot in self.relay_buf.iter_mut().filter(|s| !s.items.is_empty()) {
            if self.quarantined.contains(&slot.peer) {
                slot.withhold(&self.quarantined, &mut self.missed, &mut self.metrics);
            } else {
                ctx.send(slot.peer, slot.take_msg(piggybacked));
            }
        }
    }

    /// Owe `peer` the split relay `msg` (a [`Msg::RelayedSplit`]): it leaves
    /// with the others the action owes, at its end or before the split's
    /// completion sends anything ([`DbProc::send_owed_splits`]).
    pub(crate) fn owe_split_relay(&mut self, peer: ProcId, msg: Msg) {
        RelaySlot::of(&mut self.relay_buf, peer).splits.push(msg);
        self.splits_owed = true;
    }

    /// Send every split relay the action owes, in split order, the last to
    /// each peer carrying everything buffered for that peer — so a peer
    /// applies an action's splits before its relays, and gets one message
    /// per split. Called at the end of the action, and before a split's
    /// completion sends its parent insert or new root, which would otherwise
    /// overtake the split relays. Slots owing nothing keep their relays.
    pub(crate) fn send_owed_splits(&mut self, ctx: &mut Context<'_, Msg>) {
        if !std::mem::take(&mut self.splits_owed) {
            return;
        }
        // Seeded E21 fault: the split relays leave — they create the
        // siblings — but their passengers stay behind, like every relay.
        let wedged = self.seeded(SeededBug::RelaySuppress(self.me.0));
        let DbProc {
            quarantined,
            missed,
            metrics,
            relay_buf,
            relay_backlog,
            ..
        } = self;
        for slot in relay_buf.iter_mut().filter(|s| !s.splits.is_empty()) {
            let mut splits = std::mem::take(&mut slot.splits);
            match splits.last_mut() {
                Some(Msg::RelayedSplit { relays, .. }) if !wedged && !slot.items.is_empty() => {
                    *relay_backlog -= slot.items.len();
                    if quarantined.contains(&slot.peer) {
                        slot.withhold(quarantined, missed, metrics);
                    } else {
                        *relays = slot.items.drain(..).collect();
                    }
                }
                _ => {}
            }
            for msg in splits {
                ctx.send(slot.peer, msg);
            }
        }
    }

    /// The end of every action: its split relays leave now, carrying its
    /// relays, and the rest of what it relayed leaves too — unless
    /// piggybacking is on, and the batch size and flush timer decide.
    #[inline]
    pub(crate) fn end_action(&mut self, ctx: &mut Context<'_, Msg>) {
        // Most actions relay nothing (every read): two loads and out.
        if self.splits_owed {
            self.send_owed_splits(ctx);
        }
        if self.relay_backlog != 0 && self.cfg.piggyback.is_none() {
            self.flush_relays(ctx);
        }
    }

    /// If `peer` is quarantined, record that it missed an update to `node`
    /// and return `true` (the caller drops the relay).
    pub(crate) fn suppress_if_quarantined(&mut self, peer: ProcId, node: NodeId) -> bool {
        missed_if_quarantined(
            &self.quarantined,
            &mut self.missed,
            &mut self.metrics,
            peer,
            node,
        )
    }

    /// A relayed insert arrives at this processor.
    pub(crate) fn handle_relayed_insert(&mut self, ctx: &mut Context<'_, Msg>, item: RelayedItem) {
        if !self.store.contains(item.node) {
            if let Some(&left) = self.retired.get(&item.node) {
                // The node was merged away while this relay was in flight.
                // The write it carries was applied (and client-acknowledged)
                // at some copy before the retirement, so it must not be
                // dropped: re-issue it as an initial insert toward the
                // absorbing left sibling — the same history rewrite the
                // semisync protocol applies to out-of-range relays. The LWW
                // stamp keeps duplicates (several copies rerouting the same
                // relay) idempotent.
                self.metrics.bump(Ctr::RelaysRerouted, 1);
                let msg = Msg::InsertAt {
                    node: left.node,
                    level: 0,
                    key: item.key,
                    entry: item.entry,
                    tag: item.tag,
                };
                self.send_to_node(ctx, left.node, left.home, msg);
                return;
            }
            if self.unjoined.contains(&item.node) {
                // §4.3: a departed member discards relayed actions.
                self.metrics.bump(Ctr::RelaysDiscarded, 1);
            } else {
                // The copy's install is still in flight (sibling creation or
                // join grant racing the relay on another channel): stash and
                // replay on install.
                self.stash_relayed_insert(item);
            }
            return;
        }
        self.apply_relayed_insert(ctx, item);
    }

    /// Park a relayed insert in the node's stash until what it waits for
    /// (the copy's install, or the absorb epoch it was sent under) arrives.
    fn stash_relayed_insert(&mut self, item: RelayedItem) {
        self.stash.entry(item.node).or_default().push(item.into());
    }

    /// Apply a relayed insert at a resident copy.
    pub(crate) fn apply_relayed_insert(&mut self, ctx: &mut Context<'_, Msg>, item: RelayedItem) {
        let copy = self.store.get(item.node).expect("caller ensured resident");
        if !copy.range().contains(item.key) && item.epoch > copy.edge.absorbs() {
            // The sender applied this write in a range it had *absorbed*,
            // and the absorb relay (another channel) has not reached this
            // copy yet: out of range here only because the range is about
            // to widen. Discarding would lose an acknowledged write at this
            // copy; hold it until the absorb, or a snapshot carrying its
            // epoch, brings the copy level.
            self.stash_relayed_insert(item);
            return;
        }
        let RelayedItem {
            node,
            key,
            entry,
            tag,
            version,
            span,
            epoch: _,
        } = item;
        // §4.3: the PC re-relays to members that joined after the initial
        // copy applied the insert — they were not in the initial copy's
        // membership list and would otherwise miss it (Fig 6, which
        // `NoJoinVersionRelay` reproduces).
        let relay_to_late_joiners = !self.seeded(SeededBug::NoJoinVersionRelay);
        let (copy, stamp) = self
            .store
            .get_mut_stamp(node)
            .expect("caller ensured resident");
        let is_pc = copy.primary.pc() == self.me;
        let in_range = copy.range().contains(key);

        if in_range {
            copy.upsert(key, entry);
            // Staleness stamp: this copy is up to date with the relay
            // stream as of now.
            *stamp = ctx.now().ticks();
            let my_version = copy.primary.version();
            let my_epoch = copy.edge.absorbs();
            let late: Vec<_> = if is_pc && relay_to_late_joiners {
                copy.members.joined_after(version).collect()
            } else {
                Vec::new()
            };
            self.metrics.bump(Ctr::RelaysApplied, 1);
            self.observe(node, tag, ObserveKind::Applied);
            for member in late {
                if member != self.me && !self.suppress_if_quarantined(member, node) {
                    ctx.send(
                        member,
                        Msg::RelayedInsert {
                            node,
                            key,
                            entry,
                            tag,
                            version: my_version,
                            span,
                            epoch: my_epoch,
                        },
                    );
                }
            }
            if is_pc {
                self.maybe_split(ctx, node);
                // A relayed tombstone may have emptied the leaf at its PC.
                self.maybe_merge(ctx, node);
            }
            return;
        }

        // Out of range: the key's range has already split away from this
        // copy.
        if is_pc {
            match self.cfg.protocol {
                ProtocolKind::SemiSync => {
                    // Rewrite history (§4.1.2): re-issue as an initial
                    // insert toward the right neighbour, so the update lands
                    // where the split moved its range.
                    let (right, level) = {
                        let c = self.store.get(node).expect("resident");
                        (c.edge.right(), c.level)
                    };
                    let right = right.expect("out-of-range key implies a right sibling");
                    self.metrics.bump(Ctr::RelaysForwarded, 1);
                    self.observe(node, tag, ObserveKind::Forwarded);
                    let msg = Msg::InsertAt {
                        node: right.node,
                        level,
                        key,
                        entry,
                        tag,
                    };
                    self.send_to_node(ctx, right.node, right.home, msg);
                }
                ProtocolKind::Naive => {
                    // Fig 4's bug, preserved on purpose: the PC ignores the
                    // out-of-range relayed insert and the update is lost.
                    self.metrics.bump(Ctr::RelaysDiscarded, 1);
                    self.observe(node, tag, ObserveKind::Discarded);
                }
                ProtocolKind::Sync | ProtocolKind::AvailableCopies => {
                    // The synchronizing protocols order inserts before
                    // splits, so an out-of-range relay at the PC means its
                    // key was already re-homed by the split that the initial
                    // copy observed before relaying. Discarding is safe.
                    self.metrics.bump(Ctr::RelaysDiscarded, 1);
                    self.observe(node, tag, ObserveKind::Discarded);
                }
            }
        } else {
            // Non-PC copies always discard out-of-range relays: the split
            // that shrank the range carried the key's fate (§4.1 rule 3).
            self.metrics.bump(Ctr::RelaysDiscarded, 1);
            self.observe(node, tag, ObserveKind::Discarded);
        }
    }
}

#[cfg(test)]
mod tests {
    use simnet::{SimConfig, SimTime, TraceEvent};

    use crate::config::{PiggybackCfg, ProtocolKind, TreeConfig};
    use crate::{BuildSpec, ClientOp, DbCluster, Intent};

    use super::*;

    /// A split relay to a quarantined peer still leaves — it creates the
    /// sibling there — but carries nothing: what the slot held (relays
    /// buffered before the quarantine, piggybacked across actions) is
    /// recorded as missed, for the rehabilitation push, like every relay
    /// the action withheld from the peer.
    #[test]
    fn a_split_relay_to_a_quarantined_peer_carries_nothing() {
        let cfg = TreeConfig {
            piggyback: Some(PiggybackCfg {
                max_batch: 100,
                flush_interval: 5_000,
            }),
            ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 2)
        };
        // Leaves of seven: the first (PC P0, copy at P1) splits on its
        // second write.
        let mut spec = BuildSpec::new((0..32).map(|k| k * 10).collect(), 2, cfg);
        spec.fill = 7;
        let mut sim_cfg = SimConfig::seeded(3);
        sim_cfg.trace_capacity = 1 << 10;
        let mut cluster = DbCluster::build(&spec, sim_cfg);
        let (pc, peer) = (ProcId(0), ProcId(1));
        // Run a write to completion, but stop short of the flush timer.
        let write = |cluster: &mut DbCluster, key| {
            let intent = Intent::Insert(key);
            let origin = pc;
            cluster.submit(ClientOp {
                origin,
                key,
                intent,
            });
            while cluster
                .sim
                .next_event_at()
                .is_some_and(|t| t < SimTime(1_000))
            {
                cluster.sim.step();
            }
        };
        write(&mut cluster, 5);
        assert_eq!(cluster.sim.proc(pc).relay_backlog, 1, "piggybacked");
        cluster.sim.proc_mut(pc).quarantined.insert(peer);
        write(&mut cluster, 15);

        let p = cluster.sim.proc(pc);
        assert_eq!(p.metrics.splits_initiated, 1);
        let leaf = p.store.iter().find(|c| c.is_leaf() && c.low == 0);
        let leaf = leaf.expect("the first leaf").id;
        assert_eq!(p.relay_backlog, 0, "the slot left with its split relay");
        // Buffered before the quarantine, withheld after it, the edge too.
        assert_eq!(p.metrics.relays_suppressed, 3);
        assert!(p.missed[&peer].contains(&leaf));
        let trace = cluster.sim.trace();
        let sent: Vec<_> = trace
            .of_event(TraceEvent::Deliver)
            .filter(|e| (e.from, e.to) == (pc, peer))
            .collect();
        assert_eq!(
            sent.iter().map(|e| e.kind).collect::<Vec<_>>(),
            ["split.relay"]
        );
        let applied = sent[0].deltas.iter().find(|(n, _)| *n == "relays_applied");
        assert_eq!(applied, None, "it carried nothing");
        let at_peer = cluster.sim.proc(peer).store.get(leaf).expect("resident");
        assert!(at_peer.entries.get(&5).is_none() && at_peer.entries.get(&15).is_none());
    }
}

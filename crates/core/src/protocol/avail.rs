//! The vigorous baseline: an available-copies-style write-all protocol [2].
//!
//! Every update to a replicated node is coordinated by its PC: lock all
//! copies (one round trip each), apply, unlock. While a copy is locked,
//! *all* actions that arrive at it — searches included — queue. This is the
//! synchronization the paper's lazy updates eliminate; the experiments
//! measure its message and latency overhead against the semisync protocol.

use history::ObserveKind;
use simnet::{Context, ProcId};

use crate::metrics::Ctr;
use crate::msg::{LockedUpdate, Msg};
use crate::node::LockState;
use crate::proc::{CoordOp, DbProc, PendingLock};
use crate::types::{Entry, Intent, NodeId, Outcome};

impl DbProc {
    /// PC: run `op` under a write-all lock (or queue it behind the current
    /// coordinated operation on this node).
    pub(crate) fn coordinate(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId, op: CoordOp) {
        if self.coord_busy.contains(&node) {
            self.coord_q.entry(node).or_default().push_back(op);
            return;
        }
        self.coord_busy.insert(node);
        let peers: Vec<ProcId> = {
            let Some(copy) = self.store.get_mut(node) else {
                self.coord_busy.remove(&node);
                return;
            };
            debug_assert_eq!(copy.primary.pc(), self.me);
            copy.lock = Some(LockState::default());
            copy.members.peers(self.me).collect()
        };
        if peers.is_empty() {
            self.apply_coordinated(ctx, node, op);
            return;
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.pending_locks.insert(
            ticket,
            PendingLock {
                node,
                grants_needed: peers.len(),
                op,
            },
        );
        for p in peers {
            ctx.send(p, Msg::LockReq { node, ticket });
        }
    }

    /// Copy: grant the coordinator's lock.
    pub(crate) fn handle_lock_req(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcId,
        node: NodeId,
        ticket: u64,
    ) {
        if let Some(copy) = self.store.get_mut(node) {
            // The PC serializes coordinated ops, so a copy is never asked to
            // lock twice concurrently.
            debug_assert!(copy.lock.is_none(), "double lock");
            copy.lock = Some(LockState::default());
        }
        ctx.send(from, Msg::LockGrant { node, ticket });
    }

    /// Coordinator: a copy granted; when all have, apply and broadcast.
    pub(crate) fn handle_lock_grant(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        ticket: u64,
    ) {
        let ready = {
            let Some(pending) = self.pending_locks.get_mut(&ticket) else {
                return;
            };
            debug_assert_eq!(pending.node, node);
            pending.grants_needed -= 1;
            pending.grants_needed == 0
        };
        if ready {
            let pending = self.pending_locks.remove(&ticket).expect("checked");
            self.apply_coordinated(ctx, node, pending.op);
        }
    }

    /// Coordinator: all copies locked — apply locally, ship `ApplyUnlock`,
    /// release the local lock, and start the next queued operation.
    fn apply_coordinated(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId, op: CoordOp) {
        let me = self.me;
        match op {
            CoordOp::Insert {
                key,
                entry,
                tag,
                reply,
            } => {
                let (prev, peers, overfull) = {
                    let copy = self.store.get_mut(node).expect("coordinator holds copy");
                    let prev = if copy.range().contains(key) {
                        copy.upsert(key, entry)
                    } else {
                        // The key's range moved right under a previous
                        // coordinated split that queued this op: re-route
                        // after unlocking.
                        None
                    };
                    (
                        prev,
                        copy.members.peers(me).collect::<Vec<_>>(),
                        copy.overfull(self.cfg.fanout),
                    )
                };
                let in_range = self
                    .store
                    .get(node)
                    .map(|c| c.range().contains(key))
                    .unwrap_or(false);
                if in_range {
                    self.observe_initial(node, tag);
                    for &p in &peers {
                        ctx.send(
                            p,
                            Msg::ApplyUnlock {
                                node,
                                ticket: 0,
                                update: LockedUpdate::Insert { key, entry, tag },
                            },
                        );
                    }
                } else {
                    // Unlock without a payload; the key's range moved right
                    // under a previously coordinated split.
                    let level = self.store.get(node).map(|c| c.level).unwrap_or(0);
                    let right = self.store.get(node).and_then(|c| c.edge.right());
                    for &p in &peers {
                        ctx.send(
                            p,
                            Msg::ApplyUnlock {
                                node,
                                ticket: 0,
                                update: LockedUpdate::Noop,
                            },
                        );
                    }
                    // Client-visible writes restart as a fresh descent so
                    // the reply is sent only after the write actually lands
                    // (read-your-writes); internal child-pointer inserts
                    // re-route directly with their original tag. The
                    // restarted descent issues a fresh tag, so close out the
                    // original one.
                    if reply.is_some() && entry.child().is_none() {
                        self.observe_global(tag);
                    }
                    let intent = match entry {
                        Entry::Val { value, .. } => Some(Intent::Insert(value)),
                        Entry::Tomb { .. } => Some(Intent::Delete),
                        Entry::Child(_) => None,
                    };
                    match (reply, intent) {
                        (Some(r), Some(intent)) => {
                            self.requeue(
                                ctx,
                                Msg::Descend {
                                    op: r.op,
                                    key,
                                    intent,
                                    node,
                                    hops: r.hops,
                                    chases: r.chases + 1,
                                    via: None,
                                },
                            );
                        }
                        _ => {
                            if let Some(right) = right {
                                let msg = Msg::InsertAt {
                                    node: right.node,
                                    level,
                                    key,
                                    entry,
                                    tag,
                                };
                                self.send_to_node(ctx, right.node, right.home, msg);
                            }
                        }
                    }
                    self.release_local_lock(ctx, node);
                    self.next_coordinated(ctx, node);
                    return;
                }
                if let Some(r) = reply {
                    self.reply(
                        ctx,
                        Outcome {
                            op: r.op,
                            found: prev.and_then(|e| e.value()),
                            hops: r.hops,
                            chases: r.chases,
                        },
                    );
                }
                self.release_local_lock(ctx, node);
                if overfull && in_range {
                    self.coord_q
                        .entry(node)
                        .or_default()
                        .push_back(CoordOp::Split);
                }
                self.next_coordinated(ctx, node);
            }
            CoordOp::Split => {
                let still_overfull = self
                    .store
                    .get(node)
                    .map(|c| c.overfull(self.cfg.fanout))
                    .unwrap_or(false);
                if still_overfull {
                    let mut out = self.half_split_local(node);
                    let tag = self.issue_tag("split");
                    self.observe_initial(node, tag);
                    let info = out.info;
                    out.relay(|peer, sibling| {
                        let update = LockedUpdate::Split { info, sibling, tag };
                        ctx.send(
                            peer,
                            Msg::ApplyUnlock {
                                node,
                                ticket: 0,
                                update,
                            },
                        );
                    });
                    self.complete_split(ctx, node, &out);
                } else {
                    // Someone else's split already fixed it: plain unlock.
                    let peers: Vec<ProcId> = self
                        .store
                        .get(node)
                        .map(|c| c.members.peers(me).collect())
                        .unwrap_or_default();
                    for p in peers {
                        ctx.send(
                            p,
                            Msg::ApplyUnlock {
                                node,
                                ticket: 0,
                                update: LockedUpdate::Noop,
                            },
                        );
                    }
                }
                self.release_local_lock(ctx, node);
                self.next_coordinated(ctx, node);
            }
        }
    }

    /// Copy: apply the coordinated update and unlock.
    pub(crate) fn handle_apply_unlock(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        _ticket: u64,
        update: LockedUpdate,
    ) {
        match update {
            LockedUpdate::Insert { key, entry, tag } => {
                if let Some(copy) = self.store.get_mut(node) {
                    if copy.range().contains(key) {
                        copy.upsert(key, entry);
                        if tag != 0 {
                            self.observe(node, tag, ObserveKind::Applied);
                        }
                    }
                }
            }
            LockedUpdate::Split { info, sibling, tag } => {
                self.apply_split_relay(ctx, node, &info, Some(*sibling), tag);
            }
            LockedUpdate::Noop => {}
        }
        self.release_local_lock(ctx, node);
    }

    /// Unlock the local copy and replay everything that queued behind it.
    fn release_local_lock(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId) {
        let now = ctx.now().ticks();
        let queued = {
            let Some(copy) = self.store.get_mut(node) else {
                return;
            };
            copy.lock.take().map(|l| l.queued).unwrap_or_default()
        };
        for (queued_at, msg) in queued {
            self.metrics
                .bump(Ctr::BlockedTicks, now.saturating_sub(queued_at));
            ctx.send(self.me, msg);
        }
    }

    /// Start the next coordinated operation queued on `node`, if any.
    fn next_coordinated(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId) {
        self.coord_busy.remove(&node);
        let next = self.coord_q.get_mut(&node).and_then(|q| q.pop_front());
        if let Some(op) = next {
            self.coordinate(ctx, node, op);
        }
    }
}

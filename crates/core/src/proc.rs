//! The per-processor engine: queue manager + node manager (§1.1).
//!
//! `DbProc` implements [`simnet::Process`]; each delivered message is one
//! atomic *action*. Handlers for the different protocol planes live in the
//! sibling modules (`nav`, `relay`, `protocol::*`) as further `impl DbProc`
//! blocks.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use history::{HistoryLog, ObserveKind};
use parking_lot::Mutex;
use simnet::{Context, ProcId, Process};

use crate::config::{SeededBug, TreeConfig};
use crate::metrics::{Ctr, ProcMetrics};
use crate::msg::{InstallReason, Msg, RelayedItem};
use crate::node::NodeCopy;
use crate::relay::RelaySlot;
use crate::store::NodeStore;
use crate::types::{Key, NodeId, OpId, Outcome};

/// Timer token: flush piggyback buffers.
pub(crate) const TIMER_PIGGYBACK: u64 = 1;
/// Timer token: garbage-collect forwarding addresses.
pub(crate) const TIMER_FORWARD_GC: u64 = 2;
/// Ticks a forwarding address lives before that timer collects it.
pub(crate) const FORWARD_TTL: u64 = 500;

/// Node visits one delivered action may make in-process before its next
/// local step goes back through the queue (`DbProc::requeue`). A constant,
/// not a knob: it only bounds how long a stale-link cycle confined to this
/// processor can hold the action, so the run still ends in the runtime's
/// event budget instead of spinning here, and timers, crashes and other
/// processors' messages still interleave. Real chains are a tree height
/// plus a handful of link chases.
pub const LOCAL_STEP_CAP: u32 = 256;

/// A queued coordinator operation for the available-copies baseline.
#[derive(Clone, Hash, Debug)]
pub(crate) enum CoordOp {
    /// Insert `key → entry` under a write-all lock.
    Insert {
        key: Key,
        entry: crate::types::Entry,
        tag: u64,
        reply: Option<ReplyInfo>,
    },
    /// Split the node under a write-all lock (parameters computed at apply
    /// time).
    Split,
}

/// Enough to emit a `Done` once a coordinated insert applies.
#[derive(Clone, Copy, Hash, Debug)]
pub(crate) struct ReplyInfo {
    pub op: OpId,
    pub hops: u32,
    pub chases: u32,
}

/// An in-flight write-all lock this processor coordinates.
#[derive(Clone, Hash, Debug)]
pub(crate) struct PendingLock {
    pub node: NodeId,
    pub grants_needed: usize,
    pub op: CoordOp,
}

/// Hash a hash-ordered map's entries (a set's members, paired with `()`) in
/// key order, so iteration order never reaches a fingerprint.
fn hash_in_key_order<K: Ord + Hash, V: Hash>(
    entries: impl IntoIterator<Item = (K, V)>,
    h: &mut impl Hasher,
) {
    let mut entries: Vec<(K, V)> = entries.into_iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    entries.hash(h);
}

/// One simulated dB-tree processor.
pub struct DbProc {
    /// This processor's id.
    pub me: ProcId,
    /// Cluster size.
    pub n_procs: u32,
    /// Configuration (shared by every processor in a deployment).
    pub cfg: TreeConfig,
    /// Locally stored node copies.
    pub store: NodeStore,
    /// Shared history recorder.
    pub log: Arc<Mutex<HistoryLog>>,
    /// Protocol counters.
    pub metrics: ProcMetrics,

    // -- run-to-remote navigation --------------------------------------------
    /// Navigable steps ([`Msg::is_navigable`]) of the current action whose
    /// next node is resident: drained in-process, in order, before the
    /// action ends ([`DbProc::send_to_node`]). Empty between actions, so it
    /// is no part of the fingerprint.
    pub(crate) local: VecDeque<Msg>,
    /// In-process steps the current action has taken (capped at
    /// [`LOCAL_STEP_CAP`]).
    pub(crate) local_steps: u32,

    // -- update stamping -----------------------------------------------------
    /// Per-processor counter feeding leaf-update stamps (LWW merge order).
    pub(crate) stamp_counter: u64,

    // -- relay buffers (per action; across actions when piggybacking) ------
    /// One slot per destination ever relayed to, sorted by processor. (The
    /// timestamps feeding the lazy-lag gauges live with what they time — a
    /// slot's `since`, the park ticks in `parked`, the per-copy staleness
    /// stamp [`NodeStore::relayed_at`] — and all stay out of
    /// `fingerprint_into`: wall times never influence protocol behavior, and
    /// hashing them would make the model checker see every schedule as a
    /// distinct state.)
    pub(crate) relay_buf: Vec<RelaySlot>,
    /// Items buffered over all slots (`relay.backlog_depth`); zero between
    /// actions unless piggybacking holds them.
    pub(crate) relay_backlog: usize,
    pub(crate) relay_timer_armed: bool,
    /// Some slot holds a split relay the current action owes
    /// ([`DbProc::owe_split_relay`]); false between actions.
    pub(crate) splits_owed: bool,

    // -- out-of-order installs ----------------------------------------------
    /// Protocol messages (relays, relayed splits) that arrived before their
    /// node's copy was installed; replayed in arrival order at install.
    pub(crate) stash: HashMap<NodeId, Vec<Msg>>,
    /// Nodes this processor deliberately left (§4.3): relays are discarded,
    /// not stashed.
    pub(crate) unjoined: HashSet<NodeId>,
    /// Joins requested but not yet granted (dedupes Join messages), each
    /// with the leaf low keys whose root path the join is for: the grant is
    /// checked against them, because the hint that named the node may
    /// predate its split ([`DbProc::continue_path`]).
    pub(crate) pending_joins: HashMap<NodeId, Vec<Key>>,

    // -- lazy merge-at-empty -------------------------------------------------
    /// Leaves this PC has asked to merge away (dedupes MergeReq until the
    /// grant or decline arrives).
    pub(crate) merge_pending: HashSet<NodeId>,
    /// Client writes parked behind a pending merge, each with its park tick
    /// — state that exists only under [`SeededBug::MergeWedgeGrants`]. Never
    /// drained (the grant never comes), so the liveness oracle can count
    /// them; the ticks feed `proc.parked_dwell` and stay out of the
    /// fingerprint.
    pub(crate) parked: Vec<(u64, Msg)>,
    /// Nodes retired by a committed merge, mapped to the left sibling that
    /// absorbed their range. Consulted to reroute in-flight relays, answer
    /// sync requests from zombie copies, and refuse zombie installs. Lives
    /// in stable storage with the rest of `DbProc` (survives crashes).
    pub(crate) retired: HashMap<NodeId, crate::types::Link>,

    // -- failure-detector recovery (quarantine & anti-entropy) ---------------
    /// Peers the failure detector currently suspects: relays to them are
    /// suppressed (and recorded in `missed`) instead of piling up in the
    /// session's retransmit queue. Ordered, for deterministic replay.
    pub(crate) quarantined: BTreeSet<ProcId>,
    /// Nodes whose relays each quarantined peer missed; pushed as one
    /// full-state sync per node when the peer is heard from again.
    pub(crate) missed: BTreeMap<ProcId, BTreeSet<NodeId>>,

    // -- available-copies coordinator state ---------------------------------
    pub(crate) next_ticket: u64,
    pub(crate) pending_locks: HashMap<u64, PendingLock>,
    pub(crate) coord_busy: HashSet<NodeId>,
    pub(crate) coord_q: HashMap<NodeId, VecDeque<CoordOp>>,
}

impl DbProc {
    /// A processor with an empty store (the builder populates it).
    pub fn new(me: ProcId, n_procs: u32, cfg: TreeConfig, log: Arc<Mutex<HistoryLog>>) -> Self {
        DbProc {
            me,
            n_procs,
            cfg,
            store: NodeStore::new(),
            log,
            metrics: ProcMetrics::default(),
            local: VecDeque::new(),
            local_steps: 0,
            stamp_counter: 0,
            relay_buf: Vec::new(),
            relay_backlog: 0,
            relay_timer_armed: false,
            splits_owed: false,
            stash: HashMap::new(),
            unjoined: HashSet::new(),
            pending_joins: HashMap::new(),
            merge_pending: HashSet::new(),
            parked: Vec::new(),
            retired: HashMap::new(),
            quarantined: BTreeSet::new(),
            missed: BTreeMap::new(),
            next_ticket: 0,
            pending_locks: HashMap::new(),
            coord_busy: HashSet::new(),
            coord_q: HashMap::new(),
        }
    }

    /// Leaves this processor has asked (and is still waiting) to merge away.
    /// A liveness-oracle probe: under fair scheduling with no wedge bug the
    /// count returns to zero once the cluster quiesces.
    pub fn merge_pending_count(&self) -> usize {
        self.merge_pending.len()
    }

    /// Client writes parked behind a never-granted merge (only ever nonzero
    /// under [`SeededBug::MergeWedgeGrants`]). A liveness-oracle probe: each
    /// parked write is a submitted op that will never complete.
    pub fn parked_write_count(&self) -> usize {
        self.parked.len()
    }

    /// The one seam through which seeded bugs reach the protocol: is this
    /// run carrying `bug`? Every deliberately broken branch in the node
    /// manager asks here and nowhere else.
    pub(crate) fn seeded(&self, bug: SeededBug) -> bool {
        self.cfg.seeded == Some(bug)
    }

    /// Hash this processor's full protocol-visible state into `h` — the
    /// model checker's per-processor state fingerprint. Identity is
    /// structural (`Hash` on the state itself, never its `Debug` text), every
    /// hash-ordered collection goes in key order (`hash_in_key_order`), and
    /// no virtual time ever enters the hash, so two schedules that produced
    /// the same state by different routes collide. The shared history log's
    /// tag watermark is folded in: it is global minting state, and merging
    /// two branches that issued different action counts would be unsound.
    pub fn fingerprint_into(&self, h: &mut impl Hasher) {
        self.me.hash(h);
        self.stamp_counter.hash(h);
        self.store.fingerprint_into(h);
        // Only what is waiting: an emptied slot is capacity, not state.
        for slot in self.relay_buf.iter().filter(|s| !s.items.is_empty()) {
            (slot.peer, &slot.items).hash(h);
        }
        self.relay_timer_armed.hash(h);
        hash_in_key_order(&self.stash, h);
        hash_in_key_order(self.unjoined.iter().map(|n| (n, ())), h);
        hash_in_key_order(self.merge_pending.iter().map(|n| (n, ())), h);
        hash_in_key_order(&self.pending_joins, h);
        let parked: Vec<&Msg> = self.parked.iter().map(|(_tick, w)| w).collect();
        parked.hash(h);
        hash_in_key_order(&self.retired, h);
        self.quarantined.hash(h);
        self.missed.hash(h);
        self.next_ticket.hash(h);
        hash_in_key_order(&self.pending_locks, h);
        hash_in_key_order(self.coord_busy.iter().map(|n| (n, ())), h);
        hash_in_key_order(&self.coord_q, h);
        self.log.lock().tag_watermark().hash(h);
    }

    /// The local copy of `node` leaves this processor (merge retirement,
    /// migration out, unjoin, crash rejoin): out of the store, and the
    /// history log hears of the deletion.
    pub(crate) fn drop_copy(&mut self, node: NodeId) -> Option<NodeCopy> {
        let copy = self.store.remove(node)?;
        if let Some(mut log) = self.history() {
            log.copy_deleted(node.raw(), self.me.0);
        }
        Some(copy)
    }

    /// Record that a join of `node` is wanted for the path of `key`.
    /// Returns `true` when no join for the node is in flight yet — the
    /// caller sends the `Join`; otherwise the pending grant will carry the
    /// key onward as well.
    pub(crate) fn note_pending_join(&mut self, node: NodeId, key: Key) -> bool {
        let keys = self.pending_joins.entry(node).or_default();
        let first = keys.is_empty();
        if !keys.contains(&key) {
            keys.push(key);
        }
        first
    }

    /// Every other processor in the cluster.
    pub(crate) fn all_other_procs(&self) -> impl Iterator<Item = ProcId> + '_ {
        let me = self.me;
        (0..self.n_procs).map(ProcId).filter(move |&p| p != me)
    }

    /// Sizes of pending stashes (empty at healthy quiescence).
    pub(crate) fn stash_sizes(&self) -> BTreeMap<NodeId, usize> {
        self.stash.iter().map(|(k, v)| (*k, v.len())).collect()
    }

    /// Mint the next leaf-update stamp (strictly increasing per processor,
    /// globally unique — see [`crate::Stamp`]).
    pub(crate) fn next_stamp(&mut self) -> u64 {
        self.stamp_counter += 1;
        crate::types::Stamp::new(self.stamp_counter, self.me)
    }

    /// The shared history recorder, locked — or `None` when history is off
    /// ([`TreeConfig::record_history`]), *without touching the mutex*: every
    /// processor shares that one lock, a disabled log ignores every call
    /// anyway, and on threads the lock's cache line would otherwise bounce
    /// between the workers several times per write. Every recording site in
    /// the node manager goes through here or the helpers below.
    pub(crate) fn history(&self) -> Option<impl std::ops::DerefMut<Target = HistoryLog> + '_> {
        self.cfg.record_history.then(|| self.log.lock())
    }

    /// Issue a history tag for a new initial update of `class` (0, the
    /// "untracked" tag, when history is off).
    pub(crate) fn issue_tag(&self, class: &'static str) -> u64 {
        self.history().map_or(0, |mut log| log.issue(class))
    }

    /// Record that the local copy of `node` observed update `tag`.
    pub(crate) fn observe(&self, node: NodeId, tag: u64, kind: ObserveKind) {
        if let Some(mut log) = self.history() {
            log.observe(node.raw(), self.me.0, tag, kind);
        }
    }

    /// Record that `tag` was performed as an initial action on the local
    /// copy of `node`.
    pub(crate) fn observe_initial(&self, node: NodeId, tag: u64) {
        if let Some(mut log) = self.history() {
            log.observe_initial(node.raw(), self.me.0, tag);
        }
    }

    /// Record that `tag` was consumed without any copy observing it.
    pub(crate) fn observe_global(&self, tag: u64) {
        if let Some(mut log) = self.history() {
            log.observe_global(tag);
        }
    }

    /// The tags the local copy of `node` has observed (seeds the snapshot
    /// coverage of a copy it spawns).
    pub(crate) fn copy_coverage(&self, node: NodeId) -> Vec<u64> {
        self.history()
            .map_or_else(Vec::new, |log| log.copy_coverage(node.raw(), self.me.0))
    }

    /// Take `msg` toward a node — the one place that decides *message or
    /// continue*. A node stored elsewhere gets a message to `home`. A
    /// resident node gets the action's next step in-process when the kind is
    /// navigable (the paper's processing model, §1.1: a step whose next node
    /// is on this processor never touches the network), up to
    /// [`LOCAL_STEP_CAP`] steps per delivered action; everything else — the
    /// non-navigable kinds and the cap fall-back — is a hand-off to self
    /// through the queue.
    pub(crate) fn send_to_node(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        node: NodeId,
        home: ProcId,
        msg: Msg,
    ) {
        if !self.store.contains(node) {
            ctx.send(home, msg);
        } else if msg.is_navigable() && self.local_steps < LOCAL_STEP_CAP {
            self.local_steps += 1;
            self.metrics.bump(Ctr::LocalSteps, 1);
            self.local.push_back(msg);
        } else {
            self.requeue(ctx, msg);
        }
    }

    /// Hand `msg` to this processor through the queue: a real send to self,
    /// ending the current action's part in it. Misnavigation restarts always
    /// yield this way — a restart waits for state that another message must
    /// deliver, so it must let that message in — and so does a chain that
    /// used up its step budget.
    pub(crate) fn requeue(&self, ctx: &mut Context<'_, Msg>, msg: Msg) {
        ctx.send(self.me, msg);
    }

    /// Run the current action's in-process steps to completion: each one is
    /// an atomic per-node action like a delivered one, and may queue the
    /// next. Iterative — a chain never grows the stack.
    fn run_local(&mut self, ctx: &mut Context<'_, Msg>) {
        while let Some(msg) = self.local.pop_front() {
            self.dispatch(ctx, self.me, msg);
        }
        self.local_steps = 0;
    }

    /// Reply to the external client.
    pub(crate) fn reply(&self, ctx: &mut Context<'_, Msg>, outcome: Outcome) {
        ctx.send(ProcId::EXTERNAL, Msg::Done(outcome));
    }

    /// Install a copy arriving on the wire.
    fn handle_install(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        snapshot: crate::node::NodeSnapshot,
        reason: InstallReason,
        covered: Vec<u64>,
    ) {
        let id = snapshot.id;
        if self.retired.contains_key(&id) {
            // A zombie: the node was merged away while this install (a
            // migration or join grant) was in flight.
            // Installing it would resurrect a leaf whose range the absorber
            // already owns and break the leaf chain.
            self.pending_joins.remove(&id);
            return;
        }
        let mut join_keys = Vec::new();
        if reason == InstallReason::JoinGrant {
            join_keys = self.pending_joins.remove(&id).unwrap_or_default();
            if self.store.contains(id) {
                // A duplicate grant (re-joins race): the resident copy is
                // already receiving relays and may have applied updates the
                // stale snapshot predates — never overwrite it.
                self.unjoined.remove(&id);
                self.continue_path(ctx, id, &join_keys);
                return;
            }
        }
        let copy = snapshot.into_copy();
        let parent = copy.parent_link();
        let low = copy.low;
        let is_leaf = copy.is_leaf();
        self.store.install(copy);
        self.unjoined.remove(&id);
        // Migrations and join grants are recorded here, when the snapshot
        // actually lands (a new root's copies, like a sibling's, were
        // recorded by the PC at creation time). For grants this re-marks a
        // copy live after a crash-recovery rejoin (the restart logged
        // `copy_deleted`); the `covered` tags are the PC's coverage, which
        // this snapshot synthesizes. Recording only on a real install keeps
        // the duplicate-grant early-return above from claiming coverage a
        // resident copy never received.
        if matches!(
            reason,
            InstallReason::Migration { .. } | InstallReason::JoinGrant
        ) {
            if let Some(mut log) = self.history() {
                log.copy_created(id.raw(), self.me.0, covered);
            }
        }
        // Apply protocol events that raced ahead of the install.
        self.replay_stash(ctx, id);
        match reason {
            InstallReason::Migration { from } => {
                self.metrics.bump(Ctr::MigrationsIn, 1);
                self.after_migration_in(ctx, id, from);
                if self.cfg.variable_copies && is_leaf {
                    self.ensure_path_replication(ctx, parent, low);
                }
            }
            InstallReason::JoinGrant => {
                self.metrics.bump(Ctr::Joins, 1);
                // Continue joining until we hold the whole path.
                self.continue_path(ctx, id, &join_keys);
            }
            InstallReason::Bootstrap => {}
        }
    }

    /// Re-execute everything stashed for `node` against the resident copy,
    /// in arrival order (inline, so it stays ordered ahead of future
    /// arrivals). Called when what the events waited for has happened: the
    /// copy's install, or — for relays held on the absorb epoch — an absorb
    /// or snapshot that advanced it. An event that must keep waiting
    /// stashes itself again.
    pub(crate) fn replay_stash(&mut self, ctx: &mut Context<'_, Msg>, node: NodeId) {
        if let Some(items) = self.stash.remove(&node) {
            for m in items {
                self.replay_stashed(ctx, m);
            }
        }
    }

    /// Re-execute a stashed protocol event against the now-resident copy.
    pub(crate) fn replay_stashed(&mut self, ctx: &mut Context<'_, Msg>, msg: Msg) {
        match msg {
            Msg::RelayedInsert {
                node,
                key,
                entry,
                tag,
                version,
                span,
                epoch,
            } => self.apply_relayed_insert(
                ctx,
                RelayedItem {
                    node,
                    key,
                    entry,
                    tag,
                    version,
                    span,
                    epoch,
                },
            ),
            other => self.dispatch(ctx, self.me, other),
        }
    }

    fn handle_new_root(&mut self, root: NodeId, level: u8, home: ProcId, children: [NodeId; 2]) {
        self.store.set_root(root, level, home);
        self.reparent_under_root(root, home, children);
    }
}

impl DbProc {
    /// One atomic per-node action: route `msg` to its handler.
    fn dispatch(&mut self, ctx: &mut Context<'_, Msg>, from: ProcId, msg: Msg) {
        match msg {
            Msg::Client { op, key, intent } => self.handle_client(ctx, op, key, intent),
            // The key-addressed kinds take a step of the walk, and act
            // only once they have arrived at the node they belong to.
            Msg::Descend { .. }
            | Msg::Scan { .. }
            | Msg::InsertAt { .. }
            | Msg::Absorb { .. }
            | Msg::LinkChange { relayed: false, .. } => self.navigate(ctx, msg),
            Msg::ClientScan { op, from, limit } => self.handle_client_scan(ctx, op, from, limit),
            Msg::ScanResult { .. } => {
                debug_assert!(false, "ScanResult delivered to a processor");
            }
            Msg::RelayedInsert {
                node,
                key,
                entry,
                tag,
                version,
                span,
                epoch,
            } => self.handle_relayed_insert(
                ctx,
                RelayedItem {
                    node,
                    key,
                    entry,
                    tag,
                    version,
                    span,
                    epoch,
                },
            ),
            Msg::RelayBatch(items) => {
                for item in items {
                    self.handle_relayed_insert(ctx, item);
                }
            }
            Msg::SplitStart { node } => self.handle_split_start(ctx, from, node),
            Msg::SplitAck { node } => self.handle_split_ack(ctx, node),
            Msg::SplitEnd {
                node,
                info,
                sibling,
                tag,
            } => self.handle_split_end(ctx, node, info, *sibling, tag),
            Msg::RelayedSplit {
                node,
                info,
                sibling,
                tag,
                relays,
            } => self.handle_relayed_split(ctx, node, info, sibling, tag, relays),
            Msg::MergeReq {
                node,
                child,
                low,
                reply_to,
            } => self.handle_merge_req(ctx, node, child, low, reply_to),
            Msg::MergeGrant { child, left } => self.handle_merge_grant(ctx, child, left),
            Msg::MergeDecline { child } => self.handle_merge_decline(child),
            Msg::RelayedRetire { node, left } => self.handle_relayed_retire(ctx, node, left),
            Msg::RelayedAbsorb { node, info, count } => {
                self.handle_relayed_absorb(ctx, node, info, count)
            }
            Msg::InstallCopy {
                snapshot,
                reason,
                covered,
            } => self.handle_install(ctx, *snapshot, reason, covered),
            Msg::NewRoot {
                root,
                level,
                home,
                children,
            } => self.handle_new_root(root, level, home, children),
            Msg::Migrate { node, dest } => self.handle_migrate(ctx, node, dest),
            Msg::LinkChange { .. } => self.handle_link_change(ctx, msg),
            Msg::ChildHomeChange {
                node,
                sep,
                child,
                home,
                version,
                tag,
                relayed,
            } => self.handle_child_home_change(ctx, node, sep, child, home, version, tag, relayed),
            Msg::Join { node, joiner } => self.handle_join(ctx, node, joiner),
            Msg::Unjoin { node, leaver } => self.handle_unjoin(ctx, node, leaver),
            Msg::RelayedJoin { .. } | Msg::RelayedUnjoin { .. } => {
                self.handle_relayed_membership(msg)
            }
            Msg::SyncReq { node } => self.handle_sync_req(ctx, from, node),
            Msg::SyncState {
                node,
                snapshot,
                covered,
            } => self.handle_sync_state(ctx, node, *snapshot, covered),
            Msg::LockReq { node, ticket } => self.handle_lock_req(ctx, from, node, ticket),
            Msg::LockGrant { node, ticket } => self.handle_lock_grant(ctx, node, ticket),
            Msg::ApplyUnlock {
                node,
                ticket,
                update,
            } => self.handle_apply_unlock(ctx, node, ticket, update),
            Msg::Done(_) => {
                // Replies are addressed to EXTERNAL; one arriving here is a
                // harness bug, not a protocol state — drop it.
                debug_assert!(false, "Done delivered to a processor");
            }
        }
    }
}

impl Process for DbProc {
    type Msg = Msg;

    /// The shared history log is a processor's only state outside itself,
    /// and it is touched only while history is recorded.
    fn isolated(&self) -> bool {
        !self.cfg.record_history
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcId, msg: Msg) {
        // Only message handlers take navigable steps, so only they drain.
        debug_assert!(self.local.is_empty(), "a step outlived its action");
        debug_assert!(!self.splits_owed, "a split relay outlived its action");
        self.dispatch(ctx, from, msg);
        self.run_local(ctx);
        self.end_action(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: u64) {
        match token {
            TIMER_PIGGYBACK => {
                self.relay_timer_armed = false;
                self.metrics.bump(Ctr::PiggybackTimerFlushes, 1);
                self.flush_relays(ctx);
            }
            TIMER_FORWARD_GC => {
                self.store.gc_forwards(ctx.now().ticks(), FORWARD_TTL);
            }
            _ => {}
        }
        self.end_action(ctx);
    }

    /// Crash recovery (§1.1 stability model + §4.3 joins): the stable store
    /// — leaves, PC copies, and the session outbox — survives the crash;
    /// the volatile cache of non-PC interior copies does not. Each dropped
    /// copy is re-acquired from its PC through the version-numbered join
    /// protocol, which resynchronizes it exactly like a late joiner.
    fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
        self.metrics.bump(Ctr::Recoveries, 1);
        // Quarantine opinions predate the crash; flush and forget them
        // (see `flush_quarantine_on_restart`).
        self.flush_quarantine_on_restart(ctx);
        // The piggyback timer died with the crash; the buffered relays are
        // stable, so flush them now and let the next buffering re-arm it.
        self.relay_timer_armed = false;
        self.flush_relays(ctx);
        let me = self.me;
        let mut victims: Vec<(NodeId, ProcId, Key)> = self
            .store
            .iter()
            .filter(|c| !c.is_leaf() && c.primary.pc() != me)
            .map(|c| (c.id, c.primary.pc(), c.low))
            .collect();
        // The store iterates in hash order; the join messages must go out
        // in a replayable order or identical seeds diverge.
        victims.sort_unstable();
        ctx.mark(
            simnet::TraceEvent::Rejoin,
            "recovery.rejoin",
            format!("rejoin {} interior copies, sync pull on", victims.len()),
        );
        for (node, pc, low) in victims {
            self.drop_copy(node);
            // A rejoin is for the node itself: its own low key never leaves
            // its range, so the grant always covers it.
            if self.note_pending_join(node, low) {
                self.metrics.bump(Ctr::RecoveryRejoins, 1);
                // Relays may race ahead of the re-grant; they must stash
                // for replay, not be discarded as post-unjoin strays.
                self.unjoined.remove(&node);
                ctx.send(pc, Msg::Join { node, joiner: me });
            }
        }
        // Anti-entropy catch-up for the copies the stable store kept: the
        // rejoin pass re-acquires dropped interior copies, this pulls the
        // retained ones (leaves, own-PC nodes) back up to date.
        self.sync_pull_all(ctx);
        // `merge_pending` is stable, but the request it guards may have been
        // a hand-off to a resident parent copy, which the crash destroyed —
        // and then nothing would ever clear the bit or reclaim the leaf.
        // Ask again for every leaf that is still empty; a request that did
        // survive (in the session outbox) only earns a second grant, which
        // the commit-time re-verify declines once the leaf is gone.
        if self.cfg.merge_at_empty {
            self.merge_pending.clear();
            let mut leaves: Vec<NodeId> = self
                .store
                .iter()
                .filter(|c| c.is_leaf() && c.primary.pc() == me)
                .map(|c| c.id)
                .collect();
            leaves.sort_unstable();
            for leaf in leaves {
                self.maybe_merge(ctx, leaf);
            }
        }
        self.end_action(ctx);
    }

    fn on_peer_change(&mut self, ctx: &mut Context<'_, Msg>, peer: ProcId, up: bool) {
        self.handle_peer_change(ctx, peer, up);
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        self.metrics.named()
    }

    fn metrics_into(&self, out: &mut Vec<(&'static str, u64)>) {
        self.metrics.named_into(out);
    }

    fn take_moved(&mut self, out: Option<&mut Vec<(&'static str, u64)>>) -> bool {
        self.metrics.take_moved(out);
        true
    }

    /// Lazy-lag level gauges, snapshotted by the sampler (never by the
    /// trace). Ages are computed against the sample time from the
    /// timestamps kept in the observability-bookkeeping fields, so an idle
    /// backlog visibly *ages* between samples even though no action ran.
    fn gauges(&self, now: simnet::SimTime) -> Vec<(&'static str, u64)> {
        let t = now.ticks();
        let age = |since: u64| t.saturating_sub(since);
        let waiting = self.relay_buf.iter().filter(|s| !s.items.is_empty());
        let backlog_age = waiting.map(|s| s.since).min().map_or(0, age);
        let deferred: u64 = self.missed.values().map(|s| s.len() as u64).sum();
        let dwell = self.parked.iter().map(|(t, _)| *t).min().map_or(0, age);
        // The oldest stamp among resident copies that have applied a relay:
        // one scan of the store's dense stamp array at sample time.
        let staleness = self.store.oldest_relayed_at().map_or(0, age);
        vec![
            ("proc.merge_pending", self.merge_pending.len() as u64),
            ("proc.parked_dwell", dwell),
            ("proc.parked_writes", self.parked.len() as u64),
            ("relay.backlog_age", backlog_age),
            ("relay.backlog_depth", self.relay_backlog as u64),
            ("relay.deferred_depth", deferred),
            ("store.staleness_max", staleness),
        ]
    }

    fn fingerprint(&self) -> Option<u64> {
        let mut h = simnet::FxHasher::default();
        self.fingerprint_into(&mut h);
        Some(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;

    #[test]
    fn all_other_procs_excludes_self() {
        let log = Arc::new(Mutex::new(HistoryLog::disabled()));
        let p = DbProc::new(ProcId(1), 4, TreeConfig::default(), log);
        let others: Vec<u32> = p.all_other_procs().map(|p| p.0).collect();
        assert_eq!(others, vec![0, 2, 3]);
    }

    /// The restart shape of the stamp bug: an owner that comes back with its
    /// stamp counter at zero (a clock that was not stable storage) must
    /// still mint above the entries it holds, or `upsert` drops the write it
    /// just acknowledged. Green since `leaf_write` mints above the resident
    /// entry; the counter is zeroed by hand because this `DbProc` *is* the
    /// stable store and a simulated crash keeps it.
    #[test]
    fn a_write_acknowledged_after_the_owner_lost_its_clock_is_the_value_read() {
        use crate::{BuildSpec, ClientOp, DbCluster, Intent, Placement};
        let cfg = TreeConfig {
            placement: Placement::Uniform { copies: 1 },
            ..TreeConfig::default()
        };
        let spec = BuildSpec::new((0..200).map(|k| k * 10).collect(), 4, cfg);
        let mut cluster = DbCluster::build(&spec, simnet::SimConfig::seeded(1));
        let op = |cluster: &mut DbCluster, intent| {
            cluster.submit(ClientOp {
                origin: ProcId(0),
                key: 500,
                intent,
            });
            let records = cluster.try_run_to_quiescence().expect("run quiesces");
            records[0].outcome.found
        };
        for v in 0..60 {
            op(&mut cluster, Intent::Insert(1000 + v));
        }
        let owners: Vec<ProcId> = cluster.leaves().iter().map(|(_, owner)| *owner).collect();
        for owner in owners {
            cluster.sim.proc_mut(owner).stamp_counter = 0;
        }
        assert_eq!(op(&mut cluster, Intent::Insert(7777)), Some(1059));
        assert_eq!(op(&mut cluster, Intent::Search), Some(7777));
    }

    /// Delete churn on replicated leaves: every write relays to two copies
    /// and stamps them, then the emptied leaves retire at all three. The
    /// stamp lives in the copy, so `store.staleness_max` can only speak for
    /// resident copies: it follows the oldest stamp in the store, lets go of
    /// it when that copy leaves, and a copy coming back off the wire starts
    /// unstamped.
    #[test]
    fn staleness_stamps_leave_with_their_copies() {
        use crate::{BuildSpec, ClientOp, DbCluster, Intent, ProtocolKind};
        let cfg = TreeConfig {
            merge_at_empty: true,
            ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3)
        };
        let keys: Vec<Key> = (0..200).map(|k| k * 10).collect();
        let spec = BuildSpec::new(keys.clone(), 4, cfg);
        let mut cluster = DbCluster::build(&spec, simnet::SimConfig::jittery(7, 2, 25));
        let ops: Vec<ClientOp> = [Intent::Insert(1), Intent::Delete]
            .into_iter()
            .flat_map(|intent| keys.iter().map(move |&key| (key, intent)))
            .enumerate()
            .map(|(i, (key, intent))| ClientOp {
                origin: ProcId(i as u32 % 4),
                key,
                intent,
            })
            .collect();
        cluster.try_run_closed_loop(&ops, 4).expect("churn drains");

        let now = cluster.sim.now();
        let staleness = |p: &DbProc| {
            let gauges = p.gauges(now);
            let (_, v) = gauges
                .iter()
                .find(|(name, _)| *name == "store.staleness_max")
                .expect("gauge exported");
            *v
        };
        // What the gauge may reflect: the oldest stamp among resident copies.
        let oldest = |p: &DbProc| {
            let stamped = p
                .store
                .iter()
                .filter_map(|c| Some((c.id, p.store.relayed_at(c.id)?)));
            stamped
                .min_by_key(|&(_, at)| at)
                .map(|(id, at)| (id, now.ticks() - at))
        };

        let mut retired = 0;
        for (id, p) in cluster.sim.procs() {
            assert!(p.metrics.relays_applied > 0, "{id}: relays stamped copies");
            retired += p.metrics.retires_applied;
            assert_eq!(staleness(p), oldest(p).map_or(0, |(_, age)| age), "{id}");
        }
        assert!(retired > 0, "the churn retired stamped copies");

        // The stalest copy leaves: the gauge moves on to the next resident
        // stamp instead of remembering the departed one.
        let p = cluster.sim.proc_mut(ProcId(0));
        let (node, age) = oldest(p).expect("relays stamped a resident copy");
        assert_eq!(staleness(p), age);
        let gone = p.drop_copy(node).expect("resident");
        let next = oldest(p).map_or(0, |(_, age)| age);
        assert!(next <= age);
        assert_eq!(staleness(p), next);
        // ... and comes back as a snapshot (a migration or join grant):
        // unstamped, so it says nothing until a relay reaches it again.
        p.store.install(gone.snapshot().into_copy());
        assert_eq!(p.store.relayed_at(node), None);
        assert_eq!(staleness(p), next);
    }
}

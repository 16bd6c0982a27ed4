//! The split relay is the whole cost of a split: it carries the sibling, so
//! it is the one message a split sends each other copy of the node — counted
//! here by *destination*, from what the splitting action itself sent, not by
//! message-kind prefix — and the relays the splitting action produced for a
//! peer ride aboard its (last) split relay to that peer.

mod common;

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::rc::Rc;

use common::traced_field;
use dbtree::{
    BuildSpec, ClientOp, DbCluster, InstallReason, Intent, Key, Link, Msg, NodeCopy, NodeId,
    PiggybackCfg, ProtocolKind, SeededBug, TreeConfig,
};
use simnet::{
    Choice, ChoiceKind, CrashEvent, FaultPlan, ProcId, Process, Scheduler, SessionConfig,
    SessionMsg, SimConfig, SimTime, TraceEntry, TraceEvent,
};
use workload::{KeyDist, Mix, WorkloadGen};

/// The members a traced split relay's sibling snapshot lists
/// (`copies: [P0, P1, P2]`).
fn traced_members(detail: &str) -> Option<BTreeSet<&str>> {
    let list = detail.split_once("copies: [")?.1;
    Some(list[..list.find(']')?].split(", ").collect())
}

fn counted(entry: &TraceEntry, counter: &str) -> u64 {
    let hit = entry.deltas.iter().find(|(n, _)| *n == counter);
    hit.map_or(0, |(_, by)| *by)
}

/// A fired event with the sequence numbers of the events it created.
type Fired = (Choice, Range<u64>);

/// Oldest-first, and a log of every fired event with the events it created:
/// the send side of the run, which the delivery trace alone does not have.
#[derive(Default)]
struct SendLog {
    fired: Rc<RefCell<Vec<Fired>>>,
}

impl Scheduler for SendLog {
    fn choose(&mut self, _now: SimTime, _enabled: &[Choice]) -> usize {
        0
    }

    fn fired(&mut self, chosen: &Choice, created: Range<u64>) {
        self.fired.borrow_mut().push((*chosen, created));
    }
}

/// Uniform inserts into a preloaded tree, every split accounted for by
/// destination: the action that performed it sent each other member of the
/// node exactly one remote message of a `split.*` kind — and no
/// `copy.install`, which is how the sibling used to travel. Returns
/// `(splits, split relays)`.
fn splits_cost_one_message_per_other_member(name: &str, cfg: TreeConfig) -> (u64, u64) {
    const P: u32 = 6;
    let preload: Vec<Key> = (0..600).map(|k| k * 10).collect();
    let spec = BuildSpec::new(preload, P, cfg);
    let mut sim_cfg = SimConfig::jittery(17, 2, 25);
    sim_cfg.trace_capacity = 1 << 17;
    let mut cluster = DbCluster::build(&spec, sim_cfg);
    let log = SendLog::default();
    let fired = Rc::clone(&log.fired);
    cluster.sim.set_scheduler(Box::new(log));

    let mut gen = WorkloadGen::new(KeyDist::Uniform { n: 6000 }, Mix::INSERT_ONLY, P, 0x5EED);
    let ops: Vec<ClientOp> = gen.batch(1500).iter().map(common::to_client).collect();
    let stats = cluster.try_run_closed_loop(&ops, 4).expect("drains");
    assert_eq!(stats.records.len(), ops.len(), "{name}");

    // Send side and delivery side, joined: the i-th delivery the scheduler
    // fired is the i-th `deliver` entry of the trace.
    let fired = fired.borrow();
    let trace = cluster.sim.trace();
    assert_eq!(trace.dropped(), 0, "{name}: the whole run is retained");
    let actions: Vec<(&Choice, &Range<u64>, &TraceEntry)> = fired
        .iter()
        .filter(|(c, _)| c.kind == ChoiceKind::Deliver)
        .zip(trace.of_event(TraceEvent::Deliver))
        .map(|((c, created), entry)| (c, created, entry))
        .collect();
    let by_seq: BTreeMap<u64, (&Choice, &TraceEntry)> =
        actions.iter().map(|(c, _, e)| (c.seq, (*c, *e))).collect();

    let (mut splits, mut relays) = (0, 0);
    for (action, created, entry) in &actions {
        assert_eq!((entry.to, entry.kind), (action.to, action.label), "{name}");
        let performed = counted(entry, "splits_initiated");
        if performed == 0 {
            continue;
        }
        splits += performed;
        let me = action.to;
        // Per split (named by the sibling it creates): who was told.
        let mut told: BTreeMap<String, (BTreeSet<String>, Vec<String>)> = BTreeMap::new();
        for (sent, delivery) in (*created).clone().filter_map(|s| by_seq.get(&s)) {
            if sent.label == "copy.install" {
                // Only a root split installs anything: the new root, on
                // every processor. A sibling is never shipped on its own.
                let why = delivery.detail();
                assert!(why.contains("reason: Bootstrap"), "{name}: {me} sent {why}");
            }
            // (Sync's `split.start` may leave too: the next split's AAS.)
            if !matches!(sent.label, "split.relay" | "split.end") {
                continue;
            }
            assert_ne!(sent.to, me, "{name}: a split relay to self");
            let detail = delivery.detail();
            let sib = traced_field(&detail, "sib").expect("a split relay names the sibling");
            let members = traced_members(&detail).expect("... and carries it");
            assert_eq!(traced_field(&detail, "pc"), Some(me.to_string().as_str()));
            let (expected, got) = told.entry(sib.to_owned()).or_default();
            *expected = members
                .into_iter()
                .filter(|m| *m != me.to_string())
                .map(str::to_owned)
                .collect();
            got.push(sent.to.to_string());
            relays += 1;
        }
        assert!(told.len() as u64 <= performed, "{name}: {told:?}");
        for (sib, (expected, mut got)) in told {
            got.sort();
            let expected: Vec<String> = expected.into_iter().collect();
            assert_eq!(
                got, expected,
                "{name}: the split creating {sib} at {me} did not tell each other member once"
            );
        }
    }
    let net = cluster.sim.stats();
    let carried = net.kind("split.relay").remote + net.kind("split.end").remote;
    assert_eq!(
        carried, relays,
        "{name}: a split relay no split accounts for"
    );
    (splits, relays)
}

#[test]
fn a_split_sends_each_other_member_exactly_one_message() {
    for copies in [2u64, 3, 4] {
        let cfg = TreeConfig::fixed_copies(ProtocolKind::SemiSync, copies as usize);
        let name = format!("semisync, {copies} copies");
        let (splits, relays) = splits_cost_one_message_per_other_member(&name, cfg);
        assert!(splits > 100, "{name}: only {splits} splits");
        assert_eq!(relays, splits * (copies - 1), "{name}: R − 1 per split");
    }
    // Under the synchronous protocol the action that performs the split is
    // the one that ends the AAS; its `split.end` carries the sibling.
    let cfg = TreeConfig::fixed_copies(ProtocolKind::Sync, 3);
    let (splits, ends) = splits_cost_one_message_per_other_member("sync, 3 copies", cfg);
    assert!(
        splits > 100 && ends == splits * 2,
        "sync: {ends} for {splits}"
    );
    // The dB-tree's placement: a leaf has one copy, so its split tells
    // nobody; an interior node is on every processor owning a leaf below.
    let (splits, relays) =
        splits_cost_one_message_per_other_member("path replication", TreeConfig::default());
    assert!(splits > 100, "path replication: only {splits} splits");
    assert!(0 < relays && relays < splits, "{relays} for {splits}");
}

/// A cluster of two processors, two copies of everything, leaves built full:
/// one more key splits the first leaf (PC = P0; keys 0, 10, .., 70).
fn full_leaves(sim_cfg: SimConfig) -> (DbCluster, NodeId) {
    let cfg = TreeConfig::fixed_copies(ProtocolKind::SemiSync, 2);
    let mut spec = BuildSpec::new((0..32).map(|k| k * 10).collect(), 2, cfg);
    spec.fill = 8;
    let cluster = DbCluster::build(&spec, sim_cfg);
    let first = primary_leaves(&cluster)[0];
    assert_eq!(
        (first.primary.pc(), first.edge.high()),
        (ProcId(0), Some(80))
    );
    let leaf = first.id;
    (cluster, leaf)
}

/// The primary copy of every leaf, in key order.
fn primary_leaves(cluster: &DbCluster) -> Vec<&NodeCopy> {
    let procs = cluster.sim.procs();
    let mut leaves: Vec<&NodeCopy> = procs
        .flat_map(|(me, p)| {
            p.store
                .iter()
                .filter(move |c| c.is_leaf() && c.primary.pc() == me)
        })
        .collect();
    leaves.sort_by_key(|c| c.low);
    leaves
}

fn insert(cluster: &mut DbCluster, key: Key) {
    cluster.submit(ClientOp {
        origin: ProcId(0),
        key,
        intent: Intent::Insert(key),
    });
    cluster.try_run_to_quiescence().expect("run quiesces");
}

fn copy_at(cluster: &DbCluster, at: ProcId, node: NodeId) -> &NodeCopy {
    cluster.sim.proc(at).store.get(node).expect("resident")
}

/// The PC → peer channel of one split action, its relay kinds only.
fn relays_on_channel(cluster: &mut DbCluster, pc: ProcId, peer: ProcId) -> Vec<&TraceEntry> {
    let deliveries = cluster.sim.trace().of_event(TraceEvent::Deliver);
    deliveries
        .filter(|e| (e.from, e.to) == (pc, peer))
        .filter(|e| e.kind.starts_with("split.") || e.kind.starts_with("insert."))
        .collect()
}

fn kinds<'a>(entries: &[&'a TraceEntry]) -> Vec<&'a str> {
    entries.iter().map(|e| e.kind).collect()
}

/// The peer's entries of the full first leaf (0, 10, .., 70) a split at
/// `sep` moves to the sibling: what its shrink discards.
fn shrunk(sep: Key) -> u64 {
    (0..8).filter(|k| k * 10 >= sep).count() as u64
}

/// A PC's own write that overfills the node reaches the other copies
/// *after* the split: aboard the split relay, with the parent's new edge,
/// applied once the split has been. The sibling snapshot was taken after the
/// write, so a key at or above the separator is in the installed sibling
/// and its relay is the out-of-range discard a non-PC copy always
/// performed; a key below it is in range and applies.
#[test]
fn the_triggering_writes_relay_follows_the_split_relay_and_lands_where_its_key_went() {
    for (key, stays) in [(5, true), (75, false)] {
        let mut sim_cfg = SimConfig::seeded(3);
        sim_cfg.trace_capacity = 1 << 10;
        let (mut cluster, leaf) = full_leaves(sim_cfg);
        insert(&mut cluster, key);

        let (pc, peer) = (ProcId(0), ProcId(1));
        let sib = copy_at(&cluster, pc, leaf)
            .edge
            .right()
            .expect("split")
            .node;
        let sep = copy_at(&cluster, pc, sib).low;
        let channel = relays_on_channel(&mut cluster, pc, peer);
        // One message: the split relay carries the leaf's relay and the
        // parent's new edge.
        assert_eq!(kinds(&channel), ["split.relay"], "key {key}");
        let discarded = shrunk(sep) + !stays as u64;
        assert_eq!(counted(channel[0], "relays_discarded"), discarded);
        assert_eq!(counted(channel[0], "relays_applied"), 1 + stays as u64);

        for at in [pc, peer] {
            let (node, sibling) = (copy_at(&cluster, at, leaf), copy_at(&cluster, at, sib));
            assert_eq!(node.entries.get(&key).is_some(), stays, "{at}, key {key}");
            assert_eq!(
                sibling.entries.get(&key).is_some(),
                !stays,
                "{at}, key {key}"
            );
            assert_eq!(node.edge.high(), Some(sibling.low));
        }
        for node in [leaf, sib] {
            let digests = [pc, peer].map(|at| copy_at(&cluster, at, node).digest());
            assert_eq!(digests[0], digests[1], "copies of {node:?} diverged");
        }
        let expected: BTreeSet<Key> = (0..32).map(|k| k * 10).chain([key]).collect();
        common::assert_clean(&mut cluster, &expected);
    }
}

/// A split relay that arrives while its node's own install is in flight
/// (a rejoin after a crash): the sibling it carries is installed at once —
/// nothing else will ever bring it — and only the range shrink waits in the
/// stash, with the relay that followed it, until the node lands.
#[test]
fn a_split_relay_stashed_behind_its_nodes_install_still_installs_the_sibling() {
    let (mut cluster, leaf) = full_leaves(SimConfig::seeded(3));
    let (pc, peer) = (ProcId(0), ProcId(1));
    let in_flight = cluster.sim.proc_mut(peer).store.remove(leaf).expect("held");
    insert(&mut cluster, 75);

    let sib = copy_at(&cluster, pc, leaf)
        .edge
        .right()
        .expect("split")
        .node;
    let sep = copy_at(&cluster, pc, sib).low;
    let at_peer = &cluster.sim.proc(peer);
    assert!(
        at_peer.store.contains(sib),
        "the sibling waited for the node"
    );
    assert!(copy_at(&cluster, peer, sib).entries.get(&75).is_some());
    assert!(!at_peer.store.contains(leaf));
    let stashed: Vec<_> = at_peer.stash_view().into_iter().collect();
    assert_eq!(stashed, [(leaf, 2)], "the shrink, then the write's relay");

    // The node lands as it was before the split: the stash shrinks it.
    assert_eq!(in_flight.edge.high(), Some(80));
    cluster.sim.inject(
        peer,
        SessionMsg::Raw(Msg::InstallCopy {
            snapshot: Box::new(in_flight.snapshot()),
            reason: InstallReason::Bootstrap,
            covered: Vec::new(),
        }),
    );
    cluster.try_run_to_quiescence().expect("run quiesces");
    assert!(cluster.sim.proc(peer).stash_view().is_empty());
    let node = copy_at(&cluster, peer, leaf);
    assert_eq!(node.edge.high(), Some(sep));
    assert_eq!(node.edge.right().map(|l| l.node), Some(sib));
    for node in [leaf, sib] {
        let digests = [pc, peer].map(|at| copy_at(&cluster, at, node).digest());
        assert_eq!(digests[0], digests[1], "copies of {node:?} diverged");
    }
}

/// The same race with the relays aboard the split relay: the sibling is
/// installed and the parent's new edge applied on arrival, while the shrink
/// and the write's relay for the node wait in the stash — in that order,
/// which is what makes the write's key, at or above the separator, an
/// out-of-range discard when the install replays them, not an entry the
/// shrink then removes.
#[test]
fn a_carrying_split_relay_stashed_behind_its_nodes_install_lands_after_it_in_order() {
    let mut sim_cfg = SimConfig::seeded(3);
    sim_cfg.trace_capacity = 1 << 10;
    let (mut cluster, leaf) = full_leaves(sim_cfg);
    let (pc, peer) = (ProcId(0), ProcId(1));
    let in_flight = cluster.sim.proc_mut(peer).store.remove(leaf).expect("held");
    insert(&mut cluster, 75);

    let sib = copy_at(&cluster, pc, leaf)
        .edge
        .right()
        .expect("split")
        .node;
    let sep = copy_at(&cluster, pc, sib).low;
    let channel = relays_on_channel(&mut cluster, pc, peer);
    assert_eq!(kinds(&channel), ["split.relay"]);
    // On arrival: the sibling and the parent's edge; nothing discarded.
    assert_eq!(counted(channel[0], "relays_applied"), 1);
    assert_eq!(counted(channel[0], "relays_discarded"), 0);
    assert!(copy_at(&cluster, peer, sib).entries.get(&75).is_some());
    let stashed: Vec<_> = cluster.sim.proc(peer).stash_view().into_iter().collect();
    assert_eq!(stashed, [(leaf, 2)], "the shrink, then the write's relay");

    let from = cluster.sim.trace().len();
    cluster.sim.inject(
        peer,
        SessionMsg::Raw(Msg::InstallCopy {
            snapshot: Box::new(in_flight.snapshot()),
            reason: InstallReason::Bootstrap,
            covered: Vec::new(),
        }),
    );
    cluster.try_run_to_quiescence().expect("run quiesces");
    let install = cluster.sim.trace().iter().skip(from);
    let install: Vec<&TraceEntry> = install.filter(|e| e.kind == "copy.install").collect();
    assert_eq!(install.len(), 1);
    // Shrink first: the write's key is out of range when its relay replays.
    assert_eq!(counted(install[0], "relays_applied"), 0);
    assert_eq!(counted(install[0], "relays_discarded"), shrunk(sep) + 1);
    assert!(cluster.sim.proc(peer).stash_view().is_empty());
    assert_eq!(copy_at(&cluster, peer, leaf).edge.high(), Some(sep));
    for node in [leaf, sib] {
        let digests = [pc, peer].map(|at| copy_at(&cluster, at, node).digest());
        assert_eq!(digests[0], digests[1], "copies of {node:?} diverged");
    }
}

/// A leaf split whose resident parent splits in the same action owes each
/// peer two split relays, one per split — never two splits in one message,
/// so a split still costs its node's other copies one `split.relay` each —
/// and only the second carries the action's relays: the write, the edge
/// that overfilled the parent, the edge into the grandparent. The peer
/// applies both splits before any of them, as it always did.
#[test]
fn a_leaf_and_parent_split_in_one_action_send_each_peer_two_split_relays_the_second_carrying() {
    let cfg = TreeConfig::fixed_copies(ProtocolKind::SemiSync, 2);
    // 16 full leaves under two full parents: P0 is the PC of the first
    // leaf, of its parent and of the root.
    let mut spec = BuildSpec::new((0..128).map(|k| k * 10).collect(), 2, cfg);
    spec.fill = 8;
    let mut sim_cfg = SimConfig::seeded(3);
    sim_cfg.trace_capacity = 1 << 10;
    let mut cluster = DbCluster::build(&spec, sim_cfg);
    let (pc, peer) = (ProcId(0), ProcId(1));
    insert(&mut cluster, 5);
    assert_eq!(cluster.sim.proc(pc).metrics.splits_initiated, 2);

    let channel = relays_on_channel(&mut cluster, pc, peer);
    assert_eq!(kinds(&channel), ["split.relay", "split.relay"]);
    assert_eq!(counted(channel[0], "relays_applied"), 0, "the leaf's: bare");
    assert_eq!(
        counted(channel[1], "relays_applied"),
        3,
        "the parent's: all"
    );
    let sibs: BTreeSet<String> = channel
        .iter()
        .map(|e| traced_field(&e.detail(), "sib").expect("named").to_owned())
        .collect();
    assert_eq!(sibs.len(), 2, "one split per message");

    for (at, p) in cluster.sim.procs() {
        assert!(p.stash_view().is_empty(), "{at}");
    }
    let copies = |at: ProcId| {
        let mut digests: Vec<_> = cluster
            .sim
            .proc(at)
            .store
            .iter()
            .map(|c| c.digest())
            .collect();
        digests.sort_unstable();
        digests
    };
    assert_eq!(copies(pc), copies(peer), "every node on both, converged");
    let expected: BTreeSet<Key> = (0..128).map(|k| k * 10).chain([5]).collect();
    common::assert_clean(&mut cluster, &expected);
}

/// With piggybacking on, relays wait across actions for a full batch or
/// the flush timer — except in a slot that owes a split relay: it leaves
/// at the end of the splitting action and takes along everything buffered
/// for that peer, earlier actions' relays included. Every other slot keeps
/// waiting.
#[test]
fn piggybacked_relays_ride_the_split_relay_and_other_slots_keep_waiting() {
    const FLUSH: u64 = 5_000;
    let cfg = TreeConfig {
        piggyback: Some(PiggybackCfg {
            max_batch: 100,
            flush_interval: FLUSH,
        }),
        ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 2)
    };
    // Six leaves of seven: P0 holds the first two (with P1) and the last
    // two (with their PC, P2); the root's copies are P0 and P1.
    let mut spec = BuildSpec::new((0..42).map(|k| k * 10).collect(), 3, cfg);
    spec.fill = 7;
    let mut sim_cfg = SimConfig::seeded(3);
    sim_cfg.trace_capacity = 1 << 10;
    let mut cluster = DbCluster::build(&spec, sim_cfg);
    // A write to P2's leaf at P0's copy, then two to P0's first leaf; the
    // second overfills it.
    let writes: Vec<ClientOp> = [345, 5, 15]
        .into_iter()
        .map(|key| ClientOp {
            origin: ProcId(0),
            key,
            intent: Intent::Insert(key),
        })
        .collect();
    let stats = cluster.try_run_closed_loop(&writes, 1).expect("drains");
    assert_eq!(stats.records.len(), 3);
    assert_eq!(cluster.sim.proc(ProcId(0)).metrics.splits_initiated, 1);

    // P1: the split relay, carrying both writes' relays and the edge, long
    // before the timer.
    let to_p1 = relays_on_channel(&mut cluster, ProcId(0), ProcId(1));
    assert_eq!(kinds(&to_p1), ["split.relay"]);
    assert!(to_p1[0].at.ticks() < FLUSH, "{to_p1:?}");
    assert_eq!(counted(to_p1[0], "relays_applied"), 3);
    // P2: the first write's relay, when the timer fires.
    let to_p2 = relays_on_channel(&mut cluster, ProcId(0), ProcId(2));
    assert_eq!(kinds(&to_p2), ["insert.relay-batch"]);
    assert!(to_p2[0].at.ticks() >= FLUSH, "{to_p2:?}");

    let expected: BTreeSet<Key> = (0..42).map(|k| k * 10).chain([345, 5, 15]).collect();
    common::assert_clean(&mut cluster, &expected);
}

/// Under the seeded E21 fault (`RelaySuppress`) the split relay still
/// leaves — it creates the sibling — but carries nothing: the action's
/// relays stay buffered, where `relay.backlog_depth`, the gauge the E21
/// watchdog reads, sees them.
#[test]
fn a_suppressed_processors_split_relay_still_leaves_and_carries_nothing() {
    let cfg = TreeConfig {
        seeded: Some(SeededBug::RelaySuppress(0)),
        ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 2)
    };
    let mut spec = BuildSpec::new((0..32).map(|k| k * 10).collect(), 2, cfg);
    spec.fill = 8;
    let mut sim_cfg = SimConfig::seeded(3);
    sim_cfg.trace_capacity = 1 << 10;
    let mut cluster = DbCluster::build(&spec, sim_cfg);
    let (pc, peer) = (ProcId(0), ProcId(1));
    let leaf = primary_leaves(&cluster)[0].id;
    insert(&mut cluster, 75);

    let channel = relays_on_channel(&mut cluster, pc, peer);
    assert_eq!(kinds(&channel), ["split.relay"]);
    assert_eq!(counted(channel[0], "relays_applied"), 0);
    let sib = copy_at(&cluster, pc, leaf)
        .edge
        .right()
        .expect("split")
        .node;
    assert!(copy_at(&cluster, peer, sib).entries.get(&75).is_some());
    let gauges = cluster.sim.proc(pc).gauges(cluster.sim.now());
    let depth = gauges.iter().find(|(n, _)| *n == "relay.backlog_depth");
    assert_eq!(
        depth,
        Some(&("relay.backlog_depth", 2)),
        "write + edge, stuck"
    );
}

/// Over a lossy network the split relay is one frame like any other: lost,
/// it is retransmitted — once, when the retransmission gets through — and
/// delivered exactly once, and the peer ends with both halves.
#[test]
fn a_lost_split_relay_is_retransmitted_once_and_the_peer_ends_with_both_halves() {
    let (mut lost, mut retransmitted_once) = (0, 0);
    for seed in 0..12 {
        let mut sim_cfg = SimConfig::jittery(seed, 2, 25);
        sim_cfg.faults = FaultPlan::lossy(0.25);
        sim_cfg.trace_capacity = 1 << 14;
        let (mut cluster, _) = full_leaves(sim_cfg);
        // One op at a time, so a trace window holds one split's frames.
        for key in [5, 85, 165, 245] {
            // The first two leaves are P0's, the last two P1's.
            let (pc, peer) = if key < 160 {
                (ProcId(0), ProcId(1))
            } else {
                (ProcId(1), ProcId(0))
            };
            let from = cluster.sim.trace().len();
            insert(&mut cluster, key);
            let frames: Vec<&TraceEntry> = cluster
                .sim
                .trace()
                .iter()
                .skip(from)
                .filter(|e| e.kind == "split.relay" && (e.from, e.to) == (pc, peer))
                .collect();
            let drops = frames.iter().filter(|e| e.event == TraceEvent::Drop);
            let drops = drops.count();
            let fresh = frames.iter().filter(|e| {
                e.event == TraceEvent::Deliver && counted(e, "session.dup_suppressed") == 0
            });
            assert_eq!(fresh.count(), 1, "seed {seed}, key {key}: {frames:?}");
            // (A lost *ack* earns retransmissions too; those are suppressed.)
            let again = frames.iter().filter(|e| e.redelivery).count();
            if frames[0].event == TraceEvent::Drop {
                lost += 1;
                retransmitted_once += (drops == 1 && again == 1) as u32;
            }
        }
        let leaves: Vec<NodeId> = primary_leaves(&cluster).iter().map(|c| c.id).collect();
        assert_eq!(leaves.len(), 8, "seed {seed}: four splits");
        for leaf in leaves {
            let digests = [0, 1].map(|at| copy_at(&cluster, ProcId(at), leaf).digest());
            assert_eq!(digests[0], digests[1], "seed {seed}: {leaf:?} diverged");
        }
        let keys = (0..32).map(|k| k * 10).chain([5, 85, 165, 245]);
        common::assert_clean(&mut cluster, &keys.collect());
    }
    assert!(lost >= 4, "only {lost} split relays lost their first frame");
    assert!(retransmitted_once >= 2, "{retransmitted_once} of {lost}");
}

/// A split sends its relays and the parent insert, and nothing to its old
/// right neighbour: the one link a half-split sets is the right one, and it
/// is written in the splitting action. (A `LinkChange` used to keep the
/// neighbour's left link exact; as a hand-off to self it could be lost in a
/// crash.) Whatever instant the PC crashes at, every leaf's right link names
/// its true successor and no `mobility.link-change` was ever sent.
#[test]
fn a_pc_crash_at_any_instant_leaves_every_right_link_on_the_true_successor() {
    let cluster_with = |crash: Option<u64>| {
        let mut faults = FaultPlan::none();
        if let Some(at) = crash {
            faults = faults.with_crash(CrashEvent {
                proc: ProcId(0),
                at: SimTime(at),
                restart_at: Some(SimTime(at + 300)),
            });
        }
        let cfg = TreeConfig::fixed_copies(ProtocolKind::SemiSync, 2);
        let mut spec = BuildSpec::new((0..32).map(|k| k * 10).collect(), 2, cfg);
        spec.fill = 8;
        let sim_cfg = SimConfig {
            faults,
            ..SimConfig::seeded(29)
        };
        // Reliable sessions in both arms, so the crash is the only difference.
        DbCluster::build_with_session(&spec, sim_cfg, SessionConfig::reliable())
    };
    // Written from P1, split at their PC P0, whose crash is swept.
    let writes: Vec<ClientOp> = [5, 85]
        .into_iter()
        .map(|key| ClientOp {
            origin: ProcId(1),
            key,
            intent: Intent::Insert(key),
        })
        .collect();
    let clean_end = {
        let mut cluster = cluster_with(None);
        cluster.try_run_closed_loop(&writes, 1).expect("drains");
        assert_eq!(cluster.sim.proc(ProcId(0)).metrics.splits_initiated, 2);
        cluster.sim.now().ticks()
    };
    for at in 1..=clean_end {
        let mut cluster = cluster_with(Some(at));
        let stats = cluster.try_run_closed_loop(&writes, 1).expect("drains");
        assert_eq!(stats.records.len(), writes.len(), "crash at {at}");
        let leaves = primary_leaves(&cluster);
        assert_eq!(leaves.len(), 6, "crash at {at}");
        for pair in leaves.windows(2) {
            assert_eq!(
                pair[0].edge.right(),
                Some(Link::new(pair[1].id, pair[1].primary.pc())),
                "crash at {at}: the right link of {:?}",
                pair[0].id
            );
        }
        let notices = cluster.sim.stats().kind("mobility.link-change");
        assert_eq!(notices.total(), 0, "crash at {at}: {notices:?}");
        let expected: BTreeSet<Key> = (0..32).map(|k| k * 10).chain([5, 85]).collect();
        common::assert_clean(&mut cluster, &expected);
    }
}

//! Run-to-remote navigation: a navigable action (`Descend`, `Scan`,
//! `InsertAt`) keeps going inside the delivering action while its next node
//! is resident, and becomes a message only when it leaves the processor.
//!
//! What must not change: every outcome a client sees (node visits and
//! chases included). What must: hand-offs to self for those kinds are gone
//! from the message counts — except where a step *yields* on purpose
//! (misnavigation restarts, and the per-action step cap).

use std::collections::{BTreeMap, BTreeSet};

use dbtree::{
    BuildSpec, ClientOp, DbCluster, DbSubmission, Edge, Intent, Key, Link, Msg, NodeId, OpId,
    ProtocolKind, ScanSpec, TreeConfig, LOCAL_STEP_CAP,
};
use simnet::{ProcId, QuiesceError, Release, SessionMsg, SimConfig};

/// splitmix64 — the tests' own generator, so the pinned values below depend
/// on nothing but this file.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// (a) Read-only differential against the per-hop implementation. On a
/// fixed tree a search's outcome is a function of the tree alone, so the
/// digest and totals below — captured at the parent commit, where every
/// local step was an event — must hold bit for bit; what differs is that no
/// `descend` is handed to self any more.
#[test]
fn searches_match_the_per_hop_outcomes_with_no_handoffs_to_self() {
    const P: u32 = 8;
    let keys: Vec<Key> = (0..3000).map(|k| k * 10).collect();
    let cfg = TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3);
    let spec = BuildSpec::new(keys, P, cfg);
    let mut cluster = DbCluster::build(&spec, SimConfig::jittery(41, 2, 25));

    let mut rng = 7u64;
    let ops: Vec<ClientOp> = (0..1200)
        .map(|i| ClientOp {
            origin: ProcId(i % P),
            // Half the draws hit preloaded keys, half fall between them.
            key: splitmix(&mut rng) % 30_000 / 5 * 5,
            intent: Intent::Search,
        })
        .collect();
    let stats = cluster.try_run_closed_loop(&ops, 4).expect("drains");
    assert_eq!(stats.records.len(), ops.len());

    // Completion order (and with it the id an op is released under) moves
    // with the schedule; the multiset of outcomes does not.
    let mut records = stats.records.clone();
    records.sort_by_key(|r| (r.op.key, r.op.origin, r.outcome.hops, r.outcome.chases));
    for r in &records {
        assert_eq!(r.outcome.found, (r.op.key % 10 == 0).then_some(r.op.key));
    }
    let digest = history::fnv1a(records.iter().flat_map(|r| {
        let o = r.outcome;
        [
            r.op.key,
            o.found.unwrap_or(u64::MAX),
            o.hops as u64,
            o.chases as u64,
        ]
    }));
    let hops: u64 = records.iter().map(|r| r.outcome.hops as u64).sum();
    let chases: u64 = records.iter().map(|r| r.outcome.chases as u64).sum();
    let found = records.iter().filter(|r| r.outcome.found.is_some()).count() as u64;
    assert_eq!(
        (digest, hops, chases, found),
        PARENT_SEARCH_OUTCOMES,
        "search outcomes moved against the per-hop implementation"
    );

    let descend = cluster.sim.stats().kind("descend");
    assert_eq!(descend.local, 0, "a descend was handed to self");
    assert!(descend.remote > 0, "uniform-3 searches do leave the origin");
    let local_steps: u64 = cluster
        .sim
        .procs()
        .map(|(_, p)| p.metrics.local_steps)
        .sum();
    assert_eq!(
        local_steps + descend.remote,
        hops,
        "every node visit is an in-process step or a message"
    );
}

/// `(digest, Σhops, Σchases, found)` of the search stream above at commit
/// 11004fe (per-hop self-sends).
const PARENT_SEARCH_OUTCOMES: (u64, u64, u64, u64) = (15272748166987068213, 6000, 0, 598);

/// The sequential reference: `blink::BLinkTree` for inserts, lookups and
/// range scans, with the deleted keys shadowed beside it (the reference
/// tree has no delete; the dB-tree's is a tombstone).
struct Model {
    tree: blink::BLinkTree,
    dead: BTreeSet<Key>,
}

impl Model {
    fn get(&mut self, key: Key) -> Option<u64> {
        if self.dead.contains(&key) {
            return None;
        }
        self.tree.get(key)
    }

    /// Apply a point op; returns what the dB-tree must have acknowledged
    /// (the previous live value — for a search, the current one).
    fn apply(&mut self, op: &ClientOp) -> Option<u64> {
        let prev = self.get(op.key);
        match op.intent {
            Intent::Search => {}
            Intent::Insert(v) => {
                self.tree.insert(op.key, v);
                self.dead.remove(&op.key);
            }
            Intent::Delete => {
                self.dead.insert(op.key);
            }
        }
        prev
    }

    /// Live entries of `owner`'s keys in `[from, to]`.
    fn owned(&self, owner: u32, n: u32, from: Key, to: Option<Key>) -> Vec<(Key, u64)> {
        self.tree
            .range_scan(from, to.map(|t| t + 1))
            .into_iter()
            .filter(|(k, _)| k % n as u64 == owner as u64 && !self.dead.contains(k))
            .collect()
    }
}

/// (b) Mixed insert/delete/search/scan streams, all four protocol kinds.
/// Each origin works its own residue class of the key space with one op
/// outstanding, so per key the acknowledged results have exactly one legal
/// sequential explanation — while the origins race each other through
/// splits, relays and merges. A scan is checked on its origin's keys (the
/// other origins' are in flux): every one live in the window it covered,
/// nothing else.
#[test]
fn mixed_streams_agree_with_the_sequential_reference() {
    const P: u32 = 4;
    for (protocol, merge) in [
        (ProtocolKind::SemiSync, true),
        (ProtocolKind::Sync, true),
        (ProtocolKind::AvailableCopies, false),
        (ProtocolKind::Naive, false),
    ] {
        let cfg = TreeConfig {
            merge_at_empty: merge,
            ..TreeConfig::with_protocol(protocol)
        };
        let preload: Vec<Key> = (0..240).map(|k| k * 4).collect();
        let spec = BuildSpec::new(preload.clone(), P, cfg);
        let mut cluster = DbCluster::build(&spec, SimConfig::jittery(23, 2, 25));
        let mut model = Model {
            tree: blink::BLinkTree::new(8),
            dead: BTreeSet::new(),
        };
        for &k in &preload {
            model.tree.insert(k, k);
        }

        let mut rng = 0xD1CE ^ protocol.label().len() as u64;
        let items: Vec<DbSubmission> = (0..1600u32)
            .map(|i| {
                let origin = ProcId(i % P);
                let r = splitmix(&mut rng);
                // Keys of this origin's residue class, in and past the
                // preloaded span (appends grow the tree's right edge).
                let key = (r >> 8) % 300 * P as u64 + origin.0 as u64;
                match r % 16 {
                    0..=5 => DbSubmission::Op(ClientOp {
                        origin,
                        key,
                        intent: Intent::Insert(1 + (r >> 40)),
                    }),
                    6..=10 => DbSubmission::Op(ClientOp {
                        origin,
                        key,
                        intent: Intent::Delete,
                    }),
                    11..=14 => DbSubmission::Op(ClientOp {
                        origin,
                        key,
                        intent: Intent::Search,
                    }),
                    _ => DbSubmission::Scan(ScanSpec {
                        origin,
                        from: key,
                        limit: 12,
                    }),
                }
            })
            .collect();
        let stats = cluster
            .try_run_mixed(&items, Release::Window(1))
            .expect("stream drains");
        let scans = cluster.take_scans();
        assert_eq!(
            stats.records.len() + scans.len(),
            items.len(),
            "{protocol:?}"
        );

        // Driver ids are minted at submission, and an origin's next item is
        // released by its previous completion: id order is a legal
        // sequential order for every residue class.
        enum Done<'a> {
            Op(&'a dbtree::OpRecord),
            Scan(&'a dbtree::ScanRecord),
        }
        let mut by_id: BTreeMap<u64, Done> = BTreeMap::new();
        by_id.extend(stats.records.iter().map(|r| (r.id, Done::Op(r))));
        by_id.extend(scans.iter().map(|r| (r.id, Done::Scan(r))));
        for (id, done) in by_id {
            match done {
                Done::Op(r) => {
                    let want = model.apply(&r.op);
                    assert_eq!(r.outcome.found, want, "{protocol:?} op {id}: {:?}", r.op);
                }
                Done::Scan(r) => {
                    let items = &r.outcome.items;
                    assert!(items.windows(2).all(|w| w[0].0 < w[1].0), "key order");
                    assert!(items.len() <= r.op.limit as usize);
                    // A full result stopped at its last key; a short one
                    // ran off the end of the tree.
                    let to = (items.len() == r.op.limit as usize).then(|| items[items.len() - 1].0);
                    let got: Vec<(Key, u64)> = items
                        .iter()
                        .copied()
                        .filter(|(k, _)| k % P as u64 == r.op.origin.0 as u64)
                        .collect();
                    let want = model.owned(r.op.origin.0, P, r.op.from, to);
                    assert_eq!(got, want, "{protocol:?} scan {id}: {:?}", r.op);
                }
            }
        }
        let steps: u64 = cluster
            .sim
            .procs()
            .map(|(_, p)| p.metrics.local_steps)
            .sum();
        assert!(steps > 0, "{protocol:?}: no step ever ran in-process");
    }
}

/// One processor, two leaves whose right links point at each other and
/// whose ranges both end below the searched key.
fn right_link_cycle(max_events: u64) -> (DbCluster, Key) {
    let keys: Vec<Key> = (0..40).map(|k| k * 10).collect();
    let spec = BuildSpec::new(keys, 1, TreeConfig::default());
    let sim_cfg = SimConfig {
        max_events,
        ..SimConfig::seeded(3)
    };
    let mut cluster = DbCluster::build(&spec, sim_cfg);
    let me = ProcId(0);
    let (last, before) = {
        let store = &cluster.sim.proc(me).store;
        let last = store
            .iter()
            .find(|c| c.is_leaf() && c.edge.high().is_none())
            .expect("a rightmost leaf");
        let before = store
            .iter()
            .find(|c| c.is_leaf() && c.edge.right().is_some_and(|r| r.node == last.id))
            .expect("it has a left neighbour");
        (last.id, before.id)
    };
    let copy = cluster.sim.proc_mut(me).store.get_mut(last).unwrap();
    let low = copy.low;
    let (absorbs, version) = (copy.edge.absorbs(), copy.edge.link_version());
    copy.edge = Edge::new(absorbs, Some(low + 1), version, Some(Link::new(before, me)));
    (cluster, low + 5)
}

/// (c) A stale-link cycle confined to one processor must end in the
/// runtime's event budget, not spin inside one action: after
/// `LOCAL_STEP_CAP` in-process steps the chain goes back through the queue.
#[test]
fn a_local_right_link_cycle_ends_in_the_event_budget() {
    const BUDGET: u64 = 400;
    let (mut cluster, key) = right_link_cycle(BUDGET);
    cluster.submit(ClientOp {
        origin: ProcId(0),
        key,
        intent: Intent::Search,
    });
    let err = cluster
        .try_run_to_quiescence()
        .expect_err("the search can never complete");
    assert!(matches!(err, QuiesceError::EventLimit { .. }), "{err}");
    assert_eq!(cluster.pending_ops(), 1);

    // The cap is what stopped each action: every delivery but the client's
    // own ran exactly `LOCAL_STEP_CAP` steps and then yielded one descend
    // to the queue.
    let yields = cluster.sim.stats().kind("descend").local;
    assert!(
        yields >= BUDGET - 2,
        "only {yields} fall-backs in {BUDGET} events"
    );
    let p = cluster.sim.proc(ProcId(0));
    assert_eq!(p.metrics.local_steps, yields * LOCAL_STEP_CAP as u64);
    assert!(p.metrics.link_chases >= p.metrics.local_steps - 8);
}

/// (d) A misnavigation restart waits for state another message must
/// deliver, so it yields through the queue even though the node it restarts
/// at is resident — exactly one hand-off to self, then the action completes
/// in-process.
#[test]
fn a_missing_node_restart_goes_through_the_queue() {
    let keys: Vec<Key> = (0..40).map(|k| k * 10).collect();
    let spec = BuildSpec::new(keys, 1, TreeConfig::default());
    let mut cluster = DbCluster::build(&spec, SimConfig::seeded(5));
    let me = ProcId(0);
    cluster.sim.inject(
        me,
        SessionMsg::Raw(Msg::Descend {
            op: OpId(77),
            key: 120,
            intent: Intent::Search,
            node: NodeId(u64::MAX), // stored nowhere
            hops: 0,
            chases: 0,
            via: None,
        }),
    );
    cluster.sim.run();

    let p = cluster.sim.proc(me);
    assert_eq!(p.metrics.missing_node_recoveries, 1);
    assert_eq!(cluster.sim.stats().kind("descend").local, 1, "the restart");
    let done: Vec<_> = cluster
        .sim
        .outputs()
        .iter()
        .filter_map(|(_, _, m)| match m {
            SessionMsg::Raw(Msg::Done(o)) => Some(*o),
            _ => None,
        })
        .collect();
    assert_eq!(done.len(), 1, "the restarted search completes");
    assert_eq!((done[0].op, done[0].found), (OpId(77), Some(120)));
    // The missing node, then the closest local node — the leaf itself.
    assert_eq!((done[0].hops, done[0].chases), (2, 1));
}

/// Every copy of `node`, wherever it is stored.
fn copies_of(cluster: &DbCluster, node: NodeId) -> Vec<(ProcId, &dbtree::NodeCopy)> {
    let procs = cluster.sim.procs();
    procs
        .filter_map(|(p, proc)| proc.store.get(node).map(|c| (p, c)))
        .collect()
}

fn total(cluster: &DbCluster, f: impl Fn(&dbtree::ProcMetrics) -> u64) -> u64 {
    cluster.sim.procs().map(|(_, p)| f(&p.metrics)).sum()
}

/// (e) Growth past the built tree — `sim-append`'s shape at test size: 400
/// keys preloaded, 4 000 inserts over a range 250× wider, so nearly every
/// node of the final tree grew out of the built tree's right edge. A split
/// sibling inherits its node's parent hint, and while nothing repaired
/// hints every split completion walked the parent level from that one
/// ancestor (26 right-link steps per split here, 249 on `sim-append`). Now
/// a split starts at its parent or a link or two left of it, no action ever
/// spends its step budget, and the split protocol sends what it always
/// did: one relay per *other* copy of the node that split.
#[test]
fn growth_past_the_built_tree_completes_splits_near_the_parent() {
    const P: u32 = 8;
    let db_tree = TreeConfig {
        variable_copies: true,
        ..TreeConfig::default()
    };
    for (name, cfg) in [
        (
            "test bed",
            TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3),
        ),
        ("dB-tree", db_tree),
    ] {
        let preload: Vec<Key> = (0..400).map(|k| k * 10).collect();
        let spec = BuildSpec::new(preload.clone(), P, cfg);
        let mut cluster = DbCluster::build(&spec, SimConfig::jittery(29, 2, 25));
        let built: BTreeSet<NodeId> = cluster
            .sim
            .procs()
            .flat_map(|(_, p)| p.store.iter().map(|c| c.id).collect::<Vec<_>>())
            .collect();

        let mut rng = 0xA99E_u64;
        let ops: Vec<ClientOp> = (0..4000u64)
            .map(|i| ClientOp {
                origin: ProcId((splitmix(&mut rng) % P as u64) as u32),
                key: splitmix(&mut rng) % 1_000_000,
                intent: Intent::Insert(i),
            })
            .collect();
        let stats = cluster.try_run_closed_loop(&ops, 8).expect("drains");
        assert_eq!(stats.records.len(), ops.len(), "{name}");

        let splits = total(&cluster, |m| m.splits_initiated);
        assert!(
            splits > 600,
            "{name}: only {splits} splits — not a growth run"
        );
        let net = cluster.sim.stats();
        for kind in ["insert.initial", "descend"] {
            let yields = net.kind(kind).local;
            assert_eq!(yields, 0, "{name}: a {kind} spent its step budget");
        }
        let view = dbtree::GlobalView::new(&cluster.sim);
        // Where a split of each primary copy would start today: right-link
        // steps from the hinted parent to the node that holds its edge.
        let mut walks: Vec<usize> = Vec::new();
        for (p, copy) in view.copies.values().flatten() {
            let Some(hint) = copy.parent.filter(|_| *p == copy.primary.pc()) else {
                continue;
            };
            let mut at = view
                .authoritative(hint.link.node)
                .expect("parents are live");
            let mut steps = 0;
            while at.range().is_right_of(copy.low) {
                at = view
                    .authoritative(at.edge.right().expect("ends at +inf").node)
                    .unwrap();
                steps += 1;
            }
            walks.push(steps);
        }
        let (worst, sum) = (walks.iter().max().unwrap(), walks.iter().sum::<usize>());
        assert!(
            *worst <= 8 && sum <= walks.len(),
            "{name}: {} hints, worst {worst} links from the parent, {sum} in all \
             (125 and ≈ 45 000 before descents repaired them)",
            walks.len()
        );
        // The counter says the same where it counts nothing else: dB-tree
        // leaves have one copy, so no write is ever re-issued along the
        // leaf level (22 480 steps before). On the test bed it also carries
        // that walk — `relays_forwarded` re-issues from stale non-primary
        // leaf copies, ≈ 27 000 steps here — which no hint shortens.
        let walked = total(&cluster, |m| m.update_chases);
        if total(&cluster, |m| m.relays_forwarded) == 0 {
            assert!(
                walked <= 8 * splits,
                "{name}: {walked} steps, {splits} splits"
            );
        }

        // msgs/split, per node: nothing joins or leaves during the run and a
        // sibling inherits its node's membership, so every node born of a
        // split (right of key 0; a new root starts there) cost one relay
        // per other copy — R − 1 on the test bed, 0 for a dB-tree leaf.
        assert_eq!(total(&cluster, |m| m.joins + m.unjoins), 0, "{name}");
        let born: Vec<&dbtree::NodeCopy> = view
            .copies
            .keys()
            .filter(|id| !built.contains(id))
            .filter_map(|id| view.authoritative(*id))
            .filter(|c| c.low > 0)
            .collect();
        assert_eq!(born.len() as u64, splits, "{name}");
        let owed: u64 = born
            .iter()
            .map(|c| c.members.procs().len() as u64 - 1)
            .sum();
        assert_eq!(net.kind("split.relay").remote, owed, "{name}: msgs/split");

        let mut expected: BTreeSet<Key> = preload.into_iter().collect();
        expected.extend(ops.iter().map(|op| op.key));
        let violations = dbtree::checker::check_all(&mut cluster, &expected);
        assert!(violations.is_empty(), "{name}: {violations:?}");
    }
}

/// (f) The hint's home is the parent's *primary* copy, whichever copy did
/// the routing: joins are registered at the PC (`handle_join` asserts it),
/// and `ensure_path_replication` sends them to the hint's home.
#[test]
fn a_descent_routed_by_a_non_pc_copy_leaves_the_pc_as_the_hints_home() {
    let cfg = TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3);
    let spec = BuildSpec::new((0..400).map(|k| k * 10).collect(), 4, cfg);
    let mut cluster = DbCluster::build(&spec, SimConfig::seeded(9));
    // A leaf's parent, and a processor that holds a copy of it without
    // being its primary.
    let (leaf, _) = cluster.leaves()[7];
    let (_, copy) = copies_of(&cluster, leaf)[0];
    let (key, built) = (copy.low, copy.parent.expect("built with a hint"));
    let parent = built.link.node;
    let (router, pc) = copies_of(&cluster, parent)
        .into_iter()
        .find_map(|(p, c)| (p != c.primary.pc()).then_some((p, c.primary.pc())))
        .expect("three copies, one primary");
    assert_eq!(built.link.home, pc);

    // Forget the hint at every copy of the leaf, then route one search
    // through the non-PC copy of the parent.
    let holders: Vec<ProcId> = copies_of(&cluster, leaf).iter().map(|(p, _)| *p).collect();
    for &p in &holders {
        cluster.sim.proc_mut(p).store.get_mut(leaf).unwrap().parent = None;
    }
    cluster.sim.inject(
        router,
        SessionMsg::Raw(Msg::Descend {
            op: OpId(1),
            key,
            intent: Intent::Search,
            node: parent,
            hops: 0,
            chases: 0,
            via: None,
        }),
    );
    cluster.sim.run();
    let hints: Vec<_> = copies_of(&cluster, leaf)
        .iter()
        .filter_map(|(_, c)| c.parent)
        .collect();
    assert_eq!(hints, [built], "one copy was visited, and it names the PC");
    assert_ne!(hints[0].link.home, router);
}

/// (g) Repair is for the step a parent routed: a descent that reaches a
/// node along a right link carries no hint and teaches it nothing, and one
/// that teaches the copy nothing new does not write.
#[test]
fn a_descent_that_arrived_by_a_right_link_repairs_nothing() {
    let spec = BuildSpec::new((0..400).map(|k| k * 10).collect(), 1, TreeConfig::default());
    let mut cluster = DbCluster::build(&spec, SimConfig::seeded(5));
    let me = ProcId(0);
    let (left, right, built) = {
        let store = &cluster.sim.proc(me).store;
        let left = store
            .iter()
            .find(|c| c.is_leaf() && c.low > 0 && c.edge.right().is_some())
            .expect("an inner leaf");
        let right = store.get(left.edge.right().unwrap().node).unwrap();
        (left.id, right.id, right.parent)
    };
    let key = cluster.sim.proc(me).store.get(right).unwrap().low;
    cluster
        .sim
        .proc_mut(me)
        .store
        .get_mut(right)
        .unwrap()
        .parent = None;

    // Into the left neighbour, one chase right: found, nothing learned.
    cluster.sim.inject(
        me,
        SessionMsg::Raw(Msg::Descend {
            op: OpId(1),
            key,
            intent: Intent::Search,
            node: left,
            hops: 0,
            chases: 0,
            via: built,
        }),
    );
    cluster.sim.run();
    assert_eq!(cluster.sim.proc(me).metrics.link_chases, 1);
    assert_eq!(cluster.sim.proc(me).store.get(right).unwrap().parent, None);

    // From the root: the parent routes the last step and the hint is back.
    cluster.submit(ClientOp {
        origin: me,
        key,
        intent: Intent::Search,
    });
    let records = cluster.try_run_to_quiescence().expect("drains");
    assert_eq!(records[0].outcome.found, Some(key));
    assert_eq!(cluster.sim.proc(me).store.get(right).unwrap().parent, built);
}

/// (h) A hint that names a node its home does not hold (the parent was
/// unjoined, or retired) is only a bad place to start. Left of the copy, it
/// is repaired by the next descent like any stale hint; planted where no
/// descent can outrank it, the split completion sent there restarts from
/// the root by `(key, level)` exactly as before and lands — and the checker
/// names the planted hint for what it is, right of its copy.
#[test]
fn a_hint_naming_a_missing_parent_recovers_by_restart() {
    let spec = BuildSpec::new((0..400).map(|k| k * 10).collect(), 4, TreeConfig::default());
    let mut cluster = DbCluster::build(&spec, SimConfig::jittery(3, 2, 25));
    let leaves = cluster.leaves();
    let ((stale, stale_owner), (stuck, stuck_owner)) = (leaves[leaves.len() - 1], leaves[40]);
    let low_of = |cluster: &DbCluster, (leaf, owner): (NodeId, ProcId)| {
        cluster.sim.proc(owner).store.get(leaf).unwrap().low
    };
    let (stale_low, stuck_low) = (
        low_of(&cluster, (stale, stale_owner)),
        low_of(&cluster, (stuck, stuck_owner)),
    );
    let missing = |low| dbtree::ParentHint {
        link: Link::new(NodeId(u64::MAX - 1), ProcId(0)),
        low,
        version: 0,
    };
    let plant = |cluster: &mut DbCluster, (leaf, owner): (NodeId, ProcId), hint| {
        cluster
            .sim
            .proc_mut(owner)
            .store
            .get_mut(leaf)
            .unwrap()
            .parent = Some(hint);
    };
    plant(&mut cluster, (stale, stale_owner), missing(0));
    plant(&mut cluster, (stuck, stuck_owner), missing(u64::MAX));

    // One write under the stale hint, enough under the stuck one to split.
    let mut ops = vec![ClientOp {
        origin: stale_owner,
        key: stale_low + 1,
        intent: Intent::Insert(0),
    }];
    ops.extend((1..=9).map(|i| ClientOp {
        origin: stuck_owner,
        key: stuck_low + i,
        intent: Intent::Insert(i),
    }));
    cluster.try_run_closed_loop(&ops, 1).expect("drains");

    let repaired = cluster
        .sim
        .proc(stale_owner)
        .store
        .get(stale)
        .unwrap()
        .parent;
    assert!(repaired.is_some_and(|h| h.low > 0), "{repaired:?}");
    let splits = total(&cluster, |m| m.splits_initiated);
    assert!(splits >= 1, "the stuck leaf split");
    assert_eq!(total(&cluster, |m| m.missing_node_recoveries), splits);

    let mut expected: BTreeSet<Key> = (0..400).map(|k| k * 10).collect();
    expected.extend(ops.iter().map(|op| op.key));
    let violations = dbtree::checker::check_all(&mut cluster, &expected);
    let planted = |v: &dbtree::TreeViolation| {
        matches!(v, dbtree::TreeViolation::ParentHintRightOfCopy { parent, .. }
            if *parent == NodeId(u64::MAX - 1))
    };
    // Every half carries it: a sibling inherits the hint it split under.
    assert!(
        violations.len() as u64 == splits + 1 && violations.iter().all(planted),
        "{violations:?}"
    );
}

/// (i) An action that writes, splits its leaf and completes the split at a
/// resident parent is one delivery, and it sends each other copy one
/// message: the split relay, which carries the sibling and everything the
/// action relayed — the write and the parent's new edge. (Before, the same
/// action sent four: the write's relay, the sibling's install, the split
/// relay, the edge's relay; then two, the relays as one batch behind the
/// split relay.)
#[test]
fn a_write_that_splits_and_completes_locally_sends_each_peer_one_message() {
    let cfg = TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3);
    let mut spec = BuildSpec::new((0..48).map(|k| k * 10).collect(), 3, cfg);
    spec.fill = 8; // built full: one more key splits
    let mut sim_cfg = SimConfig::seeded(11);
    sim_cfg.trace_capacity = 1 << 10;
    let mut cluster = DbCluster::build(&spec, sim_cfg);
    let me = ProcId(2);
    let last = {
        let mut leaves = cluster.sim.proc(me).store.iter().filter(|c| c.is_leaf());
        let last = leaves.find(|c| c.edge.high().is_none()).expect("rightmost");
        assert_eq!((last.primary.pc(), last.members.procs().len()), (me, 3));
        last.id
    };
    cluster.submit(ClientOp {
        origin: me,
        key: 475,
        intent: Intent::Insert(1),
    });
    cluster.try_run_to_quiescence().expect("drains");
    assert_eq!(cluster.sim.proc(me).metrics.splits_initiated, 1);

    let peers: Vec<ProcId> = copies_of(&cluster, last)
        .into_iter()
        .map(|(p, _)| p)
        .collect();
    let trace = cluster.sim.trace();
    let deliveries = || trace.of_event(simnet::TraceEvent::Deliver);
    let here: Vec<&str> = deliveries()
        .filter(|e| e.to == me)
        .map(|e| e.kind)
        .collect();
    assert_eq!(
        here,
        ["client"],
        "descent, write, split, parent edge: one action"
    );
    for peer in peers.into_iter().filter(|p| *p != me) {
        let sent: Vec<&str> = deliveries()
            .filter(|e| (e.from, e.to) == (me, peer))
            .map(|e| e.kind)
            .collect();
        assert_eq!(sent, ["split.relay"], "to {peer}");
    }
    let expected: BTreeSet<Key> = (0..48).map(|k| k * 10).chain([475]).collect();
    let violations = dbtree::checker::check_all(&mut cluster, &expected);
    assert!(violations.is_empty(), "{violations:?}");
}

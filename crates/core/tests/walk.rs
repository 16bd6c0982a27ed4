//! The B-link walk, pinned branch by branch: every navigable kind
//! (`Descend`, `Scan`, `InsertAt`, `Absorb`, and a migrated node's initial
//! `LinkChange`, the notice) through every way one step of the walk can go,
//! on one doctored processor whose neighbours only record what they are
//! sent. A row states the one message the step produced (where it went,
//! which node it names, what happened to `hops` / `chases` / `via`) and the
//! counters that moved; everything else in the message must be as it
//! arrived.
//!
//! All five kinds address key 299 at level 0 — an absorb is routed by
//! `info.low − 1`, and the one this bed mints retires `[300, 400)`; the
//! notice is the one a node migrating to `WEST` with `[300, ..)` sends its
//! left neighbour. `InsertAt` has no left-overshoot rows: it asserts (debug)
//! that it is never routed left of its range.

use dbtree::{
    build_procs, BuildSpec, ChildRef, DbProc, Edge, Entry, Intent, Key, KeyRange, Link, LinkDir,
    Msg, NodeCopy, NodeId, OpId, Outcome, ParentHint, Stamp, TreeConfig,
};
use simnet::{Context, ProcId, Process, RunOutcome, SimConfig, Simulation};

/// The processor under test.
const ME: ProcId = ProcId(1);
/// The root's home.
const HOME: ProcId = ProcId(0);
/// Where right neighbours, parents and children live.
const EAST: ProcId = ProcId(2);
/// Where the retired node's forward points, and where the notice's node
/// moved to.
const WEST: ProcId = ProcId(3);

const ROOT: NodeId = NodeId(1);
/// The node the message names, when it is resident.
const T: NodeId = NodeId(50);
/// Retired by the bed's merge: not resident, forwarding address on file.
const GONE: NodeId = NodeId(31);
/// Never heard of here.
const UNKNOWN: NodeId = NodeId(99);
/// The right neighbour, and the node whose move the notice announces.
const RIGHT: NodeId = NodeId(51);
const PARENT: NodeId = NodeId(53);
const CHILD: NodeId = NodeId(54);
/// The retired node's right neighbour: an applied absorb links to it.
const BEYOND: NodeId = NodeId(32);

const KEY: Key = 299;
/// What the notice says: `RIGHT` lives at `WEST` now.
const MOVED: Link = Link {
    node: RIGHT,
    home: WEST,
};
const HOPS: u32 = 3;
const CHASES: u32 = 1;
/// The hint an arriving `Descend` offers (rows that leave the copy a parent
/// of its own send none: the copy would adopt it before it routes).
const VIA: ParentHint = ParentHint {
    link: Link {
        node: ROOT,
        home: HOME,
    },
    low: 0,
    version: 5,
};

#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Descend,
    Scan,
    InsertAt,
    Absorb,
    Notice,
}
use Kind::{Absorb, Descend, InsertAt, Notice, Scan};

#[derive(Clone, Copy, PartialEq, Debug)]
enum Branch {
    /// Names `GONE`; its forwarding address points at `WEST`.
    MissingForward,
    /// Names `GONE`; its forwarding address points back here, and a local
    /// leaf covers the key.
    MissingForwardToSelf,
    /// Names `UNKNOWN`; a local leaf covers the key.
    MissingLocal,
    /// Names `UNKNOWN`; the store is empty.
    MissingNothingLocal,
    /// The copy is locked (available-copies).
    Locked,
    /// Key at or past the copy's upper bound; right link on file.
    RightChase,
    /// Key past the upper bound and no right link; the root lives elsewhere.
    Zombie,
    /// The same with a root copy resident.
    ZombieRootResident,
    /// Key below the copy's low key; parent hint on file.
    LeftOfParent,
    /// ... and none.
    LeftOfNoParent,
    /// The copy is one level above the target; the key's child lives at `EAST`.
    TooHigh,
    /// ... lives here: the step continues in-process and arrives.
    TooHighChildResident,
    /// ... does not exist (no live edge at or below the key).
    TooHighNoChild,
    /// A resident leaf covering the key.
    Arrival,
}
use Branch::*;

/// What becomes of a `Descend`'s hint.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Via {
    /// As it arrived.
    Kept,
    /// Dropped.
    Cleared,
    /// The routing copy offers itself.
    Routing,
}
use Via::{Cleared, Kept, Routing};

#[derive(Clone, Copy, Debug)]
enum Expect {
    /// One message left: the one that arrived, re-addressed. `hops` and
    /// `chases` are the increase, on the kinds that carry them.
    Sent {
        to: ProcId,
        node: NodeId,
        hops: u32,
        chases: u32,
        via: Via,
        moved: &'static [(&'static str, u64)],
    },
    /// Nothing left: the message waits in the copy's lock queue, unchanged.
    Queued,
    /// The action ran at `node`, `steps` in-process steps after delivery.
    Arrived { node: NodeId, steps: u32 },
}

const fn sent(
    to: ProcId,
    node: NodeId,
    hops: u32,
    chases: u32,
    via: Via,
    moved: &'static [(&'static str, u64)],
) -> Expect {
    Expect::Sent {
        to,
        node,
        hops,
        chases,
        via,
        moved,
    }
}

const FORWARDED: &[(&str, u64)] = &[("forwards_followed", 1)];
const RECOVERED: &[(&str, u64)] = &[("missing_node_recoveries", 1)];
const READ_CHASE: &[(&str, u64)] = &[("link_chases", 1)];
const UPDATE_CHASE: &[(&str, u64)] = &[("update_chases", 1)];

#[rustfmt::skip]
const TABLE: &[(Branch, Kind, Expect)] = &[
    (MissingForward, Descend, sent(WEST, GONE, 0, 0, Kept, FORWARDED)),
    (MissingForward, Scan, sent(WEST, GONE, 0, 0, Kept, FORWARDED)),
    (MissingForward, Absorb, sent(WEST, GONE, 0, 0, Kept, FORWARDED)),
    (MissingForward, Notice, sent(WEST, GONE, 0, 0, Kept, FORWARDED)),
    // An `InsertAt` restarts at the root before it looks at anything local.
    (MissingForward, InsertAt, sent(HOME, ROOT, 0, 0, Kept, RECOVERED)),

    (MissingForwardToSelf, Descend, sent(ME, T, 1, 1, Cleared, RECOVERED)),
    (MissingForwardToSelf, Scan, sent(ME, T, 1, 1, Cleared, RECOVERED)),
    (MissingForwardToSelf, Absorb, sent(ME, T, 1, 1, Cleared, RECOVERED)),
    (MissingForwardToSelf, Notice, sent(ME, T, 1, 1, Cleared, RECOVERED)),
    (MissingForwardToSelf, InsertAt, sent(HOME, ROOT, 0, 0, Kept, RECOVERED)),

    (MissingLocal, Descend, sent(ME, T, 1, 1, Cleared, RECOVERED)),
    (MissingLocal, Scan, sent(ME, T, 1, 1, Cleared, RECOVERED)),
    (MissingLocal, Absorb, sent(ME, T, 1, 1, Cleared, RECOVERED)),
    (MissingLocal, Notice, sent(ME, T, 1, 1, Cleared, RECOVERED)),
    (MissingLocal, InsertAt, sent(HOME, ROOT, 0, 0, Kept, RECOVERED)),

    (MissingNothingLocal, Descend, sent(HOME, UNKNOWN, 0, 0, Kept, RECOVERED)),
    (MissingNothingLocal, Scan, sent(HOME, UNKNOWN, 0, 0, Kept, RECOVERED)),
    (MissingNothingLocal, Absorb, sent(HOME, UNKNOWN, 0, 0, Kept, RECOVERED)),
    (MissingNothingLocal, Notice, sent(HOME, UNKNOWN, 0, 0, Kept, RECOVERED)),
    (MissingNothingLocal, InsertAt, sent(HOME, ROOT, 0, 0, Kept, RECOVERED)),

    (Locked, Descend, Expect::Queued),
    (Locked, Scan, Expect::Queued),
    (Locked, Absorb, Expect::Queued),
    (Locked, Notice, Expect::Queued),
    (Locked, InsertAt, Expect::Queued),

    (RightChase, Descend, sent(EAST, RIGHT, 1, 1, Cleared, READ_CHASE)),
    (RightChase, Scan, sent(EAST, RIGHT, 1, 1, Cleared, READ_CHASE)),
    (RightChase, Absorb, sent(EAST, RIGHT, 1, 1, Cleared, UPDATE_CHASE)),
    (RightChase, Notice, sent(EAST, RIGHT, 1, 1, Cleared, UPDATE_CHASE)),
    (RightChase, InsertAt, sent(EAST, RIGHT, 1, 1, Cleared, UPDATE_CHASE)),

    (Zombie, Descend, sent(HOME, ROOT, 1, 1, Cleared, RECOVERED)),
    (Zombie, Scan, sent(HOME, ROOT, 1, 1, Cleared, RECOVERED)),
    (Zombie, Absorb, sent(HOME, ROOT, 1, 1, Cleared, RECOVERED)),
    (Zombie, Notice, sent(HOME, ROOT, 1, 1, Cleared, RECOVERED)),
    (Zombie, InsertAt, sent(HOME, ROOT, 1, 1, Cleared, RECOVERED)),

    (ZombieRootResident, Descend, sent(ME, ROOT, 1, 1, Cleared, RECOVERED)),
    (ZombieRootResident, Scan, sent(ME, ROOT, 1, 1, Cleared, RECOVERED)),
    (ZombieRootResident, Absorb, sent(ME, ROOT, 1, 1, Cleared, RECOVERED)),
    (ZombieRootResident, Notice, sent(ME, ROOT, 1, 1, Cleared, RECOVERED)),
    (ZombieRootResident, InsertAt, sent(ME, ROOT, 1, 1, Cleared, RECOVERED)),

    // Left of its key every kind climbs the parent hint.
    (LeftOfParent, Descend, sent(EAST, PARENT, 1, 1, Cleared, READ_CHASE)),
    (LeftOfParent, Scan, sent(EAST, PARENT, 1, 1, Cleared, READ_CHASE)),
    (LeftOfParent, Absorb, sent(EAST, PARENT, 1, 1, Cleared, UPDATE_CHASE)),
    (LeftOfParent, Notice, sent(EAST, PARENT, 1, 1, Cleared, UPDATE_CHASE)),

    // Nowhere to go from a copy that knows no parent: from the top again.
    (LeftOfNoParent, Descend, sent(HOME, ROOT, 1, 1, Cleared, RECOVERED)),
    (LeftOfNoParent, Scan, sent(HOME, ROOT, 1, 1, Cleared, RECOVERED)),
    (LeftOfNoParent, Absorb, sent(HOME, ROOT, 1, 1, Cleared, RECOVERED)),
    (LeftOfNoParent, Notice, sent(HOME, ROOT, 1, 1, Cleared, RECOVERED)),

    (TooHigh, Descend, sent(EAST, CHILD, 1, 0, Routing, &[])),
    (TooHigh, Scan, sent(EAST, CHILD, 1, 0, Routing, &[])),
    (TooHigh, Absorb, sent(EAST, CHILD, 1, 0, Routing, &[])),
    (TooHigh, Notice, sent(EAST, CHILD, 1, 0, Routing, &[])),
    (TooHigh, InsertAt, sent(EAST, CHILD, 1, 0, Routing, &[])),

    (TooHighChildResident, Descend, Expect::Arrived { node: CHILD, steps: 1 }),
    (TooHighChildResident, Scan, Expect::Arrived { node: CHILD, steps: 1 }),
    (TooHighChildResident, Absorb, Expect::Arrived { node: CHILD, steps: 1 }),
    (TooHighChildResident, Notice, Expect::Arrived { node: CHILD, steps: 1 }),
    (TooHighChildResident, InsertAt, Expect::Arrived { node: CHILD, steps: 1 }),

    (TooHighNoChild, Descend, sent(HOME, ROOT, 1, 1, Cleared, RECOVERED)),
    (TooHighNoChild, Scan, sent(HOME, ROOT, 1, 1, Cleared, RECOVERED)),
    (TooHighNoChild, Absorb, sent(HOME, ROOT, 1, 1, Cleared, RECOVERED)),
    (TooHighNoChild, Notice, sent(HOME, ROOT, 1, 1, Cleared, RECOVERED)),
    (TooHighNoChild, InsertAt, sent(HOME, ROOT, 1, 1, Cleared, RECOVERED)),

    (Arrival, Descend, Expect::Arrived { node: T, steps: 0 }),
    (Arrival, Scan, Expect::Arrived { node: T, steps: 0 }),
    (Arrival, Absorb, Expect::Arrived { node: T, steps: 0 }),
    (Arrival, Notice, Expect::Arrived { node: T, steps: 0 }),
    (Arrival, InsertAt, Expect::Arrived { node: T, steps: 0 }),
];

/// The processor under test runs `budget` more deliveries; it, past its
/// budget, and every neighbour only record what reaches them.
struct Probe {
    real: Option<Box<DbProc>>,
    budget: u32,
    got: Vec<(ProcId, Msg)>,
}

impl Process for Probe {
    type Msg = Msg;

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcId, msg: Msg) {
        match self.real.as_mut() {
            Some(real) if self.budget > 0 => {
                self.budget -= 1;
                real.on_message(ctx, from, msg);
            }
            _ => self.got.push((from, msg)),
        }
    }
}

struct Bed {
    sim: Simulation<Probe>,
}

impl Bed {
    /// Four processors, `ME` real with a root pointer to `ROOT` at `HOME`
    /// and nothing stored — except the memory of one committed merge: `GONE`
    /// (`[300, 400)`, right neighbour `BEYOND`) retired into an absorber at
    /// `absorber_home`, which leaves a forwarding address there and mints the
    /// `Absorb` this returns.
    fn new(absorber_home: ProcId) -> (Bed, Msg) {
        let cfg = TreeConfig {
            record_history: false,
            ..TreeConfig::default()
        };
        let (_, log) = build_procs(&BuildSpec::new(Vec::new(), 4, cfg.clone()));
        let mut me = DbProc::new(ME, 4, cfg, log);
        me.store.set_root(ROOT, 2, HOME);
        let mut gone = NodeCopy::new(GONE, 0, KeyRange::new(300, Some(400)), ME);
        gone.edge = Edge::new(0, Some(400), 0, Some(Link::new(BEYOND, EAST)));
        me.store.install(gone);
        let mut me = Some(Box::new(me));
        let procs = (0..4).map(|p| Probe {
            real: me.take_if(|_| ProcId(p) == ME),
            budget: 0,
            got: Vec::new(),
        });
        let mut bed = Bed {
            sim: Simulation::new(SimConfig::seeded(1), procs.collect()),
        };
        let absorber = Link::new(NodeId(29), absorber_home);
        let grant = Msg::MergeGrant {
            child: GONE,
            left: absorber,
        };
        let (mut sent, _) = bed.deliver(grant);
        assert_eq!(sent.len(), 1, "the merge sends its absorb and nothing else");
        let (to, absorb) = sent.pop().expect("one");
        assert_eq!(to, absorber_home);
        assert!(matches!(absorb, Msg::Absorb { .. }), "{absorb:?}");
        assert!(bed.me().store.is_empty());
        (bed, absorb)
    }

    fn me(&mut self) -> &mut DbProc {
        self.sim.proc_mut(ME).real.as_mut().expect("the real one")
    }

    /// One delivery to `ME`, run as one action; returns every message the
    /// action sent `(to, msg)` — to itself included — and its outputs.
    fn deliver(&mut self, msg: Msg) -> (Vec<(ProcId, Msg)>, Vec<Msg>) {
        self.sim.proc_mut(ME).budget = 1;
        self.sim.inject(ME, msg);
        assert_eq!(self.sim.run(), RunOutcome::Quiescent);
        let mut sent = Vec::new();
        for p in 0..4 {
            let got = std::mem::take(&mut self.sim.proc_mut(ProcId(p)).got);
            sent.extend(got.into_iter().map(|(from, msg)| {
                assert_eq!(from, ME);
                (ProcId(p), msg)
            }));
        }
        let outputs = self.sim.drain_outputs();
        (sent, outputs.into_iter().map(|(_, _, msg)| msg).collect())
    }
}

/// A leaf `[low, high)` owned here, holding `KEY → 7` when it covers it.
fn leaf(id: NodeId, low: Key, high: Key) -> NodeCopy {
    let mut copy = NodeCopy::new(id, 0, KeyRange::new(low, Some(high)), ME);
    if copy.range().contains(KEY) {
        let resident = Entry::Val {
            value: 7,
            stamp: Stamp::new(1, HOME),
        };
        copy.entries.insert(KEY, resident);
    }
    copy
}

/// An interior node `[200, 400)` one level above the target with one edge.
fn interior(sep: Key, child_home: ProcId) -> NodeCopy {
    let mut copy = NodeCopy::new(T, 1, KeyRange::new(200, Some(400)), ME);
    let edge = ChildRef {
        node: CHILD,
        home: child_home,
        version: 0,
    };
    copy.entries.insert(sep, Entry::Child(edge));
    copy
}

fn hint(node: NodeId, home: ProcId, low: Key) -> ParentHint {
    ParentHint {
        link: Link::new(node, home),
        low,
        version: 0,
    }
}

/// Doctor the store for `branch`; returns the node the message names.
fn doctor(branch: Branch, me: &mut DbProc) -> NodeId {
    let store = &mut me.store;
    match branch {
        MissingForward | MissingNothingLocal => {}
        MissingForwardToSelf | MissingLocal | Arrival => store.install(leaf(T, 200, 300)),
        Locked => {
            let mut copy = leaf(T, 200, 300);
            copy.lock = Some(Default::default());
            store.install(copy);
        }
        RightChase | Zombie | ZombieRootResident => {
            let mut copy = leaf(T, 200, 250);
            if branch == RightChase {
                copy.edge = Edge::new(0, Some(250), 0, Some(Link::new(RIGHT, EAST)));
            }
            if branch == ZombieRootResident {
                store.install(NodeCopy::new(ROOT, 2, KeyRange::ALL, HOME));
            }
            store.install(copy);
        }
        LeftOfParent | LeftOfNoParent => {
            let mut copy = leaf(T, 400, 500);
            if branch == LeftOfParent {
                copy.parent = Some(hint(PARENT, EAST, 100));
            }
            store.install(copy);
        }
        TooHigh => store.install(interior(250, EAST)),
        TooHighChildResident => {
            store.install(interior(250, ME));
            store.install(leaf(CHILD, 250, 300));
        }
        TooHighNoChild => store.install(interior(350, EAST)),
    }
    match branch {
        MissingForward | MissingForwardToSelf => GONE,
        MissingLocal | MissingNothingLocal => UNKNOWN,
        _ => T,
    }
}

/// `arrived`, re-addressed the way a row says.
fn readdressed(
    arrived: &Msg,
    node: NodeId,
    more_hops: u32,
    more_chases: u32,
    via: Option<ParentHint>,
) -> Msg {
    let mut msg = arrived.clone();
    match &mut msg {
        Msg::Descend {
            node: n,
            hops,
            chases,
            via: v,
            ..
        } => {
            *n = node;
            *hops += more_hops;
            *chases += more_chases;
            *v = via;
        }
        Msg::Scan { node: n, hops, .. } => {
            *n = node;
            *hops += more_hops;
        }
        Msg::InsertAt { node: n, .. }
        | Msg::Absorb { node: n, .. }
        | Msg::LinkChange { node: n, .. } => *n = node,
        other => unreachable!("not a navigable kind: {other:?}"),
    }
    msg
}

fn moved(
    before: &[(&'static str, u64)],
    after: &[(&'static str, u64)],
) -> Vec<(&'static str, u64)> {
    let pairs = before.iter().zip(after);
    pairs
        .filter(|(b, a)| a.1 != b.1)
        .map(|(b, a)| (a.0, a.1 - b.1))
        .collect()
}

fn debug<T: std::fmt::Debug>(items: &[T]) -> Vec<String> {
    items.iter().map(|m| format!("{m:?}")).collect()
}

#[test]
fn every_kind_takes_every_branch_of_the_walk_as_pinned() {
    for &(branch, kind, expect) in TABLE {
        let row = format!("{branch:?} x {kind:?}");
        let absorber_home = if branch == MissingForwardToSelf {
            ME
        } else {
            WEST
        };
        let (mut bed, absorb) = Bed::new(absorber_home);
        let named = doctor(branch, bed.me());
        if kind == Notice {
            // Whatever leaf the notice arrives at names the moved node as
            // its right neighbour, at its old home.
            let me = bed.me();
            for id in [T, CHILD] {
                let covers = me.store.get(id).is_some_and(|c| c.range().contains(KEY));
                if let Some(copy) = me.store.get_mut(id).filter(|_| covers) {
                    let high = copy.edge.high();
                    copy.edge = Edge::new(0, high, 0, Some(Link::new(RIGHT, EAST)));
                }
            }
        }
        let offered = (branch != LeftOfNoParent).then_some(VIA);
        let written = Entry::Val {
            value: 9,
            stamp: Stamp::new(2, HOME),
        };
        let arriving = match kind {
            Descend => Msg::Descend {
                op: OpId(7),
                key: KEY,
                intent: Intent::Search,
                node: named,
                hops: HOPS,
                chases: CHASES,
                via: offered,
            },
            Scan => Msg::Scan {
                op: OpId(7),
                key: KEY,
                remaining: 5,
                node: named,
                acc: vec![(10, 100)],
                hops: HOPS,
            },
            InsertAt => Msg::InsertAt {
                node: named,
                level: 0,
                key: KEY,
                entry: written,
                tag: 0,
            },
            Absorb => readdressed(&absorb, named, 0, 0, None),
            Notice => Msg::LinkChange {
                node: named,
                dir: LinkDir::Right,
                link: MOVED,
                version: 1,
                key: KEY,
                level: 0,
                tag: 0,
                relayed: false,
            },
        };
        let before = bed.me().metrics.named();
        let routing = bed.me().store.get(T).map(|c| c.as_parent_hint());
        let held = bed.me().store.get(T).and_then(|c| c.parent);
        let (sent, outputs) = bed.deliver(arriving.clone());
        let counted = moved(&before, &bed.me().metrics.named());
        let store = &bed.me().store;

        // A `Descend` teaches every resident copy it visits its hint, before
        // the copy routes it; nothing else touches the parent register.
        if let Some(copy) = store.get(T).filter(|_| named == T) {
            let mut taught = held;
            if let Some(hint) = offered.filter(|_| kind == Descend) {
                hint.join_into(&mut taught);
            }
            assert_eq!(copy.parent, taught, "{row}: parent hint");
        }

        match expect {
            Expect::Sent {
                to,
                node,
                hops,
                chases,
                via,
                moved,
            } => {
                let via = match via {
                    Kept => offered,
                    Cleared => None,
                    Routing => routing,
                };
                let leaves = (to, readdressed(&arriving, node, hops, chases, via));
                assert_eq!(debug(&sent), debug(&[leaves]), "{row}: sent");
                assert_eq!(debug(&outputs), debug::<Msg>(&[]), "{row}: outputs");
                assert_eq!(counted, moved, "{row}: counters");
            }
            Expect::Queued => {
                assert_eq!(debug(&sent), debug::<Msg>(&[]), "{row}: sent");
                assert_eq!(debug(&outputs), debug::<Msg>(&[]), "{row}: outputs");
                assert_eq!(counted, [("lock_queued", 1)], "{row}: counters");
                let lock = store.get(T).and_then(|c| c.lock.as_ref());
                let queued: Vec<&Msg> = lock
                    .expect("still locked")
                    .queued
                    .iter()
                    .map(|(_, m)| m)
                    .collect();
                assert_eq!(debug(&queued), debug(&[&arriving]), "{row}: queue");
            }
            Expect::Arrived { node, steps } => {
                let copy = store.get(node).expect("resident");
                let hops = HOPS + 1 + steps;
                let mut counters = Vec::new();
                if kind == Absorb {
                    counters.push(("absorbs_applied", 1));
                }
                if steps > 0 {
                    counters.push(("nav.local_steps", u64::from(steps)));
                }
                assert_eq!(counted, counters, "{row}: counters");
                let mut outs = Vec::new();
                match kind {
                    Descend => {
                        outs.push(Msg::Done(Outcome {
                            op: OpId(7),
                            found: Some(7),
                            hops,
                            chases: CHASES,
                        }));
                        if steps > 0 {
                            assert_eq!(copy.parent, routing, "{row}: the step's own hint");
                        }
                    }
                    Scan => outs.push(Msg::ScanResult {
                        op: OpId(7),
                        items: vec![(10, 100), (KEY, 7)],
                        hops,
                    }),
                    InsertAt => assert_eq!(copy.entries.get(&KEY), Some(&written), "{row}"),
                    Absorb => {
                        assert_eq!(copy.edge.high(), Some(400), "{row}: range widened");
                        assert_eq!(copy.edge.right(), Some(Link::new(BEYOND, EAST)), "{row}");
                    }
                    Notice => {
                        assert_eq!(copy.edge.right(), Some(MOVED), "{row}: right link moved");
                        assert_eq!(copy.edge.link_version(), 1, "{row}");
                    }
                }
                // Arrived, no kind sends anything here: the bed's copies
                // have no peers to relay to.
                assert_eq!(debug(&sent), debug::<Msg>(&[]), "{row}: sent");
                assert_eq!(debug(&outputs), debug(&outs), "{row}: outputs");
            }
        }
    }
}

/// Every kind has a row for every branch (`InsertAt` but for the two
/// left-overshoot ones), so a branch added to the walk shows up here as a
/// hole rather than as silence.
#[test]
fn the_table_is_complete() {
    let branches = [
        MissingForward,
        MissingForwardToSelf,
        MissingLocal,
        MissingNothingLocal,
        Locked,
        RightChase,
        Zombie,
        ZombieRootResident,
        LeftOfParent,
        LeftOfNoParent,
        TooHigh,
        TooHighChildResident,
        TooHighNoChild,
        Arrival,
    ];
    for branch in branches {
        for kind in [Descend, Scan, InsertAt, Absorb, Notice] {
            let rows = TABLE.iter().filter(|(b, k, _)| (*b, *k) == (branch, kind));
            let left = matches!(branch, LeftOfParent | LeftOfNoParent);
            let want = usize::from(!(kind == InsertAt && left));
            assert_eq!(rows.count(), want, "{branch:?} x {kind:?}");
        }
    }
}

//! §4.2 (single-copy mobile nodes) and §4.3 (variable copies) end-to-end
//! tests: migrations racing client operations, misnavigation recovery with
//! and without forwarding addresses, and join/unjoin membership.

mod common;

use std::cell::Cell;
use std::collections::BTreeSet;

use common::{assert_clean, assert_sequential_register, to_client, traced_field};
use dbtree::{
    checker, BuildSpec, ClientOp, DbCluster, Edge, Intent, Link, Msg, NodeId, OpId, OpRecord,
    Outcome, Placement, SeededBug, TreeConfig,
};
use simnet::{
    Choice, FaultPlan, ProcId, Scheduler, SessionMsg, SimConfig, SimTime, TraceEntry, TraceEvent,
};
use workload::{KeyDist, Mix, WorkloadGen};

fn mobile_cfg(forwarding: bool) -> TreeConfig {
    TreeConfig {
        placement: Placement::Uniform { copies: 1 },
        forwarding,
        ..Default::default()
    }
}

/// Run inserts interleaved with leaf migrations; return cluster + expected.
fn run_with_migrations(
    cfg: TreeConfig,
    seed: u64,
    n_ops: usize,
    migrate_every: usize,
) -> (DbCluster, BTreeSet<u64>) {
    let sim_cfg = SimConfig::jittery(seed, 2, 25);
    run_with_migrations_on(cfg, sim_cfg, seed, n_ops, migrate_every)
}

/// [`run_with_migrations`] on the given network.
fn run_with_migrations_on(
    cfg: TreeConfig,
    sim_cfg: SimConfig,
    seed: u64,
    n_ops: usize,
    migrate_every: usize,
) -> (DbCluster, BTreeSet<u64>) {
    let preload: Vec<u64> = (0..200).map(|k| k * 10).collect();
    let n_procs = 4;
    let seeded = cfg.seeded;
    let spec = BuildSpec::new(preload.clone(), n_procs, cfg);
    let mut cluster = DbCluster::build(&spec, sim_cfg);

    // Four ops in five on forty keys, half of them searches, so that
    // searches follow writes of their key often enough for the register
    // check below to bite.
    let mut gen = WorkloadGen::new(
        KeyDist::Hotspot {
            n: 2000,
            hot_fraction: 0.02,
            hot_prob: 0.8,
        },
        Mix {
            search_fraction: 0.5,
            ..Mix::INSERT_ONLY
        },
        n_procs,
        seed,
    );
    let preloaded: BTreeSet<u64> = preload.into_iter().collect();
    let mut expected = preloaded.clone();
    let ops = gen.batch(n_ops);
    for (i, op) in ops.iter().enumerate() {
        cluster.submit(to_client(op));
        if let workload::OpKind::Insert = op.kind {
            expected.insert(op.key);
        }
        if i % migrate_every == migrate_every - 1 {
            // Move some leaf to the next processor over, while traffic is in
            // flight. The set can be transiently empty when every leaf is
            // itself mid-migration (removed at the source, install in
            // flight) — skip this round rather than divide by zero.
            let leaves = cluster.leaves();
            if let Some(&(leaf, owner)) = leaves.get(i % leaves.len().max(1)) {
                let dest = ProcId((owner.0 + 1) % cluster.n_procs());
                cluster.migrate(leaf, owner, dest);
            }
        }
        // Let the network make progress between submissions.
        if i % 8 == 7 {
            for _ in 0..30 {
                if !cluster.sim.step() {
                    break;
                }
            }
        }
    }
    let records = cluster.try_run_to_quiescence().expect("run quiesces");
    assert_eq!(records.len(), n_ops, "every op completes, once");
    // Single-copy leaves: a register per key, migrations or not. (A seeded
    // bug is there to break something; its own test says what.)
    if seeded.is_none() {
        let judged = assert_sequential_register(&records, |k| preloaded.contains(&k).then_some(k));
        println!("seed {seed}: {judged} searches judged against a write");
        JUDGED.set(JUDGED.get() + judged);
    }
    (cluster, expected)
}

thread_local! {
    /// Searches the register check has judged against a write on this
    /// thread, i.e. in this test.
    static JUDGED: Cell<usize> = const { Cell::new(0) };
}

/// The register check was not vacuous in this test.
fn assert_judged_enough() {
    let judged = JUDGED.get();
    println!("{judged} searches judged against a write in all");
    assert!(judged >= 100, "only {judged} searches were judged");
}

// ---------------------------------------------------------------------------
// §4.2 — single-copy mobile nodes
// ---------------------------------------------------------------------------

#[test]
fn migrations_during_traffic_lose_nothing_without_forwarding() {
    for seed in 0..4 {
        let (mut cluster, expected) = run_with_migrations(mobile_cfg(false), seed, 300, 10);
        assert_clean(&mut cluster, &expected);
        let moves: u64 = cluster
            .sim
            .procs()
            .map(|(_, p)| p.metrics.migrations_in)
            .sum();
        assert!(moves > 0, "migrations actually happened (seed {seed})");
    }
    assert_judged_enough();
}

#[test]
fn migrations_during_traffic_lose_nothing_with_forwarding() {
    for seed in 0..4 {
        let (mut cluster, expected) = run_with_migrations(mobile_cfg(true), seed, 300, 10);
        assert_clean(&mut cluster, &expected);
    }
    assert_judged_enough();
}

#[test]
fn forwarding_addresses_reduce_recovery_cost() {
    let run = |forwarding: bool| {
        let (cluster, _) = run_with_migrations(mobile_cfg(forwarding), 99, 400, 5);
        let recoveries: u64 = cluster
            .sim
            .procs()
            .map(|(_, p)| p.metrics.missing_node_recoveries)
            .sum();
        let followed: u64 = cluster
            .sim
            .procs()
            .map(|(_, p)| p.metrics.forwards_followed)
            .sum();
        (recoveries, followed)
    };
    let (rec_without, fol_without) = run(false);
    let (rec_with, fol_with) = run(true);
    assert_eq!(fol_without, 0, "no forwarding addresses to follow");
    // With forwarding on, some messages take the shortcut.
    assert!(
        fol_with > 0 || rec_with <= rec_without,
        "forwarding helps: followed {fol_with}, recoveries {rec_with} vs {rec_without}"
    );
    assert_judged_enough();
}

#[test]
fn forwarding_addresses_garbage_collect() {
    let (mut cluster, expected) = run_with_migrations(mobile_cfg(true), 5, 600, 10);
    assert_clean(&mut cluster, &expected);
    // Every migration armed a GC timer one TTL out, and quiescence waits for
    // timers: the run went on past the last address's TTL, so every address
    // (one a later migration renewed is collected by that one's timer) is gone.
    let forwards: usize = cluster
        .sim
        .procs()
        .map(|(_, p)| p.store.forward_count())
        .sum();
    let migrations: u64 = cluster
        .sim
        .procs()
        .map(|(_, p)| p.metrics.migrations_out)
        .sum();
    assert!(migrations > 0, "addresses were left");
    assert_eq!(forwards, 0, "GC collected all {migrations} of them");
    assert_judged_enough();
}

#[test]
fn migration_is_a_noop_to_self_or_unknown_nodes() {
    let spec = BuildSpec::new((0..50).map(|k| k * 2).collect(), 2, mobile_cfg(false));
    let mut cluster = DbCluster::build(&spec, SimConfig::seeded(1));
    let leaves = cluster.leaves();
    let (leaf, owner) = leaves[0];
    // Self-migration: ignored.
    cluster.migrate(leaf, owner, owner);
    // Migration command to the wrong owner: ignored.
    let not_owner = ProcId(1 - owner.0);
    cluster.migrate(leaf, not_owner, owner);
    cluster.try_run_to_quiescence().expect("run quiesces");
    let expected: BTreeSet<u64> = (0..50).map(|k| k * 2).collect();
    assert_clean(&mut cluster, &expected);
}

// ---------------------------------------------------------------------------
// §4.3 — variable copies
// ---------------------------------------------------------------------------

fn variable_cfg() -> TreeConfig {
    TreeConfig {
        placement: Placement::PathReplication,
        variable_copies: true,
        ..Default::default()
    }
}

#[test]
fn leaf_migration_joins_the_path() {
    // Build with all leaves on procs 0..3, then move one leaf to a processor
    // and verify the dB-tree property: the destination joins every interior
    // node on the leaf's path.
    let (mut cluster, expected) = run_with_migrations(variable_cfg(), 3, 500, 8);
    assert_clean(&mut cluster, &expected);
    let joins: u64 = cluster.sim.procs().map(|(_, p)| p.metrics.joins).sum();
    assert!(joins > 0, "at least one join happened");
    let violations = checker::check_path_property(&cluster.sim);
    assert!(violations.is_empty(), "{violations:?}");
    assert_judged_enough();
}

#[test]
fn variable_copies_many_seeds_clean() {
    // 80 seeds, not a handful: joining by the leaf's stale parent hint
    // (instead of by key) passed 0..4 and broke the path property at seeds
    // 8, 47, 57 and 79.
    for seed in 0..80 {
        let (mut cluster, expected) = run_with_migrations(variable_cfg(), seed, 250, 12);
        assert_clean(&mut cluster, &expected);
        let violations = checker::check_path_property(&cluster.sim);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
    assert_judged_enough();
}

#[test]
fn unjoin_happens_when_a_processor_loses_its_last_leaf_under_a_parent() {
    // Concentrated migrations away from processor 0 should eventually make
    // it unjoin some interior replication.
    let preload: Vec<u64> = (0..300).map(|k| k * 5).collect();
    let spec = BuildSpec::new(preload.clone(), 4, variable_cfg());
    let mut cluster = DbCluster::build(&spec, SimConfig::jittery(17, 2, 20));
    // Phase 1: move every leaf owned by P0 to P1 — P1 *joins* the interior
    // replications above them (the PC, P0, never leaves per the paper).
    let leaves = cluster.leaves();
    for (leaf, owner) in &leaves {
        if *owner == ProcId(0) {
            cluster.migrate(*leaf, *owner, ProcId(1));
        }
    }
    cluster.try_run_to_quiescence().expect("run quiesces");
    // Phase 2: move the same leaves onward to P2 — P1, a non-PC member, has
    // now lost its last child under those parents and must unjoin.
    for (leaf, owner) in &leaves {
        if *owner == ProcId(0) {
            cluster.migrate(*leaf, ProcId(1), ProcId(2));
        }
    }
    cluster.try_run_to_quiescence().expect("run quiesces");
    let unjoins: u64 = cluster.sim.procs().map(|(_, p)| p.metrics.unjoins).sum();
    assert!(unjoins > 0, "P1 left some interior replications");
    let expected: BTreeSet<u64> = preload.into_iter().collect();
    assert_clean(&mut cluster, &expected);
    // P0 still serves searches (the root stays everywhere).
    cluster.submit(ClientOp {
        origin: ProcId(0),
        key: 25,
        intent: Intent::Search,
    });
    let records = cluster.try_run_to_quiescence().expect("run quiesces");
    assert_eq!(records[0].outcome.found, Some(25));
}

/// The sequence number of a traced session frame.
fn frame_seq(entry: &TraceEntry) -> Option<u64> {
    traced_field(&entry.detail(), "seq")?.parse().ok()
}

/// The old home forwards a `Descend` to a migrated leaf's new home on the
/// very channel that carries the leaf's `InstallCopy`. `Descend` is the one
/// kind the session does not order, so when that frame is lost the descent
/// arrives past the hole, is delivered at once, finds no such node and
/// restarts from one the processor does hold (§4.2 missing-node recovery);
/// the install is retransmitted behind it. Shown from the trace: a descent
/// delivered early that recovered, and on the same channel a later first
/// delivery of the lower-numbered frame installing the node it named.
#[test]
fn a_descend_that_overtakes_its_leafs_install_recovers() {
    let mut overtakes = 0;
    for seed in 0..8 {
        let mut sim_cfg = SimConfig::jittery(seed, 2, 25);
        sim_cfg.faults = FaultPlan::lossy(0.2);
        sim_cfg.trace_capacity = 1 << 16;
        let (mut cluster, expected) =
            run_with_migrations_on(mobile_cfg(true), sim_cfg, seed, 300, 3);
        assert_clean(&mut cluster, &expected);

        let trace = cluster.sim.trace();
        assert_eq!(trace.dropped(), 0, "the whole run is retained");
        let deliveries: Vec<_> = trace.of_event(TraceEvent::Deliver).collect();
        let counted = |entry: &TraceEntry, counter| entry.deltas.iter().any(|(n, _)| *n == counter);
        for (i, descend) in deliveries.iter().enumerate() {
            if descend.kind != "descend"
                || !counted(descend, "session.early")
                || !counted(descend, "missing_node_recoveries")
            {
                continue;
            }
            let detail = descend.detail();
            let node = traced_field(&detail, "node").expect("a descent names its node");
            overtakes += deliveries[i + 1..].iter().any(|install| {
                install.kind == "copy.install"
                    && (install.from, install.to) == (descend.from, descend.to)
                    && !counted(install, "session.dup_suppressed")
                    && traced_field(&install.detail(), "id") == Some(node)
                    && frame_seq(install) < frame_seq(descend)
            }) as u32;
        }
    }
    assert!(overtakes > 0, "no descent overtook the install of its leaf");
    assert_judged_enough();
}

/// One operation from P0, run to quiescence and logged: what it was
/// acknowledged with.
fn acked(
    cluster: &mut DbCluster,
    log: &mut Vec<OpRecord>,
    key: u64,
    intent: Intent,
) -> Option<u64> {
    // A tick after the last reply, so that the records show what the
    // caller knows: these operations do not overlap.
    let next = cluster.sim.now() + 1;
    cluster.sim.advance_to(next);
    cluster.submit(ClientOp {
        origin: ProcId(0),
        key,
        intent,
    });
    log.extend(cluster.try_run_to_quiescence().expect("run quiesces"));
    log.last().expect("it completed").outcome.found
}

/// ROADMAP item 1's migrate recipe: sixty writes of key 500 from P0, every
/// leaf moved one processor over, then `Insert(500, 7777)` and a search.
fn writes_then_migrations_then_a_write_and_a_read() -> Vec<OpRecord> {
    let spec = BuildSpec::new((0..200).map(|k| k * 10).collect(), 4, mobile_cfg(false));
    let mut cluster = DbCluster::build(&spec, SimConfig::seeded(1));
    let mut log = Vec::new();
    for v in 0..60 {
        acked(&mut cluster, &mut log, 500, Intent::Insert(1000 + v));
    }
    for (leaf, owner) in cluster.leaves() {
        cluster.migrate(leaf, owner, ProcId((owner.0 + 1) % 4));
    }
    cluster.try_run_to_quiescence().expect("run quiesces");
    acked(&mut cluster, &mut log, 500, Intent::Insert(7777));
    acked(&mut cluster, &mut log, 500, Intent::Search);
    log
}

/// A write acknowledged at a leaf's new home must be the value a later read
/// returns. Stamps are minted from the *applying* processor's counter, and
/// the new home's is behind the one that stamped the resident entry: its
/// stamp used to rank below it and `upsert` dropped the write (the final
/// search read `Some(1059)`).
#[test]
fn a_write_acknowledged_after_a_migration_is_the_value_read() {
    let log = writes_then_migrations_then_a_write_and_a_read();
    let [.., write, read] = &log[..] else {
        unreachable!("62 operations");
    };
    assert_eq!(assert_sequential_register(&log, Some), 1);
    assert_eq!(write.outcome.found, Some(1059));
    assert_eq!(read.outcome.found, Some(7777));
}

/// The register check on the run the stamp bug produced: the same records
/// with the final search reading what it read then. It must fire. (With
/// `leaf_write`'s mint-above-the-resident-stamp lines removed the run above
/// produces exactly these records, and the check fires on them undoctored.)
#[test]
#[should_panic(expected = "not the register's value")]
fn the_register_check_catches_a_write_dropped_after_a_migration() {
    let mut log = writes_then_migrations_then_a_write_and_a_read();
    log.last_mut().expect("the search").outcome.found = Some(1059);
    assert_sequential_register(&log, Some);
}

/// The same shape through a merge instead of a migration: a leaf whose
/// owner's clock ran ahead is deleted empty and retires, its tombstones
/// ride the absorb onto the left sibling's processor (whose clock is
/// behind), and the next acknowledged write of the key lands there. Green
/// since the mint-above-resident fix; kept so a per-leaf clock cannot
/// regress it.
#[test]
fn a_write_acknowledged_after_an_absorb_is_the_value_read() {
    let cfg = TreeConfig {
        merge_at_empty: true,
        ..mobile_cfg(false)
    };
    // 38 leaves over 4 processors: the ownership boundaries fall inside
    // parents (groups of 5), so some leaf's left sibling is a foreign one.
    let spec = BuildSpec::new((0..190).map(|k| k * 10).collect(), 4, cfg);
    let mut cluster = DbCluster::build(&spec, SimConfig::seeded(1));
    // A leaf a parent will let go (not its leftmost child) whose left
    // sibling — the absorber — lives on another processor.
    let (leaf, keys) = cluster
        .leaves()
        .into_iter()
        .find_map(|(left, left_owner)| {
            let right = cluster.sim.proc(left_owner).store.get(left)?.edge.right()?;
            let copy = cluster.sim.proc(right.home).store.get(right.node)?;
            let mergeable =
                copy.parent.is_some_and(|p| p.low < copy.low) && right.home != left_owner;
            let keys = || copy.entries.keys().copied().collect::<Vec<u64>>();
            mergeable.then(|| (right.node, keys()))
        })
        .expect("some leaf can retire onto another processor");
    let key = keys[0];
    let mut log = Vec::new();
    for v in 0..60 {
        acked(&mut cluster, &mut log, key, Intent::Insert(1000 + v));
    }
    for &k in &keys {
        acked(&mut cluster, &mut log, k, Intent::Delete);
    }
    let merged: u64 = cluster
        .sim
        .procs()
        .map(|(_, p)| p.metrics.merges_completed)
        .sum();
    assert_eq!(merged, 1, "the emptied leaf retired into its left sibling");
    assert!(!cluster.leaves().iter().any(|(l, _)| *l == leaf));
    assert_eq!(
        acked(&mut cluster, &mut log, key, Intent::Insert(7777)),
        None
    );
    assert_eq!(
        acked(&mut cluster, &mut log, key, Intent::Search),
        Some(7777)
    );
    assert_eq!(assert_sequential_register(&log, Some), 1);
}

// ---------------------------------------------------------------------------
// §4.2 — a migration's notices race the neighbours' own updates
// ---------------------------------------------------------------------------

/// Oldest first, except that a link change waits until nothing else can
/// run: what a migration tells its neighbours arrives after everything else
/// in flight.
struct NoticesLast;

impl Scheduler for NoticesLast {
    fn choose(&mut self, _now: SimTime, enabled: &[Choice]) -> usize {
        let other = enabled
            .iter()
            .position(|c| c.label != "mobility.link-change");
        other.unwrap_or(0)
    }
}

/// Summed over every processor: missing-node recoveries and forwarding
/// addresses followed.
fn recoveries(cluster: &DbCluster) -> (u64, u64) {
    let procs = cluster.sim.procs();
    let each = procs.map(|(_, p)| {
        (
            p.metrics.missing_node_recoveries,
            p.metrics.forwards_followed,
        )
    });
    each.fold((0, 0), |(r, f), (dr, df)| (r + dr, f + df))
}

/// R migrates while its left neighbour L splits: the notice of R's new home
/// is still in flight when L hands its upper half — and with it its right
/// link to R — to a new sibling L′. The notice is addressed by key, the key
/// just left of R's range at R's level, so it lands on L′, whichever copy
/// owns that key by then, and L′ names R at its new home. (Addressed to R's
/// left link it reached L, whose right link had moved on to L′, and was
/// dropped: L′ kept naming R's old home, and every step it routed to R was a
/// missing-node recovery.) A search L′ routes to R goes straight there.
#[test]
fn a_migration_racing_its_left_neighbours_split_is_told_to_the_new_sibling() {
    let keys: Vec<u64> = (0..128).map(|k| k * 10).collect();
    let mut spec = BuildSpec::new(keys, 4, mobile_cfg(false));
    spec.fill = 8; // leaves built full: one more key splits one
    let mut cluster = DbCluster::build(&spec, SimConfig::jittery(1, 2, 25));
    cluster.sim.set_scheduler(Box::new(NoticesLast));
    // Sixteen leaves of eighty keys, four per processor: L = [240, 320) is
    // P0's last, R = [320, 400) P1's first.
    let leaf_at = |cluster: &DbCluster, p: u32, key: u64| {
        let mut store = cluster.sim.proc(ProcId(p)).store.iter();
        store
            .find(|c| c.is_leaf() && c.range().contains(key))
            .expect("built there")
            .id
    };
    let (l, r) = (leaf_at(&cluster, 0, 240), leaf_at(&cluster, 1, 320));
    let (p0, new_home) = (ProcId(0), ProcId(2));

    cluster.migrate(r, ProcId(1), new_home);
    for key in [245, 255] {
        cluster.submit(ClientOp {
            origin: ProcId(3),
            key,
            intent: Intent::Insert(key + 1),
        });
    }
    let mut log = cluster.try_run_to_quiescence().expect("run quiesces");
    let store = &cluster.sim.proc(p0).store;
    let sibling = store
        .get(l)
        .and_then(|c| c.edge.right())
        .expect("L split")
        .node;
    assert_ne!(sibling, r, "L split");
    assert_eq!(
        store.get(sibling).expect("L′ lives with L").edge.right(),
        Some(Link::new(r, new_home)),
        "L′ names R where it lives now"
    );

    let before = recoveries(&cluster);
    let routed = OpId(u64::MAX);
    cluster.sim.inject(
        p0,
        SessionMsg::Raw(Msg::Descend {
            op: routed,
            key: 330,
            intent: Intent::Search,
            node: sibling,
            hops: 0,
            chases: 0,
            via: None,
        }),
    );
    cluster.sim.run();
    let done: Vec<Outcome> = (cluster.sim.outputs().iter())
        .filter_map(|(_, _, m)| match m {
            SessionMsg::Raw(Msg::Done(o)) if o.op == routed => Some(*o),
            _ => None,
        })
        .collect();
    assert_eq!(done.len(), 1);
    assert_eq!(
        (done[0].found, done[0].hops, done[0].chases),
        (Some(330), 2, 1)
    );
    assert_eq!(recoveries(&cluster), before, "no forward, no restart");

    // Single-copy leaves: the writes that split L are what later reads see.
    for key in [245, 255] {
        let next = cluster.sim.now() + 1;
        cluster.sim.advance_to(next);
        cluster.submit(ClientOp {
            origin: ProcId(3),
            key,
            intent: Intent::Search,
        });
        log.extend(cluster.try_run_to_quiescence().expect("run quiesces"));
    }
    let preloaded = |k: u64| (k.is_multiple_of(10) && k < 1280).then_some(k);
    assert_eq!(assert_sequential_register(&log, preloaded), 2);
}

/// An initial `ChildHomeChange` that reaches a copy whose range ends below
/// the separator it names and which has no right link — a zombie, the copy
/// the walk restarts from — is dropped like one whose parent is not
/// resident: a child's home is a routing hint.
#[test]
fn a_child_home_change_past_a_parent_with_no_right_link_is_dropped() {
    let spec = BuildSpec::new((0..128).map(|k| k * 10).collect(), 4, mobile_cfg(false));
    let mut cluster = DbCluster::build(&spec, SimConfig::seeded(1));
    let (owner, parent, low) = cluster
        .sim
        .procs()
        .find_map(|(p, proc)| {
            let mut store = proc.store.iter();
            let interior = store.find(|c| c.level == 1 && c.edge.high().is_some())?;
            Some((p, interior.id, interior.low))
        })
        .expect("an interior node with a right neighbour");
    let copy = cluster.sim.proc_mut(owner).store.get_mut(parent).unwrap();
    let (absorbs, version) = (copy.edge.absorbs(), copy.edge.link_version());
    copy.edge = Edge::new(absorbs, Some(low + 1), version, None);
    let digest = copy.digest();
    let sent = cluster.sim.stats().total_messages();

    cluster.sim.inject(
        owner,
        SessionMsg::Raw(Msg::ChildHomeChange {
            node: parent,
            sep: low + 5,
            child: NodeId(u64::MAX),
            home: ProcId(3),
            version: 9,
            tag: 0,
            relayed: false,
        }),
    );
    cluster.sim.run();
    let copy = cluster.sim.proc(owner).store.get(parent).unwrap();
    assert_eq!(copy.digest(), digest);
    assert_eq!(
        cluster.sim.stats().total_messages(),
        sent + 1,
        "the notice only"
    );
}

// ---------------------------------------------------------------------------
// Fig 6 — the join/insert race
// ---------------------------------------------------------------------------

#[test]
fn join_version_relay_fixes_the_fig6_race() {
    // With the version relay ON (the paper's algorithm), concurrent joins
    // and inserts leave complete histories. With it OFF, at least one seed
    // exhibits an incomplete-history violation at a late joiner.
    let run = |join_version_relay: bool, seed: u64| {
        let cfg = TreeConfig {
            seeded: (!join_version_relay).then_some(SeededBug::NoJoinVersionRelay),
            ..variable_cfg()
        };
        let (mut cluster, expected) = run_with_migrations(cfg, seed, 300, 4);
        cluster.record_final_digests();
        let history_violations = cluster.log().lock().check().len();
        let lost = checker::check_keys(&cluster.sim, &expected).len();
        (history_violations, lost)
    };
    let mut broken_total = 0;
    for seed in 0..6 {
        let (h, lost) = run(true, seed);
        assert_eq!((h, lost), (0, 0), "paper algorithm clean (seed {seed})");
        let (h, lost) = run(false, seed);
        broken_total += h + lost;
    }
    assert!(
        broken_total > 0,
        "disabling the version relay reproduces the Fig 6 failure"
    );
    assert_judged_enough();
}

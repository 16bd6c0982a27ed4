//! Lazy merge-at-empty, end to end: deletes empty leaves, emptied leaves
//! retire, their ranges flow left, and every global invariant (convergence,
//! leaf chain, history sequences) holds with reclamation switched on.

mod common;

use std::collections::BTreeSet;

use dbtree::checker;
use dbtree::{BuildSpec, ClientOp, DbCluster, Intent, Key, ProtocolKind, TreeConfig};
use simnet::{ProcId, SimConfig};

const N_PROCS: u32 = 4;

fn merge_cfg(protocol: ProtocolKind) -> TreeConfig {
    TreeConfig {
        merge_at_empty: true,
        ..TreeConfig::with_protocol(protocol)
    }
}

fn build(protocol: ProtocolKind, preload: u64, seed: u64) -> (DbCluster, Vec<Key>) {
    let keys: Vec<Key> = (0..preload).map(|k| k * 10).collect();
    let spec = BuildSpec::new(keys.clone(), N_PROCS, merge_cfg(protocol));
    let cluster = DbCluster::build(&spec, SimConfig::jittery(seed, 2, 25));
    (cluster, keys)
}

fn delete_ops(keys: &[Key]) -> Vec<ClientOp> {
    keys.iter()
        .enumerate()
        .map(|(i, &key)| ClientOp {
            origin: ProcId(i as u32 % N_PROCS),
            key,
            intent: Intent::Delete,
        })
        .collect()
}

fn total_metric(cluster: &DbCluster, f: impl Fn(&dbtree::ProcMetrics) -> u64) -> u64 {
    cluster.sim.procs().map(|(_, p)| f(&p.metrics)).sum()
}

fn total_slots(cluster: &DbCluster) -> usize {
    cluster.sim.procs().map(|(_, p)| p.store.len()).sum()
}

/// Deleting every key collapses the leaf level: emptied leaves retire (all
/// but the leftmost), arena slots free, and the oracle stack stays clean.
#[test]
fn mass_delete_collapses_leaf_level() {
    for protocol in [ProtocolKind::SemiSync, ProtocolKind::Sync] {
        let (mut cluster, keys) = build(protocol, 200, 7);
        let leaves_before = cluster.leaves().len();
        let slots_before = total_slots(&cluster);
        assert!(leaves_before > 10, "preload must spread over many leaves");

        let stats = cluster
            .try_run_closed_loop(&delete_ops(&keys), 4)
            .expect("workload drains");
        assert_eq!(stats.records.len(), keys.len(), "every delete completes");

        let merges = total_metric(&cluster, |m| m.merges_completed);
        assert!(merges > 0, "{protocol:?}: no merges committed");
        let leaves_after = cluster.leaves().len();
        assert!(
            leaves_after < leaves_before / 2,
            "{protocol:?}: leaf count {leaves_before} -> {leaves_after}, \
             expected a collapse"
        );
        assert!(
            total_slots(&cluster) < slots_before,
            "{protocol:?}: retirement must free arena slots"
        );
        assert!(
            total_metric(&cluster, |m| m.absorbs_applied) >= merges,
            "every committed merge lands an absorb"
        );

        // Full oracle stack on the reclaimed tree, plus the delete-specific
        // check: no deleted key may be findable.
        common::assert_clean(&mut cluster, &BTreeSet::new());
        let deleted: BTreeSet<Key> = keys.iter().copied().collect();
        let visible = checker::check_deleted_keys(&cluster.sim, &deleted);
        assert!(visible.is_empty(), "{protocol:?}: {visible:?}");
    }
}

/// A range whose leaf was merged away is still writable: new inserts
/// navigate through the absorber (or its descendants after a re-split) and
/// are findable afterwards.
#[test]
fn reinsert_into_merged_range_lands() {
    let (mut cluster, keys) = build(ProtocolKind::SemiSync, 120, 11);
    cluster
        .try_run_closed_loop(&delete_ops(&keys), 4)
        .expect("workload drains");
    assert!(total_metric(&cluster, |m| m.merges_completed) > 0);

    // Re-insert across the whole (now mostly merged-away) key space, at
    // fresh keys and at previously deleted ones.
    let reinserts: Vec<ClientOp> = (0..120u64)
        .map(|i| ClientOp {
            origin: ProcId(i as u32 % N_PROCS),
            key: i * 10 + (i % 2), // half exactly on deleted keys
            intent: Intent::Insert(i + 1),
        })
        .collect();
    let stats = cluster
        .try_run_closed_loop(&reinserts, 4)
        .expect("workload drains");
    assert_eq!(stats.records.len(), reinserts.len());

    let expected: BTreeSet<Key> = reinserts.iter().map(|o| o.key).collect();
    common::assert_clean(&mut cluster, &expected);
}

/// Deletes racing inserts into the same leaves: the commit-time re-verify
/// must refuse any merge that would drop a live entry, whatever interleaving
/// the schedule produces.
#[test]
fn merge_races_concurrent_inserts_safely() {
    for seed in 0..5u64 {
        let (mut cluster, keys) = build(ProtocolKind::SemiSync, 100, 100 + seed);
        // Interleave: delete every preloaded key, insert a neighbour key in
        // the same leaf right behind it.
        let mut ops = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            ops.push(ClientOp {
                origin: ProcId(i as u32 % N_PROCS),
                key,
                intent: Intent::Delete,
            });
            if i % 3 == 0 {
                ops.push(ClientOp {
                    origin: ProcId((i as u32 + 1) % N_PROCS),
                    key: key + 1,
                    intent: Intent::Insert(key + 1),
                });
            }
        }
        let stats = cluster
            .try_run_closed_loop(&ops, 6)
            .expect("workload drains");
        assert_eq!(stats.records.len(), ops.len(), "seed {seed}");

        let expected: BTreeSet<Key> = ops
            .iter()
            .filter_map(|o| matches!(o.intent, Intent::Insert(_)).then_some(o.key))
            .collect();
        common::assert_clean(&mut cluster, &expected);
        let deleted: BTreeSet<Key> = keys.iter().copied().collect();
        let visible = checker::check_deleted_keys(&cluster.sim, &deleted);
        assert!(visible.is_empty(), "seed {seed}: {visible:?}");
    }
}

/// Scans walk the leaf chain across a merged-away boundary: the absorber's
/// right link jumps over retired nodes, tombstones are skipped, and the
/// collected window is exactly the live keys in order.
#[test]
fn scan_crosses_merged_boundary_and_skips_tombstones() {
    let (mut cluster, keys) = build(ProtocolKind::SemiSync, 150, 13);
    // Delete a contiguous middle band — enough whole leaves to merge.
    let band: Vec<Key> = keys
        .iter()
        .copied()
        .filter(|&k| (400..=900).contains(&k))
        .collect();
    cluster
        .try_run_closed_loop(&delete_ops(&band), 4)
        .expect("workload drains");
    assert!(
        total_metric(&cluster, |m| m.merges_completed) > 0,
        "deleting a 50-key band must merge at least one leaf"
    );

    // Scan from inside the live prefix, across the deleted band, into the
    // live suffix.
    cluster.scan(ProcId(0), 350, 20);
    cluster.try_run_to_quiescence().expect("run quiesces");
    let scans = cluster.take_scans();
    assert_eq!(scans.len(), 1);
    let got: Vec<Key> = scans[0].outcome.items.iter().map(|(k, _)| *k).collect();
    let want: Vec<Key> = keys
        .iter()
        .copied()
        .filter(|&k| k >= 350 && !(400..=900).contains(&k))
        .take(20)
        .collect();
    assert_eq!(got, want, "scan window must skip the merged-away band");

    let expected: BTreeSet<Key> = keys
        .iter()
        .copied()
        .filter(|k| !(400..=900).contains(k))
        .collect();
    common::assert_clean(&mut cluster, &expected);
}

/// One loop drives deletes and scans alike under either release policy —
/// per-origin windows (scan completions refill slots like op completions)
/// or an arrival schedule — with merges enabled and the oracle stack green
/// afterwards.
#[test]
fn mixed_stream_with_deletes_and_scans_under_both_release_policies() {
    use dbtree::{DbSubmission, ScanSpec};
    use simnet::{OpenLoopCfg, Release};
    for release in [Release::Window(4), Release::Schedule(OpenLoopCfg::fixed(5))] {
        let (mut cluster, keys) = build(ProtocolKind::SemiSync, 80, 17);
        let mut items: Vec<DbSubmission> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            items.push(DbSubmission::Op(ClientOp {
                origin: ProcId(i as u32 % N_PROCS),
                key,
                intent: Intent::Delete,
            }));
            if i % 10 == 0 {
                items.push(DbSubmission::Scan(ScanSpec {
                    origin: ProcId((i as u32 + 2) % N_PROCS),
                    from: key,
                    limit: 8,
                }));
            }
        }
        let stats = cluster
            .try_run_mixed(&items, release)
            .expect("workload drains");
        let n_scans = items
            .iter()
            .filter(|i| matches!(i, DbSubmission::Scan(_)))
            .count();
        assert_eq!(stats.records.len(), items.len() - n_scans, "{release:?}");
        assert_eq!(cluster.take_scans().len(), n_scans, "{release:?}");
        common::assert_clean(&mut cluster, &BTreeSet::new());
    }
}

// ---------------------------------------------------------------------------
// Crash liveness: a merge request must not die with the processor
// ---------------------------------------------------------------------------

/// A leaf that is not the leftmost, its owner (= PC), and its keys.
fn victim_leaf(cluster: &DbCluster) -> (dbtree::NodeId, ProcId, Vec<Key>) {
    let (leaf, owner) = cluster.leaves()[2];
    let copy = cluster
        .sim
        .proc(owner)
        .store
        .get(leaf)
        .expect("owner holds it");
    let keys = copy.entries.keys().copied().collect();
    (leaf, owner, keys)
}

fn crash_cluster(crash: Option<(ProcId, u64)>) -> DbCluster {
    let keys: Vec<Key> = (0..60).map(|k| k * 10).collect();
    let spec = BuildSpec::new(keys, N_PROCS, merge_cfg(ProtocolKind::SemiSync));
    let mut faults = simnet::FaultPlan::none();
    if let Some((proc, at)) = crash {
        faults = faults.with_crash(simnet::CrashEvent {
            proc,
            at: simnet::SimTime(at),
            restart_at: Some(simnet::SimTime(at + 300)),
        });
    }
    let sim_cfg = SimConfig {
        faults,
        ..SimConfig::seeded(29)
    };
    // Reliable sessions in both arms, so the crash is the only difference.
    DbCluster::build_with_session(&spec, sim_cfg, simnet::SessionConfig::reliable())
}

/// `merge_pending` is stable state, but the `MergeReq` it guards is a
/// hand-off to self whenever the parent copy is resident — and a crash
/// destroys the queue. Whatever instant the leaf's owner crashes at, the
/// emptied leaf must still be reclaimed and no request may stay pending:
/// the restart asks again. The sweep covers the one-hand-off window between
/// the emptying write and the request's delivery — and, one tick on, the
/// window in which the committed retirement's `Absorb` used to be a
/// hand-off to self as well (lost there, the leaf chain kept a hole; it now
/// runs inside the committing action when the absorber is resident).
#[test]
fn a_crash_at_any_instant_leaves_no_merge_request_pending() {
    let (leaf, owner, keys) = victim_leaf(&crash_cluster(None));
    let origin = ProcId((owner.0 + 1) % N_PROCS);
    let deletes: Vec<ClientOp> = keys
        .iter()
        .map(|&key| ClientOp {
            origin,
            key,
            intent: Intent::Delete,
        })
        .collect();
    let clean_end = {
        let mut cluster = crash_cluster(None);
        cluster.try_run_closed_loop(&deletes, 1).expect("drains");
        assert!(!cluster.leaves().iter().any(|(l, _)| *l == leaf));
        cluster.sim.now().ticks()
    };

    let mut rearmed = 0;
    for at in 1..=clean_end {
        let mut cluster = crash_cluster(Some((owner, at)));
        let stats = cluster.try_run_closed_loop(&deletes, 1).expect("drains");
        assert_eq!(stats.records.len(), deletes.len(), "crash at {at}");
        for (id, p) in cluster.sim.procs() {
            assert_eq!(p.merge_pending_count(), 0, "crash at {at}: {id} wedged");
        }
        assert!(
            !cluster.leaves().iter().any(|(l, _)| *l == leaf),
            "crash at {at}: the emptied leaf was never reclaimed"
        );
        let m = cluster.sim.proc(owner).metrics;
        assert_eq!(m.merges_completed, 1, "crash at {at}");
        rearmed += (m.merges_requested > 1) as u32;
        common::assert_clean(&mut cluster, &BTreeSet::new());
    }
    assert!(rearmed > 0, "no crash instant exercised the restart re-arm");
}

/// The restart's request can be a duplicate: the original may have left for
/// a remote parent before the crash and survived in the session outbox. A
/// second request for an already-retired leaf is declined at the parent
/// (its edge is a tombstone), and a second grant finds no leaf to commit —
/// either way nothing changes.
#[test]
fn a_duplicate_merge_request_or_grant_changes_nothing() {
    use dbtree::Msg;
    use simnet::SessionMsg;
    let mut cluster = crash_cluster(None);
    let (leaf, owner, keys) = victim_leaf(&cluster);
    let (low, parent, left) = {
        let copy = cluster.sim.proc(owner).store.get(leaf).unwrap();
        (
            copy.range.low,
            copy.parent_link().unwrap(),
            copy.left.unwrap(),
        )
    };
    cluster
        .try_run_closed_loop(&delete_ops(&keys), 1)
        .expect("drains");
    assert_eq!(total_metric(&cluster, |m| m.merges_completed), 1);
    let leaves = cluster.leaves();
    let before = cluster.sim.fingerprint();

    cluster.sim.inject(
        parent.home,
        SessionMsg::Raw(Msg::MergeReq {
            node: parent.node,
            child: leaf,
            low,
            reply_to: owner,
        }),
    );
    cluster.sim.inject(
        owner,
        SessionMsg::Raw(Msg::MergeGrant { child: leaf, left }),
    );
    cluster.try_run_to_quiescence().expect("quiesces");

    assert_eq!(total_metric(&cluster, |m| m.merges_completed), 1);
    assert_eq!(total_metric(&cluster, |m| m.merges_declined), 2);
    assert_eq!(cluster.sim.proc(owner).merge_pending_count(), 0);
    assert_eq!(cluster.leaves(), leaves);
    assert_eq!(cluster.sim.fingerprint(), before, "protocol state moved");
    common::assert_clean(&mut cluster, &BTreeSet::new());
}

//! Lazy merge-at-empty, end to end: deletes empty leaves, emptied leaves
//! retire, their ranges flow left, and every global invariant (convergence,
//! leaf chain, history sequences) holds with reclamation switched on. Every
//! cluster here is path-replicated, so its leaves have one copy and each
//! client stream carries reads for the per-key register check.

mod common;

use std::collections::BTreeSet;

use dbtree::checker;
use dbtree::{BuildSpec, ClientOp, DbCluster, Intent, Key, OpRecord, ProtocolKind, TreeConfig};
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

/// `ops` with a search of each op's key `lag` submissions after it, from the
/// same origin — reads racing the merges the writes set off.
fn with_reads(ops: &[ClientOp], lag: usize) -> Vec<ClientOp> {
    let read = |op: &ClientOp| ClientOp {
        intent: Intent::Search,
        ..*op
    };
    let mut out = Vec::with_capacity(ops.len() * 2);
    for (i, op) in ops.iter().enumerate() {
        out.push(*op);
        if let Some(back) = i.checked_sub(lag) {
            out.push(read(&ops[back]));
        }
    }
    out.extend(ops[ops.len().saturating_sub(lag)..].iter().map(read));
    out
}

/// The per-key register check on single-copy leaves (DESIGN § "Client
/// contract"), the preload's values being the keys themselves; returns how
/// many searches were judged against a write.
fn registers(records: &[OpRecord], preload: &[Key]) -> usize {
    let preloaded = |k| preload.binary_search(&k).ok().map(|_| k);
    let judged = common::assert_sequential_register(records, preloaded);
    println!("{judged} searches judged against a write");
    judged
}

/// `written` and, a tick after the run that wrote them, a read of each key
/// from the origin that wrote it.
fn then_read(cluster: &mut DbCluster, mut written: Vec<OpRecord>) -> Vec<OpRecord> {
    let reads: Vec<ClientOp> = (written.iter())
        .map(|r| ClientOp {
            intent: Intent::Search,
            ..r.op
        })
        .collect();
    let next = cluster.sim.now() + 1;
    cluster.sim.advance_to(next);
    let stats = cluster.try_run_closed_loop(&reads, 1).expect("drains");
    assert_eq!(stats.records.len(), reads.len());
    written.extend(stats.records);
    written
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

        let ops = with_reads(&delete_ops(&keys), 16);
        let stats = cluster
            .try_run_closed_loop(&ops, 4)
            .expect("workload drains");
        assert_eq!(stats.records.len(), ops.len(), "every op completes");
        let judged = registers(&stats.records, &keys);
        assert!(judged >= 150, "{protocol:?}: {judged} of 200 reads judged");

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
    let deletes = with_reads(&delete_ops(&keys), 16);
    let mut records = cluster
        .try_run_closed_loop(&deletes, 4)
        .expect("workload drains")
        .records;
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
    let ops = with_reads(&reinserts, 16);
    let stats = cluster
        .try_run_closed_loop(&ops, 4)
        .expect("workload drains");
    assert_eq!(stats.records.len(), ops.len());
    records.extend(stats.records);
    let judged = registers(&records, &keys);
    assert!(judged >= 200, "{judged} of 240 reads judged");

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
        let ops = with_reads(&ops, 16);
        let stats = cluster
            .try_run_closed_loop(&ops, 6)
            .expect("workload drains");
        assert_eq!(stats.records.len(), ops.len(), "seed {seed}");
        let judged = registers(&stats.records, &keys);
        assert!(judged >= 75, "seed {seed}: {judged} of 134 reads judged");

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
    let stats = cluster
        .try_run_closed_loop(&with_reads(&delete_ops(&band), 16), 4)
        .expect("workload drains");
    let judged = registers(&stats.records, &keys);
    assert!(judged >= 35, "{judged} of 51 reads judged");
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
        for (i, op) in with_reads(&delete_ops(&keys), 16).into_iter().enumerate() {
            let key = op.key;
            items.push(DbSubmission::Op(op));
            if i % 20 == 0 {
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
        let judged = registers(&stats.records, &keys);
        assert!(judged >= 60, "{release:?}: {judged} of 80 reads judged");
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
        // Each key read back after the restart, through whatever the merge
        // left. (Not during the crash: a read restarting at a resident node
        // is a hand-off to self, and one that is queued when the processor
        // crashes is lost with the queue — a client without a retry policy
        // never hears back.)
        let judged = registers(&then_read(&mut cluster, stats.records), &keys);
        assert_eq!(judged, keys.len(), "crash at {at}");
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
    let (low, parent) = {
        let copy = cluster.sim.proc(owner).store.get(leaf).unwrap();
        (copy.range.low, copy.parent_link().unwrap())
    };
    // The absorber: the leaf whose right link names the victim.
    let left = cluster
        .leaves()
        .into_iter()
        .find_map(|(id, home)| {
            let copy = cluster.sim.proc(home).store.get(id)?;
            (copy.right.map(|r| r.node) == Some(leaf)).then(|| dbtree::Link::new(id, home))
        })
        .expect("the victim has a left neighbour");
    let stats = cluster
        .try_run_closed_loop(&delete_ops(&keys), 1)
        .expect("drains");
    let records = then_read(&mut cluster, stats.records);
    assert_eq!(registers(&records, &keys), keys.len());
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

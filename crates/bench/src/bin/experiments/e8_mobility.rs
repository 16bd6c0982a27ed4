//! E8 — §4.2 + \[14\]: leaf migration for data balancing, and the cost of
//! misnavigation recovery with and without forwarding addresses.
//!
//! A hotspot insert workload concentrates splits (and therefore leaves) on
//! few processors. The balancer plans greedy leaf migrations; we execute
//! them while traffic continues and report load imbalance before/after,
//! migration message cost, and the recovery ablation.

use bench::report::{note, Table};
use bench::{build_cluster, drive, f2, to_client};
use dbtree::balance::{imbalance, leaf_loads, plan_rebalance};
use dbtree::{Placement, TreeConfig};
use workload::{KeyDist, Mix, WorkloadGen};

pub fn run(_: &crate::Args) {
    let mut table = Table::new(&[
        "forwarding",
        "imbalance before",
        "moves",
        "imbalance after",
        "migration msgs",
        "recoveries",
        "forwards followed",
        "post-move search latency",
    ]);

    for forwarding in [false, true] {
        let cfg = TreeConfig {
            placement: Placement::Uniform { copies: 1 },
            forwarding,
            record_history: false,
            fanout: 8,
            ..Default::default()
        };
        let mut cluster = build_cluster(cfg, 8, 400, 23);
        // Hotspot inserts: everything lands in the lowest 5% of the key
        // space, splitting leaves owned by few processors.
        let mut gen = WorkloadGen::new(
            KeyDist::Hotspot {
                n: 4000,
                hot_fraction: 0.05,
                hot_prob: 0.95,
            },
            Mix::INSERT_ONLY,
            8,
            23,
        );
        let ops: Vec<_> = gen.batch(2500).iter().map(to_client).collect();
        cluster
            .try_run_closed_loop(&ops, 4)
            .expect("workload drains");

        let before = imbalance(&leaf_loads(&cluster.sim));
        let plan = plan_rebalance(&cluster.sim, 2);
        let msgs_before = cluster.sim.stats().remote_messages();
        for m in &plan {
            cluster.migrate(m.leaf, m.from, m.to);
        }
        cluster.try_run_to_quiescence().expect("run quiesces");
        let migration_msgs = cluster.sim.stats().remote_messages() - msgs_before;
        let after = imbalance(&leaf_loads(&cluster.sim));

        // Post-migration traffic: stale routing hints trigger recoveries.
        let (stats, _) = drive(&mut cluster, 400, 2000, Mix::SEARCH_ONLY, 4000, 29, 4);
        let recoveries = bench::sum_metric(&cluster, |m| m.missing_node_recoveries);
        let followed = bench::sum_metric(&cluster, |m| m.forwards_followed);

        table.row(&[
            forwarding.to_string(),
            f2(before),
            plan.len().to_string(),
            f2(after),
            migration_msgs.to_string(),
            recoveries.to_string(),
            followed.to_string(),
            f2(stats.mean_latency()),
        ]);
    }
    table.print();
    note(
        "balancing cuts the leaf-count imbalance by an order of magnitude at ~linear message cost;",
    );
    note(
        "forwarding addresses are a pure optimization — correctness holds with zero of them (§4.2)",
    );
}

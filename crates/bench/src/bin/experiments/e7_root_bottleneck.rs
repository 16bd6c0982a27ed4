//! E7 — §1: "if the root node is not replicated, it becomes a bottleneck".
//!
//! Closed-loop search-heavy workload while sweeping the processor count.
//! With an unreplicated tree (every node, root included, on one processor
//! each) all descents start at the single root copy and throughput stops
//! scaling; with path replication every processor starts operations at its
//! local root copy. We also report the busiest processor's share of message
//! traffic — near 1/P when balanced, near 100% at a bottleneck.

use bench::report::{note, Table};
use bench::{drive, f1, f2};
use dbtree::{Placement, TreeConfig};
use workload::Mix;

pub fn run(_: &crate::Args) {
    let mut table = Table::new(&[
        "procs",
        "placement",
        "ops/kilotick",
        "speedup vs P=1",
        "mean latency",
        "hottest proc traffic %",
    ]);

    for (label, placement) in [
        ("unreplicated", Placement::Uniform { copies: 1 }),
        ("path-replicated", Placement::PathReplication),
    ] {
        let mut base = None;
        for &procs in &[1u32, 2, 4, 8, 16] {
            let cfg = TreeConfig {
                placement,
                record_history: false,
                ..Default::default()
            };
            // Service-time model on: each processor is a single node
            // manager executing one action at a time (the paper's model),
            // so a hot root processor genuinely saturates.
            let keys: Vec<u64> = (0..2000).map(|k| k * 10).collect();
            let spec = dbtree::BuildSpec::new(keys, procs, cfg);
            let mut sim_cfg = simnet::SimConfig::jittery(11, 2, 25);
            sim_cfg.service_time = 3;
            let mut cluster = dbtree::DbCluster::build(&spec, sim_cfg);
            let (stats, _) = drive(&mut cluster, 2000, 3000, Mix::READ_HEAVY, 20_000, 11, 4);
            let tput = stats.throughput_per_kilotick();
            let base_tput = *base.get_or_insert(tput);
            let recv = cluster.sim.stats().per_proc_received();
            let total: u64 = recv.iter().sum();
            let hottest = recv.iter().max().copied().unwrap_or(0);
            table.row(&[
                procs.to_string(),
                label.to_string(),
                f1(tput),
                f2(tput / base_tput),
                f1(stats.mean_latency()),
                f1(100.0 * hottest as f64 / total.max(1) as f64),
            ]);
        }
    }
    table.print();
    note("unreplicated: the root's processor absorbs most traffic and speedup flattens;");
    note("path replication keeps the hottest processor near 1/P and scales with P (§1, Fig 2)");
}

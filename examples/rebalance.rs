//! Data balancing on a skewed workload (§4.2, [14]).
//!
//! Hotspot inserts pile leaves onto a few processors; the balancer plans
//! greedy leaf migrations and the lazy mobile-node protocol executes them
//! while search traffic keeps flowing. Prints the per-processor leaf loads
//! before and after, as a bar chart.
//!
//! ```sh
//! cargo run -p dbtree --example rebalance
//! ```

use dbtree::balance::{imbalance, leaf_loads, plan_rebalance};
use dbtree::{BuildSpec, ClientOp, DbCluster, Intent, Placement, TreeConfig};
use simnet::{ProcId, SimConfig};
use workload::{KeyDist, Mix, WorkloadGen};

fn bars(loads: &[usize]) {
    let max = loads.iter().copied().max().unwrap_or(1).max(1);
    for (i, &l) in loads.iter().enumerate() {
        let width = l * 50 / max;
        println!("  P{i:<2} {:>4} leaves  {}", l, "#".repeat(width));
    }
}

fn main() {
    let cfg = TreeConfig {
        placement: Placement::Uniform { copies: 1 },
        forwarding: true,
        fanout: 8,
        record_history: false,
        ..Default::default()
    };
    let spec = BuildSpec::new((0..400u64).map(|k| k * 10).collect(), 8, cfg);
    let mut cluster = DbCluster::build(&spec, SimConfig::jittery(5, 2, 25));

    // Hotspot inserts: 95% of traffic lands in 5% of the key space.
    let mut gen = WorkloadGen::new(
        KeyDist::Hotspot {
            n: 4000,
            hot_fraction: 0.05,
            hot_prob: 0.95,
        },
        Mix::INSERT_ONLY,
        8,
        5,
    );
    let ops: Vec<ClientOp> = gen
        .batch(2500)
        .iter()
        .map(|op| ClientOp {
            origin: ProcId(op.origin),
            key: op.key,
            intent: Intent::Insert(op.value),
        })
        .collect();
    cluster
        .try_run_closed_loop(&ops, 4)
        .expect("workload drains");

    let before = leaf_loads(&cluster.sim);
    println!(
        "after a hotspot insert storm (imbalance {:.2}):",
        imbalance(&before)
    );
    bars(&before);

    let plan = plan_rebalance(&cluster.sim, 2);
    println!(
        "\nbalancer plans {} leaf migrations; executing...",
        plan.len()
    );
    for m in &plan {
        cluster.migrate(m.leaf, m.from, m.to);
    }
    // Searches keep flowing while leaves move.
    let mut gen = WorkloadGen::new(KeyDist::Uniform { n: 4000 }, Mix::SEARCH_ONLY, 8, 7);
    let searches: Vec<ClientOp> = gen
        .batch(500)
        .iter()
        .map(|op| ClientOp {
            origin: ProcId(op.origin),
            key: op.key,
            intent: Intent::Search,
        })
        .collect();
    let stats = cluster
        .try_run_closed_loop(&searches, 2)
        .expect("workload drains");
    println!(
        "  {} searches completed during the migration wave (mean latency {:.1} ticks)",
        stats.records.len(),
        stats.mean_latency()
    );

    let after = leaf_loads(&cluster.sim);
    println!("\nafter balancing (imbalance {:.2}):", imbalance(&after));
    bars(&after);
}

//! Watch the Fig 3/Fig 4 races happen, message by message.
//!
//! Builds the smallest interesting dB-tree (two processors, every node on
//! both, two nearly-full leaves under one replicated parent), triggers
//! simultaneous splits, and prints the delivery trace at each parent copy —
//! showing the *same* updates applied in *different orders*, converging
//! under semisync and losing a key under Fig 4's seeded bug
//! (`SeededBug::DiscardOutOfRange`).
//!
//! ```sh
//! cargo run -p dbtree --example protocol_race
//! ```

use dbtree::{
    checker, BuildSpec, ClientOp, DbCluster, Intent, ProtocolKind, SeededBug, TreeConfig,
};
use simnet::{ProcId, SimConfig};
use std::collections::BTreeSet;

fn run(protocol: ProtocolKind, seed: u64) {
    println!("--- protocol = {} (seed {seed}) ---", protocol.label());
    let cfg = TreeConfig {
        fanout: 4,
        ..TreeConfig::fixed_copies(protocol, 2)
    };
    let spec = BuildSpec {
        keys: vec![10, 20, 30, 40, 110, 120, 130, 140],
        n_procs: 2,
        cfg,
        fill: 4,
    };
    let mut sim_cfg = SimConfig::jittery(seed, 2, 30);
    sim_cfg.trace_capacity = 200;
    let mut cluster = DbCluster::build(&spec, sim_cfg);

    // Two inserts, one per leaf, submitted simultaneously from different
    // processors: both leaves split "at about the same time" (Fig 3).
    cluster.submit(ClientOp {
        origin: ProcId(0),
        key: 15,
        intent: Intent::Insert(15),
    });
    cluster.submit(ClientOp {
        origin: ProcId(1),
        key: 115,
        intent: Intent::Insert(115),
    });
    cluster.try_run_to_quiescence().expect("run quiesces");

    println!("update deliveries, in order:");
    for e in cluster.sim.trace().iter() {
        if e.kind.starts_with("insert.") || e.kind.starts_with("split.") {
            println!(
                "  t{:<4} {} -> {}  {:<18} span={:?}",
                e.at.ticks(),
                e.from,
                e.to,
                e.kind,
                e.span
            );
        }
    }

    let expected: BTreeSet<u64> = [10, 20, 30, 40, 110, 120, 130, 140, 15, 115]
        .into_iter()
        .collect();
    cluster.record_final_digests();
    let diverged = checker::check_convergence(&cluster.sim).len();
    let lost: Vec<u64> = checker::check_keys(&cluster.sim, &expected)
        .iter()
        .filter_map(|v| match v {
            dbtree::TreeViolation::KeyLost { key } => Some(*key),
            _ => None,
        })
        .collect();
    println!("result: {diverged} diverged nodes, lost keys: {lost:?}\n");
}

fn main() {
    println!("Fig 3: concurrent splits complete at different copies of the parent;");
    println!("lazy inserts commute, so the copies converge without synchronization.\n");
    run(ProtocolKind::SemiSync, 7);

    println!("Fig 4: the naive protocol drops out-of-range relays at the PC.");
    println!("Under the right interleaving an acknowledged insert vanishes:\n");
    // Sweep seeds until the race window is hit (deterministic per seed).
    for seed in 0..50 {
        let cfg = TreeConfig {
            fanout: 4,
            seeded: Some(SeededBug::DiscardOutOfRange),
            ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 2)
        };
        let spec = BuildSpec {
            keys: vec![10, 20, 30, 40],
            n_procs: 2,
            cfg,
            fill: 4,
        };
        let mut cluster = DbCluster::build(&spec, SimConfig::jittery(seed, 2, 60));
        // Insert at the non-PC copy while the PC is splitting.
        for k in [15u64, 25, 35, 5, 17, 27] {
            cluster.submit(ClientOp {
                origin: ProcId(1),
                key: k,
                intent: Intent::Insert(k),
            });
        }
        cluster.try_run_to_quiescence().expect("run quiesces");
        let expected: BTreeSet<u64> = [10, 20, 30, 40, 15, 25, 35, 5, 17, 27]
            .into_iter()
            .collect();
        let lost: Vec<u64> = checker::check_keys(&cluster.sim, &expected)
            .iter()
            .filter_map(|v| match v {
                dbtree::TreeViolation::KeyLost { key } => Some(*key),
                _ => None,
            })
            .collect();
        if !lost.is_empty() {
            println!("seed {seed}: keys {lost:?} were acknowledged and then lost (Fig 4)");
            println!("the same seed under semisync:");
            run(ProtocolKind::SemiSync, seed);
            return;
        }
    }
    println!("(no loss within 50 seeds — rerun with a wider jitter window)");
}

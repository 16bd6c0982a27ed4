//! E19 — cluster scale: the hot path at P = 8 … 1024.
//!
//! The paper argues the dB-tree's lazy-update design is what lets it scale:
//! path replication keeps descents local, semi-sync splits touch only a
//! node's copy set, and no operation ever involves more than a handful of
//! processors regardless of cluster size. This experiment stresses that
//! claim directly by sweeping the processor count across two orders of
//! magnitude — P ∈ {8, 64, 256, 1024} — under a Zipf-hotspot workload
//! (θ = 0.99, unscattered: hot ranks collide on the same leaves, the
//! contention adversary) with the preloaded key count growing with P, up to
//! 10⁵ keys at P = 1024.
//!
//! Reported per cell:
//! * the path-replication gradient (per-level nodes / copies / copies-per-
//!   node) — root everywhere, leaves once, interior in between — which is
//!   what keeps both storage and split fan-out bounded as P grows;
//! * msgs/op and mean hops (should stay roughly flat in P);
//! * splits, split messages, and msgs/split against the §4.1.2 claim that a
//!   semi-sync split relays to `copies − 1` peers (leaves are single-copy
//!   under path replication, so the fan-out comes from parent-level
//!   updates — the parent copies/node column is the reference);
//! * raw simulator throughput (events/sec wall) — the number the indexed
//!   event core, arena node store, and batched delivery buy.
//!
//! `--smoke` runs the same P sweep (including P = 1024) with reduced op
//! counts so the release-mode CI job stays inside its time budget.

use bench::report::{note, Table};
use bench::{f1, f2, to_client};
use dbtree::{
    BuildSpec, ClientOp, DbCluster, GlobalView, Key, Placement, ProtocolKind, TreeConfig,
};
use simnet::SimConfig;
use workload::{KeyDist, Mix, WorkloadGen, Zipf};

/// One point of the scale sweep.
struct Cell {
    procs: u32,
    preload: u64,
    ops: usize,
    concurrency: usize,
}

fn sweep(smoke: bool) -> Vec<Cell> {
    // Preload grows with P (≈100 keys/processor, floor 2000) so the tree
    // is genuinely distributed at every scale; the ISSUE floor is 10⁵ keys
    // at P = 1024. Op counts grow sublinearly — the measured quantities
    // (msgs/op, msgs/split, hops) are per-op rates and converge quickly.
    let full = [
        (8u32, 2_000u64, 40_000usize, 32usize),
        (64, 8_000, 60_000, 64),
        (256, 30_000, 80_000, 128),
        (1024, 100_000, 120_000, 256),
    ];
    full.iter()
        .map(|&(procs, preload, ops, concurrency)| Cell {
            procs,
            preload,
            // Smoke keeps every P (the whole point is P = 1024 in CI) but
            // cuts the drive to a tenth.
            ops: if smoke { ops / 10 } else { ops },
            concurrency,
        })
        .collect()
}

pub fn run(args: &crate::Args) {
    let mut gradient = Table::new(&["P", "level", "nodes", "copies", "copies/node"]);
    let mut results = Table::new(&[
        "P",
        "preload",
        "ops",
        "thr (op/ktick)",
        "hops",
        "msgs/op",
        "splits",
        "msgs/split",
        "parent copies-1",
        "Mev/s",
        "wall s",
    ]);

    for cell in sweep(args.smoke) {
        eprintln!("running P={} ...", cell.procs);
        let cfg = TreeConfig {
            placement: Placement::PathReplication,
            protocol: ProtocolKind::SemiSync,
            record_history: false,
            ..Default::default()
        };
        let keys: Vec<Key> = (0..cell.preload).map(|k| k * 10).collect();
        let spec = BuildSpec::new(keys, cell.procs, cfg);
        let mut cluster = DbCluster::build(&spec, SimConfig::jittery(19, 2, 25));

        // Per-level replication gradient before traffic, and the mean
        // copies/node one level above the leaves — the fan-out a leaf
        // split's parent update actually pays under path replication.
        let parent_fanout = {
            let view = GlobalView::new(&cluster.sim);
            let nodes = view.nodes_per_level();
            let copies = view.copies_per_level();
            for (level, n) in nodes.iter().rev() {
                let c = copies.get(level).copied().unwrap_or(0);
                gradient.row(&[
                    cell.procs.to_string(),
                    level.to_string(),
                    n.to_string(),
                    c.to_string(),
                    f2(c as f64 / (*n).max(1) as f64),
                ]);
            }
            let parent = nodes
                .get(&1)
                .map(|n| copies.get(&1).copied().unwrap_or(0) as f64 / (*n).max(1) as f64)
                .unwrap_or(1.0);
            parent - 1.0
        };

        // Zipf-hotspot drive: unscattered ranks, so the popular keys sit on
        // the same few leaves and splits concentrate where contention does.
        let mut gen = WorkloadGen::new(
            KeyDist::Zipfian {
                zipf: Zipf::new((cell.preload * 10) as usize, 0.99),
                scatter: false,
            },
            Mix {
                search_fraction: 0.5,
                ..Mix::INSERT_ONLY
            },
            cell.procs,
            0x19 ^ cell.procs as u64,
        );
        let ops: Vec<ClientOp> = gen.batch(cell.ops).iter().map(to_client).collect();

        let before = cluster.sim.stats().clone();
        let events_before = cluster.sim.events_delivered();
        let wall = std::time::Instant::now();
        let stats = cluster
            .try_run_closed_loop(&ops, cell.concurrency)
            .expect("workload drains");
        let wall = wall.elapsed();

        let delta = cluster.sim.stats().delta_since(&before);
        let splits = bench::sum_metric(&cluster, |m| m.splits_initiated);
        let split_msgs = delta.remote_matching(|k| k.starts_with("split."));
        let events = cluster.sim.events_delivered() - events_before;
        let completed = stats.records.len();
        assert_eq!(completed, cell.ops, "closed loop lost operations");

        results.row(&[
            cell.procs.to_string(),
            cell.preload.to_string(),
            completed.to_string(),
            f2(stats.throughput_per_kilotick()),
            f2(stats.mean_hops()),
            f2(delta.total_messages() as f64 / completed.max(1) as f64),
            splits.to_string(),
            f2(split_msgs as f64 / splits.max(1) as f64),
            f2(parent_fanout),
            f2(events as f64 / wall.as_secs_f64().max(1e-9) / 1e6),
            f1(wall.as_secs_f64()),
        ]);
    }

    gradient.print();
    println!();
    results.print();
    note("path replication keeps the gradient: root everywhere, leaves once —");
    note("so msgs/op and msgs/split stay bounded while P grows 128x");
}

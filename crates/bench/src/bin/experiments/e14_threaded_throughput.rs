//! E14 — every protocol on real threads: wall-clock throughput.
//!
//! The simulator experiments (E1–E13) measure virtual-tick costs; this one
//! runs the *same* protocol state machines on `simnet::threaded::Cluster` —
//! processor 0 on the driver's thread, one OS thread per other processor,
//! one inbox each — through the same `DbCluster` facade and closed-loop
//! driver, and reports real operations per second, with the wake-ups and
//! parks the inboxes paid per operation (`Cluster::inbox_stats`; processor
//! 0's parks are the driver's). The point is not the absolute numbers (this
//! is a message-passing toy, not a tuned server) but that the protocol
//! ranking survives the move to real concurrency: lazy
//! protocols never block operations on replica maintenance, so semisync
//! keeps its lead over sync splits and available-copies locking when the
//! nondeterminism is real.
//!
//! `--smoke` cuts a cell from 100 000 ops (about a second) to 2 000, for CI.

use std::time::Instant;

use bench::report::{note, Table};
use bench::{f1, to_client};
use dbtree::{BuildSpec, ClientOp, ProtocolKind, SeededBug, ThreadedDbCluster, TreeConfig};
use workload::{KeyDist, Mix, WorkloadGen};

const N_OPS: usize = 100_000;
const SMOKE_OPS: usize = 2_000;
const CONCURRENCY: usize = 8;

struct Cell {
    ops_per_sec: f64,
    mean_us: f64,
    p99_us: u64,
    done: usize,
    wakes_per_op: f64,
    parks_per_op: f64,
}

fn measure(cfg: TreeConfig, n_procs: u32, n_ops: usize) -> Cell {
    let spec = BuildSpec::new((0..500u64).map(|k| k * 10).collect(), n_procs, cfg);
    let mut cluster = ThreadedDbCluster::build_threaded(&spec);

    let mut gen = WorkloadGen::new(
        KeyDist::Uniform { n: 20_000 },
        Mix {
            search_fraction: 0.5,
            ..Mix::INSERT_ONLY
        },
        n_procs,
        41 + n_procs as u64,
    );
    let ops: Vec<ClientOp> = gen.batch(n_ops).iter().map(to_client).collect();

    let t0 = Instant::now();
    let stats = cluster
        .try_run_closed_loop(&ops, CONCURRENCY)
        .expect("workload drains");
    let wall = t0.elapsed();

    let done = stats.records.len();
    let inbox = cluster.sim.inbox_stats();
    cluster.into_procs(); // join every thread before the next run
    Cell {
        ops_per_sec: done as f64 / wall.as_secs_f64(),
        // Threaded ticks are wall-clock microseconds, so latencies read as µs.
        mean_us: stats.mean_latency(),
        p99_us: stats.latency_quantile(0.99),
        done,
        wakes_per_op: inbox.wakes as f64 / done as f64,
        parks_per_op: inbox.parks as f64 / done as f64,
    }
}

pub fn run(args: &crate::Args) {
    let n_ops = if args.smoke { SMOKE_OPS } else { N_OPS };
    let mut table = Table::new(&[
        "threads",
        "protocol",
        "ops/s (wall clock)",
        "mean latency (µs)",
        "p99 (µs)",
        "wakes/op",
        "parks/op",
        "completed",
    ]);
    for &n_procs in &[2u32, 4, 8] {
        for (label, protocol, seeded) in [
            ("semisync", ProtocolKind::SemiSync, None),
            ("sync", ProtocolKind::Sync, None),
            ("avail-copies", ProtocolKind::AvailableCopies, None),
            ("naive", ProtocolKind::SemiSync, Some(SeededBug::DiscardOutOfRange)),
        ] {
            let cfg = TreeConfig {
                seeded,
                ..TreeConfig::fixed_copies(protocol, (n_procs as usize).min(3))
            };
            let c = measure(cfg, n_procs, n_ops);
            table.row(&[
                n_procs.to_string(),
                label.to_string(),
                format!("{:.0}", c.ops_per_sec),
                f1(c.mean_us),
                c.p99_us.to_string(),
                format!("{:.3}", c.wakes_per_op),
                format!("{:.3}", c.parks_per_op),
                format!("{}/{n_ops}", c.done),
            ]);
        }
    }
    table.print();
    note("same state machines, same driver as E1-E13 — only the runtime differs;");
    note(
        "naive (semisync + DiscardOutOfRange) may complete <100%: its Fig 4 lost inserts are real losses",
    );
}

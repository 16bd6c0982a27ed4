//! The same dB-tree processors on real OS threads.
//!
//! The protocol code is runtime-agnostic: `DbProc` implements
//! `simnet::Process`, so the exact same state machines that run under the
//! deterministic simulator also run on `simnet::threaded::Cluster`, where
//! each processor is a thread draining its own inbox. Both runtimes
//! implement `simnet::Runtime`, so the same `DbCluster` facade and workload
//! driver run here too — this example bulk-builds a tree, spawns the
//! threaded cluster, and drives a closed-loop mixed workload through exactly
//! the code path the simulator experiments use.
//!
//! Timers work on threads as well (each worker fires its own at wall-clock
//! deadlines, between batches of messages), so relay piggybacking — which
//! relies on a flush-interval timer to bound staleness — is exercised here
//! with a batch size the workload never fills, forcing every flush through
//! the timer.
//!
//! ```sh
//! cargo run -p dbtree --example threaded_cluster
//! ```

use std::time::Instant;

use dbtree::{
    record_final_digests_from, BuildSpec, ClientOp, Intent, PiggybackCfg, ProcMetrics,
    ThreadedDbCluster, TreeConfig,
};
use simnet::ProcId;

fn main() {
    let n_procs = 4u32;
    let cfg = TreeConfig {
        // Unfillable batch: every flush must come from the timer. On the
        // threaded runtime a tick is a microsecond, so this flushes relay
        // buffers at most 200µs after the first buffered relay.
        piggyback: Some(PiggybackCfg {
            max_batch: 100_000,
            flush_interval: 200,
        }),
        ..Default::default()
    };
    let spec = BuildSpec::new((0..2_000u64).map(|k| k * 3).collect(), n_procs, cfg);

    println!("spawning {n_procs} dB-tree processors: 0 on this thread, the rest on their own...");
    let mut cluster = ThreadedDbCluster::build_threaded(&spec);

    let total_ops = 4_000u64;
    let ops: Vec<ClientOp> = (0..total_ops)
        .map(|i| {
            let origin = ProcId((i % n_procs as u64) as u32);
            if i % 4 == 0 {
                ClientOp {
                    origin,
                    key: 6001 + i, // fresh keys: grows the right edge
                    intent: Intent::Insert(i),
                }
            } else {
                ClientOp {
                    origin,
                    key: (i * 3) % 6000,
                    intent: Intent::Search,
                }
            }
        })
        .collect();

    let t0 = Instant::now();
    let stats = cluster
        .try_run_closed_loop(&ops, 8)
        .expect("workload drains");
    let elapsed = t0.elapsed();

    let done = stats.records.len();
    let found = stats
        .records
        .iter()
        .filter(|r| r.outcome.found.is_some())
        .count();
    assert_eq!(done as u64, total_ops, "closed loop lost operations");
    println!(
        "{done} operations completed in {elapsed:?} ({:.0} ops/s); {found} lookups hit; \
         mean latency {:.0}µs, p99 {}µs",
        done as f64 / elapsed.as_secs_f64(),
        stats.mean_latency(),
        stats.latency_quantile(0.99),
    );

    // Tear down: join every worker thread and take back the final processor
    // states. The driver already settled the cluster (probe barrier), so no
    // grace-period sleep is needed — quiescence is detected, not guessed.
    let log = cluster.log();
    let procs = cluster.into_procs();

    let mut metrics = ProcMetrics::default();
    for p in &procs {
        metrics.merge(&p.metrics);
    }
    println!(
        "relays applied: {}, flushed by timer: {} times",
        metrics.relays_applied, metrics.piggyback_timer_flushes
    );
    assert!(
        metrics.piggyback_timer_flushes > 0,
        "the flush-interval timer never fired on the threaded runtime"
    );

    // Even across real threads, the execution satisfies the paper's §3
    // requirements — including replica convergence, now that the final
    // states are inspectable after shutdown.
    record_final_digests_from(
        &log,
        procs
            .iter()
            .enumerate()
            .map(|(i, p)| (ProcId(i as u32), &**p)),
    );
    let violations = log.lock().check();
    println!(
        "history check across threads: {} violations",
        violations.len()
    );
    assert!(violations.is_empty());
}

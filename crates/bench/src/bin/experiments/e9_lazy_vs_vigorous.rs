//! E9 — lazy updates vs the vigorous available-copies baseline \[2\].
//!
//! Sweeps the replication factor under insert-heavy and read-heavy mixes,
//! comparing remote messages per operation, latency, and how many actions
//! had to wait behind locks — the synchronization the paper's lazy updates
//! eliminate. Reads never wait under semisync; under available-copies they
//! queue behind every write-all lock.

use bench::report::{note, Table};
use bench::{build_cluster, drive, f1, f2};
use dbtree::{ProtocolKind, TreeConfig};
use workload::Mix;

pub fn run(_: &crate::Args) {
    let mut table = Table::new(&[
        "mix",
        "copies",
        "protocol",
        "remote msgs/op",
        "mean latency",
        "p99 latency",
        "actions queued behind locks",
        "blocked ticks",
    ]);

    for (mix_label, mix) in [
        (
            "insert-heavy",
            Mix {
                search_fraction: 0.2,
                ..Mix::INSERT_ONLY
            },
        ),
        (
            "read-heavy",
            Mix {
                search_fraction: 0.9,
                ..Mix::INSERT_ONLY
            },
        ),
    ] {
        for &copies in &[2usize, 4, 8] {
            for protocol in [ProtocolKind::SemiSync, ProtocolKind::AvailableCopies] {
                let cfg = TreeConfig {
                    record_history: false,
                    ..TreeConfig::fixed_copies(protocol, copies)
                };
                let mut cluster = build_cluster(cfg, 8, 100, 31);
                let (stats, _) = drive(&mut cluster, 100, 1500, mix, 10_000, 31, 4);
                let msgs =
                    cluster.sim.stats().remote_messages() as f64 / stats.records.len() as f64;
                let queued = bench::sum_metric(&cluster, |m| m.lock_queued);
                let blocked_ticks = bench::sum_metric(&cluster, |m| m.blocked_ticks);
                table.row(&[
                    mix_label.to_string(),
                    copies.to_string(),
                    protocol.label().to_string(),
                    f2(msgs),
                    f1(stats.mean_latency()),
                    stats.latency_quantile(0.99).to_string(),
                    queued.to_string(),
                    blocked_ticks.to_string(),
                ]);
            }
        }
    }
    table.print();
    note("the gap widens with the replication factor: write-all pays 3 rounds per update and");
    note("queues concurrent reads; lazy relays cost one message per copy and never block reads");
}

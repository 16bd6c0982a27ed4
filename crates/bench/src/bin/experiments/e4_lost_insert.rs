//! E4 — Fig 4: the lost-insert problem.
//!
//! The naive lazy protocol — semisync with `SeededBug::DiscardOutOfRange`
//! seeded, so the PC silently ignores out-of-range relayed inserts — loses
//! keys whenever an insert performed at one copy races a split at the
//! primary: the copies discard the key when they apply the relayed split,
//! and the PC drops the relay — the key vanishes from the structure. The
//! semisync protocol's history rewrite (re-issuing the relay toward the
//! sibling) closes the window. Identical workloads and seeds for both rows.

use bench::report::{note, Table};
use bench::{build_cluster, drive};
use dbtree::{checker, ProtocolKind, SeededBug, TreeConfig};
use workload::Mix;

pub fn run(_: &crate::Args) {
    let mut table = Table::new(&[
        "seed",
        "protocol",
        "inserts",
        "splits",
        "relays fwd'd",
        "relays dropped@PC",
        "keys lost",
    ]);

    let mut naive_total = 0usize;
    let mut semi_total = 0usize;
    for seed in 0..10u64 {
        for (label, seeded) in [
            ("semisync", None),
            ("naive", Some(SeededBug::DiscardOutOfRange)),
        ] {
            let cfg = TreeConfig {
                fanout: 6,
                seeded,
                ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3)
            };
            let mut cluster = build_cluster(cfg, 4, 30, seed);
            let (stats, expected) = drive(&mut cluster, 30, 500, Mix::INSERT_ONLY, 2000, seed, 4);
            cluster.record_final_digests();
            let lost = checker::check_keys(&cluster.sim, &expected).len();
            match seeded {
                Some(_) => naive_total += lost,
                None => semi_total += lost,
            }
            let fwd = bench::sum_metric(&cluster, |m| m.relays_forwarded);
            let dropped = bench::sum_metric(&cluster, |m| m.relays_discarded);
            let splits = bench::sum_metric(&cluster, |m| m.splits_initiated);
            table.row(&[
                seed.to_string(),
                label.to_string(),
                stats.records.len().to_string(),
                splits.to_string(),
                fwd.to_string(),
                dropped.to_string(),
                lost.to_string(),
            ]);
        }
    }
    table.print();
    note(&format!(
        "totals over 10 seeds — semisync lost {semi_total} keys, naive lost {naive_total}"
    ));
    note("every loss coincides with a relay the naive PC dropped; semisync forwards those instead");
}

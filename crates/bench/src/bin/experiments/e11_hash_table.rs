//! E11 — §5: lazy updates generalize to other search structures.
//!
//! The paper's conclusion: "We will apply lazy updates to other distributed
//! data structures, such as hash tables \[5\]." This experiment runs the
//! `dhash` crate's distributed extendible hash table — replicated
//! directories maintained by lazy patches, buckets recovering stale routes
//! through split-image links — and compares the lazy protocol against a
//! synchronous ack-barrier baseline and the link-less naive variant.

use bench::report::{note, Table};
use bench::{f1, f2};
use dhash::{check_hash_cluster, DirProtocol, HKind, HashCluster, HashConfig, HashSpec};
use simnet::{ProcId, SimConfig};
use std::collections::BTreeMap;

pub fn run(_: &crate::Args) {
    let mut table = Table::new(&[
        "protocol",
        "splits",
        "dir msgs/split",
        "blocked ops",
        "recoveries",
        "ops dropped",
        "mean latency",
        "violations",
    ]);

    let n_procs = 8u32;
    let n_ops = 3000u64;
    for protocol in [
        DirProtocol::Lazy,
        DirProtocol::Sync,
        DirProtocol::NaiveNoLinks,
    ] {
        let spec = HashSpec {
            preload: (0..100).map(|k| k * 7).collect(),
            n_procs,
            cfg: HashConfig {
                capacity: 8,
                protocol,
                record_history: true,
            },
        };
        let mut cluster = HashCluster::build(&spec, SimConfig::jittery(17, 2, 30));
        let mut expected: BTreeMap<u64, u64> = (0..100).map(|k| (k * 7, k * 7)).collect();
        for i in 0..n_ops {
            let key = 100_000 + i;
            cluster.submit(ProcId((i % n_procs as u64) as u32), key, HKind::Insert(key));
            expected.insert(key, key);
        }
        let stats = cluster.try_run_to_quiescence().expect("run quiesces");

        let splits: u64 = cluster.sim.procs().map(|(_, p)| p.metrics.splits).sum();
        let blocked: u64 = cluster.sim.procs().map(|(_, p)| p.metrics.blocked).sum();
        let dir_msgs = cluster
            .sim
            .stats()
            .remote_matching(|k| k.starts_with("dir."));
        let violations = if protocol == DirProtocol::NaiveNoLinks {
            // The naive variant is *supposed* to fail; count without
            // asserting.
            check_hash_cluster(&mut cluster, &expected).len()
        } else {
            let v = check_hash_cluster(&mut cluster, &expected);
            assert!(v.is_empty(), "{protocol:?}: {v:?}");
            0
        };
        table.row(&[
            protocol.label().to_string(),
            splits.to_string(),
            f2(dir_msgs as f64 / splits.max(1) as f64),
            blocked.to_string(),
            stats.total_chases().to_string(),
            stats.lost_count().to_string(),
            f1(stats.mean_latency()),
            violations.to_string(),
        ]);
    }
    table.print();
    note("lazy: P-1 patch messages per split, zero blocking, stale routes recovered via links;");
    note(
        "sync: 2(P-1) messages + ops stalled behind the ack barrier; naive (no links): ops lost —",
    );
    note("the same trichotomy the dB-tree exhibits, confirming the §3 theory generalizes");
}

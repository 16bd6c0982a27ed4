//! Lazy updates beyond the B-tree: the distributed extendible hash table
//! (the paper's §5 generalization, implemented in the `dhash` crate).
//!
//! Builds an 8-processor table, blasts concurrent inserts so bucket splits
//! and directory patches race the traffic, and shows the lazy machinery at
//! work: every operation lands despite stale directory copies, recovered
//! through bucket split-image links.
//!
//! ```sh
//! cargo run -p dhash --example hash_table
//! ```

use std::collections::BTreeMap;

use dhash::{check_hash_cluster, DirProtocol, HKind, HashCluster, HashConfig, HashSpec};
use simnet::{ProcId, QuiesceError, SimConfig};

fn main() -> Result<(), QuiesceError> {
    let spec = HashSpec {
        preload: (0..200).map(|k| k * 5).collect(),
        n_procs: 8,
        cfg: HashConfig {
            capacity: 8,
            protocol: DirProtocol::Lazy,
            record_history: true,
        },
    };
    let mut cluster = HashCluster::build(&spec, SimConfig::jittery(11, 2, 30));
    println!("built a distributed extendible hash table on 8 processors");

    // One concurrent burst: everything races everything.
    let mut expected: BTreeMap<u64, u64> = (0..200).map(|k| (k * 5, k * 5)).collect();
    let n = 2_000u64;
    for i in 0..n {
        let key = 10_000 + i;
        cluster.submit(ProcId((i % 8) as u32), key, HKind::Insert(key * 2));
        expected.insert(key, key * 2);
    }
    let stats = cluster.try_run_to_quiescence()?;
    println!(
        "{} inserts completed; {} misnavigations recovered via split-image links; {} lost",
        stats.records.len(),
        stats.total_chases(),
        stats.lost_count()
    );

    let splits: u64 = cluster.sim.procs().map(|(_, p)| p.metrics.splits).sum();
    let (depth, buckets) = {
        let p0 = cluster.sim.proc(ProcId(0));
        let total: usize = cluster.sim.procs().map(|(_, p)| p.buckets.len()).sum();
        (p0.dir.global_depth(), total)
    };
    println!("{splits} bucket splits grew the directory to depth {depth} ({buckets} buckets)");

    // Search a few keys from every processor.
    for p in 0..8u32 {
        cluster.submit(ProcId(p), 10_000 + p as u64 * 7, HKind::Search);
    }
    let stats = cluster.try_run_to_quiescence()?;
    assert!(stats.records.iter().all(|r| r.outcome.found.is_some()));
    println!("spot searches from all 8 processors hit");

    let violations = check_hash_cluster(&mut cluster, &expected);
    println!(
        "checker: {} violations — directories converged, all keys findable, §3 requirements hold",
        violations.len()
    );
    assert!(violations.is_empty());
    Ok(())
}

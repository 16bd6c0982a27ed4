//! An interactive shell over a simulated dB-tree deployment.
//!
//! Drive the cluster by hand: insert, search, delete, scan, migrate leaves,
//! and watch the protocol's message counters move. Useful for poking at the
//! lazy-update machinery interactively.
//!
//! ```sh
//! cargo run -p dbtree --example cli
//! dbtree> insert 42 420
//! dbtree> search 42
//! dbtree> scan 0 10
//! dbtree> stats
//! ```

use std::io::{self, BufRead, Write};

use dbtree::{balance, checker, BuildSpec, ClientOp, DbCluster, GlobalView, Intent, TreeConfig};
use simnet::{ProcId, SimConfig};

const HELP: &str = "commands:
  insert <key> <value>   insert/overwrite (from a rotating origin processor)
  search <key>           point lookup
  delete <key>           tombstone delete
  scan <from> <limit>    range scan across the leaf chain
  migrate                run the leaf balancer (plan + execute)
  tree                   per-level node/copy counts and utilization
  stats                  network message counters
  check                  run the full §3 + structural checker
  help                   this text
  quit";

fn main() {
    let n_procs = 4u32;
    let spec = BuildSpec::new(
        (0..64).map(|k| k * 16).collect(),
        n_procs,
        TreeConfig::default(),
    );
    let mut cluster = DbCluster::build(&spec, SimConfig::jittery(1, 2, 20));
    let mut origin = 0u32;
    let mut expected: std::collections::BTreeSet<u64> = (0..64).map(|k| k * 16).collect();

    println!("dB-tree on {n_procs} simulated processors. Type `help` for commands.");
    let stdin = io::stdin();
    loop {
        print!("dbtree> ");
        io::stdout().flush().ok();
        let Some(Ok(line)) = stdin.lock().lines().next() else {
            break;
        };
        let parts: Vec<&str> = line.split_whitespace().collect();
        origin = (origin + 1) % n_procs;
        let from = ProcId(origin);
        match parts.as_slice() {
            [] => {}
            ["quit" | "exit" | "q"] => break,
            ["help" | "h" | "?"] => println!("{HELP}"),
            ["insert", k, v] => match (k.parse(), v.parse()) {
                (Ok(key), Ok(value)) => {
                    cluster.submit(ClientOp {
                        origin: from,
                        key,
                        intent: Intent::Insert(value),
                    });
                    let r = cluster.try_run_to_quiescence().expect("run quiesces");
                    expected.insert(key);
                    println!(
                        "ok (from {from}, {} hops, prev = {:?})",
                        r[0].outcome.hops, r[0].outcome.found
                    );
                }
                _ => println!("usage: insert <key> <value>"),
            },
            ["search", k] => match k.parse() {
                Ok(key) => {
                    cluster.submit(ClientOp {
                        origin: from,
                        key,
                        intent: Intent::Search,
                    });
                    let r = cluster.try_run_to_quiescence().expect("run quiesces");
                    match r[0].outcome.found {
                        Some(v) => println!("{key} => {v} ({} hops)", r[0].outcome.hops),
                        None => println!("{key} not found"),
                    }
                }
                _ => println!("usage: search <key>"),
            },
            ["delete", k] => match k.parse() {
                Ok(key) => {
                    cluster.submit(ClientOp {
                        origin: from,
                        key,
                        intent: Intent::Delete,
                    });
                    let r = cluster.try_run_to_quiescence().expect("run quiesces");
                    expected.remove(&key);
                    println!("deleted (prev = {:?})", r[0].outcome.found);
                }
                _ => println!("usage: delete <key>"),
            },
            ["scan", f, n] => match (f.parse(), n.parse()) {
                (Ok(from_key), Ok(limit)) => {
                    cluster.scan(from, from_key, limit);
                    cluster.try_run_to_quiescence().expect("run quiesces");
                    for s in cluster.take_scans() {
                        println!(
                            "{} entries ({} hops):",
                            s.outcome.items.len(),
                            s.outcome.hops
                        );
                        for (k, v) in s.outcome.items.iter().take(20) {
                            println!("  {k} => {v}");
                        }
                        if s.outcome.items.len() > 20 {
                            println!("  ... ({} more)", s.outcome.items.len() - 20);
                        }
                    }
                }
                _ => println!("usage: scan <from> <limit>"),
            },
            ["migrate"] => {
                let plan = balance::plan_rebalance(&cluster.sim, 1);
                if plan.is_empty() {
                    println!("already balanced: {:?}", balance::leaf_loads(&cluster.sim));
                } else {
                    for m in &plan {
                        cluster.migrate(m.leaf, m.from, m.to);
                    }
                    cluster.try_run_to_quiescence().expect("run quiesces");
                    println!(
                        "moved {} leaves; loads now {:?}",
                        plan.len(),
                        balance::leaf_loads(&cluster.sim)
                    );
                }
            }
            ["tree"] => {
                let view = GlobalView::new(&cluster.sim);
                for (level, nodes) in view.nodes_per_level().iter().rev() {
                    let copies = view.copies_per_level()[level];
                    println!(
                        "level {level}: {nodes} nodes, {copies} copies, utilization {:.0}%",
                        view.utilization(*level) * 100.0
                    );
                }
            }
            ["stats"] => print!("{}", cluster.sim.stats()),
            ["check"] => {
                let violations = checker::check_all(&mut cluster, &expected);
                if violations.is_empty() {
                    println!("clean: converged, complete, ordered; all keys findable");
                } else {
                    for v in violations {
                        println!("VIOLATION: {v}");
                    }
                }
            }
            _ => println!("unknown command; try `help`"),
        }
    }
}

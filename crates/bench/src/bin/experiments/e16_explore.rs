//! E16 — schedule exploration: budget vs bugs found.
//!
//! §3's correctness argument quantifies over *all* schedules; the explorer
//! searches that space. This experiment measures the search's power on the
//! known bug (Fig 4's lost insert, seeded as `SeededBug::DiscardOutOfRange`
//! on semisync): how big an iteration budget does it take to catch the
//! race, how small does the shrinker make the repro, and — the control —
//! does the oracle stack stay silent on the correct protocol under the same
//! budgets.

use dbtree::{ProtocolKind, SeededBug};
use explore::{blink_scenario, explore, Budget};
use simnet::FaultPlan;

const TRIALS: u64 = 20;
const MAX_ITERS: u64 = 40;

pub fn run(_: &crate::Args) {
    println!(
        "  naive (Fig 4) protocol, {TRIALS} workload seeds per row, budget {MAX_ITERS} schedules"
    );
    println!();
    println!("  ops  caught  mean schedules-to-catch  mean shrunk ops  mean shrunk choices");
    println!("  ---------------------------------------------------------------------------");

    for n_ops in [4usize, 8, 12, 16] {
        let mut caught = 0u64;
        let mut runs_sum = 0u64;
        let mut ops_sum = 0u64;
        let mut choices_sum = 0u64;
        for seed in 0..TRIALS {
            let scenario = blink_scenario(ProtocolKind::SemiSync, seed, n_ops, FaultPlan::none())
                .with_bug(SeededBug::DiscardOutOfRange);
            let budget = Budget {
                iterations: MAX_ITERS,
                ..Budget::default()
            };
            let report = explore(&scenario, seed, &budget);
            if let Some(failure) = report.failures.first() {
                caught += 1;
                runs_sum += report.runs;
                ops_sum += failure.scenario.ops.len() as u64;
                choices_sum += failure.choices.len() as u64;
            }
        }
        if caught == 0 {
            println!("  {n_ops:>3}   0/{TRIALS}                        —                —                    —");
            continue;
        }
        println!(
            "  {n_ops:>3}  {caught:>2}/{TRIALS}  {:>23.1}  {:>15.1}  {:>19.1}",
            runs_sum as f64 / caught as f64,
            ops_sum as f64 / caught as f64,
            choices_sum as f64 / caught as f64,
        );
    }

    // Control: the correct protocol under the same budgets — the oracle
    // stack (structural + §3 history + sequence) must stay silent.
    let mut clean_schedules = 0u64;
    for seed in 0..5u64 {
        let scenario = blink_scenario(ProtocolKind::SemiSync, seed, 8, FaultPlan::none());
        let report = explore(
            &scenario,
            seed,
            &Budget {
                iterations: 30,
                ..Budget::default()
            },
        );
        assert!(
            report.failures.is_empty(),
            "false positive on semisync: {:?}",
            report.failures[0].violations
        );
        clean_schedules += report.runs;
    }
    println!();
    println!(
        "  control: semisync, same workloads — {clean_schedules} schedules, 0 oracle violations"
    );
}

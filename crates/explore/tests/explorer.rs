//! The explorer's own acceptance suite: determinism of the exploration
//! loop, oracle validation over >1000 schedules with faults enabled, and
//! the catch-and-shrink path on Fig 4's seeded lost-insert bug.

use dbtree::{ProtocolKind, SeededBug};
use explore::{
    blink_scenario, crash_faults, emit_test, explore, format_repro, hash_scenario, light_faults,
    merge_race_scenario, merge_scenario, run_repro, Budget, Proto,
};
use simnet::FaultPlan;

/// The broken-protocol scenario: with `DiscardOutOfRange` seeded (Fig 4)
/// the PC discards relayed inserts that arrive out of its key range, so an
/// insert racing a split is silently lost under the right interleaving.
fn naive_scenario() -> explore::Scenario {
    blink_scenario(ProtocolKind::SemiSync, 3, 16, FaultPlan::none())
        .with_bug(SeededBug::DiscardOutOfRange)
}

/// Acceptance: same seed, same budget → identical schedule digest,
/// identical verdicts, and byte-identical shrunk repro files.
#[test]
fn same_budget_twice_is_byte_identical() {
    let scenario = naive_scenario();
    let budget = Budget {
        iterations: 10,
        ..Budget::default()
    };
    let first = explore(&scenario, 42, &budget);
    let second = explore(&scenario, 42, &budget);

    assert_eq!(first.runs, second.runs);
    assert_eq!(first.choices_made, second.choices_made);
    assert_eq!(first.schedule_digest, second.schedule_digest);
    assert_eq!(first.failures.len(), second.failures.len());
    assert!(!first.failures.is_empty(), "naive scenario must fail");

    // Diff the repro *files*, as written to disk, byte for byte.
    let dir = std::env::temp_dir();
    let path_a = dir.join("explore_determinism_a.repro");
    let path_b = dir.join("explore_determinism_b.repro");
    std::fs::write(&path_a, format_repro(&first.failures[0]).unwrap()).unwrap();
    std::fs::write(&path_b, format_repro(&second.failures[0]).unwrap()).unwrap();
    let bytes_a = std::fs::read(&path_a).unwrap();
    let bytes_b = std::fs::read(&path_b).unwrap();
    assert_eq!(bytes_a, bytes_b, "shrunk repro files differ across runs");

    // A different explorer seed walks a different part of the space. The
    // naive scenario fails on its first (seed-independent FIFO) schedule,
    // so probe divergence on a clean scenario whose runs get past the
    // seeded strategies.
    let clean = hash_scenario(13, 10, light_faults());
    let small = Budget {
        iterations: 6,
        ..Budget::default()
    };
    let a = explore(&clean, 42, &small);
    let b = explore(&clean, 43, &small);
    assert_ne!(
        a.schedule_digest, b.schedule_digest,
        "distinct seeds should explore distinct schedules"
    );
}

/// One clean-protocol exploration leg of the ≥1000-schedule acceptance
/// run. Every schedule goes through the full oracle stack — structural
/// checkers, §3 history check, and the sequence oracle (complete /
/// compatible / ordered) — and none may fire.
fn assert_clean(scenario: &explore::Scenario, seed: u64, iterations: u64) {
    let budget = Budget {
        iterations,
        ..Budget::default()
    };
    let report = explore(scenario, seed, &budget);
    assert_eq!(report.runs, iterations, "budget must be exhausted");
    assert!(
        report.choices_made > report.runs,
        "schedules were not actually perturbed"
    );
    assert!(
        report.failures.is_empty(),
        "oracle fired on a correct protocol: {:?}",
        report.failures[0].violations
    );
}

// The ≥1000-schedule oracle validation, split into four tests so the
// harness runs the legs in parallel: 300 + 225 + 300 + 225 = 1050
// schedules, all with faults enabled, across both protocols.

#[test]
fn blink_semisync_faulty_oracles_hold_over_300_schedules() {
    assert_clean(
        &blink_scenario(ProtocolKind::SemiSync, 11, 8, light_faults()),
        1,
        300,
    );
}

#[test]
fn blink_crash_oracles_hold_over_225_schedules() {
    assert_clean(
        &blink_scenario(ProtocolKind::SemiSync, 12, 8, crash_faults(1)),
        2,
        225,
    );
}

#[test]
fn hash_faulty_oracles_hold_over_300_schedules() {
    assert_clean(&hash_scenario(13, 10, light_faults()), 3, 300);
}

#[test]
fn hash_crash_oracles_hold_over_225_schedules() {
    assert_clean(&hash_scenario(14, 10, crash_faults(2)), 4, 225);
}

// The merge-enabled legs: same oracle stack plus the deleted-key check,
// over scenarios whose deletes empty (and retire) leaves mid-schedule.
// 300 + 225 + 225 = 750 more fault-enabled schedules on top of the 1050
// above.

#[test]
fn merge_semisync_faulty_oracles_hold_over_300_schedules() {
    assert_clean(
        &merge_scenario(ProtocolKind::SemiSync, 21, 12, light_faults()),
        5,
        300,
    );
}

#[test]
fn merge_sync_faulty_oracles_hold_over_225_schedules() {
    assert_clean(
        &merge_scenario(ProtocolKind::Sync, 22, 12, light_faults()),
        6,
        225,
    );
}

#[test]
fn merge_crash_oracles_hold_over_225_schedules() {
    assert_clean(
        &merge_scenario(ProtocolKind::SemiSync, 23, 12, crash_faults(1)),
        7,
        225,
    );
}

/// The distilled merge/insert race under the *safe* protocol: every
/// schedule must pass, including the ones that land the insert inside the
/// merge's grant round-trip (the commit-time re-verify declines those).
#[test]
fn safe_merge_survives_the_race_schedules() {
    // Several explorer seeds: one seed × 200 schedules walked past the
    // relay-ahead-of-its-absorb divergence for a whole release (it sat at
    // schedule 107 of seed 0; see `tests/regressions.rs`).
    for seed in 0..8 {
        assert_clean(&merge_race_scenario(), seed, 500);
    }
}

/// Acceptance: the injected check-then-act merge bug (commit skips the
/// emptiness re-verify, discarding an insert that raced the grant) is
/// caught, shrunk to a ≤10-op repro, and the repro file replays to a
/// violation.
#[test]
fn unsafe_merge_race_is_caught_and_shrunk() {
    let scenario = merge_race_scenario().with_bug(SeededBug::MergeNoReverify);
    let budget = Budget {
        iterations: 200,
        ..Budget::default()
    };
    let report = explore(&scenario, 9, &budget);
    assert_eq!(
        report.failures.len(),
        1,
        "the unsafe merge must be caught within the budget"
    );
    let failure = &report.failures[0];
    assert!(!failure.violations.is_empty());
    assert!(
        failure.scenario.ops.len() <= 10,
        "shrunk to {} ops, wanted <= 10",
        failure.scenario.ops.len()
    );
    assert!(
        matches!(
            &failure.scenario.proto,
            Proto::Blink(cfg)
                if cfg.merge_at_empty && cfg.seeded == Some(SeededBug::MergeNoReverify)
        ),
        "shrinking must not change the merge mode under test"
    );

    // The repro file round-trips and still reproduces.
    let text = format_repro(failure).unwrap();
    assert!(text.contains("merge unsafe"), "mode is in the file");
    assert!(text.contains("delete"), "the repro keeps a delete");
    let replayed = run_repro(&text).expect("repro parses");
    assert!(
        !replayed.violations.is_empty(),
        "shrunk repro no longer reproduces"
    );
}

/// Acceptance: the deliberately broken protocol is caught, shrunk to a
/// small repro (≤10 events), and the repro file replays to a violation.
#[test]
fn naive_split_race_is_caught_and_shrunk() {
    let scenario = naive_scenario();
    let budget = Budget {
        iterations: 25,
        ..Budget::default()
    };
    let report = explore(&scenario, 7, &budget);
    assert_eq!(report.failures.len(), 1, "naive must be caught");
    let failure = &report.failures[0];

    assert!(
        !failure.violations.is_empty(),
        "failure carries its violations"
    );
    assert!(
        failure.scenario.ops.len() <= 10,
        "shrunk to {} ops, wanted <= 10",
        failure.scenario.ops.len()
    );
    assert!(
        matches!(
            &failure.scenario.proto,
            Proto::Blink(cfg) if cfg.seeded == Some(SeededBug::DiscardOutOfRange)
        ),
        "shrinking must not change the seeded bug under test"
    );
    let stats = &report.shrink_stats[0];
    assert!(stats.accepted > 0, "shrinker found no reduction at all");

    // The repro file is self-contained: parsing and replaying it (the
    // byte-for-byte path a generated #[test] takes) still reproduces.
    let text = format_repro(failure).unwrap();
    let replayed = run_repro(&text).expect("repro parses");
    assert!(
        !replayed.violations.is_empty(),
        "shrunk repro no longer reproduces"
    );

    // And the generated test embeds exactly that file.
    let test = emit_test("naive_split_race", failure).unwrap();
    assert!(test.contains("fn naive_split_race()"));
    assert!(test.contains(&text));
}

/// The same broken protocol with the shrunk repro's ops replayed under the
/// plain simulator order still fails — i.e. the shrinker's output is not an
/// artifact of the exploration scheduler.
#[test]
fn shrunk_naive_repro_survives_reparse_roundtrip() {
    let scenario = naive_scenario();
    let report = explore(
        &scenario,
        7,
        &Budget {
            iterations: 25,
            ..Budget::default()
        },
    );
    let failure = &report.failures[0];
    let text = format_repro(failure).unwrap();
    let parsed = explore::parse_repro(&text).unwrap();
    assert_eq!(&parsed, failure, "repro round-trip is lossless");
    assert_eq!(
        format_repro(&parsed).unwrap(),
        text,
        "repro format is canonical"
    );
}

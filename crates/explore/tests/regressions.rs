//! Shrunk schedules of races the explorer found, replayed against the fixed
//! protocol. Each `.repro` under `tests/repros/` is the explorer's own
//! output (its `violation` lines record what the schedule used to end in),
//! captured with the fix switched off; here it must replay clean.
//!
//! A choice string indexes the enabled set event by event, so these files
//! pin the event structure too: after a change to what becomes a message,
//! re-capture them (`explore --scenario merge --iters 300 --seed S --out
//! DIR` with the fix disabled) rather than trusting a replay that no longer
//! reaches the race.

use explore::run_repro;

fn assert_replays_clean(name: &str, repro: &str) {
    let report = run_repro(repro).unwrap_or_else(|e| panic!("{name}: repro does not parse: {e}"));
    assert!(
        report.violations.is_empty(),
        "{name}: {:#?}",
        report.violations
    );
}

/// A copy that has applied `RelayedAbsorb` accepts a write into the
/// absorbed range and relays it to a copy the absorb relay (another
/// channel) has not reached; that copy used to discard it as out of range
/// and the copies diverged. The distilled merge/insert race, 4 ops.
#[test]
fn relay_ahead_of_its_absorb_is_held_not_discarded() {
    assert_replays_clean(
        "absorb_epoch_race",
        include_str!("repros/absorb_epoch_race.repro"),
    );
}

/// The same race as `explore --scenario merge --seed 31` met it: under
/// loss, duplication and a crash/restart of processor 1.
#[test]
fn relay_ahead_of_its_absorb_survives_faults_and_a_crash() {
    assert_replays_clean(
        "absorb_epoch_merge_crash",
        include_str!("repros/absorb_epoch_merge_crash.repro"),
    );
}

/// `merge_pending` is stable but the `MergeReq` behind it was a hand-off to
/// self; the crash tombstoned it and the leaf was never reclaimed (the
/// liveness oracle's "pending forever"). 3 ops, 7 choices.
#[test]
fn merge_request_lost_in_a_crash_is_re_armed_at_restart() {
    assert_replays_clean(
        "merge_req_lost_in_crash",
        include_str!("repros/merge_req_lost_in_crash.repro"),
    );
}

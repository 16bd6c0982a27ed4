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
//!
//! The last test is the other kind of schedule worth keeping: nothing ever
//! failed on it, and it reads the trace to show that the reordering it is
//! named after really happens.

use explore::{format_repro, parse_repro, replay_traced, run_repro};
use simnet::{ProcId, TraceEvent};

/// Every committed file is in the format's canonical form: with the `#`
/// comment lines below its header dropped, it is what formatting its own
/// parse writes. A change to the format that would reword an existing file
/// fails here.
#[test]
fn committed_repros_are_canonical() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/repros");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/repros")
        .map(|entry| entry.expect("dir entry").path())
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no repro files under {}", dir.display());
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable");
        let uncommented: String = text
            .lines()
            .enumerate()
            .filter(|&(i, line)| i == 0 || !line.starts_with('#'))
            .map(|(_, line)| format!("{line}\n"))
            .collect();
        let failure = parse_repro(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let formatted = format_repro(&failure).expect("representable");
        assert_eq!(formatted, uncommented, "{}", path.display());
    }
}

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
/// liveness oracle's "pending forever"). 2 ops, 4 choices — re-captured
/// (`--scenario merge --seed 11`, re-arm off) when a split stopped sending
/// `copy.install`: the older string no longer reached the lost request.
#[test]
fn merge_request_lost_in_a_crash_is_re_armed_at_restart() {
    assert_replays_clean(
        "merge_req_lost_in_crash",
        include_str!("repros/merge_req_lost_in_crash.repro"),
    );
}

/// The sequence number of a traced session frame (`Data { seq: N, .. }`).
fn frame_seq(detail: &str) -> Option<u64> {
    let rest = detail.strip_prefix("Data { seq: ")?;
    rest[..rest.find(',')?].parse().ok()
}

/// `Descend` is the one payload the session does not order. Shown on a
/// schedule rather than asserted: on channel P1 → P2 the `RelayedSplit` with
/// sequence 2 is lost — sibling, carried relay and all: it is the only
/// message that split sends P2 — the `Descend` with sequence 3 arrives past
/// the hole and is delivered on arrival (the action's `session.early`
/// delta), and the split relay reaches the inner process only as a later
/// retransmission. The
/// descent needs neither recovery here, and cannot on the test bed: both
/// halves of a split have the *sender* as their home, so a descent on the
/// relay's own channel names a node of the receiver's, which the relay
/// says nothing about (the dependent overtake needs a migration:
/// `mobility.rs::a_descend_that_overtakes_its_leafs_install_recovers`, by
/// missing-node restart). Every oracle — structural checkers, §3 history
/// requirements, sequence oracle — stays quiet and each of the five
/// operations completes once.
#[test]
fn descend_is_delivered_ahead_of_a_lost_split_relay_on_its_channel() {
    let failure = parse_repro(include_str!("repros/descend_overtakes_split_relay.repro"))
        .expect("repro parses");
    let channel = (ProcId(1), ProcId(2));
    let (mut descend_at, mut relay_at) = (None, None);
    let report = replay_traced(&failure.scenario, &failure.choices, &mut |trace| {
        let on_channel = trace
            .of_event(TraceEvent::Deliver)
            .filter(|e| (e.from, e.to) == channel);
        for entry in on_channel {
            let counted = |counter| entry.deltas.iter().any(|(name, _)| *name == counter);
            match (entry.kind, frame_seq(&entry.detail())) {
                ("descend", Some(3)) if counted("session.early") => descend_at = Some(entry.seq),
                ("split.relay", Some(2)) if !counted("session.dup_suppressed") => {
                    assert!(entry.redelivery, "the first transmission was lost");
                    relay_at = Some(entry.seq);
                }
                _ => {}
            }
        }
    });
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    assert_eq!(report.completed, failure.scenario.ops.len());
    let (descend_at, relay_at) = (
        descend_at.expect("the schedule no longer delivers the descent early"),
        relay_at.expect("the schedule no longer redelivers the split relay"),
    );
    assert!(descend_at < relay_at, "sent after it, delivered before it");
}

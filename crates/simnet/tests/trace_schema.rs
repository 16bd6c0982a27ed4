//! Golden-file pin of the JSONL trace schema.
//!
//! External consumers (the `e15_trace_anatomy` experiment, ad-hoc jq
//! pipelines) parse the trace export line by line. This test freezes the
//! field set, field order, and value encodings against a committed golden
//! file: if `TraceEntry::to_json` changes shape, this fails and the change
//! has to be deliberate — update `golden/trace_schema.jsonl` in the same
//! commit and call out the schema break.

use simnet::{ProcId, SimTime, Trace, TraceEntry, TraceEvent};

const GOLDEN: &str = include_str!("golden/trace_schema.jsonl");

fn entry(
    at: u64,
    from: ProcId,
    to: ProcId,
    event: TraceEvent,
    kind: &'static str,
    span: Option<u64>,
    detail: &str,
) -> TraceEntry {
    // `seq` is stamped by Trace::record.
    let mut e = TraceEntry::new(SimTime(at), from, to, event, kind, span);
    e.set_detail(detail.to_string());
    e
}

/// One entry of every event type, exercising every field: spans present and
/// absent, redeliveries, waits, metric deltas, external endpoints, and
/// JSON-escaped details.
fn representative_trace() -> Trace {
    let mut t = Trace::with_capacity(16);
    // An injected client request arriving from outside the system.
    t.record(entry(
        5,
        ProcId::EXTERNAL,
        ProcId(0),
        TraceEvent::Deliver,
        "client",
        Some(42),
        "Client { op: 42 }",
    ));
    // A navigation hop that waited behind a busy node manager and moved
    // protocol counters.
    let mut hop = entry(
        9,
        ProcId(0),
        ProcId(1),
        TraceEvent::Deliver,
        "descend",
        Some(42),
        "hop 1",
    );
    hop.wait = 3;
    hop.deltas = vec![("link_chases", 1), ("relays_applied", 2)];
    t.record(hop);
    // A fault destroying a retransmitted relay.
    let mut lost = entry(
        11,
        ProcId(1),
        ProcId(2),
        TraceEvent::Drop,
        "insert.relay",
        None,
        "loss",
    );
    lost.redelivery = true;
    t.record(lost);
    // A fault duplicating a split message.
    t.record(entry(
        12,
        ProcId(2),
        ProcId(0),
        TraceEvent::Duplicate,
        "split.end",
        Some(42),
        "dup",
    ));
    // A timer firing on processor 2.
    t.record(entry(
        15,
        ProcId(2),
        ProcId(2),
        TraceEvent::Timer,
        "timer",
        None,
        "token=1",
    ));
    // Crash and restart of processor 2.
    t.record(entry(
        20,
        ProcId(2),
        ProcId(2),
        TraceEvent::Crash,
        "fault.crash",
        None,
        "",
    ));
    t.record(entry(
        30,
        ProcId(2),
        ProcId(2),
        TraceEvent::Restart,
        "fault.restart",
        None,
        "",
    ));
    // The failure detector on processor 0 suspecting the crashed processor,
    // the recovery layer quarantining it, its rejoin on restart, and the
    // detector clearing the suspicion once it is heard from again.
    t.record(entry(
        22,
        ProcId(0),
        ProcId(0),
        TraceEvent::Suspect,
        "detector.transition",
        None,
        "P2 silent past threshold",
    ));
    t.record(entry(
        22,
        ProcId(0),
        ProcId(0),
        TraceEvent::Quarantine,
        "recovery.quarantine",
        None,
        "P2",
    ));
    t.record(entry(
        30,
        ProcId(2),
        ProcId(2),
        TraceEvent::Rejoin,
        "recovery.rejoin",
        Some(42),
        "pull sync from copies",
    ));
    t.record(entry(
        31,
        ProcId(0),
        ProcId(0),
        TraceEvent::Alive,
        "detector.transition",
        None,
        "P2 heard from again",
    ));
    // A health watchdog firing on processor 1 (self-addressed, like timers).
    t.record(entry(
        32,
        ProcId(1),
        ProcId(1),
        TraceEvent::Alert,
        "backlog_growth",
        None,
        "rule=backlog_growth value=12 threshold=4 windows=4",
    ));
    // A reply leaving the system, with characters the export must escape.
    t.record(entry(
        33,
        ProcId(0),
        ProcId::EXTERNAL,
        TraceEvent::Output,
        "done",
        Some(42),
        "quote \" backslash \\ newline \n tab \t",
    ));
    t
}

#[test]
fn jsonl_export_matches_the_golden_file() {
    let got = representative_trace().to_jsonl();
    if got != GOLDEN {
        // Diff line by line so a failure names the divergent record.
        for (i, (g, w)) in got.lines().zip(GOLDEN.lines()).enumerate() {
            assert_eq!(g, w, "line {i} diverges from the pinned schema");
        }
        assert_eq!(
            got.lines().count(),
            GOLDEN.lines().count(),
            "line count diverges from the pinned schema"
        );
        panic!("trace JSONL diverges from the pinned schema");
    }
}

// ---------------------------------------------------------------------------
// Ring-buffer eviction boundary: the trace is a bounded ring, and consumers
// detect truncation via `dropped()` plus the seq numbering of the surviving
// head. Pin the boundary exactly.
// ---------------------------------------------------------------------------

fn tick(at: u64) -> TraceEntry {
    entry(
        at,
        ProcId(0),
        ProcId(1),
        TraceEvent::Deliver,
        "tick",
        None,
        "",
    )
}

/// `dropped()` stays zero through the `trace_capacity`-th record and counts
/// exactly one per record past it — the boundary is at capacity, not
/// capacity±1.
#[test]
fn dropped_is_exact_at_the_capacity_boundary() {
    const CAP: usize = 16;
    let mut t = Trace::with_capacity(CAP);
    for i in 0..CAP as u64 {
        t.record(tick(i));
        assert_eq!(t.dropped(), 0, "no eviction until the ring is full");
        assert_eq!(t.len(), i as usize + 1);
    }
    // Every record past capacity evicts exactly one head entry.
    for extra in 1..=2 * CAP as u64 {
        t.record(tick(CAP as u64 + extra));
        assert_eq!(t.dropped(), extra, "one eviction per overflow record");
        assert_eq!(t.len(), CAP, "retained window stays at capacity");
    }
}

/// After eviction the JSONL export shows the head gap: the first exported
/// line's `seq` equals `dropped()`, the lines that remain are contiguous,
/// and sequences `0..dropped()` appear nowhere in the export.
#[test]
fn head_gap_is_visible_in_the_jsonl_export() {
    const CAP: usize = 8;
    const TOTAL: u64 = 13; // 5 evictions
    let mut t = Trace::with_capacity(CAP);
    for i in 0..TOTAL {
        t.record(tick(i));
    }
    assert_eq!(t.dropped(), TOTAL - CAP as u64);

    let jsonl = t.to_jsonl();
    let seqs: Vec<u64> = jsonl
        .lines()
        .map(|line| {
            let tail = line
                .split("\"seq\":")
                .nth(1)
                .expect("every line carries a seq field");
            tail[..tail.find(',').unwrap()].parse().unwrap()
        })
        .collect();

    assert_eq!(seqs.len(), CAP, "export holds exactly the retained window");
    assert_eq!(
        seqs[0],
        t.dropped(),
        "first surviving seq names the size of the head gap"
    );
    let expected: Vec<u64> = (t.dropped()..TOTAL).collect();
    assert_eq!(seqs, expected, "retained tail is contiguous and in order");
    for gone in 0..t.dropped() {
        assert!(
            !seqs.contains(&gone),
            "evicted seq {gone} leaked into the export"
        );
    }
}

/// Capacity zero disables recording entirely: nothing retained, nothing
/// counted as dropped (there is no ring to overflow).
#[test]
fn zero_capacity_records_and_drops_nothing() {
    let mut t = Trace::with_capacity(0);
    for i in 0..4 {
        t.record(tick(i));
    }
    assert!(t.is_empty());
    assert_eq!(t.dropped(), 0);
    assert!(t.to_jsonl().is_empty());
}

/// Alert retention at scale: a bounded ring under heavy eviction pressure
/// keeps every `Alert` record while plain records churn through. 100 alerts
/// sprinkled through 50k deliveries on a 512-entry ring all survive, the
/// drop accounting stays exact, and the alerts appear in the export in
/// firing order.
#[test]
fn alerts_survive_eviction_at_scale() {
    const CAP: usize = 512;
    const TOTAL: u64 = 50_000;
    const EVERY: u64 = 500; // 100 alerts across the run
    let mut t = Trace::with_capacity(CAP);
    for i in 0..TOTAL {
        if i % EVERY == 0 {
            t.record(entry(
                i,
                ProcId(1),
                ProcId(1),
                TraceEvent::Alert,
                "backlog_growth",
                None,
                "rule=backlog_growth value=9 threshold=4 windows=4",
            ));
        } else {
            t.record(tick(i));
        }
    }
    assert_eq!(t.len(), CAP, "ring stays bounded");
    assert_eq!(
        t.dropped(),
        TOTAL - CAP as u64,
        "drop accounting stays exact"
    );

    let jsonl = t.to_jsonl();
    let alert_ats: Vec<u64> = jsonl
        .lines()
        .filter(|l| l.contains("\"event\":\"alert\""))
        .map(|l| {
            let tail = l.split("\"at\":").nth(1).unwrap();
            tail[..tail.find(',').unwrap()].parse().unwrap()
        })
        .collect();
    let expected: Vec<u64> = (0..TOTAL).step_by(EVERY as usize).collect();
    assert_eq!(
        alert_ats, expected,
        "every alert survives 50k-record churn, in firing order"
    );
    // The non-alert survivors are the newest plain records (FIFO among the
    // evictable), so the retained window is alerts + a recent tail.
    let plain = CAP - alert_ats.len();
    let first_plain = jsonl
        .lines()
        .filter(|l| !l.contains("\"event\":\"alert\""))
        .map(|l| {
            let tail = l.split("\"at\":").nth(1).unwrap();
            tail[..tail.find(',').unwrap()].parse::<u64>().unwrap()
        })
        .min()
        .unwrap();
    assert!(
        first_plain >= TOTAL - plain as u64 - EVERY,
        "plain survivors are not the recent tail (oldest at {first_plain})"
    );
}

#[test]
fn every_event_label_appears_in_the_golden_file() {
    // The golden file must stay representative: one line per event type.
    for ev in [
        TraceEvent::Deliver,
        TraceEvent::Timer,
        TraceEvent::Output,
        TraceEvent::Drop,
        TraceEvent::Duplicate,
        TraceEvent::Crash,
        TraceEvent::Restart,
        TraceEvent::Suspect,
        TraceEvent::Alive,
        TraceEvent::Quarantine,
        TraceEvent::Rejoin,
        TraceEvent::Alert,
    ] {
        let needle = format!("\"event\":\"{}\"", ev.as_str());
        assert!(GOLDEN.contains(&needle), "golden file lacks {needle}");
    }
}

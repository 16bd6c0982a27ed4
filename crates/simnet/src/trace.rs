//! Causal op-tracing: a bounded ring buffer of runtime events with span
//! ids, per-hop metric deltas, and a line-oriented JSON export.
//!
//! Every record answers "what happened, where, and on behalf of which
//! operation". The *span* of an entry is the driver-minted operation id the
//! event is causally attributable to: payloads that name an operation carry
//! it explicitly ([`Payload::span`](crate::Payload::span)), and both
//! runtimes propagate it through everything an action sends — so split
//! rounds, copy installs, and relays triggered by an insert are stamped
//! with that insert's span even though their payloads never mention it.
//!
//! The buffer retains the **most recent** `cap` entries: debugging a failed
//! run needs the tail, not the head. `dropped` counts evicted entries.

use std::collections::{BTreeMap, VecDeque};

use crate::{ProcId, SimTime};

/// What a trace entry records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// A message was delivered and its action executed.
    Deliver,
    /// A timer fired and its action executed.
    Timer,
    /// A message left the system toward [`ProcId::EXTERNAL`].
    Output,
    /// A fault destroyed a message (loss, partition, or crash); `detail`
    /// says which.
    Drop,
    /// A fault scheduled a second delivery of a message.
    Duplicate,
    /// A fault plan crashed the processor.
    Crash,
    /// A fault plan restarted the processor.
    Restart,
    /// A failure detector began suspecting a peer (`detail` names it).
    Suspect,
    /// A failure detector heard from a suspected peer again.
    Alive,
    /// A recovery orchestrator quarantined a suspected peer (relays to it
    /// are suppressed and queued for anti-entropy).
    Quarantine,
    /// A restarted processor re-entered the replication (§4.3 rejoin plus
    /// anti-entropy catch-up).
    Rejoin,
    /// A health watchdog fired ([`crate::HealthMonitor`]); `kind` names the
    /// rule and `detail` carries the value/threshold pair. Alert entries
    /// are retained preferentially under ring-buffer pressure (the evidence
    /// around them may be evicted, the verdict itself must not be).
    Alert,
}

impl TraceEvent {
    /// Stable lowercase label used in the JSONL schema.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceEvent::Deliver => "deliver",
            TraceEvent::Timer => "timer",
            TraceEvent::Output => "output",
            TraceEvent::Drop => "drop",
            TraceEvent::Duplicate => "duplicate",
            TraceEvent::Crash => "crash",
            TraceEvent::Restart => "restart",
            TraceEvent::Suspect => "suspect",
            TraceEvent::Alive => "alive",
            TraceEvent::Quarantine => "quarantine",
            TraceEvent::Rejoin => "rejoin",
            TraceEvent::Alert => "alert",
        }
    }
}

/// One recorded runtime event.
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// Global record number (assigned by [`Trace::record`]; causal order
    /// within a processor and within a channel).
    pub seq: u64,
    /// Event time: virtual ticks on the simulator, microseconds since spawn
    /// on the threaded runtime.
    pub at: SimTime,
    /// Sender (`ProcId::EXTERNAL` for injected messages; the processor
    /// itself for timers, crashes, and restarts).
    pub from: ProcId,
    /// The destination processor ([`ProcId::EXTERNAL`] for outputs).
    pub to: ProcId,
    /// What happened.
    pub event: TraceEvent,
    /// The payload's `kind()` (`"timer"` for timer events).
    pub kind: &'static str,
    /// The operation this event is causally attributable to, if any.
    pub span: Option<u64>,
    /// `true` when the payload is a session-layer retransmission rather
    /// than a first transmission.
    pub redelivery: bool,
    /// Ticks the delivery waited for a busy node manager (simulator
    /// service-time model; always 0 on the threaded runtime).
    pub wait: u64,
    /// `format!("{:?}")` of the payload (or a fault annotation), captured
    /// only while tracing.
    pub detail: String,
    /// Named `Process::metrics` counters this action changed, as
    /// `(name, increase)` pairs.
    pub deltas: Vec<(&'static str, u64)>,
}

impl TraceEntry {
    /// One line of the JSONL schema (no trailing newline). Field set and
    /// order are pinned by a golden-file test; extend, don't reorder.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96 + self.detail.len());
        s.push_str(&format!(
            "{{\"seq\":{},\"at\":{},\"from\":{},\"to\":{},\"event\":\"{}\",\"kind\":\"{}\"",
            self.seq,
            self.at.ticks(),
            // External is serialized as -1 so consumers get a plain integer.
            proc_json(self.from),
            proc_json(self.to),
            self.event.as_str(),
            self.kind,
        ));
        match self.span {
            Some(sp) => s.push_str(&format!(",\"span\":{sp}")),
            None => s.push_str(",\"span\":null"),
        }
        s.push_str(&format!(
            ",\"redelivery\":{},\"wait\":{}",
            self.redelivery, self.wait
        ));
        s.push_str(",\"detail\":\"");
        json_escape_into(&mut s, &self.detail);
        s.push_str("\",\"deltas\":{");
        for (i, (name, inc)) in self.deltas.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            json_escape_into(&mut s, name);
            s.push_str(&format!("\":{inc}"));
        }
        s.push_str("}}");
        s
    }
}

fn proc_json(p: ProcId) -> i64 {
    if p.is_external() {
        -1
    } else {
        p.0 as i64
    }
}

/// Escape `src` for inclusion inside a JSON string literal.
pub(crate) fn json_escape_into(out: &mut String, src: &str) {
    for c in src.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// A bounded in-memory trace of runtime events.
///
/// A ring buffer: once `cap` entries are held, recording a new entry evicts
/// the **oldest** (and counts it in [`Trace::dropped`]), so the trace always
/// ends at the present. `seq` numbers are global, so evictions are visible
/// as a gap at the front.
#[derive(Debug, Default)]
pub struct Trace {
    entries: VecDeque<TraceEntry>,
    cap: usize,
    dropped: u64,
    next_seq: u64,
    /// Retained [`TraceEvent::Alert`] entries — the eviction policy below
    /// skips them while anything else can be evicted instead.
    retained_alerts: usize,
}

impl Trace {
    /// A trace retaining at most `cap` of the most recent entries.
    pub fn with_capacity(cap: usize) -> Self {
        Trace {
            entries: VecDeque::new(),
            cap,
            dropped: 0,
            next_seq: 0,
            retained_alerts: 0,
        }
    }

    /// Is recording enabled at all? (`cap > 0`.)
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// Append an entry, stamping its `seq` and evicting the oldest entry if
    /// the buffer is full. Public so tools and tests can build traces by
    /// hand; the runtimes call it internally.
    ///
    /// Eviction policy (pinned by tests): the oldest **non-alert** entry is
    /// evicted first, so [`TraceEvent::Alert`] records are never silently
    /// pushed out ahead of ordinary traffic — a post-mortem must always see
    /// the verdicts even when the evidence window has wrapped. Only when
    /// the entire ring is alerts does the oldest alert go. A trace that
    /// never records an alert evicts exactly as a plain FIFO ring.
    pub fn record(&mut self, mut entry: TraceEntry) {
        if self.cap == 0 {
            return;
        }
        entry.seq = self.next_seq;
        self.next_seq += 1;
        if self.entries.len() == self.cap {
            if self.retained_alerts == 0 {
                self.entries.pop_front();
            } else if let Some(idx) = self
                .entries
                .iter()
                .position(|e| e.event != TraceEvent::Alert)
            {
                self.entries.remove(idx);
            } else {
                self.entries.pop_front();
                self.retained_alerts -= 1;
            }
            self.dropped += 1;
        }
        if entry.event == TraceEvent::Alert {
            self.retained_alerts += 1;
        }
        self.entries.push_back(entry);
    }

    /// Record an event that is not a process action — a fault drop or
    /// duplicate, a crash marker, an external output, a mark, an alert —
    /// and therefore changed no process metrics. Returns the recorded entry
    /// (`None` while tracing is off) so the caller can set the rarer fields
    /// (`detail`, `redelivery`, `wait`): formatting a payload is paid only
    /// when there is a trace to put it in.
    pub fn note(
        &mut self,
        at: SimTime,
        from: ProcId,
        to: ProcId,
        event: TraceEvent,
        kind: &'static str,
        span: Option<u64>,
    ) -> Option<&mut TraceEntry> {
        if !self.enabled() {
            return None;
        }
        self.record(TraceEntry {
            seq: 0,
            at,
            from,
            to,
            event,
            kind,
            span,
            redelivery: false,
            wait: 0,
            detail: String::new(),
            deltas: Vec::new(),
        });
        self.entries.back_mut()
    }

    /// Recorded entries, oldest retained first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries evicted to make room (the trace's head is missing
    /// exactly this many records).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Entries of one payload kind, in order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceEntry> + 'a {
        self.entries.iter().filter(move |e| e.kind == kind)
    }

    /// Entries attributed to one span, in causal order — the end-to-end
    /// anatomy of a single operation.
    ///
    /// This scans the whole trace: O(n) per call. Callers that look up many
    /// spans (the critical-path profiler visits every op) should build a
    /// [`Trace::span_index`] once and query that instead.
    pub fn of_span(&self, span: u64) -> impl Iterator<Item = &TraceEntry> + '_ {
        self.entries.iter().filter(move |e| e.span == Some(span))
    }

    /// Build a span → entries index in one pass over the trace. Entries per
    /// span keep their trace (seq) order. The index borrows the trace, so
    /// build it after recording is done.
    pub fn span_index(&self) -> SpanIndex<'_> {
        let mut by_span: BTreeMap<u64, Vec<&TraceEntry>> = BTreeMap::new();
        for e in &self.entries {
            if let Some(sp) = e.span {
                by_span.entry(sp).or_default().push(e);
            }
        }
        SpanIndex { by_span }
    }

    /// Entries of one event type, in order.
    pub fn of_event(&self, event: TraceEvent) -> impl Iterator<Item = &TraceEntry> + '_ {
        self.entries.iter().filter(move |e| e.event == event)
    }

    /// The whole trace as JSON Lines (one entry per line, trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

/// A prebuilt span → entries index over a [`Trace`], answering per-span
/// lookups in O(log #spans) instead of [`Trace::of_span`]'s O(n) scan.
#[derive(Debug, Default)]
pub struct SpanIndex<'a> {
    by_span: BTreeMap<u64, Vec<&'a TraceEntry>>,
}

impl<'a> SpanIndex<'a> {
    /// Entries attributed to `span`, in trace order (empty if unknown).
    pub fn of_span(&self, span: u64) -> &[&'a TraceEntry] {
        self.by_span.get(&span).map_or(&[], |v| v.as_slice())
    }

    /// All indexed spans, ascending.
    pub fn spans(&self) -> impl Iterator<Item = u64> + '_ {
        self.by_span.keys().copied()
    }

    /// Number of distinct spans indexed.
    pub fn len(&self) -> usize {
        self.by_span.len()
    }

    /// `true` if no entry carried a span.
    pub fn is_empty(&self) -> bool {
        self.by_span.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(kind: &'static str) -> TraceEntry {
        TraceEntry {
            seq: 0,
            at: SimTime(0),
            from: ProcId(0),
            to: ProcId(1),
            event: TraceEvent::Deliver,
            kind,
            span: None,
            redelivery: false,
            wait: 0,
            detail: String::new(),
            deltas: Vec::new(),
        }
    }

    #[test]
    fn ring_keeps_the_newest_and_counts_drops() {
        let mut t = Trace::with_capacity(2);
        t.record(entry("a"));
        t.record(entry("b"));
        t.record(entry("c"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
        // The tail survives: "b" and "c", with global seq numbers intact.
        let kinds: Vec<&str> = t.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["b", "c"]);
        let seqs: Vec<u64> = t.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2], "seq shows the evicted head as a gap");
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let mut t = Trace::with_capacity(0);
        assert!(!t.enabled());
        t.record(entry("a"));
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0, "nothing recorded, nothing dropped");
    }

    #[test]
    fn filters_by_kind_span_and_event() {
        let mut t = Trace::with_capacity(10);
        t.record(entry("a"));
        let mut b = entry("b");
        b.span = Some(7);
        b.event = TraceEvent::Output;
        t.record(b);
        t.record(entry("a"));
        assert_eq!(t.of_kind("a").count(), 2);
        assert_eq!(t.of_kind("b").count(), 1);
        assert_eq!(t.of_span(7).count(), 1);
        assert_eq!(t.of_event(TraceEvent::Output).count(), 1);
        assert_eq!(t.of_event(TraceEvent::Deliver).count(), 2);
    }

    #[test]
    fn span_index_matches_linear_scan() {
        let mut t = Trace::with_capacity(64);
        for i in 0..30u64 {
            let mut e = entry("k");
            e.at = SimTime(i);
            e.span = if i % 3 == 0 { None } else { Some(i % 5) };
            t.record(e);
        }
        let idx = t.span_index();
        assert!(!idx.is_empty());
        for span in 0..6u64 {
            let linear: Vec<u64> = t.of_span(span).map(|e| e.seq).collect();
            let indexed: Vec<u64> = idx.of_span(span).iter().map(|e| e.seq).collect();
            assert_eq!(linear, indexed, "span {span}");
        }
        assert_eq!(idx.spans().count(), idx.len());
        assert!(SpanIndex::default().of_span(1).is_empty());
    }

    #[test]
    fn eviction_skips_alert_entries() {
        let mut t = Trace::with_capacity(3);
        t.record(entry("a"));
        let mut alert = entry("health.backlog_growth");
        alert.event = TraceEvent::Alert;
        t.record(alert);
        t.record(entry("b"));
        // Overflow: "a" (oldest non-alert) goes, the alert stays.
        t.record(entry("c"));
        assert_eq!(t.dropped(), 1);
        let kinds: Vec<&str> = t.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["health.backlog_growth", "b", "c"]);
        // Next overflow evicts "b" — the alert is older but protected.
        t.record(entry("d"));
        let kinds: Vec<&str> = t.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["health.backlog_growth", "c", "d"]);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn all_alert_ring_falls_back_to_fifo() {
        let mut t = Trace::with_capacity(2);
        for i in 0..3 {
            let mut a = entry(["x", "y", "z"][i]);
            a.event = TraceEvent::Alert;
            t.record(a);
        }
        assert_eq!(t.dropped(), 1);
        let kinds: Vec<&str> = t.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec!["y", "z"],
            "oldest alert goes when all are alerts"
        );
        // The accounting stayed consistent: a non-alert entry is still the
        // preferred victim afterwards.
        t.record(entry("plain"));
        t.record(entry("plain2"));
        let kinds: Vec<&str> = t.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["z", "plain2"]);
    }

    #[test]
    fn json_escapes_details() {
        let mut e = entry("x");
        e.detail = "say \"hi\"\nback\\slash".into();
        let line = e.to_json();
        assert!(line.contains(r#"say \"hi\"\nback\\slash"#));
        assert!(!line.contains('\n'), "one line per entry");
    }

    #[test]
    fn external_serializes_as_minus_one() {
        let mut e = entry("client");
        e.from = ProcId::EXTERNAL;
        assert!(e.to_json().contains("\"from\":-1"));
    }
}

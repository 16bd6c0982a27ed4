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
//!
//! It is a *flight recorder*: recording keeps what happened in the cheapest
//! form the runtime has — a delivery keeps a clone of the payload itself, a
//! timer its token — and text is produced only when someone reads it
//! ([`TraceEntry::detail`], [`TraceEntry::to_json`]). A long run records
//! many times what the ring retains, so an entry that is evicted is never
//! formatted, and the evicted entry's allocations are handed to the next
//! one recorded (`Trace::recycle`).

use std::any::Any;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::{self, Write as _};

use crate::json::{opt_into, pairs_into, Escaped};
use crate::{Payload, ProcId, SimTime};

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

/// A payload kept in the trace as itself (any [`Payload`]), type-erased so
/// [`Trace`] stays non-generic.
trait Recorded: Any + fmt::Debug + Send + Sync {}

impl<M: Payload> Recorded for M {}

/// What an entry says beyond its fixed fields, in the form it was recorded.
enum Detail {
    /// A fault flavor or a process-written annotation (empty for none).
    Text(Cow<'static, str>),
    /// A timer's token; reads `token=N`.
    Token(u64),
    /// The delivered or emitted payload; reads as its `{:?}`.
    Payload(Box<dyn Recorded>),
}

impl fmt::Display for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detail::Text(t) => f.write_str(t),
            Detail::Token(token) => write!(f, "token={token}"),
            Detail::Payload(p) => write!(f, "{p:?}"),
        }
    }
}

/// Debug-prints as the rendered text: an entry's `{:?}` does not depend on
/// how its detail was recorded.
impl fmt::Debug for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

/// One recorded runtime event.
#[derive(Debug)]
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
    /// Ticks the delivery waited for a busy node manager: the service-time
    /// model's queueing on the simulator; on the threaded runtime, the
    /// microseconds between a message entering the inbox and its action
    /// starting (timers and restarts record 0 there).
    pub wait: u64,
    /// Recorded raw, rendered on demand by [`TraceEntry::detail`]: the
    /// payload's `{:?}`, a timer's `token=N`, or a fault annotation.
    detail: Detail,
    /// Named `Process::metrics` counters this action changed, as
    /// `(name, increase)` pairs.
    pub deltas: Vec<(&'static str, u64)>,
}

impl TraceEntry {
    /// An entry with no detail and no deltas. `seq` is stamped by
    /// [`Trace::record`].
    pub fn new(
        at: SimTime,
        from: ProcId,
        to: ProcId,
        event: TraceEvent,
        kind: &'static str,
        span: Option<u64>,
    ) -> Self {
        Self::reusing(None, at, from, to, event, kind, span)
    }

    /// [`TraceEntry::new`] built on the allocations of `old`, an evicted
    /// entry from [`Trace::recycle`]: the `deltas` capacity, and the payload
    /// box — `old`'s detail is left in place for [`TraceEntry::set_payload`]
    /// to overwrite, so every caller sets the detail.
    fn reusing(
        old: Option<TraceEntry>,
        at: SimTime,
        from: ProcId,
        to: ProcId,
        event: TraceEvent,
        kind: &'static str,
        span: Option<u64>,
    ) -> Self {
        let (detail, mut deltas) = match old {
            Some(old) => (old.detail, old.deltas),
            None => (Detail::Text(Cow::Borrowed("")), Vec::new()),
        };
        deltas.clear();
        TraceEntry {
            seq: 0,
            at,
            from,
            to,
            event,
            kind,
            span,
            redelivery: false,
            wait: 0,
            detail,
            deltas,
        }
    }

    /// The entry of `msg`'s delivery to `to`, opened before the action runs
    /// (the handler consumes the payload) and recorded after it, with the
    /// action's counter deltas. Both runtimes build action entries here.
    pub(crate) fn delivery<M: Payload>(
        old: Option<TraceEntry>,
        at: SimTime,
        from: ProcId,
        to: ProcId,
        span: Option<u64>,
        msg: &M,
        wait: u64,
    ) -> Self {
        let mut e = Self::reusing(old, at, from, to, TraceEvent::Deliver, msg.kind(), span);
        e.redelivery = msg.redelivery();
        e.wait = wait;
        e.set_payload(msg);
        e
    }

    /// The entry of a timer firing on `to`.
    pub(crate) fn timer(
        old: Option<TraceEntry>,
        at: SimTime,
        to: ProcId,
        token: u64,
        wait: u64,
    ) -> Self {
        let mut e = Self::reusing(old, at, to, to, TraceEvent::Timer, "timer", None);
        e.wait = wait;
        e.detail = Detail::Token(token);
        e
    }

    /// The entry of `to`'s restart action.
    pub(crate) fn restart(old: Option<TraceEntry>, at: SimTime, to: ProcId) -> Self {
        let mut e = Self::reusing(old, at, to, to, TraceEvent::Restart, "fault.restart", None);
        e.set_detail("");
        e
    }

    /// What the entry says beyond its fixed fields, rendered now: the
    /// `{:?}` of the payload (or `token=N`, or a fault annotation).
    pub fn detail(&self) -> Cow<'_, str> {
        match &self.detail {
            Detail::Text(t) => Cow::Borrowed(t),
            other => Cow::Owned(other.to_string()),
        }
    }

    /// Annotate the entry with fixed or process-written text.
    pub fn set_detail(&mut self, text: impl Into<Cow<'static, str>>) {
        self.detail = Detail::Text(text.into());
    }

    /// Keep a clone of `msg` as the detail (into the box already here, when
    /// this entry was built on an evicted one that held the same type).
    fn set_payload<M: Payload>(&mut self, msg: &M) {
        if let Detail::Payload(held) = &mut self.detail {
            if let Some(slot) = (&mut **held as &mut dyn Any).downcast_mut::<M>() {
                slot.clone_from(msg);
                return;
            }
        }
        self.detail = Detail::Payload(Box::new(msg.clone()));
    }

    /// One line of the JSONL schema (no trailing newline). Field set and
    /// order are pinned by a golden-file test; extend, don't reorder.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }

    /// Append [`TraceEntry::to_json`] to `out`.
    fn write_json(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let _ = write!(
            out,
            "{{\"seq\":{},\"at\":{},\"from\":{},\"to\":{},\"event\":\"{}\",\"kind\":\"{}\",\"span\":",
            self.seq,
            self.at.ticks(),
            // External is serialized as -1 so consumers get a plain integer.
            proc_json(self.from),
            proc_json(self.to),
            self.event.as_str(),
            self.kind,
        );
        opt_into(out, self.span);
        let _ = write!(
            out,
            ",\"redelivery\":{},\"wait\":{},\"detail\":\"",
            self.redelivery, self.wait
        );
        let _ = write!(Escaped(out), "{}", self.detail);
        out.push_str("\",\"deltas\":");
        pairs_into(out, &self.deltas);
        out.push('}');
    }
}

fn proc_json(p: ProcId) -> i64 {
    if p.is_external() {
        -1
    } else {
        p.0 as i64
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
    /// The entry evicted last, kept for its allocations ([`Trace::recycle`]).
    spare: Option<TraceEntry>,
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
            spare: None,
        }
    }

    /// Hand over what was recorded, leaving an empty trace of the same
    /// capacity (numbering restarts at 0).
    pub(crate) fn take(&mut self) -> Trace {
        std::mem::replace(self, Trace::with_capacity(self.cap))
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
            self.spare = if self.retained_alerts == 0 {
                self.entries.pop_front()
            } else if let Some(idx) = self
                .entries
                .iter()
                .position(|e| e.event != TraceEvent::Alert)
            {
                self.entries.remove(idx)
            } else {
                self.retained_alerts -= 1;
                self.entries.pop_front()
            };
            self.dropped += 1;
        }
        if entry.event == TraceEvent::Alert {
            self.retained_alerts += 1;
        }
        self.entries.push_back(entry);
    }

    /// Record an event that is not a process action — a fault drop or
    /// duplicate, a crash marker, a mark, an alert — and therefore changed
    /// no process metrics. Returns the recorded entry
    /// (`None` while tracing is off) so the caller can set the rarer fields
    /// (`redelivery`, `wait`, [`TraceEntry::set_detail`]).
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
        self.record(TraceEntry::new(at, from, to, event, kind, span));
        self.entries.back_mut()
    }

    /// Record `msg` leaving the system toward [`ProcId::EXTERNAL`] (a no-op
    /// while tracing is off); like a delivery, it keeps the payload itself.
    pub(crate) fn output<M: Payload>(
        &mut self,
        at: SimTime,
        from: ProcId,
        span: Option<u64>,
        msg: &M,
    ) {
        if self.enabled() {
            let to = ProcId::EXTERNAL;
            let event = TraceEvent::Output;
            let mut e = TraceEntry::reusing(self.recycle(), at, from, to, event, msg.kind(), span);
            e.set_payload(msg);
            self.record(e);
        }
    }

    /// Take the entry evicted last, to build the next one on its
    /// allocations (`TraceEntry::delivery` and friends): with the ring full,
    /// recording a flat payload allocates nothing.
    pub(crate) fn recycle(&mut self) -> Option<TraceEntry> {
        self.spare.take()
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
            e.write_json(&mut out);
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
        TraceEntry::new(
            SimTime(0),
            ProcId(0),
            ProcId(1),
            TraceEvent::Deliver,
            kind,
            None,
        )
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
        e.set_detail("say \"hi\"\nback\\slash");
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

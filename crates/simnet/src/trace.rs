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
//! form the runtime has, and text is produced only when someone reads it
//! ([`TraceEntry::detail`], [`TraceEntry::to_json`]). The recorder's ring
//! is typed by the runtime's payload: each slot is one fixed-size record
//! with the payload itself (a delivery's or output's message, a timer's
//! token, a fault's static flavor) and the action's counter deltas inline,
//! overwritten in place once the ring has wrapped. A long run records many
//! times what the ring retains, so an entry that is evicted is never
//! formatted, boxed or type-erased. Type erasure into [`TraceEntry`]s
//! happens once, at hand-over, consuming the ring as it goes.

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

/// What an entry says beyond its fixed fields, in the form it was recorded
/// (`P` is the payload as the ring holds it; a [`TraceEntry`] holds it
/// boxed and type-erased).
enum Detail<P = Box<dyn Recorded>> {
    /// A fault flavor or a process-written annotation (empty for none).
    Text(Cow<'static, str>),
    /// A timer's token; reads `token=N`.
    Token(u64),
    /// The delivered or emitted payload; reads as its `{:?}`.
    Payload(P),
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
            detail: Detail::Text(Cow::Borrowed("")),
            deltas: Vec::new(),
        }
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
        self.admit(entry);
    }

    /// [`Trace::record`] an entry that already has its `seq` (the typed
    /// ring numbered it when it was recorded there).
    fn admit(&mut self, entry: TraceEntry) {
        self.next_seq = entry.seq + 1;
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
                self.retained_alerts -= 1;
                self.entries.pop_front();
            }
            self.dropped += 1;
        }
        if entry.event == TraceEvent::Alert {
            self.retained_alerts += 1;
        }
        self.entries.push_back(entry);
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

/// Deltas a ring slot holds inline; an action that moves more counters
/// keeps the rest in the ring's shared overflow. (In a traced insert
/// stream on the three-copy test bed, 87 % of actions move at most one
/// counter and 95 % at most two.)
const INLINE_DELTAS: usize = 2;

/// Ring slots allocated at a time: the ring grows a chunk at a time as it
/// fills (nothing is touched up front), and hand-over frees a chunk as soon
/// as it has been read.
const CHUNK: usize = 1024;

/// One event as a runtime records it: a [`TraceEntry`] before its `seq`,
/// its deltas and type erasure.
pub(crate) struct Record<M> {
    at: SimTime,
    from: ProcId,
    to: ProcId,
    event: TraceEvent,
    redelivery: bool,
    kind: &'static str,
    span: Option<u64>,
    wait: u64,
    detail: Detail<M>,
}

impl<M: Payload> Record<M> {
    /// An event with a fixed or process-written annotation (empty for
    /// none): a fault, a crash marker, a mark, an alert.
    pub(crate) fn note(
        at: SimTime,
        from: ProcId,
        to: ProcId,
        event: TraceEvent,
        kind: &'static str,
        span: Option<u64>,
        detail: impl Into<Cow<'static, str>>,
    ) -> Self {
        Record {
            at,
            from,
            to,
            event,
            redelivery: false,
            kind,
            span,
            wait: 0,
            detail: Detail::Text(detail.into()),
        }
    }

    /// A fault's record: it destroyed or doubled a message that waited
    /// `wait` and was (or was not) a `redelivery`.
    pub(crate) fn with_delivery(mut self, redelivery: bool, wait: u64) -> Self {
        self.redelivery = redelivery;
        self.wait = wait;
        self
    }

    /// `msg`'s delivery to `to`, opened before the action runs (the handler
    /// consumes the payload, so the record keeps a clone of it) and recorded
    /// after it, with the action's counter deltas. Both runtimes open
    /// action records here and in [`Record::timer`] / [`Record::restart`].
    pub(crate) fn delivery(
        at: SimTime,
        from: ProcId,
        to: ProcId,
        span: Option<u64>,
        msg: &M,
        wait: u64,
    ) -> Self {
        Record {
            at,
            from,
            to,
            event: TraceEvent::Deliver,
            redelivery: msg.redelivery(),
            kind: msg.kind(),
            span,
            wait,
            detail: Detail::Payload(msg.clone()),
        }
    }

    /// `msg` leaving the system toward [`ProcId::EXTERNAL`].
    pub(crate) fn output(at: SimTime, from: ProcId, span: Option<u64>, msg: &M) -> Self {
        Record {
            event: TraceEvent::Output,
            to: ProcId::EXTERNAL,
            redelivery: false,
            ..Record::delivery(at, from, ProcId::EXTERNAL, span, msg, 0)
        }
    }

    /// A timer firing on `to`.
    pub(crate) fn timer(at: SimTime, to: ProcId, token: u64, wait: u64) -> Self {
        Record {
            wait,
            detail: Detail::Token(token),
            ..Record::note(at, to, to, TraceEvent::Timer, "timer", None, "")
        }
    }

    /// `to`'s restart action.
    pub(crate) fn restart(at: SimTime, to: ProcId) -> Self {
        Record::note(at, to, to, TraceEvent::Restart, "fault.restart", None, "")
    }

    /// The [`TraceEntry`] this record reads as: the payload boxed and
    /// type-erased, the deltas collected.
    fn erase(self, seq: u64, deltas: Vec<(&'static str, u64)>) -> TraceEntry {
        TraceEntry {
            seq,
            at: self.at,
            from: self.from,
            to: self.to,
            event: self.event,
            kind: self.kind,
            span: self.span,
            redelivery: self.redelivery,
            wait: self.wait,
            detail: match self.detail {
                Detail::Text(t) => Detail::Text(t),
                Detail::Token(t) => Detail::Token(t),
                Detail::Payload(m) => Detail::Payload(Box::new(m)),
            },
            deltas,
        }
    }
}

/// One slot of the ring: a record, its number and its deltas inline.
struct Slot<M> {
    seq: u64,
    record: Record<M>,
    /// How many deltas the action moved; those past [`INLINE_DELTAS`] are
    /// in [`Ring::overflow`].
    n_deltas: usize,
    deltas: [(&'static str, u64); INLINE_DELTAS],
}

/// The typed flight recorder behind a [`Trace`]: the most recent `cap`
/// records of one run, evicted exactly as [`Trace::record`] evicts —
/// the oldest non-alert record first, the oldest alert only when nothing
/// else is retained.
///
/// Alerts are rare and stay in a list of their own, so every other record
/// leaves in arrival order: those are a FIFO over fixed-size slots, slot
/// `p` at `chunks[p / CHUNK][p % CHUNK]`, written at `(head + len) % cap`
/// and overwritten in place once the ring has wrapped.
pub(crate) struct Ring<M> {
    cap: usize,
    chunks: Vec<Vec<Slot<M>>>,
    head: usize,
    len: usize,
    /// `(head + len) % cap`: where the next record goes.
    tail: usize,
    /// Deltas past each slot's inline ones, in slot order.
    overflow: VecDeque<(&'static str, u64)>,
    /// Retained [`TraceEvent::Alert`] records with their numbers, oldest
    /// first.
    alerts: VecDeque<(u64, Record<M>)>,
    next_seq: u64,
    /// Records evicted since the last hand-over.
    dropped: u64,
}

impl<M: Payload> Ring<M> {
    /// An empty ring retaining at most `cap` records (0 = no tracing).
    pub(crate) fn new(cap: usize) -> Self {
        Ring {
            cap,
            chunks: Vec::new(),
            head: 0,
            len: 0,
            tail: 0,
            overflow: VecDeque::new(),
            alerts: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Is recording enabled at all? (`cap > 0`.)
    pub(crate) fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// Number the record, evict one to make room if the ring is full, and
    /// store it with `deltas` (an alert carries none).
    pub(crate) fn push(&mut self, record: Record<M>, deltas: &[(&'static str, u64)]) {
        if self.cap == 0 {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.len + self.alerts.len() == self.cap {
            self.evict();
        }
        if record.event == TraceEvent::Alert {
            debug_assert!(deltas.is_empty(), "an alert is no action");
            self.alerts.push_back((seq, record));
            return;
        }
        let p = self.tail;
        self.tail = self.next(p);
        self.len += 1;
        let (inline, rest) = deltas.split_at(deltas.len().min(INLINE_DELTAS));
        if !rest.is_empty() {
            self.overflow.extend(rest);
        }
        if p / CHUNK == self.chunks.len() {
            self.chunks
                .push(Vec::with_capacity(CHUNK.min(self.cap - p)));
        }
        let chunk = &mut self.chunks[p / CHUNK];
        if p % CHUNK == chunk.len() {
            let mut slot = Slot {
                seq,
                record,
                n_deltas: deltas.len(),
                deltas: [("", 0); INLINE_DELTAS],
            };
            slot.deltas[..inline.len()].copy_from_slice(inline);
            chunk.push(slot);
        } else {
            let slot = &mut chunk[p % CHUNK];
            slot.seq = seq;
            slot.record = record;
            slot.n_deltas = deltas.len();
            slot.deltas[..inline.len()].copy_from_slice(inline);
        }
    }

    /// Drop the oldest non-alert record, or the oldest alert if nothing
    /// else is retained.
    fn evict(&mut self) {
        self.dropped += 1;
        if self.len == 0 {
            self.alerts.pop_front();
            return;
        }
        let slot = &self.chunks[self.head / CHUNK][self.head % CHUNK];
        if slot.n_deltas > INLINE_DELTAS {
            self.overflow.drain(..slot.n_deltas - INLINE_DELTAS);
        }
        self.head = self.next(self.head);
        self.len -= 1;
    }

    /// The slot after `p`, wrapping.
    #[inline]
    fn next(&self, p: usize) -> usize {
        if p + 1 == self.cap {
            0
        } else {
            p + 1
        }
    }

    /// Hand everything retained over to `trace`, type-erased, in `seq`
    /// order, as if each record had gone to [`Trace::record`] (`trace`
    /// evicts past its capacity exactly as the ring would have). The ring
    /// is consumed as it goes — each chunk is freed once read — and starts
    /// over empty; numbering carries on.
    pub(crate) fn drain_into(&mut self, trace: &mut Trace) {
        let mut chunks = std::mem::take(&mut self.chunks);
        let mut alerts = std::mem::take(&mut self.alerts).into_iter().peekable();
        let first = self.head / CHUNK;
        let mut p = self.head;
        for _ in 0..self.len {
            let (c, o) = (p / CHUNK, p % CHUNK);
            p = self.next(p);
            let seq = chunks[c][o].seq;
            while let Some((at_seq, alert)) = alerts.next_if(|(s, _)| *s < seq) {
                trace.admit(alert.erase(at_seq, Vec::new()));
            }
            let slot = &mut chunks[c][o];
            let n = slot.n_deltas;
            let mut deltas = Vec::with_capacity(n);
            deltas.extend_from_slice(&slot.deltas[..n.min(INLINE_DELTAS)]);
            deltas.extend(self.overflow.drain(..n.saturating_sub(INLINE_DELTAS)));
            // The slot is freed with its chunk; what is left in it is a
            // payload-free stand-in.
            let record =
                std::mem::replace(&mut slot.record, Record::restart(SimTime::ZERO, ProcId(0)));
            trace.admit(record.erase(seq, deltas));
            if o + 1 == chunks[c].len() && c != first {
                chunks[c] = Vec::new();
            }
        }
        for (seq, alert) in alerts {
            trace.admit(alert.erase(seq, Vec::new()));
        }
        debug_assert!(self.overflow.is_empty());
        trace.dropped += std::mem::take(&mut self.dropped);
        (self.head, self.len, self.tail) = (0, 0, 0);
    }

    /// Hand-over at the end of a capture: everything recorded since the
    /// last one — `handed` plus what the ring holds — as a trace of its
    /// own. Both start over, numbering from 0.
    pub(crate) fn take(&mut self, handed: &mut Trace) -> Trace {
        self.drain_into(handed);
        self.next_seq = 0;
        std::mem::replace(handed, Trace::with_capacity(self.cap))
    }
}

/// A prebuilt span → entries index over a [`Trace`], answering per-span
/// lookups in O(log #spans) instead of an O(n) scan of the trace per span
/// (the critical-path profiler looks up every op's span).
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
            let linear: Vec<u64> = t
                .iter()
                .filter(|e| e.span == Some(span))
                .map(|e| e.seq)
                .collect();
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

    /// Read only through `Debug`, which renders the detail.
    #[derive(Clone, Debug)]
    struct Pay(#[allow(dead_code)] u64);
    impl Payload for Pay {
        fn kind(&self) -> &'static str {
            "pay"
        }
    }

    proptest::proptest! {
        /// The typed ring, handed over at arbitrary points, retains and
        /// numbers exactly what one [`Trace`] fed every record would: the
        /// same entries in the same order — alerts kept under eviction,
        /// deltas past the inline ones included — and the same `dropped()`.
        #[test]
        fn ring_hands_over_what_a_trace_would_retain(
            cap in 1usize..12,
            steps in proptest::collection::vec((0u8..8, 0usize..5), 0..80),
        ) {
            let mut ring: Ring<Pay> = Ring::new(cap);
            let mut handed = Trace::with_capacity(cap);
            let mut reference = Trace::with_capacity(cap);
            for (i, (what, n_deltas)) in steps.into_iter().enumerate() {
                let (at, p) = (SimTime(i as u64), ProcId(1));
                let deltas: Vec<(&'static str, u64)> =
                    (0..n_deltas).map(|d| (["a", "b", "c", "d", "e"][d], i as u64)).collect();
                let mut expected = TraceEntry::new(at, p, p, TraceEvent::Deliver, "pay", None);
                let record = match what {
                    0 => {
                        ring.drain_into(&mut handed);
                        continue;
                    }
                    1 => {
                        expected.event = TraceEvent::Alert;
                        expected.kind = "alert";
                        expected.set_detail(format!("alert {i}"));
                        ring.push(
                            Record::note(at, p, p, TraceEvent::Alert, "alert", None, format!("alert {i}")),
                            &[],
                        );
                        reference.record(expected);
                        continue;
                    }
                    _ => {
                        expected.detail = Detail::Payload(Box::new(Pay(i as u64)));
                        expected.deltas = deltas.clone();
                        Record::delivery(at, p, p, None, &Pay(i as u64), 0)
                    }
                };
                ring.push(record, &deltas);
                reference.record(expected);
            }
            ring.drain_into(&mut handed);
            let show = |t: &Trace| t.iter().map(TraceEntry::to_json).collect::<Vec<_>>();
            proptest::prop_assert_eq!(show(&handed), show(&reference));
            proptest::prop_assert_eq!(handed.dropped(), reference.dropped());
        }
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

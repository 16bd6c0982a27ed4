//! The observability layer shared by both runtimes: log₂ histograms,
//! periodic per-processor time-series sampling, and the [`Obs`] bundle a [`Runtime`](crate::Runtime) hands
//! back for export.
//!
//! Both substrates emit the same schema: the discrete-event simulator
//! samples on its virtual clock, the threaded cluster on wall-clock
//! microseconds, and every record is exportable as JSON Lines via the
//! hand-rolled writers here (the vendored `serde` is a no-op stub, so the
//! serialization is explicit and pinned by a golden-file test).

use std::fmt::Write as _;

use crate::health::{Alert, HealthConfig, HealthMonitor, HealthReport};
use crate::json::pairs_into;
use crate::trace::{Record, Ring, Trace, TraceEvent};
use crate::{Payload, ProcId, Process, SimTime};

/// Observability knobs, identical for both runtimes.
#[derive(Clone, Copy, Debug, Default)]
pub struct ObsConfig {
    /// Retain at most this many trace entries (ring buffer; 0 = no tracing).
    pub trace_capacity: usize,
    /// Snapshot each processor's [`Process::metrics`](crate::Process::metrics)
    /// at most every this many ticks (0 = no sampling). Samples are taken
    /// when an action executes on the processor, so an idle processor emits
    /// no redundant points.
    pub sample_interval: u64,
    /// Online watchdog rules evaluated at each sample boundary (disabled by
    /// default; needs `sample_interval > 0` to ever see a sample).
    pub health: HealthConfig,
}

impl ObsConfig {
    /// Tracing with the given capacity, no sampling.
    pub fn traced(trace_capacity: usize) -> Self {
        ObsConfig {
            trace_capacity,
            sample_interval: 0,
            health: HealthConfig::default(),
        }
    }
}

/// One periodic snapshot of a processor's named counters.
#[derive(Clone, Debug)]
pub struct ProcSample {
    /// Sample time (virtual or wall-clock ticks).
    pub at: SimTime,
    /// The processor sampled.
    pub proc: ProcId,
    /// The counters, as reported by
    /// [`Process::metrics`](crate::Process::metrics).
    pub pairs: Vec<(&'static str, u64)>,
    /// Point-in-time level gauges, as reported by
    /// [`Process::gauges`](crate::Process::gauges) (plus runtime-level
    /// gauges such as the simulator's event-queue depth). Unlike `pairs`
    /// these may go down between samples.
    pub gauges: Vec<(&'static str, u64)>,
}

impl ProcSample {
    /// One line of the series JSONL schema (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }

    /// Append [`ProcSample::to_json`] to `out`.
    fn write_json(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let _ = write!(
            out,
            "{{\"at\":{},\"proc\":{},\"counters\":",
            self.at.ticks(),
            self.proc.0
        );
        pairs_into(out, &self.pairs);
        out.push_str(",\"gauges\":");
        pairs_into(out, &self.gauges);
        out.push('}');
    }
}

/// Everything a run observed: the causal trace plus the per-processor
/// metrics time series. Extract with
/// [`Runtime::take_obs`](crate::Runtime::take_obs).
#[derive(Debug, Default)]
pub struct Obs {
    /// The causal event trace.
    pub trace: Trace,
    /// Per-processor counter snapshots, in sample order.
    pub series: Vec<ProcSample>,
    /// Watchdog alerts, in firing order (empty unless
    /// [`HealthConfig::enabled`] and sampling are both on).
    pub alerts: Vec<Alert>,
}

impl Obs {
    /// The trace as JSON Lines.
    pub fn trace_jsonl(&self) -> String {
        self.trace.to_jsonl()
    }

    /// The time series as JSON Lines.
    pub fn series_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.series {
            s.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// The alert stream as JSON Lines.
    pub fn alerts_jsonl(&self) -> String {
        let mut out = String::new();
        for a in &self.alerts {
            a.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Summarize the run's watchdog activity.
    pub fn health_report(&self) -> HealthReport {
        HealthReport::build(&self.alerts)
    }
}

/// The one recording path of both runtimes: everything a run observes — an
/// action's trace record, a sample and the watchdog alerts it trips, an
/// output, a process's mark, a fault — is recorded here, so the two
/// substrates cannot drift apart in what they record or in which order. The
/// simulator holds it as a plain field; the threaded cluster shares one
/// behind a mutex, whose acquisition order is then the trace's global `seq`
/// order. What is read off a *process* (its counters, its gauges) is read
/// beforehand by that processor's [`CounterTrack`], outside any lock.
pub(crate) struct Recorder<M> {
    /// Trace records, typed by the payload. A runtime opens an action's
    /// record itself, before the handler consumes the payload
    /// ([`Record::delivery`] and friends), and only while
    /// [`Recorder::tracing`].
    ring: Ring<M>,
    /// What [`Recorder::trace`] has handed over of the current capture so
    /// far, type-erased.
    handed: Trace,
    series: Vec<ProcSample>,
    /// Online watchdogs (`None` unless [`HealthConfig::enabled`]: no monitor
    /// state is even allocated) and the alerts they have fired so far.
    health: Option<HealthMonitor>,
    alerts: Vec<Alert>,
}

impl<M: Payload> Recorder<M> {
    pub(crate) fn new(trace_capacity: usize, health: HealthConfig, n_procs: usize) -> Self {
        Recorder {
            ring: Ring::new(trace_capacity),
            handed: Trace::with_capacity(trace_capacity),
            series: Vec::new(),
            health: health.enabled.then(|| HealthMonitor::new(health, n_procs)),
            alerts: Vec::new(),
        }
    }

    /// Is the trace on? Runtimes open action records only while it is.
    #[inline]
    pub(crate) fn tracing(&self) -> bool {
        self.ring.enabled()
    }

    /// An action ran: record its `entry` with the counter `deltas`
    /// [`CounterTrack::observe`] took, and the sample that fell due with
    /// it. The watchdogs see the sample first; each alert becomes a trace
    /// record the moment it fires, after the action's and before the sample
    /// joins the series.
    pub(crate) fn action(
        &mut self,
        entry: Option<Record<M>>,
        deltas: &[(&'static str, u64)],
        sample: Option<ProcSample>,
    ) {
        if let Some(entry) = entry {
            self.ring.push(entry, deltas);
        }
        let Some(sample) = sample else {
            return;
        };
        let (at, proc) = (sample.at, sample.proc);
        if let Some(mon) = &mut self.health {
            for alert in mon.observe(at, proc, &sample.pairs, &sample.gauges) {
                let event = TraceEvent::Alert;
                let note = Record::note(at, proc, proc, event, alert.rule, None, alert.detail());
                self.ring.push(note, &[]);
                self.alerts.push(alert);
            }
        }
        self.series.push(sample);
    }

    /// `msg` left the system toward [`ProcId::EXTERNAL`]; like a delivery,
    /// its record keeps the payload itself.
    pub(crate) fn output(&mut self, at: SimTime, from: ProcId, span: Option<u64>, msg: &M) {
        if self.ring.enabled() {
            self.ring.push(Record::output(at, from, span, msg), &[]);
        }
    }

    /// A process annotated its own action ([`Context::mark`](crate::Context::mark)).
    pub(crate) fn mark(
        &mut self,
        at: SimTime,
        proc: ProcId,
        event: TraceEvent,
        kind: &'static str,
        span: Option<u64>,
        detail: String,
    ) {
        let note = Record::note(at, proc, proc, event, kind, span, detail);
        self.ring.push(note, &[]);
    }

    /// A fault destroyed (`Drop`) or doubled (`Duplicate`) a message of
    /// `kind` on its way `from → to`; `flavor` says which fault (`"crash"`,
    /// `"partition"`, `"loss"`, `"dup"`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fault(
        &mut self,
        at: SimTime,
        from: ProcId,
        to: ProcId,
        event: TraceEvent,
        flavor: &'static str,
        kind: &'static str,
        span: Option<u64>,
        redelivery: bool,
        wait: u64,
    ) {
        let note = Record::note(at, from, to, event, kind, span, flavor);
        self.ring.push(note.with_delivery(redelivery, wait), &[]);
    }

    /// The fault plan crashed `proc`.
    pub(crate) fn crash(&mut self, at: SimTime, proc: ProcId) {
        let note = Record::note(at, proc, proc, TraceEvent::Crash, "fault.crash", None, "");
        self.ring.push(note, &[]);
    }

    /// The capture so far as a [`Trace`]: what the ring holds is
    /// type-erased onto what earlier calls handed over, and recording
    /// carries on into the emptied ring.
    pub(crate) fn trace(&mut self) -> &Trace {
        self.ring.drain_into(&mut self.handed);
        &self.handed
    }

    /// Hand over everything recorded so far, leaving fresh buffers with the
    /// same configuration (the trace's numbering restarts at 0; watchdog
    /// state carries on).
    pub(crate) fn take(&mut self) -> Obs {
        Obs {
            trace: self.ring.take(&mut self.handed),
            series: std::mem::take(&mut self.series),
            alerts: std::mem::take(&mut self.alerts),
        }
    }
}

/// A power-of-two-bucketed histogram of `u64` observations.
///
/// Bucket `i` holds values whose bit length is `i` (i.e. `v == 0` in bucket
/// 0, otherwise `2^(i-1) <= v < 2^i`), giving ~2× resolution over the whole
/// range at fixed size — the standard shape for latency recording.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (clamped to `0..=1`), resolved to its bucket's upper
    /// bound — an estimate within 2× of the true value, which is what log₂
    /// buckets buy. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.count as f64 - 1.0) * q).round() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen > rank {
                return if i == 0 {
                    0
                } else {
                    // Upper bound of the bucket, clamped to the observed max.
                    // Written as a right shift because bucket 64 (values with
                    // the top bit set) would overflow `1u64 << 64`.
                    (u64::MAX >> (64 - i)).min(self.max)
                };
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One processor's side of the [`Recorder`] — what is read off the process
/// itself, by whoever runs its actions: the deltas of its traced actions and
/// its sampling cadence. An action that is neither traced nor due a sample
/// reads nothing.
///
/// A traced action's deltas come from [`Process::take_moved`] — the
/// counters the action raised, and nothing else — or, for a process that
/// cannot tell what moved, from **one** [`Process::metrics_into`] snapshot
/// per action into a reused buffer, compared position by position with the
/// previous one.
#[derive(Debug, Default)]
pub(crate) struct CounterTrack {
    /// How deltas are taken, once armed; `None` until the first traced
    /// action and after [`CounterTrack::invalidate`].
    mode: Option<Mode>,
    /// [`Mode::Diffed`]: the counters as of the last recorded action, and
    /// the buffer the next snapshot goes to.
    prev: Vec<(&'static str, u64)>,
    cur: Vec<(&'static str, u64)>,
    /// The last traced action's `(name, increase)` pairs.
    pub(crate) deltas: Vec<(&'static str, u64)>,
    /// Sample at most every this many ticks (0 = never), counted from
    /// `sampled_at`.
    interval: u64,
    sampled_at: Option<SimTime>,
}

/// Where a [`CounterTrack`] takes a traced action's deltas from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// [`Process::take_moved`]: the process says what moved.
    Moved,
    /// [`Process::metrics_into`] snapshots, diffed.
    Diffed,
}

impl CounterTrack {
    /// A track sampling every `interval` ticks ([`ObsConfig::sample_interval`]).
    pub(crate) fn new(interval: u64) -> Self {
        CounterTrack {
            interval,
            ..CounterTrack::default()
        }
    }

    /// `true` if a sample is due at `now` (and marks it taken).
    #[inline]
    pub(crate) fn due(&mut self, now: SimTime) -> bool {
        if self.interval == 0 {
            return false;
        }
        match self.sampled_at {
            Some(prev) if now < prev + self.interval => false,
            _ => {
                self.sampled_at = Some(now);
                true
            }
        }
    }

    /// Call before an action that will be traced: if the counters could
    /// have moved since the last traced action (nothing traced yet —
    /// `on_start` ran — or the process was handed out mutably), forget
    /// those movements, so the action's deltas are the action's alone.
    pub(crate) fn arm<P: Process>(&mut self, p: &mut P) {
        if self.mode.is_none() {
            self.rearm(p);
        }
    }

    /// Forget every movement so far and settle how deltas are taken.
    fn rearm<P: Process>(&mut self, p: &mut P) {
        let mode = if p.take_moved(None) {
            Mode::Moved
        } else {
            self.prev.clear();
            p.metrics_into(&mut self.prev);
            Mode::Diffed
        };
        self.mode = Some(mode);
    }

    /// The counters may move outside a traced action from here on.
    pub(crate) fn invalidate(&mut self) {
        self.mode = None;
    }

    /// Call after an action that was `traced` (armed beforehand) or fell
    /// `due` a sample (or both): leaves the traced action's deltas in
    /// [`CounterTrack::deltas`] and returns the sample, which shows the
    /// process as of this very action. An untraced sample re-arms the
    /// track, so its action's movements are no later action's deltas.
    pub(crate) fn observe<P: Process>(
        &mut self,
        p: &mut P,
        proc: ProcId,
        now: SimTime,
        traced: bool,
        due: bool,
    ) -> Option<ProcSample> {
        self.deltas.clear();
        if !traced {
            self.rearm(p);
        } else if self.mode == Some(Mode::Moved) {
            p.take_moved(Some(&mut self.deltas));
        } else {
            self.diff(p);
        }
        due.then(|| {
            let pairs = if self.mode == Some(Mode::Diffed) {
                self.prev.clone()
            } else {
                let mut pairs = Vec::new();
                p.metrics_into(&mut pairs);
                pairs
            };
            ProcSample {
                at: now,
                proc,
                pairs,
                gauges: p.gauges(now),
            }
        })
    }

    /// Snapshot `p` once and leave in `deltas` the `(name, increase)` of
    /// every counter that rose since `prev`. The snapshot becomes `prev`.
    fn diff<P: Process>(&mut self, p: &P) {
        self.cur.clear();
        p.metrics_into(&mut self.cur);
        // Same names in the same order (pointer-equal in practice: they are
        // literals) is the only case a run normally sees.
        let mut aligned = self.cur.len() == self.prev.len();
        if aligned {
            for (&(name, now), &(was_name, was)) in self.cur.iter().zip(&self.prev) {
                if !(std::ptr::eq(name, was_name) || name == was_name) {
                    aligned = false;
                    break;
                }
                if now > was {
                    self.deltas.push((name, now - was));
                }
            }
        }
        if !aligned {
            // The name set changed under us: match by name.
            self.deltas.clear();
            self.deltas.extend(metric_deltas(&self.prev, &self.cur));
        }
        std::mem::swap(&mut self.prev, &mut self.cur);
    }
}

/// Compute `(name, increase)` pairs between two `Process::metrics`
/// snapshots taken around one action, matching by name. Names present only
/// in `after` are treated as rising from 0; decreases are skipped (counters
/// are expected to be monotone within an action). [`CounterTrack`]'s
/// fallback when the name set changes, and the oracle both of its paths are
/// tested against.
pub(crate) fn metric_deltas(
    before: &[(&'static str, u64)],
    after: &[(&'static str, u64)],
) -> Vec<(&'static str, u64)> {
    let mut out = Vec::new();
    for &(name, now) in after {
        let prev = before
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0);
        if now > prev {
            out.push((name, now - prev));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert!(h.mean() > 0.0);
        assert_eq!(h.quantile(0.0), 0);
        // The top quantile lands in 1000's bucket, clamped to the max.
        assert_eq!(h.quantile(1.0), 1000);
        // Median of [0,1,2,3,100,1000]: rank 3 (value 3) → bucket [2,4).
        assert_eq!(h.quantile(0.5), 3);
    }

    #[test]
    fn histogram_empty_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn histogram_merge_sums() {
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(50);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 50);
    }

    #[test]
    fn sampler_respects_interval() {
        let mut s = CounterTrack::new(10);
        assert!(s.due(SimTime(0)), "first sample is always due");
        assert!(!s.due(SimTime(5)));
        assert!(s.due(SimTime(10)));
        let mut other = CounterTrack::new(10);
        assert!(other.due(SimTime(3)), "per-processor cadence");
        let mut off = CounterTrack::new(0);
        assert!(!off.due(SimTime(0)), "interval 0 disables");
    }

    #[test]
    fn metric_deltas_reports_increases_only() {
        let before = vec![("a", 1u64), ("b", 5)];
        let after = vec![("a", 3u64), ("b", 5), ("c", 2)];
        assert_eq!(metric_deltas(&before, &after), vec![("a", 2), ("c", 2)]);
    }

    /// A process that is nothing but its counters: the first `shown` of
    /// `NAMES`, so the name set can grow (session counters appear only when
    /// the layer is enabled) or shrink between actions. When `tracked` it
    /// keeps a touched mask and answers [`Process::take_moved`], the way
    /// `ProcMetrics` does — a hidden counter reads 0 to the trace, as it
    /// does to [`metric_deltas`].
    #[derive(Default)]
    struct Counters {
        values: [u64; NAMES.len()],
        shown: usize,
        tracked: bool,
        touched: u8,
        reported: [u64; NAMES.len()],
    }

    const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];

    #[derive(Clone, Debug)]
    struct Nil;
    impl crate::Payload for Nil {}

    impl Counters {
        /// Move the counters to `values` and show the first `shown` of
        /// them, marking every counter that moved or appeared or vanished.
        fn set(&mut self, values: &[u64], shown: usize) {
            let shown = shown.min(NAMES.len());
            for (i, &v) in values.iter().enumerate() {
                if v != self.values[i] || (i < shown) != (i < self.shown) {
                    self.touched |= 1 << i;
                }
            }
            self.values.copy_from_slice(values);
            self.shown = shown;
        }

        fn seen(&self, i: usize) -> u64 {
            if i < self.shown {
                self.values[i]
            } else {
                0
            }
        }
    }

    impl Process for Counters {
        type Msg = Nil;
        fn on_message(&mut self, _: &mut crate::Context<'_, Nil>, _: ProcId, _: Nil) {}
        fn metrics(&self) -> Vec<(&'static str, u64)> {
            NAMES
                .into_iter()
                .zip(self.values)
                .take(self.shown)
                .collect()
        }
        fn take_moved(&mut self, out: Option<&mut Vec<(&'static str, u64)>>) -> bool {
            if !self.tracked {
                return false;
            }
            let Some(out) = out else {
                self.reported = std::array::from_fn(|i| self.seen(i));
                self.touched = 0;
                return true;
            };
            for i in (0..NAMES.len()).filter(|i| self.touched & (1 << i) != 0) {
                let now = self.seen(i);
                let was = std::mem::replace(&mut self.reported[i], now);
                if now > was {
                    out.push((NAMES[i], now - was));
                }
            }
            self.touched = 0;
            true
        }
    }

    /// A wrapper that forwards only [`Process::metrics`] (as perf's timing
    /// wrapper does): deltas come from snapshots, whatever is inside.
    struct MetricsOnly(Counters);

    impl Process for MetricsOnly {
        type Msg = Nil;
        fn on_message(&mut self, _: &mut crate::Context<'_, Nil>, _: ProcId, _: Nil) {}
        fn metrics(&self) -> Vec<(&'static str, u64)> {
            self.0.metrics()
        }
    }

    /// One action per step, each preceded — when the step says so — by
    /// counters moved from outside any action (the process handed out
    /// mutably, so the track is invalidated): the track's deltas for the
    /// action are what two snapshots taken around it report, matched by
    /// name.
    fn track_against_oracle<P: Process>(
        mut p: P,
        counters: impl Fn(&mut P) -> &mut Counters,
        steps: Vec<(Vec<u64>, usize, Option<Vec<u64>>)>,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let mut track = CounterTrack::default();
        for (values, shown, outside) in steps {
            if let Some(outside) = outside {
                let c = counters(&mut p);
                let shown = c.shown;
                c.set(&outside, shown);
                track.invalidate();
            }
            track.arm(&mut p);
            let before = p.metrics();
            counters(&mut p).set(&values, shown);
            track.observe(&mut p, ProcId(0), SimTime(0), true, false);
            proptest::prop_assert_eq!(&track.deltas, &metric_deltas(&before, &p.metrics()));
        }
        Ok(())
    }

    proptest::proptest! {
        /// The touched-mask path ([`Process::take_moved`]) and the
        /// snapshot fallback (a process that cannot tell what moved, and a
        /// wrapper that forwards only `metrics`) each report what two
        /// snapshots matched by name report — over arbitrary counter
        /// movements (decreases included), counters moved between actions,
        /// and a name set that changes mid-run.
        #[test]
        fn counter_track_equals_metric_deltas(
            steps in proptest::collection::vec(
                (
                    proptest::collection::vec(0u64..4, 5..6),
                    0usize..6,
                    proptest::collection::vec(0u64..4, 5..6),
                    0u8..4,
                ),
                1..24,
            ),
        ) {
            let steps: Vec<_> = steps
                .into_iter()
                .map(|(values, shown, outside, roll)| (values, shown, (roll == 0).then_some(outside)))
                .collect();
            for tracked in [true, false] {
                let p = Counters { shown: 3, tracked, ..Counters::default() };
                track_against_oracle(p, |p| p, steps.clone())?;
            }
            let wrapped = MetricsOnly(Counters { shown: 3, tracked: true, ..Counters::default() });
            track_against_oracle(wrapped, |p| &mut p.0, steps)?;
        }
    }

    #[test]
    fn counter_track_rearms_after_invalidate() {
        for tracked in [true, false] {
            let mut p = Counters {
                shown: 2,
                tracked,
                ..Counters::default()
            };
            p.set(&[1, 0, 0, 0, 0], 2);
            let mut track = CounterTrack::default();
            track.arm(&mut p);
            p.set(&[3, 0, 0, 0, 0], 2);
            track.observe(&mut p, ProcId(0), SimTime(0), true, false);
            assert_eq!(track.deltas, vec![("a", 2)]);
            // Counters moved outside an action (the process was handed out
            // mutably): not the next action's doing.
            p.set(&[3, 10, 0, 0, 0], 2);
            track.invalidate();
            track.arm(&mut p);
            p.set(&[3, 11, 0, 0, 0], 2);
            track.observe(&mut p, ProcId(0), SimTime(0), true, false);
            assert_eq!(track.deltas, vec![("b", 1)], "tracked={tracked}");
        }
    }

    #[test]
    fn sample_json_shape() {
        let s = ProcSample {
            at: SimTime(42),
            proc: ProcId(3),
            pairs: vec![("x", 1), ("y", 2)],
            gauges: vec![("g", 7)],
        };
        assert_eq!(
            s.to_json(),
            "{\"at\":42,\"proc\":3,\"counters\":{\"x\":1,\"y\":2},\"gauges\":{\"g\":7}}"
        );
        let bare = ProcSample {
            at: SimTime(1),
            proc: ProcId(0),
            pairs: Vec::new(),
            gauges: Vec::new(),
        };
        assert_eq!(
            bare.to_json(),
            "{\"at\":1,\"proc\":0,\"counters\":{},\"gauges\":{}}"
        );
    }
}

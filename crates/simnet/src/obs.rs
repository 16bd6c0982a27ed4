//! The observability layer shared by both runtimes: a metrics registry
//! (counters + log₂ histograms), periodic per-processor time-series
//! sampling, and the [`Obs`] bundle a [`Runtime`](crate::Runtime) hands
//! back for export.
//!
//! Both substrates emit the same schema: the discrete-event simulator
//! samples on its virtual clock, the threaded cluster on wall-clock
//! microseconds, and every record is exportable as JSON Lines via the
//! hand-rolled writers here (the vendored `serde` is a no-op stub, so the
//! serialization is explicit and pinned by a golden-file test).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::health::{Alert, HealthConfig, HealthMonitor, HealthReport};
use crate::json::pairs_into;
use crate::trace::{Trace, TraceEntry, TraceEvent};
use crate::{ProcId, Process, SimTime};

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
/// action's trace entry, a sample and the watchdog alerts it trips, an
/// output, a process's mark, a fault — is recorded here, so the two
/// substrates cannot drift apart in what they record or in which order. The
/// simulator holds it as a plain field; the threaded cluster shares one
/// behind a mutex, whose acquisition order is then the trace's global `seq`
/// order. What is read off a *process* (its counters, its gauges) is read
/// beforehand by that processor's [`CounterTrack`], outside any lock.
#[derive(Debug)]
pub(crate) struct Recorder {
    /// The trace. A runtime opens an action's entry itself, before the
    /// handler consumes the payload ([`TraceEntry::delivery`] and friends,
    /// on [`Trace::recycle`]d allocations), and only while it is
    /// [`Trace::enabled`]; an output goes straight to [`Trace::output`].
    pub(crate) trace: Trace,
    series: Vec<ProcSample>,
    /// Online watchdogs (`None` unless [`HealthConfig::enabled`]: no monitor
    /// state is even allocated) and the alerts they have fired so far.
    health: Option<HealthMonitor>,
    alerts: Vec<Alert>,
}

impl Recorder {
    pub(crate) fn new(trace_capacity: usize, health: HealthConfig, n_procs: usize) -> Self {
        Recorder {
            trace: Trace::with_capacity(trace_capacity),
            series: Vec::new(),
            health: health.enabled.then(|| HealthMonitor::new(health, n_procs)),
            alerts: Vec::new(),
        }
    }

    /// An action ran: record its entry (its deltas filled in by
    /// [`CounterTrack::observe`]) and the sample that fell due with it. The
    /// watchdogs see the sample first; each alert becomes a trace entry the
    /// moment it fires, after the action's entry and before the sample
    /// joins the series.
    pub(crate) fn action(&mut self, entry: Option<TraceEntry>, sample: Option<ProcSample>) {
        if let Some(entry) = entry {
            self.trace.record(entry);
        }
        let Some(sample) = sample else {
            return;
        };
        let (at, proc) = (sample.at, sample.proc);
        if let Some(mon) = &mut self.health {
            for alert in mon.observe(at, proc, &sample.pairs, &sample.gauges) {
                let event = TraceEvent::Alert;
                if let Some(e) = self.trace.note(at, proc, proc, event, alert.rule, None) {
                    e.set_detail(alert.detail());
                }
                self.alerts.push(alert);
            }
        }
        self.series.push(sample);
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
        if let Some(e) = self.trace.note(at, proc, proc, event, kind, span) {
            e.set_detail(detail);
        }
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
        if let Some(e) = self.trace.note(at, from, to, event, kind, span) {
            e.redelivery = redelivery;
            e.wait = wait;
            e.set_detail(flavor);
        }
    }

    /// The fault plan crashed `proc`.
    pub(crate) fn crash(&mut self, at: SimTime, proc: ProcId) {
        self.trace
            .note(at, proc, proc, TraceEvent::Crash, "fault.crash", None);
    }

    /// Hand over everything recorded so far, leaving fresh buffers with the
    /// same configuration (watchdog state carries on).
    pub(crate) fn take(&mut self) -> Obs {
        Obs {
            trace: self.trace.take(),
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

/// A named bag of counters and histograms — the aggregation point
/// experiments use instead of ad-hoc per-bin arithmetic.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the named counter (created at 0).
    pub fn inc(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record an observation into the named histogram (created empty).
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.histograms.entry(name).or_default().record(v);
    }

    /// The named histogram, if anything was observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate `(name, value)` over counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterate `(name, histogram)` in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }
}

/// One processor's side of the [`Recorder`] — what is read off the process
/// itself, by whoever runs its actions: its counters as of its last recorded
/// action, the per-action deltas taken against them (**one**
/// [`Process::metrics_into`] snapshot per recorded action into a reused
/// buffer, compared position by position with the previous one), and its
/// sampling cadence. An action that is neither traced nor due a sample reads
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct CounterTrack {
    prev: Vec<(&'static str, u64)>,
    cur: Vec<(&'static str, u64)>,
    /// `prev` is the process's current state. False until the first
    /// [`CounterTrack::arm`] and after [`CounterTrack::invalidate`].
    valid: bool,
    /// Sample at most every this many ticks (0 = never), counted from
    /// `sampled_at`.
    interval: u64,
    sampled_at: Option<SimTime>,
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

    /// Call after an action that opened a trace `entry` or fell `due` a
    /// sample (or both): **one** counter snapshot fills the entry's deltas
    /// and, if due, is the sample's counters — so a sample always shows the
    /// process as of the action it was taken at.
    pub(crate) fn observe<P: Process>(
        &mut self,
        p: &P,
        proc: ProcId,
        now: SimTime,
        entry: Option<&mut TraceEntry>,
        due: bool,
    ) -> Option<ProcSample> {
        match entry {
            Some(entry) => self.diff_into(p, &mut entry.deltas),
            None => self.refresh(p),
        }
        due.then(|| ProcSample {
            at: now,
            proc,
            pairs: self.prev.clone(),
            gauges: p.gauges(now),
        })
    }

    /// Call before an action that will be traced: snapshots `p` if the
    /// counters could have moved since the last [`CounterTrack::diff_into`]
    /// (nothing traced yet — `on_start` ran — or the process was handed out
    /// mutably), so the action's deltas are the action's alone.
    pub(crate) fn arm<P: Process>(&mut self, p: &P) {
        if !self.valid {
            self.refresh(p);
        }
    }

    /// Snapshot `p` without taking deltas.
    fn refresh<P: Process>(&mut self, p: &P) {
        self.prev.clear();
        p.metrics_into(&mut self.prev);
        self.valid = true;
    }

    /// The counters may move outside a traced action from here on.
    pub(crate) fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Call after the action: snapshot `p` once and leave in `out` the
    /// `(name, increase)` of every counter the action raised. The snapshot
    /// stays behind as `prev`.
    fn diff_into<P: Process>(&mut self, p: &P, out: &mut Vec<(&'static str, u64)>) {
        self.cur.clear();
        p.metrics_into(&mut self.cur);
        out.clear();
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
                    out.push((name, now - was));
                }
            }
        }
        if !aligned {
            // The name set changed under us: match by name.
            out.clear();
            out.extend(metric_deltas(&self.prev, &self.cur));
        }
        std::mem::swap(&mut self.prev, &mut self.cur);
    }
}

/// Compute `(name, increase)` pairs between two `Process::metrics`
/// snapshots taken around one action, matching by name. Names present only
/// in `after` are treated as rising from 0; decreases are skipped (counters
/// are expected to be monotone within an action). [`CounterTrack`]'s
/// fallback when the name set changes, and the oracle its positional path is
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
    fn registry_counts_and_observes() {
        let mut r = MetricsRegistry::new();
        r.inc("ops", 2);
        r.inc("ops", 3);
        r.observe("latency", 10);
        r.observe("latency", 20);
        assert_eq!(r.counter("ops"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.histogram("latency").unwrap().count(), 2);
        assert_eq!(r.counters().count(), 1);
        assert_eq!(r.histograms().count(), 1);
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
    /// the layer is enabled) or shrink between actions.
    struct Counters {
        values: [u64; NAMES.len()],
        shown: usize,
    }

    const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];

    #[derive(Clone, Debug)]
    struct Nil;
    impl crate::Payload for Nil {}

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
    }

    proptest::proptest! {
        /// One snapshot per action, diffed positionally against the last,
        /// reports what two snapshots matched by name report — over
        /// arbitrary counter movements (decreases included) and a name set
        /// that changes mid-run.
        #[test]
        fn counter_track_equals_metric_deltas(
            steps in proptest::collection::vec(
                (proptest::collection::vec(0u64..4, 5..6), 0usize..6),
                1..24,
            ),
        ) {
            let mut p = Counters { values: [0; NAMES.len()], shown: 3 };
            let mut track = CounterTrack::default();
            let mut deltas = Vec::new();
            for (values, shown) in steps {
                track.arm(&p);
                let before = p.metrics();
                p.values.copy_from_slice(&values);
                p.shown = shown.min(NAMES.len());
                track.diff_into(&p, &mut deltas);
                proptest::prop_assert_eq!(&deltas, &metric_deltas(&before, &p.metrics()));
                proptest::prop_assert_eq!(&track.prev, &p.metrics());
            }
        }
    }

    #[test]
    fn counter_track_rearms_after_invalidate() {
        let mut p = Counters {
            values: [1, 0, 0, 0, 0],
            shown: 2,
        };
        let mut track = CounterTrack::default();
        let mut deltas = Vec::new();
        track.arm(&p);
        p.values[0] = 3;
        track.diff_into(&p, &mut deltas);
        assert_eq!(deltas, vec![("a", 2)]);
        // Counters moved outside an action (the process was handed out
        // mutably): not the next action's doing.
        p.values[1] = 10;
        track.invalidate();
        track.arm(&p);
        p.values[1] = 11;
        track.diff_into(&p, &mut deltas);
        assert_eq!(deltas, vec![("b", 1)]);
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

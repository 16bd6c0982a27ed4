//! The outside-in layer trace: wrappers that put a span around every call
//! across a layer boundary, written against the public `Runtime` and
//! `Process` traits only.
//!
//! Nesting is drive → runtime call → session handler → core handler, i.e.
//! `TimedRuntime<R>` around the runtime and
//! `TimedProc<SessionProc<TimedProc<DbProc>>>` around each process. Each
//! wrapper owns its counters (no shared state; they come back through
//! `into_procs()`), aggregates per `Payload::kind()`, and keeps full span
//! records only for sampled operations (`op id % 1024 == 0`).

use std::cell::Cell;
use std::time::Instant;

use simnet::{Context, Obs, Payload, Poll, ProcId, Process, QuiesceError, Runtime, SimTime};

/// Keep full span records for ops whose driver id is a multiple of this.
pub const SAMPLE_EVERY: u64 = 1024;

/// Span id of the whole drive; parent of every runtime-call span.
pub const DRIVE_SPAN: u64 = 1;

thread_local! {
    /// The innermost open *recorded* span on this thread (0 = none): the
    /// parent of the next recorded span. Worker threads of the threaded
    /// runtime have no enclosing runtime call, so theirs start at 0.
    static PARENT: Cell<u64> = const { Cell::new(0) };
    /// Set when a handler span was recorded, so the enclosing runtime call
    /// knows to record itself too.
    static SAMPLED: Cell<bool> = const { Cell::new(false) };
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    /// `runtime`, `session` or `core`.
    pub layer: &'static str,
    /// `Payload::kind()` for handlers, the method name for runtime calls.
    pub kind: &'static str,
    /// Processor the handler ran on (`u32::MAX` for runtime calls).
    pub proc: u32,
    /// The driver-assigned op id (`Context::span()`), 0 if none.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Calls and nanoseconds of one `Payload::kind()` at one layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KindAgg {
    pub kind: &'static str,
    pub calls: u64,
    pub ns: u64,
}

/// What one wrapper measured.
#[derive(Clone, Debug, Default)]
pub struct LayerAgg {
    pub calls: u64,
    pub ns: u64,
    pub by_kind: Vec<KindAgg>,
    pub spans: Vec<SpanRec>,
}

impl LayerAgg {
    /// Fold another wrapper's measurements of the same layer into this one.
    pub fn merge(&mut self, other: &LayerAgg) {
        self.calls += other.calls;
        self.ns += other.ns;
        for k in &other.by_kind {
            match self.by_kind.iter_mut().find(|m| m.kind == k.kind) {
                Some(m) => {
                    m.calls += k.calls;
                    m.ns += k.ns;
                }
                None => self.by_kind.push(*k),
            }
        }
        self.spans.extend(other.spans.iter().cloned());
    }

    pub fn kind(&self, kind: &str) -> KindAgg {
        self.by_kind
            .iter()
            .copied()
            .find(|k| k.kind == kind)
            .unwrap_or(KindAgg {
                kind: "",
                calls: 0,
                ns: 0,
            })
    }
}

/// An open span: what `SpanTimer::exit` needs to close it.
pub struct Open {
    slot: usize,
    start: Instant,
    /// `(span id, saved parent, op)` when this span is being recorded.
    rec: Option<(u64, u64, u64)>,
}

/// The span clock shared by both wrappers.
pub struct SpanTimer {
    layer: &'static str,
    /// High bits of this wrapper's span ids (unique per wrapper).
    id_base: u64,
    proc: u32,
    epoch: Instant,
    agg: LayerAgg,
    /// Index of the last kind hit: consecutive events repeat kinds, and
    /// kinds are static strings, so a pointer compare usually suffices.
    last: usize,
}

impl SpanTimer {
    /// `lane` distinguishes wrappers of one layer (the processor index);
    /// `layer_no` (at most 3) distinguishes layers. Together they make span
    /// ids unique without any shared counter, and keep them below 2^53 so
    /// they survive a JSON reader that holds numbers as doubles.
    pub fn new(layer: &'static str, layer_no: u64, lane: u32, epoch: Instant) -> Self {
        SpanTimer {
            layer,
            id_base: (layer_no << 50) | ((lane as u64 & 0xFFF) << 38),
            proc: lane,
            epoch,
            agg: LayerAgg::default(),
            last: 0,
        }
    }

    fn slot(&mut self, kind: &'static str) -> usize {
        if let Some(k) = self.agg.by_kind.get(self.last) {
            if std::ptr::eq(k.kind, kind) {
                return self.last;
            }
        }
        // Kinds are static literals: identity almost always decides, and the
        // content compare only merges duplicate literals with equal text.
        let kinds = &self.agg.by_kind;
        let found = kinds
            .iter()
            .position(|k| std::ptr::eq(k.kind, kind))
            .or_else(|| kinds.iter().position(|k| k.kind == kind));
        let idx = match found {
            Some(i) => i,
            None => {
                self.agg.by_kind.push(KindAgg {
                    kind,
                    calls: 0,
                    ns: 0,
                });
                self.agg.by_kind.len() - 1
            }
        };
        self.last = idx;
        idx
    }

    /// Open a span of `kind`; `op` is the operation it runs on behalf of.
    #[inline]
    pub fn enter(&mut self, kind: &'static str, op: Option<u64>) -> Open {
        let slot = self.slot(kind);
        let rec = match op {
            Some(op) if op % SAMPLE_EVERY == 0 => {
                let id = self.id_base | self.agg.calls;
                Some((id, PARENT.replace(id), op))
            }
            _ => None,
        };
        Open {
            slot,
            start: Instant::now(),
            rec,
        }
    }

    /// Open a span that is recorded only if a span inside it was (runtime
    /// calls: they carry no op id of their own).
    #[inline]
    pub fn enter_enclosing(&mut self, kind: &'static str) -> Open {
        let slot = self.slot(kind);
        let id = self.id_base | self.agg.calls;
        SAMPLED.set(false);
        Open {
            slot,
            rec: Some((id, PARENT.replace(id), 0)),
            start: Instant::now(),
        }
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        let end = Instant::now();
        let ns = end.duration_since(open.start).as_nanos() as u64;
        self.agg.calls += 1;
        self.agg.ns += ns;
        let k = &mut self.agg.by_kind[open.slot];
        k.calls += 1;
        k.ns += ns;
        if let Some((id, parent, op)) = open.rec {
            PARENT.set(parent);
            // A handler span (op != 0) is always kept, and tells the
            // enclosing runtime call to keep itself too.
            if op != 0 {
                SAMPLED.set(true);
            }
            if SAMPLED.get() {
                let start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
                self.agg.spans.push(SpanRec {
                    id,
                    parent,
                    layer: self.layer,
                    kind: k.kind,
                    proc: self.proc,
                    op,
                    start_ns,
                    end_ns: start_ns + ns,
                });
            }
        }
    }

    pub fn agg(&self) -> &LayerAgg {
        &self.agg
    }

    pub fn into_agg(self) -> LayerAgg {
        self.agg
    }
}

/// Make the drive the root span on this thread: runtime calls made until
/// [`end_drive`] record it as their parent.
pub fn begin_drive() {
    PARENT.set(DRIVE_SPAN);
    SAMPLED.set(false);
}

/// Close the root span opened by [`begin_drive`].
pub fn end_drive() {
    PARENT.set(0);
}

/// A [`Process`] with a span around every handler; everything else is
/// forwarded untouched, so the wrapped process sees the same `Context`,
/// the same messages and the same RNG draws.
pub struct TimedProc<P> {
    inner: P,
    timer: SpanTimer,
}

impl<P> TimedProc<P> {
    pub fn new(inner: P, layer: &'static str, layer_no: u64, lane: u32, epoch: Instant) -> Self {
        TimedProc {
            inner,
            timer: SpanTimer::new(layer, layer_no, lane, epoch),
        }
    }

    pub fn inner(&self) -> &P {
        &self.inner
    }

    pub fn agg(&self) -> &LayerAgg {
        self.timer.agg()
    }
}

impl<P: Process> Process for TimedProc<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let open = self.timer.enter("start", ctx.span());
        self.inner.on_start(ctx);
        self.timer.exit(open);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: ProcId, msg: Self::Msg) {
        let open = self.timer.enter(msg.kind(), ctx.span());
        self.inner.on_message(ctx, from, msg);
        self.timer.exit(open);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, token: u64) {
        let open = self.timer.enter("timer", ctx.span());
        self.inner.on_timer(ctx, token);
        self.timer.exit(open);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let open = self.timer.enter("restart", ctx.span());
        self.inner.on_restart(ctx);
        self.timer.exit(open);
    }

    fn on_peer_change(&mut self, ctx: &mut Context<'_, Self::Msg>, peer: ProcId, up: bool) {
        let open = self.timer.enter("peer_change", ctx.span());
        self.inner.on_peer_change(ctx, peer, up);
        self.timer.exit(open);
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        self.inner.metrics()
    }

    fn gauges(&self, now: SimTime) -> Vec<(&'static str, u64)> {
        self.inner.gauges(now)
    }

    fn fingerprint(&self) -> Option<u64> {
        self.inner.fingerprint()
    }
}

/// A [`Runtime`] with a span around every call the driver makes into it.
pub struct TimedRuntime<R> {
    inner: R,
    timer: SpanTimer,
}

impl<R: Runtime> TimedRuntime<R> {
    pub fn new(inner: R, epoch: Instant) -> Self {
        TimedRuntime {
            inner,
            timer: SpanTimer::new("runtime", 1, u32::MAX, epoch),
        }
    }

    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Tear down like [`Runtime::into_procs`], also handing back the spans
    /// (the teardown itself is the last one, `into_procs`).
    pub fn finish(mut self) -> (Vec<R::Proc>, LayerAgg) {
        let open = self.timer.enter_enclosing("into_procs");
        let procs = self.inner.into_procs();
        self.timer.exit(open);
        (procs, self.timer.into_agg())
    }
}

impl<R: Runtime> Runtime for TimedRuntime<R> {
    type Proc = R::Proc;

    fn num_procs(&self) -> usize {
        self.inner.num_procs()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn inject(&mut self, to: ProcId, msg: <R::Proc as Process>::Msg) {
        let open = self.timer.enter_enclosing("inject");
        self.inner.inject(to, msg);
        self.timer.exit(open);
    }

    fn poll(&mut self, deadline: Option<SimTime>) -> Poll {
        let open = self.timer.enter_enclosing("poll");
        let r = self.inner.poll(deadline);
        self.timer.exit(open);
        r
    }

    fn settle(&mut self) -> Result<(), QuiesceError> {
        let open = self.timer.enter_enclosing("settle");
        let r = self.inner.settle();
        self.timer.exit(open);
        r
    }

    fn drain_outputs(&mut self) -> Vec<(SimTime, ProcId, <R::Proc as Process>::Msg)> {
        let open = self.timer.enter_enclosing("drain_outputs");
        let r = self.inner.drain_outputs();
        self.timer.exit(open);
        r
    }

    fn take_obs(&mut self) -> Obs {
        self.inner.take_obs()
    }

    fn into_procs(self) -> Vec<R::Proc> {
        self.finish().0
    }
}

/// What a span costs, measured on this machine just before it is used.
#[derive(Clone, Copy, Debug)]
pub struct ClockCost {
    /// One `Instant::now()`.
    pub read_ns: f64,
    /// The part of an empty span's cost that lands *inside* its own
    /// measured duration.
    pub inside_ns: f64,
    /// The part that lands in the parent's self time (bookkeeping plus the
    /// rest of the two clock reads).
    pub outside_ns: f64,
}

/// Calibrate by timing runs of empty spans from outside and comparing with
/// what the spans measured of themselves. The cost is a constant of the
/// machine, so each figure is the median over short batches: a batch that
/// shares its core with something else does not move it.
pub fn calibrate() -> ClockCost {
    const BATCHES: usize = 31;
    const N: u64 = 20_000;
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (mut read, mut inside, mut total) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..N {
            std::hint::black_box(Instant::now());
        }
        read.push(t.elapsed().as_nanos() as f64 / N as f64);

        let mut timer = SpanTimer::new("calib", 0, 0, Instant::now());
        let t = Instant::now();
        for i in 0..N {
            // Alternate two kinds so the last-hit cache is exercised the
            // way a real message stream exercises it; odd op ids are never
            // sampled.
            let open = timer.enter(if i % 4 == 0 { "a" } else { "b" }, Some(i | 1));
            std::hint::black_box(&open);
            timer.exit(open);
        }
        total.push(t.elapsed().as_nanos() as f64 / N as f64);
        inside.push(timer.into_agg().ns as f64 / N as f64);
    }
    let inside_ns = median(inside);
    ClockCost {
        read_ns: median(read),
        inside_ns,
        outside_ns: (median(total) - inside_ns).max(0.0),
    }
}

//! The discrete-event simulator.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::context::{Context, Effect};
use crate::event::{Event, EventKind, EventQueue};
use crate::fault::FaultPlan;
use crate::health::HealthConfig;
use crate::obs::{CounterTrack, Recorder};
use crate::runtime::{Poll, QuiesceError, Runtime};
use crate::schedule::Scheduler;
use crate::trace::{Record, TraceEvent};
use crate::{LatencyModel, NetStats, Obs, Payload, ProcId, Process, SimTime, Trace};

/// Configuration of a [`Simulation`] run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Latency model for message deliveries.
    pub latency: LatencyModel,
    /// RNG seed; two runs with equal config, processes, and injections are
    /// identical event-for-event.
    pub seed: u64,
    /// Retain a causal trace of at most this many runtime events — a ring
    /// buffer keeping the most recent (0 = no tracing). Recording keeps raw
    /// values; only what is still retained at export is ever rendered.
    pub trace_capacity: usize,
    /// Snapshot each processor's [`Process::metrics`] counters at most every
    /// this many virtual ticks, building the per-proc time series exported
    /// via [`Simulation::take_obs`] (0 = no sampling).
    pub sample_interval: u64,
    /// Per-action service time: each processor is a single node manager
    /// (the paper's model), so actions on one processor execute at most
    /// every `service_time` ticks; deliveries to a busy processor wait,
    /// and everything an action sends departs when the action *completes*
    /// (`arrival + service`), so a hop's service shows up in downstream
    /// latency. 0 disables the model (infinitely fast processors).
    pub service_time: u64,
    /// Per-processor overrides of `service_time`, as `(proc, ticks)` pairs
    /// — model a degraded node manager (E17's slow replica) without
    /// touching the network latency model. An override of 0 makes that
    /// processor infinitely fast even when the base is nonzero.
    pub service_overrides: Vec<(ProcId, u64)>,
    /// Abort the run after this many delivered events (runaway protection).
    pub max_events: u64,
    /// Fault schedule. The default ([`FaultPlan::none`]) is the paper's
    /// reliable network; an inactive plan adds no RNG draws and no events,
    /// so fault-free runs are bit-identical to the pre-fault simulator.
    pub faults: FaultPlan,
    /// Online health watchdogs evaluated at each sample boundary (needs
    /// `sample_interval > 0` to ever fire; disabled by default, in which
    /// case no monitor state is even allocated).
    pub health: HealthConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: LatencyModel::default(),
            seed: 0xDB7EE,
            trace_capacity: 0,
            sample_interval: 0,
            service_time: 0,
            service_overrides: Vec::new(),
            max_events: 100_000_000,
            faults: FaultPlan::none(),
            health: HealthConfig::default(),
        }
    }
}

impl SimConfig {
    /// Default config with the given seed.
    pub fn seeded(seed: u64) -> Self {
        SimConfig {
            seed,
            ..Default::default()
        }
    }

    /// Default config with jittery remote latency in `[min, max]` and the
    /// given seed — the setup used by the race experiments.
    pub fn jittery(seed: u64, min: u64, max: u64) -> Self {
        SimConfig {
            latency: LatencyModel::jittery(min, max),
            seed,
            ..Default::default()
        }
    }
}

/// Why [`Simulation::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// No events remain: the computation terminated (the paper's
    /// "end of the computation", at which copy convergence must hold).
    Quiescent,
    /// `max_events` was hit.
    EventLimit,
}

/// Per-channel FIFO watermarks, stored flat: `internal[src*n + dst]` for
/// in-cluster channels and `external[to]` for injected client traffic. The
/// zero-initialized vectors are lazily paged by the allocator, so the
/// quadratic capacity only materializes for channel pairs actually used.
struct ChannelClock {
    n: usize,
    internal: Vec<SimTime>,
    external: Vec<SimTime>,
}

impl ChannelClock {
    fn new(n: usize) -> Self {
        ChannelClock {
            n,
            internal: vec![SimTime::ZERO; n * n],
            external: vec![SimTime::ZERO; n],
        }
    }

    #[inline]
    fn internal_mut(&mut self, src: ProcId, dst: ProcId) -> &mut SimTime {
        &mut self.internal[src.index() * self.n + dst.index()]
    }

    #[inline]
    fn external_mut(&mut self, dst: ProcId) -> &mut SimTime {
        &mut self.external[dst.index()]
    }
}

/// A deterministic discrete-event simulation over a set of processes.
///
/// Channel semantics match the paper's §4 assumptions: reliable, exactly-once,
/// FIFO per `(src, dst)` pair. Different channels race freely (subject to the
/// latency model), which is the behaviour the lazy-update protocols must
/// tolerate.
pub struct Simulation<P: Process> {
    /// Boxed so the hot path's take/put around each action moves 8 bytes
    /// instead of memcpying a potentially kilobyte-sized process struct.
    procs: Vec<Option<Box<P>>>,
    queue: EventQueue<P::Msg>,
    now: SimTime,
    rng: SmallRng,
    latency: LatencyModel,
    /// Per-channel watermark that enforces FIFO even under jitter.
    /// Flattened to `internal[src*n + dst]` (plus one row for injected
    /// external traffic): one indexed access per send on the hot path, and
    /// the zero-filled allocation is lazily paged, so untouched channel
    /// pairs cost nothing even at large `n`.
    channel_clock: ChannelClock,
    /// Per-processor node-manager busy horizon (service-time model).
    proc_busy: Vec<SimTime>,
    /// Per-processor service time (base + overrides); all zero disables
    /// the model.
    service: Vec<u64>,
    stats: NetStats,
    /// Everything the run observes is recorded here (trace, series,
    /// watchdog alerts), from what each processor's track reads off its
    /// process (untouched while tracing and sampling are both off).
    recorder: Recorder<P::Msg>,
    counters: Vec<CounterTrack>,
    outputs: Vec<(SimTime, ProcId, P::Msg)>,
    effects_buf: Vec<Effect<P::Msg>>,
    delivered: u64,
    max_events: u64,
    /// Fault schedule and its dedicated RNG stream. Drawing fault decisions
    /// from a separate generator keeps the main RNG sequence — and therefore
    /// every fault-free run — untouched by this machinery.
    faults: FaultPlan,
    fault_rng: SmallRng,
    faults_active: bool,
    /// Per-processor liveness (fault model); all `false` without faults.
    down: Vec<bool>,
    /// Incremented on each crash; events scheduled under an older epoch are
    /// the crashed incarnation's volatile queue and are discarded.
    crash_epoch: Vec<u32>,
    /// Optional schedule controller (see [`crate::schedule`]). When
    /// installed, each step fires the enabled event the controller picks
    /// instead of the earliest-time event.
    scheduler: Option<Box<dyn Scheduler>>,
}

impl<P: Process> Simulation<P> {
    /// Build a simulation over `procs` (assigned `ProcId(0..n)`) and run each
    /// process's `on_start` hook.
    pub fn new(config: SimConfig, procs: Vec<P>) -> Self {
        let n = procs.len();
        let faults_active = config.faults.is_active();
        let mut service = vec![config.service_time; n];
        for &(p, s) in &config.service_overrides {
            assert!(p.index() < n, "service override names unknown processor");
            service[p.index()] = s;
        }
        let mut sim = Simulation {
            procs: procs.into_iter().map(|p| Some(Box::new(p))).collect(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(config.seed),
            latency: config.latency,
            channel_clock: ChannelClock::new(n),
            proc_busy: vec![SimTime::ZERO; n],
            service,
            stats: NetStats::new(n),
            recorder: Recorder::new(config.trace_capacity, config.health, n),
            counters: (0..n)
                .map(|_| CounterTrack::new(config.sample_interval))
                .collect(),
            outputs: Vec::new(),
            effects_buf: Vec::new(),
            delivered: 0,
            max_events: config.max_events,
            // Distinct stream per run seed; the constant only decorrelates it
            // from the main RNG, which sees the identical seed.
            fault_rng: SmallRng::seed_from_u64(config.seed ^ 0xFA017),
            faults: config.faults,
            faults_active,
            down: vec![false; n],
            crash_epoch: vec![0; n],
            scheduler: None,
        };
        // Schedule the crash/restart control events up front; an empty plan
        // pushes nothing, keeping the event sequence of fault-free runs
        // byte-identical.
        for c in sim.faults.crashes.clone() {
            assert!(c.proc.index() < n, "crash plan names unknown processor");
            sim.queue.push(c.at, c.proc, EventKind::Crash);
            if let Some(r) = c.restart_at {
                sim.queue.push(r, c.proc, EventKind::Restart);
            }
        }
        for i in 0..n {
            sim.run_action(ProcId(i as u32), None, 0, None, |p, ctx| p.on_start(ctx));
        }
        sim
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.procs.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network statistics accumulated so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The causal trace so far (empty unless `trace_capacity > 0`). The
    /// recorder's typed ring is handed over — type-erased — on this call,
    /// and recording carries on.
    pub fn trace(&mut self) -> &Trace {
        self.recorder.trace()
    }

    /// Take the observability data (trace + series + alerts), leaving fresh
    /// buffers with the same configuration.
    pub fn take_obs(&mut self) -> Obs {
        self.recorder.take()
    }

    /// Messages sent to [`ProcId::EXTERNAL`], with their send times.
    pub fn outputs(&self) -> &[(SimTime, ProcId, P::Msg)] {
        &self.outputs
    }

    /// Remove and return all collected outputs.
    pub fn drain_outputs(&mut self) -> Vec<(SimTime, ProcId, P::Msg)> {
        std::mem::take(&mut self.outputs)
    }

    /// Count of events delivered so far.
    pub fn events_delivered(&self) -> u64 {
        self.delivered
    }

    /// Immutable access to a process, for end-of-run inspection.
    pub fn proc(&self, id: ProcId) -> &P {
        self.procs[id.index()]
            .as_deref()
            .expect("process is resident between events")
    }

    /// Mutable access to a process (e.g. to install checkers between phases).
    pub fn proc_mut(&mut self, id: ProcId) -> &mut P {
        // The caller may move counters outside any action.
        self.counters[id.index()].invalidate();
        self.procs[id.index()]
            .as_deref_mut()
            .expect("process is resident between events")
    }

    /// Iterate over all processes.
    pub fn procs(&self) -> impl Iterator<Item = (ProcId, &P)> {
        self.procs.iter().enumerate().map(|(i, p)| {
            (
                ProcId(i as u32),
                p.as_deref().expect("process is resident between events"),
            )
        })
    }

    /// Inject a message from [`ProcId::EXTERNAL`], delivered at the current
    /// time plus one local tick.
    pub fn inject(&mut self, to: ProcId, msg: P::Msg) {
        self.inject_at(self.now + 1, to, msg);
    }

    /// Inject a message from [`ProcId::EXTERNAL`] for delivery at `at`
    /// (clamped to be FIFO with earlier injections to the same processor).
    pub fn inject_at(&mut self, at: SimTime, to: ProcId, msg: P::Msg) {
        let at = at.max(self.now);
        let watermark = self.channel_clock.external_mut(to);
        let at = at.max(*watermark);
        *watermark = at;
        self.stats.record_send(
            msg.kind(),
            ProcId::EXTERNAL.index().min(self.procs.len()),
            Some(to.index()),
            msg.size_hint(),
            false,
        );
        let span = msg.span();
        self.queue.push_epoch(
            at,
            to,
            self.crash_epoch[to.index()],
            EventKind::Deliver {
                from: ProcId::EXTERNAL,
                msg,
                span,
            },
        );
    }

    /// Has the run limit already been crossed? `None` means the simulation
    /// may keep stepping. Callers that drive [`Simulation::step`] in their
    /// own loop should consult this so `max_events` is not silently ignored.
    pub fn limit_exceeded(&self) -> Option<QuiesceError> {
        let delivered = self.delivered;
        (delivered >= self.max_events).then_some(QuiesceError::EventLimit { delivered })
    }

    /// Install a schedule controller; subsequent steps fire the enabled
    /// event it picks instead of the earliest-time event (see
    /// [`crate::schedule`]).
    pub fn set_scheduler(&mut self, scheduler: Box<dyn Scheduler>) {
        self.scheduler = Some(scheduler);
    }

    /// A digest of the simulation's *logical* state, for the model
    /// checker's visited-state pruning: per-process fingerprints (see
    /// [`Process::fingerprint`]), liveness flags, queued event content in
    /// channel order, and undrained outputs. Virtual times and sequence
    /// numbers are excluded throughout — under a schedule controller only
    /// the choice order matters, so two states reached by different
    /// interleavings of commuting steps must collide.
    ///
    /// Returns `None` — pruning disabled — when any process opts out, or
    /// when the fault plan draws from the fault RNG (message loss,
    /// duplication) or consults the clock (partitions): the RNG stream and
    /// timing are not part of the digest, so states could alias unsoundly.
    /// Scripted crashes are fine — their control events are queued up
    /// front and hash like any other pending event.
    pub fn fingerprint(&self) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        if self.faults.drop_prob > 0.0
            || self.faults.dup_prob > 0.0
            || !self.faults.partitions.is_empty()
        {
            return None;
        }
        let mut h = crate::FxHasher::default();
        for p in &self.procs {
            let p = p.as_deref().expect("process is resident between events");
            p.fingerprint()?.hash(&mut h);
        }
        self.down.hash(&mut h);
        self.queue.pending_fingerprint(&mut h);
        for (_, from, msg) in &self.outputs {
            from.hash(&mut h);
            msg.fingerprint_into(&mut h);
        }
        Some(h.finish())
    }

    /// Deliver a single event. Returns `false` if the queue was empty.
    ///
    /// Under a schedule controller the step is: compute the enabled set,
    /// let the scheduler pick, fire the pick immediately (clamped to
    /// `max(at, now)` so time stays monotone — the latency model's opinion
    /// of *when* stops mattering, only the choice order does), then report
    /// back via [`Scheduler::fired`] with the range of event sequence
    /// numbers the firing created.
    pub fn step(&mut self) -> bool {
        if self.scheduler.is_none() {
            let Some(event) = self.queue.pop() else {
                return false;
            };
            self.deliver_event(event);
            return true;
        }
        let enabled = self.queue.choices();
        if enabled.is_empty() {
            return false;
        }
        let scheduler = self.scheduler.as_mut().expect("scheduler installed");
        let idx = scheduler.choose(self.now, &enabled).min(enabled.len() - 1);
        let chosen = enabled[idx];
        let mut event = self
            .queue
            .pop_seq(chosen.seq)
            .expect("enabled choices are pending events");
        event.at = event.at.max(self.now);
        let before = self.queue.seq_watermark();
        self.deliver_event(event);
        let after = self.queue.seq_watermark();
        if let Some(s) = self.scheduler.as_mut() {
            s.fired(&chosen, before..after);
        }
        true
    }

    /// The body of [`Simulation::step`] after the event has been popped:
    /// fault drops, the service-time model, and the action dispatch.
    fn deliver_event(&mut self, event: Event<P::Msg>) {
        debug_assert!(event.at >= self.now, "time runs forward");
        let to = event.to;
        let is_control = matches!(event.kind, EventKind::Crash | EventKind::Restart);
        let down = self.faults_active && !is_control && self.down[to.index()];
        // A delivery or timer that never runs, as `(is_timer, from, kind,
        // redelivery, span)`. Either a tombstone — invalidated *eagerly* at
        // its target's crash (see [`EventQueue::cancel_for`]): the payload
        // is gone, but the victim still fires at its original time as a
        // drop, exactly as the older lazy epoch-check-at-pop produced — or a
        // message sent to a processor *after* its crash: it carries the
        // current epoch (so it was not tombstoned) and is lost only if it
        // arrives while the target is still down.
        let lost = match &event.kind {
            EventKind::Tombstone {
                from,
                kind,
                redelivery,
                span,
                is_timer,
            } => Some((*is_timer, *from, *kind, *redelivery, *span)),
            EventKind::Deliver { from, msg, span } if down => {
                Some((false, *from, msg.kind(), msg.redelivery(), *span))
            }
            EventKind::Timer { .. } if down => Some((true, to, "timer", false, None)),
            _ => None,
        };
        if let Some((is_timer, from, kind, redelivery, span)) = lost {
            self.now = event.at;
            if is_timer {
                self.stats.faults_mut().timer_dropped += 1;
            } else {
                self.stats.faults_mut().crash_dropped += 1;
                let (drop, wait) = (TraceEvent::Drop, event.wait);
                self.recorder.fault(
                    self.now, from, to, drop, "crash", kind, span, redelivery, wait,
                );
            }
            self.stats.observe_inflight(self.queue.len());
            return;
        }
        // Stale epochs cannot reach here — the crash already tombstoned
        // them — which is what the epoch field's backstop assert checks.
        debug_assert!(
            !self.faults_active || is_control || event.epoch == self.crash_epoch[to.index()],
            "stale-epoch events are tombstoned at the crash"
        );
        // Service-time model: a processor executes one action at a time.
        // If the target is still busy, requeue the event at its free time
        // (requeue order follows pop order, so per-channel FIFO holds).
        // Crash/restart are physical faults, not actions: they bypass the
        // node manager's queue.
        let svc = if is_control {
            0
        } else {
            self.service[to.index()]
        };
        if svc > 0 {
            let busy = self.proc_busy[to.index()];
            if busy > event.at {
                // Keep the original sequence number: a requeued event must
                // not be overtaken by same-channel events sent after it.
                self.now = event.at;
                let mut event = event;
                event.wait += busy.ticks() - event.at.ticks();
                self.queue.requeue(busy, event);
                return;
            }
            self.proc_busy[to.index()] = event.at + svc;
        }
        self.now = event.at;
        self.delivered += 1;
        // An action's trace entry is opened before the action runs — the
        // handler consumes the payload — and recorded after it.
        let (now, wait, tracing) = (self.now, event.wait, self.recorder.tracing());
        match event.kind {
            EventKind::Deliver { from, msg, span } => {
                let pending = tracing.then(|| Record::delivery(now, from, to, span, &msg, wait));
                self.run_action(to, span, svc, pending, |p, ctx| {
                    p.on_message(ctx, from, msg)
                });
            }
            EventKind::Timer { token } => {
                let pending = tracing.then(|| Record::timer(now, to, token, wait));
                self.run_action(to, None, svc, pending, |p, ctx| p.on_timer(ctx, token));
            }
            EventKind::Crash => {
                self.down[to.index()] = true;
                self.crash_epoch[to.index()] += 1;
                // Eager crash invalidation: everything in flight to the
                // dead incarnation becomes a tombstone now (payloads freed
                // at the crash, drops still fire at the original times).
                self.queue.cancel_for(to);
                self.stats.faults_mut().crashes += 1;
                self.recorder.crash(self.now, to);
            }
            EventKind::Restart => {
                self.down[to.index()] = false;
                // The new incarnation's node manager starts idle.
                self.proc_busy[to.index()] = self.now;
                self.stats.faults_mut().restarts += 1;
                let pending = tracing.then(|| Record::restart(now, to));
                self.run_action(to, None, 0, pending, |p, ctx| p.on_restart(ctx));
            }
            EventKind::Tombstone { .. } => unreachable!("handled above"),
        }
        self.stats.observe_inflight(self.queue.len());
    }

    /// Run until quiescence or a limit is hit.
    pub fn run(&mut self) -> RunOutcome {
        loop {
            if self.limit_exceeded().is_some() {
                return RunOutcome::EventLimit;
            }
            if !self.step() {
                return RunOutcome::Quiescent;
            }
        }
    }

    /// Time of the earliest pending event, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.queue.next_at()
    }

    /// Move the clock forward to `t` without delivering anything — but never
    /// past a pending event (time must not skip over scheduled work). Used
    /// by deadline-bounded polling to pace open-loop arrivals.
    pub fn advance_to(&mut self, t: SimTime) {
        let bound = self.queue.next_at().map_or(t, |at| at.min(t));
        if bound > self.now {
            self.now = bound;
        }
    }

    /// Tear the simulation down and return the final process states.
    pub fn into_procs(self) -> Vec<P> {
        self.procs
            .into_iter()
            .map(|p| *p.expect("process is resident between events"))
            .collect()
    }

    /// Per-processor service time after overrides (0 = infinitely fast).
    pub fn service_of(&self, id: ProcId) -> u64 {
        self.service[id.index()]
    }

    /// Execute one atomic action on `id`: run `f` with a [`Context`] whose
    /// span is `span`, hand the recorder the opened trace record `pending`
    /// (with the action's counter deltas) and the time-series
    /// sample if one is due, then apply the buffered effects — so the
    /// action's entry lands in the trace *before* the entries its sends
    /// generate, keeping the trace causally ordered. Effects depart at
    /// `now + service` (the action's completion under the service-time
    /// model): a hop's service delays everything downstream of it, which is
    /// what lets the profiler decompose op latency exactly. The process is
    /// out of its slot meanwhile; effects touch the queue, stats and
    /// recorder, never the process table.
    fn run_action(
        &mut self,
        id: ProcId,
        span: Option<u64>,
        service: u64,
        pending: Option<Record<P::Msg>>,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>),
    ) {
        let mut p = self.procs[id.index()]
            .take()
            .expect("process is resident between events");
        if pending.is_some() {
            self.counters[id.index()].arm(&mut *p);
        }
        debug_assert!(self.effects_buf.is_empty());
        let mut effects = std::mem::take(&mut self.effects_buf);
        {
            let mut ctx = Context {
                me: id,
                now: self.now,
                effects: &mut effects,
                rng: &mut self.rng,
                span,
            };
            f(&mut p, &mut ctx);
        }
        let track = &mut self.counters[id.index()];
        let due = track.due(self.now);
        if due || pending.is_some() {
            let mut sample = track.observe(&mut *p, id, self.now, pending.is_some(), due);
            if let Some(sample) = &mut sample {
                // Runtime-level gauge: pending events across the whole cluster
                // (simulator only — the threaded runtime has no global queue).
                let depth = self.queue.len() as u64;
                sample.gauges.push(("rt.event_queue_depth", depth));
            }
            self.recorder.action(pending, &track.deltas, sample);
        }
        self.procs[id.index()] = Some(p);
        let depart = self.now + service;
        for effect in effects.drain(..) {
            self.apply_effect(id, span, depart, effect);
        }
        self.effects_buf = effects;
    }

    fn apply_effect(
        &mut self,
        src: ProcId,
        action_span: Option<u64>,
        depart: SimTime,
        effect: Effect<P::Msg>,
    ) {
        match effect {
            Effect::Send { to, msg } => {
                // Causal span inheritance: a payload that names its operation
                // wins; everything else is attributed to the action that sent
                // it (split rounds, copy installs, relays, replies).
                let span = msg.span().or(action_span);
                if to.is_external() {
                    self.stats
                        .record_send(msg.kind(), src.index(), None, msg.size_hint(), false);
                    self.recorder.output(depart, src, span, &msg);
                    self.outputs.push((depart, src, msg));
                    return;
                }
                let local = to == src;
                self.stats.record_send(
                    msg.kind(),
                    src.index(),
                    Some(to.index()),
                    msg.size_hint(),
                    local,
                );
                // Fault injection applies to remote internal traffic only: a
                // processor's hand-offs to itself never cross the network.
                // Dropped messages do NOT advance the FIFO watermark, so the
                // survivors still arrive in send order.
                if self.faults_active && !local {
                    if self.faults.severed(src, to, depart) {
                        self.stats.faults_mut().partition_dropped += 1;
                        self.record_fault(
                            src,
                            to,
                            &msg,
                            span,
                            depart,
                            TraceEvent::Drop,
                            "partition",
                        );
                        return;
                    }
                    if self.faults.drop_prob > 0.0 && self.fault_rng.gen_bool(self.faults.drop_prob)
                    {
                        self.stats.faults_mut().dropped += 1;
                        self.record_fault(src, to, &msg, span, depart, TraceEvent::Drop, "loss");
                        return;
                    }
                }
                let latency = self.latency.sample(src, to, &mut self.rng);
                let mut at = depart + latency;
                // Enforce FIFO per channel: never schedule before an earlier
                // message on the same channel.
                let watermark = self.channel_clock.internal_mut(src, to);
                at = at.max(*watermark);
                *watermark = at;
                let wm = *watermark;
                let epoch = self.crash_epoch[to.index()];
                if self.faults_active
                    && !local
                    && self.faults.dup_prob > 0.0
                    && self.fault_rng.gen_bool(self.faults.dup_prob)
                {
                    // The duplicate takes its own latency draw (clamped to
                    // arrive no earlier than the original) but does not
                    // advance the watermark: it may be overtaken, exactly
                    // like a retransmitted packet on a real network.
                    self.stats.faults_mut().duplicated += 1;
                    self.record_fault(src, to, &msg, span, depart, TraceEvent::Duplicate, "dup");
                    self.queue.push_epoch(
                        dup_at(
                            depart,
                            self.latency.sample(src, to, &mut self.fault_rng),
                            wm,
                        ),
                        to,
                        epoch,
                        EventKind::Deliver {
                            from: src,
                            msg: msg.clone(),
                            span,
                        },
                    );
                }
                self.queue.push_epoch(
                    at,
                    to,
                    epoch,
                    EventKind::Deliver {
                        from: src,
                        msg,
                        span,
                    },
                );
            }
            Effect::Timer { delay, token } => {
                self.queue.push_epoch(
                    depart + delay,
                    src,
                    self.crash_epoch[src.index()],
                    EventKind::Timer { token },
                );
            }
            Effect::Mark {
                event,
                kind,
                detail,
            } => self
                .recorder
                .mark(depart, src, event, kind, action_span, detail),
        }
    }

    /// Record a fault injected at send time (drop, duplicate).
    #[allow(clippy::too_many_arguments)]
    fn record_fault(
        &mut self,
        from: ProcId,
        to: ProcId,
        msg: &P::Msg,
        span: Option<u64>,
        at: SimTime,
        event: TraceEvent,
        flavor: &'static str,
    ) {
        let (kind, redelivery) = (msg.kind(), msg.redelivery());
        self.recorder
            .fault(at, from, to, event, flavor, kind, span, redelivery, 0);
    }
}

/// Arrival time of a duplicated delivery: its own latency draw, clamped so
/// it cannot arrive before the original's channel watermark.
fn dup_at(now: SimTime, latency: u64, watermark: SimTime) -> SimTime {
    (now + latency).max(watermark)
}

impl<P: Process> Runtime for Simulation<P> {
    type Proc = P;

    fn num_procs(&self) -> usize {
        Simulation::num_procs(self)
    }

    fn now(&self) -> SimTime {
        Simulation::now(self)
    }

    fn inject(&mut self, to: ProcId, msg: P::Msg) {
        Simulation::inject(self, to, msg);
    }

    fn poll(&mut self, deadline: Option<SimTime>) -> Poll {
        loop {
            if !self.outputs.is_empty() {
                return Poll::Outputs;
            }
            if let Some(limit) = self.limit_exceeded() {
                return Poll::Limit(limit);
            }
            match deadline {
                Some(d) => match self.next_event_at() {
                    Some(at) if at < d => {
                        self.step();
                    }
                    _ => {
                        self.advance_to(d);
                        return Poll::Deadline;
                    }
                },
                None => {
                    if !self.step() {
                        return Poll::Quiescent;
                    }
                }
            }
        }
    }

    fn settle(&mut self) -> Result<(), QuiesceError> {
        loop {
            if let Some(limit) = self.limit_exceeded() {
                return Err(limit);
            }
            if !self.step() {
                return Ok(());
            }
        }
    }

    fn drain_outputs(&mut self) -> Vec<(SimTime, ProcId, P::Msg)> {
        Simulation::drain_outputs(self)
    }

    fn take_obs(&mut self) -> Obs {
        Simulation::take_obs(self)
    }

    fn into_procs(self) -> Vec<P> {
        Simulation::into_procs(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    impl Payload for Msg {
        fn kind(&self) -> &'static str {
            match self {
                Msg::Ping(_) => "ping",
                Msg::Pong(_) => "pong",
            }
        }
    }

    /// Forwards each ping around a ring `hops` times, then reports out.
    struct Ring {
        n: u32,
        hops: u32,
    }

    impl Process for Ring {
        type Msg = Msg;
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: ProcId, msg: Msg) {
            match msg {
                Msg::Ping(h) if h < self.hops => {
                    let next = ProcId((ctx.me().0 + 1) % self.n);
                    ctx.send(next, Msg::Ping(h + 1));
                }
                Msg::Ping(h) => ctx.send(ProcId::EXTERNAL, Msg::Pong(h)),
                Msg::Pong(_) => {}
            }
        }
    }

    #[test]
    fn ring_terminates_and_counts() {
        let procs = (0..4).map(|_| Ring { n: 4, hops: 8 }).collect();
        let mut sim = Simulation::new(SimConfig::seeded(7), procs);
        sim.inject(ProcId(0), Msg::Ping(0));
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(sim.outputs().len(), 1);
        // 1 injected ping + 8 forwards = 9 pings; 1 pong output.
        assert_eq!(sim.stats().kind("ping").total(), 9);
        assert_eq!(sim.stats().kind("pong").total(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let procs = (0..4).map(|_| Ring { n: 4, hops: 50 }).collect();
            let mut sim = Simulation::new(SimConfig::jittery(seed, 2, 30), procs);
            sim.inject(ProcId(0), Msg::Ping(0));
            sim.run();
            (sim.now(), sim.events_delivered())
        };
        assert_eq!(run(11), run(11));
        // Different seeds give different virtual end times under jitter.
        assert_ne!(run(11).0, run(13).0);
    }

    struct Burst;
    impl Process for Burst {
        type Msg = Msg;
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcId, msg: Msg) {
            if let Msg::Ping(n) = msg {
                // Echo sequence numbers back; FIFO says they arrive in order.
                ctx.send(from, Msg::Pong(n));
            }
        }
    }

    struct Collector {
        seen: Vec<u32>,
    }
    impl Process for Collector {
        type Msg = Msg;
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            for n in 0..100 {
                ctx.send(ProcId(1), Msg::Ping(n));
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: ProcId, msg: Msg) {
            if let Msg::Pong(n) = msg {
                self.seen.push(n);
            }
        }
    }

    enum Either {
        C(Collector),
        B(Burst),
    }
    impl Process for Either {
        type Msg = Msg;
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            match self {
                Either::C(c) => c.on_start(ctx),
                Either::B(_) => {}
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcId, msg: Msg) {
            match self {
                Either::C(c) => c.on_message(ctx, from, msg),
                Either::B(b) => b.on_message(ctx, from, msg),
            }
        }
    }

    #[test]
    fn fifo_preserved_under_jitter() {
        for seed in 0..20 {
            let procs = vec![Either::C(Collector { seen: vec![] }), Either::B(Burst)];
            let mut sim = Simulation::new(SimConfig::jittery(seed, 1, 100), procs);
            sim.run();
            let Either::C(c) = sim.proc(ProcId(0)) else {
                panic!()
            };
            assert_eq!(c.seen, (0..100).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn scheduler_controls_order_but_preserves_channel_fifo() {
        use crate::schedule::{Choice, Scheduler};
        // Always fire the newest enabled event: maximally perturbs the
        // cross-channel order without being able to break per-channel FIFO.
        struct Newest;
        impl Scheduler for Newest {
            fn choose(&mut self, _now: SimTime, enabled: &[Choice]) -> usize {
                enabled.len() - 1
            }
        }
        let procs = vec![Either::C(Collector { seen: vec![] }), Either::B(Burst)];
        let mut sim = Simulation::new(SimConfig::jittery(5, 1, 100), procs);
        sim.set_scheduler(Box::new(Newest));
        sim.run();
        let Either::C(c) = sim.proc(ProcId(0)) else {
            panic!()
        };
        assert_eq!(
            c.seen,
            (0..100).collect::<Vec<_>>(),
            "FIFO survives control"
        );
    }

    #[test]
    fn event_limit_stops_runaway() {
        struct Bouncer;
        impl Process for Bouncer {
            type Msg = Msg;
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: ProcId, msg: Msg) {
                // Forward to the other processor forever.
                let other = ProcId(1 - ctx.me().0);
                ctx.send(other, msg);
            }
        }
        let mut cfg = SimConfig::seeded(1);
        cfg.max_events = 1000;
        let mut sim = Simulation::new(cfg, vec![Bouncer, Bouncer]);
        sim.inject(ProcId(0), Msg::Ping(0));
        assert_eq!(sim.run(), RunOutcome::EventLimit);
        assert_eq!(sim.events_delivered(), 1000);
    }

    #[test]
    fn service_time_serializes_a_processor() {
        // 10 simultaneous deliveries to one processor with service_time 5:
        // the last completes no earlier than 10 * 5 ticks after the first.
        struct Sink {
            times: Vec<u64>,
        }
        impl Process for Sink {
            type Msg = Msg;
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: ProcId, _: Msg) {
                self.times.push(ctx.now().ticks());
            }
        }
        let mut cfg = SimConfig::seeded(1);
        cfg.service_time = 5;
        let mut sim = Simulation::new(cfg, vec![Sink { times: vec![] }]);
        for i in 0..10 {
            sim.inject_at(SimTime(1), ProcId(0), Msg::Ping(i));
        }
        sim.run();
        let times = &sim.proc(ProcId(0)).times;
        assert_eq!(times.len(), 10, "all delivered");
        for w in times.windows(2) {
            assert!(
                w[1] >= w[0] + 5,
                "actions spaced by service time: {times:?}"
            );
        }
        // FIFO preserved under requeueing.
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn service_time_requeue_preserves_channel_fifo() {
        // Regression: a requeued message (target busy) must keep its heap
        // priority. Channel S->D carries A then B; an interferer from
        // another processor occupies D so A is requeued to the same instant
        // B arrives. D must still observe A before B.
        struct Obs {
            seen: Vec<u32>,
        }
        impl Process for Obs {
            type Msg = Msg;
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ProcId, msg: Msg) {
                if let Msg::Ping(n) = msg {
                    self.seen.push(n);
                }
            }
        }
        struct Sender {
            at: u64,
            msgs: Vec<(u64, u32)>,
        }
        impl Process for Sender {
            type Msg = Msg;
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                let _ = self.at;
                for &(_, n) in &self.msgs {
                    ctx.send(ProcId(0), Msg::Ping(n));
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ProcId, _: Msg) {}
        }
        enum P {
            Obs(Obs),
            S(Sender),
        }
        impl Process for P {
            type Msg = Msg;
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                if let P::S(s) = self {
                    s.on_start(ctx)
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcId, msg: Msg) {
                if let P::Obs(o) = self {
                    o.on_message(ctx, from, msg)
                }
            }
        }
        // Deliveries: interferer (P2, latency 9) then A (P1, 10) then B
        // (P1, 12): craft with constant latencies via injections instead.
        let mut cfg = SimConfig::seeded(3);
        cfg.service_time = 3;
        let mut sim = Simulation::new(
            cfg,
            vec![
                P::Obs(Obs { seen: vec![] }),
                P::S(Sender {
                    at: 0,
                    msgs: vec![],
                }),
            ],
        );
        // Interferer occupies P0 from t=9..12; A lands t=10, B lands t=12.
        sim.inject_at(SimTime(9), ProcId(0), Msg::Ping(99));
        sim.inject_at(SimTime(10), ProcId(0), Msg::Ping(1)); // A
        sim.inject_at(SimTime(12), ProcId(0), Msg::Ping(2)); // B
        sim.run();
        let P::Obs(o) = sim.proc(ProcId(0)) else {
            panic!()
        };
        assert_eq!(o.seen, vec![99, 1, 2], "A not overtaken by B");
    }

    #[test]
    fn effects_depart_at_action_completion() {
        // With service_time 5, a reply leaves when the action *completes*:
        // inject arrives at t=1, so the output is stamped t=6, not t=1.
        struct Replier;
        impl Process for Replier {
            type Msg = Msg;
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: ProcId, msg: Msg) {
                if let Msg::Ping(n) = msg {
                    ctx.send(ProcId::EXTERNAL, Msg::Pong(n));
                }
            }
        }
        let mut cfg = SimConfig::seeded(1);
        cfg.service_time = 5;
        let mut sim = Simulation::new(cfg, vec![Replier]);
        sim.inject_at(SimTime(1), ProcId(0), Msg::Ping(0));
        sim.run();
        assert_eq!(sim.outputs().len(), 1);
        assert_eq!(sim.outputs()[0].0, SimTime(6), "departs at completion");
    }

    #[test]
    fn service_overrides_slow_one_processor() {
        // P0 forwards to P1; P1 replies out. Constant latency 10 remote,
        // base service 2, P1 overridden to 50. End-to-end: arrive P0 at 1,
        // depart 3, arrive P1 at 13, depart (output) at 63.
        struct Fwd {
            next: Option<ProcId>,
        }
        impl Process for Fwd {
            type Msg = Msg;
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: ProcId, msg: Msg) {
                match self.next {
                    Some(next) => ctx.send(next, msg),
                    None => ctx.send(ProcId::EXTERNAL, msg),
                }
            }
        }
        let mut cfg = SimConfig::seeded(1);
        cfg.service_time = 2;
        cfg.service_overrides = vec![(ProcId(1), 50)];
        let mut sim = Simulation::new(
            cfg,
            vec![
                Fwd {
                    next: Some(ProcId(1)),
                },
                Fwd { next: None },
            ],
        );
        assert_eq!(sim.service_of(ProcId(0)), 2);
        assert_eq!(sim.service_of(ProcId(1)), 50);
        sim.inject_at(SimTime(1), ProcId(0), Msg::Ping(0));
        sim.run();
        assert_eq!(sim.outputs()[0].0, SimTime(63));
    }

    #[test]
    fn trace_renders_on_read_and_deltas_are_per_action() {
        struct Counting {
            seen: u64,
        }
        impl Process for Counting {
            type Msg = Msg;
            fn on_start(&mut self, _: &mut Context<'_, Msg>) {
                self.seen = 100; // before anything is traced
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: ProcId, msg: Msg) {
                self.seen += 1;
                ctx.set_timer(5, 9);
                ctx.send(ProcId::EXTERNAL, msg);
            }
            fn metrics(&self) -> Vec<(&'static str, u64)> {
                vec![("seen", self.seen)]
            }
        }
        let mut cfg = SimConfig::seeded(1);
        cfg.trace_capacity = 16;
        let mut sim = Simulation::new(cfg, vec![Counting { seen: 0 }]);
        sim.inject(ProcId(0), Msg::Ping(7));
        sim.run();
        // Counters moved from outside an action are nobody's delta.
        sim.proc_mut(ProcId(0)).seen += 10;
        sim.inject(ProcId(0), Msg::Pong(8));
        sim.run();
        let lines: Vec<(String, Vec<(&str, u64)>)> = sim
            .trace()
            .iter()
            .map(|e| (e.detail().into_owned(), e.deltas.clone()))
            .collect();
        let seen = |n| vec![("seen", n)];
        assert_eq!(
            lines,
            vec![
                ("Ping(7)".to_string(), seen(1)), // deliver: not on_start's 100
                ("Ping(7)".to_string(), vec![]),  // output
                ("token=9".to_string(), vec![]),  // timer
                ("Pong(8)".to_string(), seen(1)), // deliver: not proc_mut's 10
                ("Pong(8)".to_string(), vec![]),
                ("token=9".to_string(), vec![]),
            ]
        );
    }

    #[test]
    fn timers_fire() {
        struct T {
            fired: Vec<u64>,
        }
        impl Process for T {
            type Msg = Msg;
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(10, 1);
                ctx.set_timer(5, 2);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ProcId, _: Msg) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut sim = Simulation::new(SimConfig::default(), vec![T { fired: vec![] }]);
        sim.run();
        assert_eq!(sim.proc(ProcId(0)).fired, vec![2, 1]);
    }
}

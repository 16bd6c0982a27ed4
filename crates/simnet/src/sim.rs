//! The discrete-event simulator.

use std::collections::VecDeque;
use std::sync::OnceLock;
use std::thread;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::context::Effect;
use crate::event::{Event, EventKind, EventQueue};
use crate::fault::FaultPlan;
use crate::health::HealthConfig;
use crate::obs::{CounterTrack, Recorder};
use crate::pool::{Act, Call, Host, Hosts, Pool};
use crate::runtime::{Poll, QuiesceError, Runtime};
use crate::schedule::Scheduler;
use crate::trace::{Record, TraceEvent};
use crate::{LatencyModel, NetStats, Obs, Payload, ProcId, ProcSample, Process, SimTime, Trace};

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

/// Upper bound on the events one batch takes off the queue; a tick with
/// more spans several batches. It caps the lanes' buffers (a closed-loop
/// drive injects a whole window per origin into its first tick).
const MAX_BATCH: usize = 512;

/// A batch runs on two lanes only if each lane gets at least this many
/// events: below it, handing the processes to the helper and back costs
/// more than the helper saves. The planner also stops balancing once the
/// lanes are within this many events of each other, so a processor stays
/// on the core that holds its state.
const MIN_LANE: usize = 32;

/// Events the calling thread is given over the helper's share: it starts
/// on its lane at once, while the helper first has to see the hand-off.
const HEAD_START: usize = 24;

/// A batch runs on two lanes only if its events, and those of the last
/// tick planned before it, target at least this fraction of the
/// processors. A tick whose events crowd onto fewer — hot spots, like the
/// right edge of a tree grown by appends — lost in every measured split,
/// and so did a lone spread tick between such ticks: the hot processes'
/// state moving to the helper's core and back costs more than the second
/// core saves.
const SPREAD: (usize, usize) = (5, 8);

/// Cores a batch may use, read once. More than two are not used: the
/// planner balances two lanes, which is what has been measured.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A delivery or timer that never runs (see [`Simulation::admit`]).
#[derive(Clone, Copy, Debug)]
struct Lost {
    to: ProcId,
    from: ProcId,
    is_timer: bool,
    kind: &'static str,
    redelivery: bool,
    span: Option<u64>,
    wait: u64,
}

/// One event of a batch, in sequence order, as the commit phase sees it.
#[derive(Clone, Copy, Debug)]
enum Entry {
    /// An action: the `idx`-th of `lane`'s work.
    Action {
        lane: u32,
        idx: u32,
    },
    Lost(Lost),
    /// Fault-plan controls; either ends its batch.
    Crash(ProcId),
    Restart(ProcId),
}

/// What [`Simulation::admit`] made of an event.
enum Admitted<M> {
    /// An action to run, with its opened trace record.
    Action {
        to: ProcId,
        span: Option<u64>,
        svc: u64,
        call: Call<M>,
        record: Option<Record<M>>,
    },
    /// A drop, crash or restart: nothing to execute.
    Other(Entry),
    /// Requeued behind its busy processor.
    Requeued,
}

/// A deterministic discrete-event simulation over a set of processes.
///
/// Channel semantics match the paper's §4 assumptions: reliable, exactly-once,
/// FIFO per `(src, dst)` pair. Different channels race freely (subject to the
/// latency model), which is the behaviour the lazy-update protocols must
/// tolerate.
///
/// A run whose processes are all [`Process::isolated`] delivers a tick in
/// two phases when the machine has a second core and the tick is worth it.
/// **Execute** runs the handlers of a batch of the tick's events — grouped
/// by target processor, each group in sequence order, the groups split
/// between the calling thread and a helper thread. **Commit** then applies
/// each action's effects on the calling thread in event-sequence order,
/// exactly as delivering one event at a time does: every message a handler
/// sends is due at a later tick or after every event already queued, and a
/// handler sees only its process and its [`Context`](crate::Context), so
/// the committed history, both RNG streams and every statistic are those of
/// one event at a time. Every other tick, and every run with shared state or
/// a schedule controller, is delivered one event at a time, each handler's
/// effects applied as soon as it returns.
///
/// [`Runtime::poll`] returns at the first output with the rest of the
/// batch's commits pending; [`Simulation::inject`] goes ahead of them, as it
/// goes ahead of undelivered events, and every other `&mut self` entry
/// point commits them first. Between two such polls [`Simulation::proc`]
/// shows the processes as of the batch's end.
pub struct Simulation<P: Process> {
    /// Boxed so handing a process to a lane and back moves 8 bytes
    /// instead of memcpying a potentially kilobyte-sized process struct.
    procs: Hosts<P>,
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
    outputs: Vec<(SimTime, ProcId, P::Msg)>,
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
    /// Effects of the action being delivered one event at a time.
    effects: Vec<Effect<P::Msg>>,
    /// The batch, in sequence order; entries from `next` on are executed
    /// but not yet committed.
    batch: Vec<Entry>,
    next: usize,
    /// The batch's two lanes: their actions, and the helper thread.
    pool: Pool<P>,
    /// The trace records of the batch's traced actions, in sequence order:
    /// opened here, before a handler consumes its payload, and recorded at
    /// the action's commit.
    records: VecDeque<Record<P::Msg>>,
    /// May a tick run on two lanes: every process is isolated and the
    /// machine has a second core. `None` after [`Simulation::proc_mut`]
    /// until the next tick asks.
    parallel: Option<bool>,
    /// A tick the planner put on one lane: the rest of it is delivered one
    /// event at a time without asking again.
    serial_at: Option<SimTime>,
    /// Was the last tick the planner read [`SPREAD`] over the processors?
    spread_before: bool,
    /// Planning scratch: per-processor event counts, the processors the
    /// batch touches. `lane_of` is each processor's lane, kept from batch
    /// to batch; `on_helper` the batch's processors on lane 1.
    load: Vec<u32>,
    touched: Vec<ProcId>,
    lane_of: Vec<u32>,
    on_helper: Vec<ProcId>,
    /// Ticks with a batch on two lanes, and the last one counted.
    parallel_ticks: u64,
    last_parallel: Option<SimTime>,
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
            procs: procs
                .into_iter()
                .map(|proc| {
                    let track = CounterTrack::new(config.sample_interval);
                    Some(Box::new(Host { proc, track }))
                })
                .collect(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(config.seed),
            latency: config.latency,
            channel_clock: ChannelClock::new(n),
            proc_busy: vec![SimTime::ZERO; n],
            service,
            stats: NetStats::new(n),
            recorder: Recorder::new(config.trace_capacity, config.health, n),
            outputs: Vec::new(),
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
            effects: Vec::new(),
            batch: Vec::new(),
            next: 0,
            pool: Pool::new(),
            records: VecDeque::new(),
            parallel: None,
            serial_at: None,
            spread_before: false,
            load: vec![0; n],
            touched: Vec::new(),
            lane_of: vec![0; n],
            on_helper: Vec::new(),
            parallel_ticks: 0,
            last_parallel: None,
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
            sim.run_now(ProcId(i as u32), None, 0, Call::Start, None);
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
        self.commit_pending();
        self.recorder.trace()
    }

    /// Take the observability data (trace + series + alerts), leaving fresh
    /// buffers with the same configuration.
    pub fn take_obs(&mut self) -> Obs {
        self.commit_pending();
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

    /// Ticks at least one of whose batches executed on two cores: 0 unless
    /// every process is [`Process::isolated`] and the machine has a second
    /// core.
    pub fn parallel_ticks(&self) -> u64 {
        self.parallel_ticks
    }

    /// Immutable access to a process, for end-of-run inspection. Between two
    /// polls that split a batch, the process as of the batch's end.
    pub fn proc(&self, id: ProcId) -> &P {
        &self.procs[id.index()]
            .as_deref()
            .expect("process is resident between events")
            .proc
    }

    /// Mutable access to a process (e.g. to install checkers between phases).
    pub fn proc_mut(&mut self, id: ProcId) -> &mut P {
        self.commit_pending();
        // The caller may move counters outside any action, and change what
        // the process says about shared state.
        self.parallel = None;
        let host = self.procs[id.index()]
            .as_deref_mut()
            .expect("process is resident between events");
        host.track.invalidate();
        &mut host.proc
    }

    /// Iterate over all processes (as [`Simulation::proc`] sees them).
    pub fn procs(&self) -> impl Iterator<Item = (ProcId, &P)> {
        self.procs.iter().enumerate().map(|(i, p)| {
            let host = p.as_deref().expect("process is resident between events");
            (ProcId(i as u32), &host.proc)
        })
    }

    /// Inject a message from [`ProcId::EXTERNAL`], delivered at the current
    /// time plus one local tick.
    pub fn inject(&mut self, to: ProcId, msg: P::Msg) {
        self.inject_at(self.now + 1, to, msg);
    }

    /// Inject a message from [`ProcId::EXTERNAL`] for delivery at `at`
    /// (clamped to be FIFO with earlier injections to the same processor).
    /// Goes ahead of a batch's pending commits.
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
    /// may keep stepping.
    fn limit_exceeded(&self) -> Option<QuiesceError> {
        let delivered = self.delivered;
        (delivered >= self.max_events).then_some(QuiesceError::EventLimit { delivered })
    }

    /// Install a schedule controller; subsequent steps fire the enabled
    /// event it picks instead of the earliest-time event (see
    /// [`crate::schedule`]).
    pub fn set_scheduler(&mut self, scheduler: Box<dyn Scheduler>) {
        self.commit_pending();
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
    pub fn fingerprint(&mut self) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        self.commit_pending();
        if self.faults.drop_prob > 0.0
            || self.faults.dup_prob > 0.0
            || !self.faults.partitions.is_empty()
        {
            return None;
        }
        let mut h = crate::FxHasher::default();
        for (_, p) in self.procs() {
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

    /// Deliver a single event — or, when a poll left a batch's commits
    /// pending, commit those instead. Returns `false` if the queue was
    /// empty.
    ///
    /// Under a schedule controller the step is: compute the enabled set,
    /// let the scheduler pick, fire the pick immediately (clamped to
    /// `max(at, now)` so time stays monotone — the latency model's opinion
    /// of *when* stops mattering, only the choice order does), then report
    /// back via [`Scheduler::fired`] with the range of event sequence
    /// numbers the firing created.
    pub fn step(&mut self) -> bool {
        if self.pending() {
            self.commit(false);
            return true;
        }
        if self.scheduler.is_none() {
            let Some(event) = self.queue.pop() else {
                return false;
            };
            self.deliver(event);
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
        self.deliver(event);
        let after = self.queue.seq_watermark();
        if let Some(s) = self.scheduler.as_mut() {
            s.fired(&chosen, before..after);
        }
        true
    }

    /// One unit of progress: commit what is pending (stopping after an
    /// output if `until_output`), else execute and commit the next batch
    /// when [`Simulation::plan`] puts it on two lanes, else deliver one
    /// event. `false` if nothing is left to do.
    fn advance(&mut self, until_output: bool) -> bool {
        if self.pending() {
            self.commit(until_output);
            return true;
        }
        if self.scheduler.is_none() && self.parallel() && self.plan() {
            self.gather(self.max_events - self.delivered);
            if self.last_parallel != Some(self.now) {
                self.last_parallel = Some(self.now);
                self.parallel_ticks += 1;
            }
            self.pool.execute(&mut self.procs, &self.on_helper);
            self.commit(until_output);
            return true;
        }
        self.step()
    }

    /// May a tick run on two lanes (re-asking every process after
    /// [`Simulation::proc_mut`])?
    fn parallel(&mut self) -> bool {
        *self.parallel.get_or_insert_with(|| {
            let isolated = self.procs.iter().all(|h| {
                let host = h.as_deref().expect("process is resident between events");
                host.proc.isolated()
            });
            // Asked second: the first ask reads the machine's limits.
            isolated && cores() > 1
        })
    }

    fn pending(&self) -> bool {
        self.next < self.batch.len()
    }

    fn commit_pending(&mut self) {
        if self.pending() {
            self.commit(false);
        }
    }

    /// Should the next batch — the earliest tick's first [`MAX_BATCH`]
    /// events, up to a crash or restart — run on two lanes, and which
    /// processor on which? Decided from the queued events before any is
    /// popped: grouped by target processor, the groups balanced across the
    /// lanes by event count, each processor kept on the lane it last ran
    /// on unless the lanes differ by more than [`MIN_LANE`] events. Two
    /// lanes only if the tick and the last one planned before it are
    /// [`SPREAD`] over the processors and each lane gets `MIN_LANE`
    /// events; otherwise the rest of the tick is delivered one event at a
    /// time.
    fn plan(&mut self) -> bool {
        let Some(at) = self.queue.next_at() else {
            return false;
        };
        if self.serial_at == Some(at) {
            return false;
        }
        let front = match self.queue.front_tick() {
            Some(front) if front.len() >= 2 * MIN_LANE + HEAD_START => front,
            _ => {
                self.serial_at = Some(at);
                return false;
            }
        };
        self.touched.clear();
        for event in front.take(MAX_BATCH) {
            match event.kind {
                EventKind::Crash | EventKind::Restart => break,
                EventKind::Tombstone { .. } => continue,
                EventKind::Deliver { .. } | EventKind::Timer { .. } => {}
            }
            let load = &mut self.load[event.to.index()];
            if *load == 0 {
                self.touched.push(event.to);
            }
            *load += 1;
        }
        let spread = self.touched.len() * SPREAD.1 >= self.procs.len() * SPREAD.0;
        let spread_before = std::mem::replace(&mut self.spread_before, spread);
        if !(spread && spread_before) {
            for &p in &self.touched {
                self.load[p.index()] = 0;
            }
            self.serial_at = Some(at);
            return false;
        }
        // Lane 1 is the helper's: it starts `HEAD_START` events behind.
        let mut sum = [0, HEAD_START];
        for &p in &self.touched {
            sum[self.lane_of[p.index()] as usize] += self.load[p.index()] as usize;
        }
        // While one lane outweighs the other by more than `MIN_LANE`
        // events, move the processor from it that best halves the gap.
        for _ in 0..self.touched.len() {
            let hi = usize::from(sum[1] > sum[0]);
            let gap = sum[hi] - sum[1 - hi];
            if gap <= MIN_LANE {
                break;
            }
            // Moving `c` events turns the gap into `|gap - 2c|`.
            let best = self
                .touched
                .iter()
                .filter(|p| self.lane_of[p.index()] as usize == hi)
                .map(|p| (p, self.load[p.index()] as usize))
                .filter(|&(_, c)| c < gap)
                .min_by_key(|&(p, c)| ((gap - c).abs_diff(c), p.0));
            let Some((&p, c)) = best else {
                break;
            };
            self.lane_of[p.index()] = (1 - hi) as u32;
            sum[hi] -= c;
            sum[1 - hi] += c;
        }
        self.on_helper.clear();
        for &p in &self.touched {
            self.load[p.index()] = 0;
            if self.lane_of[p.index()] == 1 {
                self.on_helper.push(p);
            }
        }
        if sum[0] < MIN_LANE || sum[1] < MIN_LANE + HEAD_START {
            self.serial_at = Some(at);
            return false;
        }
        true
    }

    /// Take the batch [`Simulation::plan`] planned off the queue, each
    /// event sorted by [`Simulation::admit`] and each action pushed to its
    /// processor's lane. It ends early at a crash or restart, and once
    /// `budget` deliveries are in it.
    fn gather(&mut self, budget: u64) {
        let at = self.queue.next_at().expect("the plan saw a tick");
        self.batch.clear();
        self.next = 0;
        self.pool.begin(at, self.procs.len());
        let mut counted = 0;
        for _ in 0..MAX_BATCH {
            if counted >= budget || self.queue.next_at() != Some(at) {
                break;
            }
            let event = self.queue.pop().expect("the front is pending");
            match self.admit(event) {
                Admitted::Action {
                    to,
                    span,
                    svc,
                    call,
                    record,
                } => {
                    let lane = self.lane_of[to.index()];
                    let work = self.pool.work(lane);
                    let idx = work.acts.len() as u32;
                    work.acts
                        .push(Act::new(to, span, svc, call, record.is_some()));
                    self.records.extend(record);
                    self.batch.push(Entry::Action { lane, idx });
                    counted += 1;
                }
                Admitted::Other(entry) => {
                    self.batch.push(entry);
                    if matches!(entry, Entry::Crash(_) | Entry::Restart(_)) {
                        break;
                    }
                }
                Admitted::Requeued => {}
            }
        }
    }

    /// Sort one popped event: fault drops, the service-time model, and the
    /// action it runs. Everything that decides *whether* a handler runs is
    /// decided here, in sequence order and before any handler of its batch
    /// runs; nothing a handler does can change it, because a crash or
    /// restart ends the batch. Inlined, as [`Simulation::run_now`] is: out
    /// of line, the action it returns (a message and its trace record, a
    /// few hundred bytes) is copied through memory on every event.
    #[inline(always)]
    fn admit(&mut self, event: Event<P::Msg>) -> Admitted<P::Msg> {
        debug_assert!(event.at >= self.now, "time runs forward");
        let to = event.to;
        self.now = event.at;
        let is_control = matches!(event.kind, EventKind::Crash | EventKind::Restart);
        let down = self.faults_active && !is_control && self.down[to.index()];
        // A delivery or timer that never runs. Either a tombstone —
        // invalidated *eagerly* at its target's crash (see
        // [`EventQueue::cancel_for`]): the payload is gone, but the victim
        // still fires at its original time as a drop, exactly as the older
        // lazy epoch-check-at-pop produced — or a message sent to a
        // processor *after* its crash: it carries the current epoch (so it
        // was not tombstoned) and is lost only if it arrives while the
        // target is still down.
        let lost = |is_timer, from, kind, redelivery, span| {
            Admitted::Other(Entry::Lost(Lost {
                to,
                from,
                is_timer,
                kind,
                redelivery,
                span,
                wait: event.wait,
            }))
        };
        match &event.kind {
            EventKind::Tombstone {
                from,
                kind,
                redelivery,
                span,
                is_timer,
            } => return lost(*is_timer, *from, *kind, *redelivery, *span),
            EventKind::Deliver { from, msg, span } if down => {
                return lost(false, *from, msg.kind(), msg.redelivery(), *span)
            }
            EventKind::Timer { .. } if down => return lost(true, to, "timer", false, None),
            _ => {}
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
                let mut event = event;
                event.wait += busy.ticks() - event.at.ticks();
                self.queue.requeue(busy, event);
                return Admitted::Requeued;
            }
            self.proc_busy[to.index()] = event.at + svc;
        }
        // An action's trace record is opened here — the handler consumes
        // the payload — and recorded once it has run.
        let (now, wait, tracing) = (self.now, event.wait, self.recorder.tracing());
        match event.kind {
            EventKind::Deliver { from, msg, span } => Admitted::Action {
                to,
                span,
                svc,
                record: tracing.then(|| Record::delivery(now, from, to, span, &msg, wait)),
                call: Call::Deliver { from, msg },
            },
            EventKind::Timer { token } => Admitted::Action {
                to,
                span: None,
                svc,
                record: tracing.then(|| Record::timer(now, to, token, wait)),
                call: Call::Timer(token),
            },
            EventKind::Crash => Admitted::Other(Entry::Crash(to)),
            EventKind::Restart => Admitted::Other(Entry::Restart(to)),
            EventKind::Tombstone { .. } => unreachable!("handled above"),
        }
    }

    /// Deliver one popped event on the calling thread: its handler's
    /// effects are applied as soon as it returns.
    fn deliver(&mut self, event: Event<P::Msg>) {
        match self.admit(event) {
            Admitted::Action {
                to,
                span,
                svc,
                call,
                record,
            } => {
                self.delivered += 1;
                self.run_now(to, span, svc, call, record);
            }
            Admitted::Other(entry) => self.commit_other(entry),
            Admitted::Requeued => {}
        }
    }

    /// Execute one action and commit it at once, on the calling thread:
    /// run its handler, hand the recorder its opened trace `record` (with
    /// the action's counter deltas) and the time-series sample if one is
    /// due, then apply the buffered effects — so the action's entry lands
    /// in the trace *before* the entries its sends generate, keeping the
    /// trace causally ordered. Effects depart at `now + svc` (the action's
    /// completion under the service-time model): a hop's service delays
    /// everything downstream of it, which is what lets the profiler
    /// decompose op latency exactly.
    #[inline(always)]
    fn run_now(
        &mut self,
        to: ProcId,
        span: Option<u64>,
        svc: u64,
        call: Call<P::Msg>,
        record: Option<Record<P::Msg>>,
    ) {
        let host = self.procs[to.index()]
            .as_deref_mut()
            .expect("process is resident between events");
        debug_assert!(self.effects.is_empty());
        let mut effects = std::mem::take(&mut self.effects);
        let traced = record.is_some();
        let (observed, sample) = host.run(to, self.now, span, call, traced, &mut effects);
        if observed {
            let depth = self.queue.len() as u64;
            record_action(
                &mut self.recorder,
                depth,
                record,
                &host.track.deltas,
                sample,
            );
        }
        let depart = self.now + svc;
        for effect in effects.drain(..) {
            self.apply_effect(to, span, depart, effect);
        }
        self.effects = effects;
    }

    /// Commit the batch's pending entries in sequence order; with
    /// `until_output`, stop after the first one that emits an output
    /// ([`Runtime::poll`]'s contract), leaving the rest pending.
    fn commit(&mut self, until_output: bool) {
        while self.next < self.batch.len() {
            let entry = self.batch[self.next];
            self.next += 1;
            match entry {
                Entry::Action { lane, idx } => {
                    self.delivered += 1;
                    self.commit_action(lane, idx as usize);
                }
                other => self.commit_other(other),
            }
            if until_output && !self.outputs.is_empty() {
                return;
            }
        }
    }

    /// Commit an executed action as [`Simulation::run_now`] commits one:
    /// its trace record and sample, then its effects, read off its lane.
    fn commit_action(&mut self, lane: u32, idx: usize) {
        // The queue as one event at a time sees it at this action: the
        // batch's later events are still in it.
        let depth = (self.queue.len() + self.batch.len() - self.next) as u64;
        let work = self.pool.work(lane);
        let (effects, deltas) = work.starts(idx);
        let act = &work.acts[idx];
        let (to, span, depart) = (act.to, act.span, self.now + act.svc);
        let effects = effects..act.effects as usize;
        let deltas = deltas..act.deltas as usize;
        let record = if act.traced {
            self.records.pop_front()
        } else {
            None
        };
        let sample = work.take_sample(idx);
        if record.is_some() || sample.is_some() {
            record_action(
                &mut self.recorder,
                depth,
                record,
                &work.deltas[deltas],
                sample,
            );
        }
        for i in effects {
            // Moved out in place; the lane's buffer is cleared by the next
            // batch.
            let spent = Effect::Timer { delay: 0, token: 0 };
            let effect = std::mem::replace(&mut self.pool.work(lane).effects[i], spent);
            self.apply_effect(to, span, depart, effect);
        }
    }

    /// Commit an entry that runs no handler of the batch: a drop, a crash,
    /// or a restart (whose handler runs here, as the batch's last entry).
    fn commit_other(&mut self, entry: Entry) {
        match entry {
            Entry::Action { .. } => unreachable!("actions commit from their lane"),
            Entry::Lost(lost) => {
                if lost.is_timer {
                    self.stats.faults_mut().timer_dropped += 1;
                } else {
                    self.stats.faults_mut().crash_dropped += 1;
                    let Lost {
                        to,
                        from,
                        kind,
                        redelivery,
                        span,
                        wait,
                        ..
                    } = lost;
                    let (now, drop) = (self.now, TraceEvent::Drop);
                    self.recorder
                        .fault(now, from, to, drop, "crash", kind, span, redelivery, wait);
                }
            }
            Entry::Crash(to) => {
                self.delivered += 1;
                self.down[to.index()] = true;
                self.crash_epoch[to.index()] += 1;
                // Eager crash invalidation: everything in flight to the
                // dead incarnation becomes a tombstone now (payloads freed
                // at the crash, drops still fire at the original times).
                self.queue.cancel_for(to);
                self.stats.faults_mut().crashes += 1;
                self.recorder.crash(self.now, to);
            }
            Entry::Restart(to) => {
                self.delivered += 1;
                self.down[to.index()] = false;
                // The new incarnation's node manager starts idle.
                self.proc_busy[to.index()] = self.now;
                self.stats.faults_mut().restarts += 1;
                let record = self
                    .recorder
                    .tracing()
                    .then(|| Record::restart(self.now, to));
                self.run_now(to, None, 0, Call::Restart, record);
            }
        }
    }

    /// Run until quiescence or a limit is hit.
    pub fn run(&mut self) -> RunOutcome {
        loop {
            if self.limit_exceeded().is_some() {
                return RunOutcome::EventLimit;
            }
            if !self.advance(false) {
                return RunOutcome::Quiescent;
            }
        }
    }

    /// Time of the earliest pending event, if any (the current time while a
    /// batch's commits are pending).
    pub fn next_event_at(&self) -> Option<SimTime> {
        if self.pending() {
            return Some(self.now);
        }
        self.queue.next_at()
    }

    /// Move the clock forward to `t` without delivering anything — but never
    /// past a pending event (time must not skip over scheduled work; a
    /// batch's pending commits hold it where it is). Used by
    /// deadline-bounded polling to pace open-loop arrivals.
    pub fn advance_to(&mut self, t: SimTime) {
        let bound = self.next_event_at().map_or(t, |at| at.min(t));
        if bound > self.now {
            self.now = bound;
        }
    }

    /// Tear the simulation down and return the final process states.
    pub fn into_procs(mut self) -> Vec<P> {
        self.commit_pending();
        self.procs
            .into_iter()
            .map(|h| h.expect("process is resident between events").proc)
            .collect()
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

/// Hand the recorder an action's trace record (with its counter deltas) and
/// its time-series sample, which carries the runtime-level gauge `depth`:
/// pending events across the whole cluster (simulator only — the threaded
/// runtime has no global queue).
fn record_action<M: Payload>(
    recorder: &mut Recorder<M>,
    depth: u64,
    record: Option<Record<M>>,
    deltas: &[(&'static str, u64)],
    mut sample: Option<ProcSample>,
) {
    if let Some(sample) = &mut sample {
        sample.gauges.push(("rt.event_queue_depth", depth));
    }
    recorder.action(record, deltas, sample);
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
                        self.advance(true);
                    }
                    _ => {
                        self.advance_to(d);
                        return Poll::Deadline;
                    }
                },
                None => {
                    if !self.advance(true) {
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
            if !self.advance(false) {
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
    use crate::Context;

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
        assert_eq!(sim.service, [2, 50], "service time after overrides");
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

    /// Counts pings, forwards each while it has hops left (else answers
    /// out), and — as `boom` asks — panics when run on a helper thread.
    struct Tally {
        n: u32,
        seen: u64,
        isolated: bool,
        boom: bool,
    }

    impl Process for Tally {
        type Msg = Msg;
        fn isolated(&self) -> bool {
            self.isolated
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: ProcId, msg: Msg) {
            let on_helper = thread::current()
                .name()
                .is_some_and(|n| n.starts_with("simnet-helper"));
            assert!(!(self.boom && on_helper), "boom on a helper");
            self.seen += 1;
            match msg {
                Msg::Ping(0) => ctx.send(ProcId::EXTERNAL, Msg::Pong(0)),
                Msg::Ping(h) => ctx.send(ProcId((ctx.me().0 + 1) % self.n), Msg::Ping(h - 1)),
                Msg::Pong(_) => {}
            }
        }
    }

    /// 8 processors, 256 tokens of `hops` hops injected into one tick: with
    /// the default constant latency every tick holds 256 events.
    fn tallies(cfg: SimConfig, isolated: bool, boom: bool, hops: u32) -> Simulation<Tally> {
        let procs = (0..8)
            .map(|_| Tally {
                n: 8,
                seen: 0,
                isolated,
                boom,
            })
            .collect();
        let mut sim = Simulation::new(cfg, procs);
        for i in 0..256 {
            sim.inject_at(SimTime(5), ProcId(i % 8), Msg::Ping(hops));
        }
        sim
    }

    fn seen(sim: &Simulation<Tally>) -> Vec<u64> {
        sim.procs().map(|(_, p)| p.seen).collect()
    }

    #[test]
    fn isolated_processes_run_a_tick_on_every_core() {
        let mut sim = tallies(SimConfig::seeded(1), true, false, 6);
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(sim.parallel_ticks() > 0, cores() > 1);
        let mut serial = tallies(SimConfig::seeded(1), false, false, 6);
        serial.run();
        assert_eq!(serial.parallel_ticks(), 0, "shared state stays on one core");
        assert_eq!(seen(&sim), seen(&serial));
        let outputs = |s: &Simulation<Tally>| format!("{:?}", s.outputs());
        assert_eq!(outputs(&sim), outputs(&serial));
        assert_eq!(sim.stats().to_string(), serial.stats().to_string());
    }

    #[test]
    fn a_tick_held_by_one_processor_stays_on_one_core() {
        // Every token starts on processor 0 and moves on together, so each
        // tick's 256 events target one processor: nothing to split.
        let procs = (0..8)
            .map(|_| Tally {
                n: 8,
                seen: 0,
                isolated: true,
                boom: false,
            })
            .collect();
        let mut sim = Simulation::new(SimConfig::seeded(1), procs);
        for _ in 0..256 {
            sim.inject_at(SimTime(5), ProcId(0), Msg::Ping(6));
        }
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(sim.parallel_ticks(), 0);
        assert_eq!(seen(&sim), vec![256, 256, 256, 256, 256, 256, 256, 0]);
    }

    #[test]
    fn a_handler_panicking_on_a_helper_panics_the_caller() {
        let run = std::panic::catch_unwind(|| {
            tallies(SimConfig::seeded(1), true, true, 6).run();
        });
        if cores() == 1 {
            assert!(run.is_ok(), "no helper, no panic");
            return;
        }
        // The helpers were joined as the simulation unwound: no hang.
        let payload = run.expect_err("the helper's panic reached this thread");
        let text = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned());
        assert_eq!(text.as_deref(), Some("boom on a helper"));
    }

    #[test]
    fn event_limit_inside_a_tick_stops_where_one_core_stops() {
        // 256 events a tick: the limit falls inside the fourth.
        for isolated in [true, false] {
            let mut cfg = SimConfig::seeded(1);
            cfg.max_events = 1000;
            let mut sim = tallies(cfg, isolated, false, 6);
            assert_eq!(sim.run(), RunOutcome::EventLimit);
            assert_eq!(sim.events_delivered(), 1000, "isolated={isolated}");
            assert_eq!(seen(&sim).iter().sum::<u64>(), 1000, "isolated={isolated}");
            // The remainder of the tick is still queued, undelivered.
            assert_eq!(sim.next_event_at(), Some(sim.now()));
        }
    }

    #[test]
    fn proc_between_polls_that_split_a_tick_sees_the_batch_end() {
        for isolated in [true, false] {
            // One hop: the first tick forwards every token (a tick never
            // runs on two lanes unless the one before it could have), the
            // second answers them all out.
            let mut sim = tallies(SimConfig::seeded(1), isolated, false, 1);
            assert_eq!(Runtime::poll(&mut sim, None), Poll::Outputs);
            // The poll returned at the second tick's first output: one of
            // its actions committed, the rest of the batch pending.
            assert_eq!((sim.events_delivered(), sim.outputs().len()), (257, 1));
            let batch_end = if isolated && cores() > 1 { 256 } else { 1 };
            assert_eq!(seen(&sim).iter().sum::<u64>(), 256 + batch_end);
            let mut outputs = sim.drain_outputs().len();
            while Runtime::poll(&mut sim, None) == Poll::Outputs {
                outputs += sim.drain_outputs().len();
            }
            assert_eq!((outputs, sim.events_delivered()), (256, 512));
        }
    }
}

//! A threaded runtime for the same [`Process`] trait.
//!
//! Each process runs on its own OS thread with an inbox (`inbox.rs`: batch
//! drain, bounded spin, wake only a parked receiver — DESIGN.md, "The
//! threaded runtime's inbox") as its message queue, the paper's queue
//! manager. Inboxes are reliable and FIFO, matching the §4 network model;
//! cross-channel interleaving comes from real scheduler nondeterminism
//! instead of a latency model.
//!
//! The cluster implements [`Runtime`], so the generic workload driver
//! (`simnet::driver`) and every facade built on it run here unchanged.
//! Each worker also keeps its own armed timers, in a min-heap whose earliest
//! deadline bounds its wait on the inbox; a crash empties the heap, as
//! [`Process::on_restart`] requires. Quiescence — which the simulator proves
//! by an empty event heap — is established with a probe barrier: the
//! cluster counts actions globally, flushes every queue with probe
//! envelopes, and declares the network silent when a full probe round
//! completes with the action count unchanged and every echo reporting no
//! armed timer. [`Cluster::shutdown`] joins the threads and hands back the
//! final process states for end-of-run inspection.
//!
//! Tests and experiments that need determinism should prefer the
//! [`Simulation`](crate::Simulation); this runtime is for wall-clock
//! parallelism and for validating that protocol correctness survives real
//! scheduler interleavings.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use crate::context::Effect;
use crate::inbox::Inbox;
pub use crate::inbox::InboxStats;
use crate::obs::{CounterTrack, Recorder};
use crate::runtime::{Poll, QuiesceError, Runtime};
use crate::trace::{Record, TraceEvent};
use crate::{Context, Obs, ObsConfig, Payload, ProcId, Process, SimTime};

enum Envelope<M> {
    Msg {
        from: ProcId,
        msg: M,
        /// Causal span, resolved at send time exactly as the simulator does:
        /// the payload's own span, else the sending action's.
        span: Option<u64>,
        /// When the message was queued (traced runs only — an untraced run
        /// reads no clock for it): the delivery's `wait` is measured from
        /// here.
        queued: Option<SimTime>,
    },
    /// Quiescence probe: echoed straight back on the output channel, with
    /// the worker's armed-timer count, without touching the process or the
    /// action counter.
    Probe {
        token: u64,
    },
    /// Fault injection: the worker cancels its armed timers and enters
    /// crash mode — messages are dropped (the volatile queue of the dead
    /// incarnation) until a `Restart` arrives. Probes are still echoed so
    /// settle stays live.
    Crash,
    /// Fault injection: leave crash mode and run `Process::on_restart`.
    Restart,
    Shutdown,
}

/// Every worker records into the same [`Recorder`] under one mutex, so the
/// lock-acquisition order *is* the global `seq` order — the trace is a
/// linearization of what actually interleaved. `None` when observability is
/// off.
type SharedObs<M> = Option<Arc<Mutex<Recorder<M>>>>;

/// The shared recorder, locked.
fn lock<M>(obs: &SharedObs<M>) -> Option<MutexGuard<'_, Recorder<M>>> {
    obs.as_ref().map(|o| o.lock().expect("obs lock"))
}

/// What worker threads emit on the shared output channel.
enum Output<M> {
    /// A message a process sent to [`ProcId::EXTERNAL`], stamped with the
    /// emitting processor's clock.
    At(SimTime, ProcId, M),
    /// A probe echo (see [`Envelope::Probe`]) and how many timers the
    /// echoing worker had armed.
    Probe { token: u64, armed: usize },
}

/// Every worker's queue, in `ProcId` order: what a worker and the cluster
/// handle each hold to reach any processor.
type Peers<M> = Arc<[Inbox<Envelope<M>>]>;

/// How long a deadline-free [`Runtime::poll`] waits before reporting
/// [`Poll::Idle`].
const IDLE_GRACE: Duration = Duration::from_millis(50);

/// How long [`Runtime::settle`] waits for one probe echo before giving up.
const PROBE_TIMEOUT: Duration = Duration::from_secs(10);

/// Probe-round backstop: with one-shot timers and finite workloads the
/// action count must stabilize long before this.
const MAX_SETTLE_ROUNDS: u64 = 1_000_000;

/// The cluster clock: microseconds since `epoch` (the spawn instant).
fn micros_since(epoch: Instant) -> SimTime {
    SimTime(epoch.elapsed().as_micros() as u64)
}

/// A running cluster of processes on OS threads.
///
/// Inject messages with [`Cluster::inject`], drive workloads through the
/// [`Runtime`] interface (or [`Cluster::recv_output`] by hand), then call
/// [`Cluster::shutdown`] to join the threads and recover the final process
/// states.
pub struct Cluster<P: Process> {
    peers: Peers<P::Msg>,
    outputs: Arc<Inbox<Output<P::Msg>>>,
    /// The batch last taken from `outputs`; empty between calls (its
    /// allocation trades places with the inbox's).
    out_batch: VecDeque<Output<P::Msg>>,
    /// Outputs received but not yet handed out, oldest first: `recv_output*`
    /// pops the front, `drain_outputs` takes the lot.
    out_buf: VecDeque<(SimTime, ProcId, P::Msg)>,
    handles: Vec<thread::JoinHandle<P>>,
    /// Shared time origin: all workers and [`Cluster::now`] measure
    /// microseconds from this instant, so timestamps are comparable.
    epoch: Instant,
    /// Total actions (message + timer deliveries) processed cluster-wide.
    actions: Arc<AtomicU64>,
    next_probe: u64,
    /// Shared trace + series, `None` when observability is off (the workers
    /// then skip every recording branch — zero overhead).
    obs: SharedObs<P::Msg>,
    /// `obs` holds a trace, so injected messages carry their queueing time.
    tracing: bool,
}

impl<P: Process> Cluster<P> {
    /// Spawn one thread per process, with observability off.
    pub fn spawn(procs: Vec<P>) -> Self {
        Self::spawn_with(procs, ObsConfig::default())
    }

    /// Spawn one thread per process, recording a causal trace and metrics
    /// time series per `obs_cfg` — the same schema the simulator emits, so
    /// runs on the two substrates are directly comparable.
    pub fn spawn_with(procs: Vec<P>, obs_cfg: ObsConfig) -> Self {
        let n = procs.len();
        let epoch = Instant::now();
        let tracing = obs_cfg.trace_capacity > 0;
        let obs: SharedObs<P::Msg> = (tracing || obs_cfg.sample_interval > 0).then(|| {
            let recorder = Recorder::new(obs_cfg.trace_capacity, obs_cfg.health, n);
            Arc::new(Mutex::new(recorder))
        });
        let outputs = Arc::new(Inbox::new());
        let peers: Peers<P::Msg> = (0..n).map(|_| Inbox::new()).collect();
        let actions = Arc::new(AtomicU64::new(0));

        let mut handles = Vec::with_capacity(n);
        for (i, proc) in procs.into_iter().enumerate() {
            let worker = Worker {
                me: ProcId(i as u32),
                proc,
                effects: Vec::new(),
                epoch,
                peers: Arc::clone(&peers),
                out: Arc::clone(&outputs),
                actions: Arc::clone(&actions),
                timers: BinaryHeap::new(),
                next_timer: 0,
                obs: obs.clone(),
                tracing,
                counters: CounterTrack::new(obs_cfg.sample_interval),
            };
            let handle = thread::Builder::new()
                .name(format!("simnet-p{i}"))
                .spawn(move || worker.run())
                .expect("spawn simnet thread");
            handles.push(handle);
        }

        Cluster {
            peers,
            outputs,
            out_batch: VecDeque::new(),
            out_buf: VecDeque::new(),
            handles,
            epoch,
            actions,
            next_probe: 0,
            obs,
            tracing,
        }
    }

    /// Number of processes in the cluster.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True if the cluster has no processes.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Microseconds since the cluster was spawned — the same clock the
    /// worker threads stamp their contexts and outputs with.
    pub fn now(&self) -> SimTime {
        micros_since(self.epoch)
    }

    /// Send `msg` to `to` from the external endpoint.
    pub fn inject(&self, to: ProcId, msg: P::Msg) {
        let span = msg.span();
        self.peers[to.index()].send(Envelope::Msg {
            from: ProcId::EXTERNAL,
            msg,
            span,
            queued: self.tracing.then(|| self.now()),
        });
    }

    /// Crash processor `p` once the command reaches its queue, until
    /// [`Cluster::restart`]: what the crash destroys is
    /// [`Process::on_restart`]'s contract. Mirrors the simulator's
    /// [`crate::CrashEvent`].
    pub fn crash(&self, p: ProcId) {
        self.peers[p.index()].send(Envelope::Crash);
    }

    /// Restart a crashed processor: the worker leaves crash mode and runs
    /// [`Process::on_restart`]. A restart for a processor that is not down
    /// is ignored.
    pub fn restart(&self, p: ProcId) {
        self.peers[p.index()].send(Envelope::Restart);
    }

    /// Take the observability data recorded so far (empty when the cluster
    /// was spawned without an [`ObsConfig`]), leaving fresh buffers.
    pub fn take_obs(&mut self) -> Obs {
        lock(&self.obs).map_or_else(Obs::default, |mut rec| rec.take())
    }

    /// How often the cluster's queues — every worker's inbox and the shared
    /// output queue — were sent to, woke a parked receiver, parked, and were
    /// drained, since spawn.
    pub fn inbox_stats(&self) -> InboxStats {
        let mut total = self.outputs.stats();
        for inbox in self.peers.iter() {
            total += inbox.stats();
        }
        total
    }

    /// Move the batch just taken from the output queue into the buffer;
    /// returns how many echoes of probe `token` it held and the timers they
    /// reported armed (echoes of an abandoned settle's probes are dropped).
    fn sift(&mut self, token: Option<u64>) -> (usize, usize) {
        let (mut echoes, mut armed) = (0, 0);
        for out in self.out_batch.drain(..) {
            match out {
                Output::At(at, from, msg) => self.out_buf.push_back((at, from, msg)),
                Output::Probe { token: t, armed: a } if Some(t) == token => {
                    echoes += 1;
                    armed += a;
                }
                Output::Probe { .. } => {}
            }
        }
        (echoes, armed)
    }

    /// Wait up to `timeout` for an output to reach the buffer; `false` on
    /// timeout.
    fn pump_one(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.out_buf.is_empty() {
            if !self.outputs.drain(&mut self.out_batch, Some(deadline)) {
                return false;
            }
            self.sift(None);
        }
        true
    }

    /// Move everything already sitting in the output queue into the buffer
    /// without blocking.
    fn pump_ready(&mut self) {
        if self.outputs.try_drain(&mut self.out_batch) {
            self.sift(None);
        }
    }

    /// Blocking-receive the next message addressed to `ProcId::EXTERNAL`
    /// (bounded by an hour, which is "forever" for a test program).
    pub fn recv_output(&mut self) -> Option<(ProcId, P::Msg)> {
        self.recv_output_timeout(Duration::from_secs(3600))
    }

    /// Receive with a timeout; `None` on timeout or disconnection.
    pub fn recv_output_timeout(&mut self, timeout: Duration) -> Option<(ProcId, P::Msg)> {
        if !self.pump_one(timeout) {
            return None;
        }
        let (_, from, msg) = self.out_buf.pop_front()?;
        Some((from, msg))
    }

    /// Run one probe barrier: send a probe to every worker and wait for all
    /// echoes, buffering any real outputs that arrive in between. Returns
    /// the timers the workers reported armed, or `None` if a worker failed
    /// to echo within [`PROBE_TIMEOUT`].
    fn probe_barrier(&mut self) -> Option<usize> {
        let token = self.next_probe;
        self.next_probe += 1;
        for inbox in self.peers.iter() {
            inbox.send(Envelope::Probe { token });
        }
        let (mut echoes, mut armed) = (0, 0);
        let deadline = Instant::now() + PROBE_TIMEOUT;
        while echoes < self.peers.len() {
            if !self.outputs.drain(&mut self.out_batch, Some(deadline)) {
                return None;
            }
            let (e, a) = self.sift(Some(token));
            echoes += e;
            armed += a;
        }
        Some(armed)
    }

    /// Stop all threads (after their queues drain to the shutdown marker),
    /// join them, and return the final process states in `ProcId` order.
    pub fn shutdown(self) -> Vec<P> {
        for inbox in self.peers.iter() {
            inbox.send(Envelope::Shutdown);
        }
        self.handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    }
}

impl<P: Process> Runtime for Cluster<P> {
    type Proc = P;

    fn num_procs(&self) -> usize {
        self.len()
    }

    fn now(&self) -> SimTime {
        Cluster::now(self)
    }

    fn inject(&mut self, to: ProcId, msg: P::Msg) {
        Cluster::inject(self, to, msg);
    }

    fn poll(&mut self, deadline: Option<SimTime>) -> Poll {
        self.pump_ready();
        if !self.out_buf.is_empty() {
            return Poll::Outputs;
        }
        let wait = match deadline {
            Some(d) => {
                let now = Cluster::now(self);
                if d <= now {
                    return Poll::Deadline;
                }
                Duration::from_micros(d - now)
            }
            None => IDLE_GRACE,
        };
        if self.pump_one(wait) {
            Poll::Outputs
        } else if deadline.is_some() {
            Poll::Deadline
        } else {
            Poll::Idle
        }
    }

    /// Probe until the global action count stabilizes across a full probe
    /// round in which every worker echoed no armed timer. Sound because a
    /// worker enqueues all of an action's sends *before* counting it, and
    /// FIFO queues deliver those sends before a later probe: an unchanged
    /// count across a completed barrier means every queue was empty when
    /// probed (`inbox.rs` has the argument for queues drained a batch at a
    /// time), and a timer can only be armed by an action or fire as one.
    fn settle(&mut self) -> Result<(), QuiesceError> {
        for _ in 0..MAX_SETTLE_ROUNDS {
            let before = self.actions.load(Ordering::SeqCst);
            let Some(armed) = self.probe_barrier() else {
                return Err(QuiesceError::Stalled { pending: 0 });
            };
            if armed > 0 {
                // Pending work no queue shows: wait for it to come due.
                thread::sleep(Duration::from_micros(200));
            } else if self.actions.load(Ordering::SeqCst) == before {
                self.pump_ready();
                return Ok(());
            }
        }
        Err(QuiesceError::Stalled { pending: 0 })
    }

    fn drain_outputs(&mut self) -> Vec<(SimTime, ProcId, P::Msg)> {
        self.pump_ready();
        std::mem::take(&mut self.out_buf).into()
    }

    fn take_obs(&mut self) -> Obs {
        Cluster::take_obs(self)
    }

    fn into_procs(self) -> Vec<P> {
        self.shutdown()
    }
}

/// One process on its own thread: its queue manager's loop and everything
/// an action needs.
struct Worker<P: Process> {
    me: ProcId,
    proc: P,
    effects: Vec<Effect<P::Msg>>,
    epoch: Instant,
    peers: Peers<P::Msg>,
    out: Arc<Inbox<Output<P::Msg>>>,
    actions: Arc<AtomicU64>,
    /// Armed timers as `(deadline, seq, token)`, earliest first; `seq`
    /// keeps same-deadline timers FIFO. The earliest deadline bounds the
    /// wait on the inbox.
    timers: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    next_timer: u64,
    obs: SharedObs<P::Msg>,
    /// `obs` holds a trace, so actions open entries.
    tracing: bool,
    /// What the recorder needs off this process — action deltas, samples,
    /// and when a sample is due. Read on this thread, never under the obs
    /// lock.
    counters: CounterTrack,
}

impl<P: Process> Worker<P> {
    fn now(&self) -> SimTime {
        micros_since(self.epoch)
    }

    /// Drain the inbox, a batch at a time, and fire the timers that came due
    /// after each batch, until shutdown; returns the final process state.
    fn run(mut self) -> P {
        let at = self.now();
        self.dispatch(at, None, |p, ctx| p.on_start(ctx));
        self.flush(at, None);

        // Crash mode: envelopes addressed to a crashed worker are the dead
        // incarnation's volatile queue — dropped without running the
        // process or bumping the action counter (dropping is not an action,
        // so settle stays sound).
        let mut down = false;
        let mut batch = VecDeque::new();
        'run: loop {
            let due = self.timers.peek().map(|&Reverse((deadline, ..))| deadline);
            self.peers[self.me.index()].drain(&mut batch, due);
            for env in batch.drain(..) {
                match env {
                    Envelope::Msg {
                        from,
                        msg,
                        span,
                        queued,
                    } => {
                        let at = self.now();
                        // Time spent queued, in the inbox and then in the
                        // batch behind the actions ahead of it.
                        let wait = queued.map_or(0, |q| at - q);
                        if down {
                            if let Some(mut rec) = lock(&self.obs) {
                                let (kind, redelivery) = (msg.kind(), msg.redelivery());
                                let (drop, to) = (TraceEvent::Drop, self.me);
                                rec.fault(
                                    at, from, to, drop, "crash", kind, span, redelivery, wait,
                                );
                            }
                            continue;
                        }
                        // Open the entry before the payload moves into the
                        // handler.
                        let pending = self
                            .tracing
                            .then(|| Record::delivery(at, from, self.me, span, &msg, wait));
                        self.act(at, span, pending, |p, ctx| p.on_message(ctx, from, msg));
                    }
                    Envelope::Probe { token } => {
                        let armed = self.timers.len();
                        self.out.send(Output::Probe { token, armed });
                    }
                    Envelope::Crash => {
                        down = true;
                        self.timers.clear();
                        if let Some(mut rec) = lock(&self.obs) {
                            rec.crash(self.now(), self.me);
                        }
                    }
                    Envelope::Restart => {
                        if !down {
                            continue;
                        }
                        down = false;
                        let at = self.now();
                        let pending = self.tracing.then(|| Record::restart(at, self.me));
                        self.act(at, None, pending, |p, ctx| p.on_restart(ctx));
                    }
                    Envelope::Shutdown => break 'run,
                }
            }
            self.fire_due();
        }
        self.proc
    }

    /// Fire, in deadline order, every timer due by now — a timer armed by
    /// one of them waits for the next round, behind what the inbox holds.
    /// With none armed, the clock is not read.
    fn fire_due(&mut self) {
        let mut now = None;
        while let Some(&Reverse((deadline, _, token))) = self.timers.peek() {
            if deadline > *now.get_or_insert_with(Instant::now) {
                break;
            }
            self.timers.pop();
            let at = self.now();
            let pending = self.tracing.then(|| Record::timer(at, self.me, token, 0));
            self.act(at, None, pending, |p, ctx| p.on_timer(ctx, token));
        }
    }

    /// Run one handler against the process with a fresh [`Context`].
    fn dispatch(
        &mut self,
        at: SimTime,
        span: Option<u64>,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>),
    ) {
        let mut ctx = Context {
            me: self.me,
            now: at,
            effects: &mut self.effects,
            span,
        };
        f(&mut self.proc, &mut ctx);
    }

    /// One atomic action: run the handler, record it (its opened trace
    /// record `pending`, a sample if due), send what it sent, count it. The
    /// process is read before the lock is taken — and only if the action is
    /// traced or sampled; one acquisition covers entry and sample, so entry
    /// `seq` and sample order agree.
    fn act(
        &mut self,
        at: SimTime,
        span: Option<u64>,
        pending: Option<Record<P::Msg>>,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>),
    ) {
        if pending.is_some() {
            self.counters.arm(&mut self.proc);
        }
        self.dispatch(at, span, f);
        let due = self.counters.due(at);
        if due || pending.is_some() {
            let traced = pending.is_some();
            let sample = self
                .counters
                .observe(&mut self.proc, self.me, at, traced, due);
            let mut rec = lock(&self.obs).expect("traced or sampled implies a recorder");
            rec.action(pending, &self.counters.deltas, sample);
        }
        self.flush(at, span);
        // Count the action only after its sends are enqueued: the probe
        // barrier relies on "counted implies visible".
        self.actions.fetch_add(1, Ordering::SeqCst);
    }

    /// Apply the effects the last handler buffered.
    fn flush(&mut self, at: SimTime, action_span: Option<u64>) {
        let (me, epoch, tracing) = (self.me, self.epoch, self.tracing);
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    // Same span-inheritance rule as the simulator: the
                    // payload's own span wins, else the sending action's.
                    let span = msg.span().or(action_span);
                    if to.is_external() {
                        if let Some(mut rec) = lock(&self.obs) {
                            rec.output(at, me, span, &msg);
                        }
                        self.out.send(Output::At(at, me, msg));
                    } else {
                        self.peers[to.index()].send(Envelope::Msg {
                            from: me,
                            msg,
                            span,
                            queued: tracing.then(|| micros_since(epoch)),
                        });
                    }
                }
                Effect::Timer { delay, token } => {
                    // One virtual tick = one microsecond, the granularity of
                    // the `now()` clock the worker reports to its process.
                    let deadline = Instant::now() + Duration::from_micros(delay);
                    self.timers
                        .push(Reverse((deadline, self.next_timer, token)));
                    self.next_timer += 1;
                }
                Effect::Mark {
                    event,
                    kind,
                    detail,
                } => {
                    if let Some(mut rec) = lock(&self.obs) {
                        rec.mark(at, me, event, kind, action_span, detail);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[derive(Clone, Debug)]
    struct Num(u64);
    impl Payload for Num {}

    struct Doubler;
    impl Process for Doubler {
        type Msg = Num;
        fn on_message(&mut self, ctx: &mut Context<'_, Num>, from: ProcId, msg: Num) {
            if from.is_external() {
                ctx.send(ProcId::EXTERNAL, Num(msg.0 * 2));
            }
        }
    }

    #[test]
    fn round_trip() {
        let mut cluster = Cluster::spawn(vec![Doubler, Doubler]);
        cluster.inject(ProcId(0), Num(21));
        cluster.inject(ProcId(1), Num(4));
        let mut got = vec![];
        for _ in 0..2 {
            let (_, Num(n)) = cluster
                .recv_output_timeout(Duration::from_secs(5))
                .expect("output");
            got.push(n);
        }
        got.sort_unstable();
        assert_eq!(got, vec![8, 42]);
        cluster.shutdown();
    }

    struct Forwarder {
        n: u32,
    }
    impl Process for Forwarder {
        type Msg = Num;
        fn on_message(&mut self, ctx: &mut Context<'_, Num>, _from: ProcId, msg: Num) {
            if msg.0 == 0 {
                ctx.send(ProcId::EXTERNAL, Num(ctx.me().0 as u64));
            } else {
                let next = ProcId((ctx.me().0 + 1) % self.n);
                ctx.send(next, Num(msg.0 - 1));
            }
        }
    }

    struct TimerReporter;
    impl Process for TimerReporter {
        type Msg = Num;
        fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
            // Deliberately armed out of deadline order (10ms before 200ms
            // on the wall clock would be flaky; 20x apart is not).
            ctx.set_timer(200_000, 2);
            ctx.set_timer(10_000, 1);
        }
        fn on_message(&mut self, _: &mut Context<'_, Num>, _: ProcId, _: Num) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Num>, token: u64) {
            ctx.send(ProcId::EXTERNAL, Num(token));
        }
    }

    #[test]
    fn timers_fire_on_threads() {
        // Regression: the threaded runtime used to silently drop
        // `Effect::Timer`, so timer-driven logic (piggyback flushing,
        // session retransmission) never ran under `Cluster`.
        let mut cluster = Cluster::spawn(vec![TimerReporter]);
        let mut got = vec![];
        for _ in 0..2 {
            let (_, Num(n)) = cluster
                .recv_output_timeout(Duration::from_secs(5))
                .expect("timer fired");
            got.push(n);
        }
        assert_eq!(got, vec![1, 2], "timers fire in deadline order");
        cluster.shutdown();
    }

    #[test]
    fn ring_of_threads() {
        let n = 4;
        let mut cluster = Cluster::spawn((0..n).map(|_| Forwarder { n }).collect());
        cluster.inject(ProcId(0), Num(9));
        let (who, _) = cluster
            .recv_output_timeout(Duration::from_secs(5))
            .expect("ring completes");
        // P0 consumes 9, P1 consumes 8, ...: value 0 is consumed by P1.
        assert_eq!(who, ProcId(1));
        cluster.shutdown();
    }

    #[test]
    fn shutdown_returns_final_states() {
        struct Counter {
            seen: u64,
        }
        impl Process for Counter {
            type Msg = Num;
            fn on_message(&mut self, _: &mut Context<'_, Num>, _: ProcId, msg: Num) {
                self.seen += msg.0;
            }
        }
        let mut cluster = Cluster::spawn(vec![Counter { seen: 0 }, Counter { seen: 0 }]);
        cluster.inject(ProcId(0), Num(5));
        cluster.inject(ProcId(0), Num(7));
        cluster.inject(ProcId(1), Num(1));
        cluster.settle().expect("settles");
        let procs = cluster.shutdown();
        assert_eq!(procs[0].seen, 12);
        assert_eq!(procs[1].seen, 1);
    }

    /// `tokens` chains, each: external -> P0 arms a timer; the timer forwards
    /// `depth` hops through the ring; settle must not report quiescence
    /// until every chain's final hop.
    fn settle_after_cascades(tokens: usize, depth: u64) {
        struct Delayed {
            n: u32,
        }
        impl Process for Delayed {
            type Msg = Num;
            fn on_message(&mut self, ctx: &mut Context<'_, Num>, from: ProcId, msg: Num) {
                if from.is_external() {
                    ctx.set_timer(5_000, msg.0);
                } else if msg.0 > 0 {
                    ctx.send(ProcId((ctx.me().0 + 1) % self.n), Num(msg.0 - 1));
                } else {
                    ctx.send(ProcId::EXTERNAL, Num(0));
                }
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, Num>, token: u64) {
                ctx.send(ProcId((ctx.me().0 + 1) % self.n), Num(token));
            }
        }
        let mut cluster = Cluster::spawn((0..3).map(|_| Delayed { n: 3 }).collect());
        for _ in 0..tokens {
            cluster.inject(ProcId(0), Num(depth));
        }
        cluster.settle().expect("settles");
        let outs = Runtime::drain_outputs(&mut cluster);
        assert_eq!(
            outs.len(),
            tokens,
            "every cascade finished before settle returned"
        );
        cluster.shutdown();
    }

    #[test]
    fn settle_waits_for_cascades_and_timers() {
        settle_after_cascades(1, 7);
    }

    #[test]
    fn settle_waits_for_deep_cascades_in_partly_processed_batches() {
        // Eight chains of 1 000 hops share three inboxes, so a probe lands
        // in the middle of a batch whose items each send one hop further.
        settle_after_cascades(8, 1_000);
    }

    #[test]
    fn shutdown_is_honoured_after_everything_queued_ahead_of_it() {
        let (proc, begun, go) = Gated::new(Duration::ZERO);
        let cluster = Cluster::spawn(vec![proc]);
        // 999 messages pile up behind the first one's action; the shutdown
        // marker lands behind them or behind what is left of them.
        for _ in 0..1_000 {
            cluster.inject(ProcId(0), Num(0));
        }
        begun.recv().expect("first action begins");
        go.send(()).expect("worker is waiting");
        assert_eq!(cluster.shutdown()[0].seen, 1_000);
    }

    /// Counts its messages; the first one's action tells the test it has
    /// begun, waits for the test's go-ahead and then sleeps `nap` — a worker
    /// that is provably busy while the test fills its inbox.
    struct Gated {
        gate: Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>,
        nap: Duration,
        seen: u64,
    }
    impl Gated {
        /// The process, plus the test's ends: "the first action has begun"
        /// and "let it go on".
        fn new(nap: Duration) -> (Self, mpsc::Receiver<()>, mpsc::Sender<()>) {
            let (begun_tx, begun_rx) = mpsc::channel();
            let (go_tx, go_rx) = mpsc::channel();
            let gate = Some((begun_tx, go_rx));
            (Gated { gate, nap, seen: 0 }, begun_rx, go_tx)
        }
    }
    impl Process for Gated {
        type Msg = Num;
        fn on_message(&mut self, _: &mut Context<'_, Num>, _: ProcId, _: Num) {
            self.seen += 1;
            if let Some((begun, go)) = self.gate.take() {
                begun.send(()).expect("test is listening");
                go.recv().expect("test lets the action go on");
                thread::sleep(self.nap);
            }
        }
    }

    #[test]
    fn a_busy_worker_costs_its_senders_no_wakeup() {
        let (proc, begun, go) = Gated::new(Duration::ZERO);
        let mut cluster = Cluster::spawn(vec![proc]);
        cluster.inject(ProcId(0), Num(0));
        begun.recv().expect("first action begins");
        let before = cluster.inbox_stats();
        for _ in 0..10_000 {
            cluster.inject(ProcId(0), Num(0));
        }
        let flooded = cluster.inbox_stats();
        assert_eq!(flooded.sends - before.sends, 10_000);
        assert_eq!(
            flooded.wakes, before.wakes,
            "the worker is inside an action, not parked"
        );
        go.send(()).expect("worker is waiting");
        cluster.settle().expect("settles");
        let stats = cluster.inbox_stats();
        assert!(stats.wakes <= stats.parks + 1, "{stats:?}");
        assert!(
            stats.batches < 5_000,
            "the flood was drained in batches: {stats:?}"
        );
        assert_eq!(cluster.shutdown()[0].seen, 10_001);
    }

    #[test]
    fn traced_deliveries_record_their_queueing_wait() {
        let (proc, begun, go) = Gated::new(Duration::from_millis(2));
        let mut cluster = Cluster::spawn_with(vec![proc], ObsConfig::traced(64));
        cluster.inject(ProcId(0), Num(0));
        begun.recv().expect("first action begins");
        for _ in 0..3 {
            cluster.inject(ProcId(0), Num(0));
        }
        go.send(()).expect("worker is waiting");
        cluster.settle().expect("settles");
        let obs = cluster.take_obs();
        let waits: Vec<u64> = obs
            .trace
            .iter()
            .filter(|e| e.event == TraceEvent::Deliver)
            .map(|e| e.wait)
            .collect();
        assert_eq!(waits.len(), 4);
        assert!(
            waits[1..].iter().all(|&w| w >= 2_000),
            "queued behind a 2 ms action: {waits:?}"
        );
        cluster.shutdown();
    }

    /// Until P0's timer, armed on its first ball, fires: ball 0 goes back to
    /// P0 itself, so P0's inbox is never empty when it drains, and every
    /// other ball crosses to the other processor. Then P0 reports its hits
    /// and keeps the balls.
    #[derive(Default)]
    struct Rally {
        hits: u64,
        armed: bool,
        stopped: bool,
    }
    impl Process for Rally {
        type Msg = Num;
        fn on_message(&mut self, ctx: &mut Context<'_, Num>, _: ProcId, ball: Num) {
            self.hits += 1;
            if ctx.me() == ProcId(0) && !self.armed {
                self.armed = true;
                ctx.set_timer(2_000, 0);
            }
            if !self.stopped {
                let to = if ball.0 == 0 {
                    ctx.me()
                } else {
                    ProcId(1 - ctx.me().0)
                };
                ctx.send(to, ball);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Num>, _: u64) {
            self.stopped = true;
            ctx.send(ProcId::EXTERNAL, Num(self.hits));
        }
    }

    #[test]
    fn a_timer_fires_on_a_worker_whose_inbox_never_empties() {
        const BALLS: u64 = 65;
        let mut cluster = Cluster::spawn(vec![Rally::default(), Rally::default()]);
        for ball in 0..BALLS {
            cluster.inject(ProcId(0), Num(ball));
        }
        let (_, Num(at_fire)) = cluster
            .recv_output_timeout(Duration::from_secs(10))
            .expect("the timer fired during the rally");
        cluster.settle().expect("settles");
        // The timer fired between two of P0's batches, every ball still in
        // play: each one reached P0 exactly once more.
        assert_eq!(cluster.shutdown()[0].hits, at_fire + BALLS);
    }

    #[test]
    fn shutdown_is_prompt_while_a_worker_waits_on_a_far_timer() {
        struct Patient;
        impl Process for Patient {
            type Msg = Num;
            fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
                ctx.set_timer(3_600_000_000, 0); // an hour
            }
            fn on_message(&mut self, _: &mut Context<'_, Num>, _: ProcId, _: Num) {}
        }
        let cluster = Cluster::spawn(vec![Patient]);
        let give_up = Instant::now() + Duration::from_secs(10);
        while cluster.inbox_stats().parks == 0 {
            assert!(Instant::now() < give_up, "the worker parks on its timer");
            thread::sleep(Duration::from_millis(1));
        }
        let begun = Instant::now();
        cluster.shutdown();
        let took = begun.elapsed();
        assert!(took < Duration::from_secs(5), "shutdown took {took:?}");
    }
}

//! A threaded runtime for the same [`Process`] trait.
//!
//! Processor 0 runs on the thread that calls into the cluster, every other
//! processor on an OS thread of its own, each with an inbox (`inbox.rs`:
//! batch drain, bounded spin, wake only a parked receiver — DESIGN.md, "The
//! threaded runtime's inbox") as its message queue, the paper's queue
//! manager. Inboxes are reliable and FIFO, matching the §4 network model;
//! cross-channel interleaving comes from real scheduler nondeterminism
//! instead of a latency model.
//!
//! The cluster implements [`Runtime`], so the generic workload driver
//! (`simnet::driver`) and every facade built on it run here unchanged.
//! Each processor also keeps its own armed timers, in a min-heap whose
//! earliest deadline bounds its wait on the inbox; a crash empties the heap,
//! as [`Process::on_restart`] requires. Quiescence — which the simulator
//! proves by an empty event heap — is established with a probe barrier: the
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
    /// Quiescence probe: answered with an `Echo` of the processor's
    /// armed-timer count, without touching the process or the action
    /// counter.
    Probe(u64),
    /// Fault injection: the processor cancels its armed timers and enters
    /// crash mode — messages are dropped (the volatile queue of the dead
    /// incarnation) until a `Restart` arrives. Probes are still echoed so
    /// settle stays live.
    Crash,
    /// Fault injection: leave crash mode and run `Process::on_restart`.
    Restart,
    Shutdown,
    /// Processor 0's inbox only: a message a worker sent to
    /// [`ProcId::EXTERNAL`], stamped with the worker's clock.
    Output(SimTime, ProcId, M),
    /// Processor 0's inbox only: a worker's answer to a probe token, with
    /// the number of timers it had armed.
    Echo(u64, usize),
}

/// Every processor records into the same [`Recorder`] under one mutex, so
/// the lock-acquisition order *is* the global `seq` order — the trace is a
/// linearization of what actually interleaved. `None` when observability is
/// off.
type SharedObs<M> = Option<Arc<Mutex<Recorder<M>>>>;

/// The shared recorder, locked.
fn lock<M>(obs: &SharedObs<M>) -> Option<MutexGuard<'_, Recorder<M>>> {
    obs.as_ref().map(|o| o.lock().expect("obs lock"))
}

/// Every processor's inbox, in `ProcId` order.
type Peers<M> = Arc<[Inbox<Envelope<M>>]>;

/// How long a deadline-free [`Runtime::poll`] waits before reporting
/// [`Poll::Idle`].
const IDLE_GRACE: Duration = Duration::from_millis(50);

/// How long [`Runtime::settle`] waits for one probe round before giving up.
const PROBE_TIMEOUT: Duration = Duration::from_secs(10);

/// Probe-round backstop: with one-shot timers and finite workloads the
/// action count must stabilize long before this.
const MAX_SETTLE_ROUNDS: u64 = 1_000_000;

/// The cluster clock: microseconds since `epoch` (the spawn instant).
fn micros_since(epoch: Instant) -> SimTime {
    SimTime(epoch.elapsed().as_micros() as u64)
}

/// A running cluster of processes.
///
/// Processor 0 runs only while its caller is inside the cluster — in
/// [`Runtime::poll`], [`Runtime::settle`], [`Cluster::recv_output`],
/// [`Cluster::run_until`] or [`Cluster::shutdown`] — as every processor does
/// on the simulator; a caller that sleeps silences it. Inject messages with
/// [`Cluster::inject`], drive workloads through the [`Runtime`] interface
/// (or [`Cluster::recv_output`] by hand), then call [`Cluster::shutdown`] to
/// join the threads and recover the final process states; a dropped cluster
/// joins its threads too.
pub struct Cluster<P: Process> {
    /// Processor 0, with the caller's side of its channels.
    head: Worker<P>,
    threads: Threads<P>,
}

/// What the caller keeps beside processor 0.
struct Host<M> {
    /// The caller's channel to processor 0 (injects, crash, restart, probes,
    /// shutdown) and processor 0's channel to itself, in send order. Only the
    /// caller's thread touches it, so it takes no lock.
    local: VecDeque<Envelope<M>>,
    /// Outputs received but not yet handed out, oldest first: `recv_output*`
    /// pops the front, `drain_outputs` takes the lot.
    out_buf: VecDeque<(SimTime, ProcId, M)>,
    /// The probe round under way, the echoes in so far and the timers they
    /// reported armed (echoes of an abandoned round are dropped).
    probe: u64,
    echoes: usize,
    armed: usize,
}

impl<M> Host<M> {
    fn echo(&mut self, token: u64, armed: usize) {
        if token == self.probe {
            self.echoes += 1;
            self.armed += armed;
        }
    }
}

/// The threads of processors 1..P−1.
struct Threads<P: Process> {
    peers: Peers<P::Msg>,
    handles: Vec<thread::JoinHandle<P>>,
}

impl<P: Process> Threads<P> {
    /// Queue the shutdown marker behind whatever each worker holds, then
    /// join the workers: their final states, in `ProcId` order.
    fn stop(&mut self) -> Vec<thread::Result<P>> {
        for inbox in &self.peers[1..] {
            inbox.send(Envelope::Shutdown);
        }
        self.handles.drain(..).map(|h| h.join()).collect()
    }
}

/// A cluster dropped without [`Cluster::shutdown`] (a `?` on a failed drive)
/// stops its threads too. A worker's panic is not re-raised: a panic in
/// `drop` while another unwinds aborts.
impl<P: Process> Drop for Threads<P> {
    fn drop(&mut self) {
        if thread::panicking() {
            // A worker may be blocked on the unwinding caller (a test's
            // channel): queue the markers, wait for no one.
            self.handles.clear();
        }
        self.stop();
    }
}

impl<P: Process> Cluster<P> {
    /// Spawn a thread per process but the first, with observability off.
    pub fn spawn(procs: Vec<P>) -> Self {
        Self::spawn_with(procs, ObsConfig::default())
    }

    /// Spawn a thread per process but the first, recording a causal trace
    /// and metrics time series per `obs_cfg` — the same schema the simulator
    /// emits, so runs on the two substrates are directly comparable.
    /// Processor 0's `on_start` runs here, on the caller's thread.
    pub fn spawn_with(procs: Vec<P>, obs_cfg: ObsConfig) -> Self {
        assert!(!procs.is_empty(), "a cluster needs a processor");
        let n = procs.len();
        let epoch = Instant::now();
        let tracing = obs_cfg.trace_capacity > 0;
        let obs: SharedObs<P::Msg> = (tracing || obs_cfg.sample_interval > 0).then(|| {
            let recorder = Recorder::new(obs_cfg.trace_capacity, obs_cfg.health, n);
            Arc::new(Mutex::new(recorder))
        });
        let peers: Peers<P::Msg> = (0..n).map(|_| Inbox::new()).collect();
        let actions = Arc::new(AtomicU64::new(0));
        let worker = |i: usize, proc: P, host: Option<Host<P::Msg>>| Worker {
            me: ProcId(i as u32),
            proc,
            effects: Vec::new(),
            epoch,
            peers: Arc::clone(&peers),
            actions: Arc::clone(&actions),
            timers: BinaryHeap::new(),
            next_timer: 0,
            obs: obs.clone(),
            tracing,
            counters: CounterTrack::new(obs_cfg.sample_interval),
            down: false,
            batch: VecDeque::new(),
            host,
        };

        let mut procs = procs.into_iter();
        let host = Host {
            local: VecDeque::new(),
            out_buf: VecDeque::new(),
            probe: 0,
            echoes: 0,
            armed: 0,
        };
        let mut head = worker(0, procs.next().expect("checked above"), Some(host));
        let handles = procs
            .enumerate()
            .map(|(i, proc)| {
                let worker = worker(i + 1, proc, None);
                thread::Builder::new()
                    .name(format!("simnet-p{}", i + 1))
                    .spawn(move || worker.run())
                    .expect("spawn simnet thread")
            })
            .collect();
        head.start();
        Cluster {
            head,
            threads: Threads { peers, handles },
        }
    }

    /// Number of processes in the cluster.
    pub fn len(&self) -> usize {
        self.head.peers.len()
    }

    /// True if the cluster has no processes.
    pub fn is_empty(&self) -> bool {
        self.head.peers.is_empty()
    }

    /// Microseconds since the cluster was spawned — the same clock every
    /// processor stamps its contexts and outputs with.
    pub fn now(&self) -> SimTime {
        self.head.now()
    }

    /// Send `msg` to `to` from the external endpoint.
    pub fn inject(&mut self, to: ProcId, msg: P::Msg) {
        let span = msg.span();
        let queued = self.head.tracing.then(|| self.now());
        let from = ProcId::EXTERNAL;
        self.send(
            to,
            Envelope::Msg {
                from,
                msg,
                span,
                queued,
            },
        );
    }

    /// Crash processor `p` once the command reaches its queue, until
    /// [`Cluster::restart`]: what the crash destroys is
    /// [`Process::on_restart`]'s contract. Mirrors the simulator's
    /// [`crate::CrashEvent`].
    pub fn crash(&mut self, p: ProcId) {
        self.send(p, Envelope::Crash);
    }

    /// Restart a crashed processor: it leaves crash mode and runs
    /// [`Process::on_restart`]. A restart for a processor that is not down
    /// is ignored.
    pub fn restart(&mut self, p: ProcId) {
        self.send(p, Envelope::Restart);
    }

    /// Queue `env` for processor `to`; processor 0's through the caller's
    /// own FIFO, so everything the caller sends it stays one ordered channel.
    fn send(&mut self, to: ProcId, env: Envelope<P::Msg>) {
        match to.index() {
            0 => self.head.host().local.push_back(env),
            i => self.head.peers[i].send(env),
        }
    }

    /// Take the observability data recorded so far (empty when the cluster
    /// was spawned without an [`ObsConfig`]), leaving fresh buffers.
    pub fn take_obs(&mut self) -> Obs {
        lock(&self.head.obs).map_or_else(Obs::default, |mut rec| rec.take())
    }

    /// How often the processors' inboxes were sent to, woke a parked
    /// receiver, parked, and were drained, since spawn. Processor 0's is the
    /// caller's: its parks are the caller's.
    pub fn inbox_stats(&self) -> InboxStats {
        let mut total = InboxStats::default();
        for inbox in self.head.peers.iter() {
            total += inbox.stats();
        }
        total
    }

    /// Run processor 0 until `ready` holds of what the caller has received
    /// or `until` passes; `false` if it never held. The first round waits
    /// for nothing, so a caller whose deadline has passed still runs
    /// processor 0 once; the later ones wait no later than `until`.
    fn host_until(&mut self, until: Instant, ready: impl Fn(&Host<P::Msg>) -> bool) -> bool {
        let mut wait = Wait::No;
        loop {
            let live = self.head.step(wait);
            debug_assert!(live, "only shutdown queues processor 0's marker");
            if ready(self.head.host()) {
                return true;
            }
            if Instant::now() >= until {
                return false;
            }
            wait = Wait::Until(until);
        }
    }

    /// Blocking-receive the next message addressed to `ProcId::EXTERNAL`
    /// (bounded by an hour, which is "forever" for a test program).
    pub fn recv_output(&mut self) -> Option<(ProcId, P::Msg)> {
        self.recv_output_timeout(Duration::from_secs(3600))
    }

    /// Receive with a timeout; `None` on timeout.
    pub fn recv_output_timeout(&mut self, timeout: Duration) -> Option<(ProcId, P::Msg)> {
        self.host_until(Instant::now() + timeout, |h| !h.out_buf.is_empty());
        let (_, from, msg) = self.head.host().out_buf.pop_front()?;
        Some((from, msg))
    }

    /// Keep processor 0 running until the wall clock reaches `deadline`,
    /// leaving what the processors emit buffered for the next
    /// [`Runtime::poll`] or [`Runtime::drain_outputs`]. This is how a driver
    /// lets time pass — an outage held open until the peers' detectors
    /// notice it — without silencing processor 0 as a sleep would.
    pub fn run_until(&mut self, deadline: Instant) {
        self.host_until(deadline, |_| false);
    }

    /// Run one probe barrier: send a probe to every processor and run
    /// processor 0 until all of them have echoed, buffering the outputs that
    /// arrive in between. Returns the timers the processors reported armed,
    /// or `None` if the round did not complete within [`PROBE_TIMEOUT`].
    fn probe_barrier(&mut self) -> Option<usize> {
        let n = self.len();
        let host = self.head.host();
        host.probe += 1;
        (host.echoes, host.armed) = (0, 0);
        let token = host.probe;
        host.local.push_back(Envelope::Probe(token));
        for inbox in &self.head.peers[1..] {
            inbox.send(Envelope::Probe(token));
        }
        let until = Instant::now() + PROBE_TIMEOUT;
        self.host_until(until, |h| h.echoes == n)
            .then(|| self.head.host().armed)
    }

    /// Stop every processor (after its queue drains to the shutdown marker),
    /// join the threads, and return the final process states in `ProcId`
    /// order.
    pub fn shutdown(mut self) -> Vec<P> {
        self.send(ProcId(0), Envelope::Shutdown);
        // The marker is in the caller's FIFO, so no round waits, and each
        // one takes at least one envelope from it.
        while self.head.step(Wait::No) {}
        let mut procs = vec![self.head.proc];
        let workers = self.threads.stop().into_iter();
        procs.extend(workers.map(|r| r.expect("worker thread panicked")));
        procs
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
        let until = match deadline {
            Some(d) => self.head.epoch + Duration::from_micros(d.ticks()),
            None => Instant::now() + IDLE_GRACE,
        };
        if self.host_until(until, |h| !h.out_buf.is_empty()) {
            Poll::Outputs
        } else if deadline.is_some() {
            Poll::Deadline
        } else {
            Poll::Idle
        }
    }

    /// Probe until the global action count stabilizes across a full probe
    /// round in which every processor echoed no armed timer. Sound because
    /// an action's sends are enqueued *before* it is counted, and FIFO queues
    /// deliver those sends before a later probe: an unchanged count across a
    /// completed barrier means every queue was empty when probed (DESIGN.md,
    /// "The threaded runtime's inbox", has the argument for queues drained a
    /// batch at a time and for the caller-hosted processor 0), and a timer
    /// can only be armed by an action or fire as one.
    fn settle(&mut self) -> Result<(), QuiesceError> {
        for _ in 0..MAX_SETTLE_ROUNDS {
            let before = self.head.actions.load(Ordering::SeqCst);
            let Some(armed) = self.probe_barrier() else {
                return Err(QuiesceError::Stalled { pending: 0 });
            };
            if armed > 0 {
                // Pending work no queue shows: wait for it to come due.
                self.run_until(Instant::now() + Duration::from_micros(200));
            } else if self.head.actions.load(Ordering::SeqCst) == before {
                return Ok(());
            }
        }
        Err(QuiesceError::Stalled { pending: 0 })
    }

    fn drain_outputs(&mut self) -> Vec<(SimTime, ProcId, P::Msg)> {
        // A Vec of the exact size; the buffer keeps its capacity.
        self.head.host().out_buf.drain(..).collect()
    }

    fn take_obs(&mut self) -> Obs {
        Cluster::take_obs(self)
    }

    fn into_procs(self) -> Vec<P> {
        self.shutdown()
    }
}

/// How long a round may wait for its inbox to fill; an armed timer's
/// deadline bounds every wait.
#[derive(Clone, Copy)]
enum Wait {
    No,
    Until(Instant),
    Forever,
}

/// One processor: its queue manager and everything an action needs. Run by
/// its own thread ([`Worker::run`]) or, for processor 0, by the caller
/// (`Cluster::host_until`); both go through [`Worker::step`].
struct Worker<P: Process> {
    me: ProcId,
    proc: P,
    effects: Vec<Effect<P::Msg>>,
    epoch: Instant,
    peers: Peers<P::Msg>,
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
    /// Crash mode: envelopes addressed to a crashed processor are the dead
    /// incarnation's volatile queue — dropped without running the process
    /// or bumping the action counter (dropping is not an action, so settle
    /// stays sound).
    down: bool,
    /// Empty between rounds; its allocation trades places with the queues'.
    batch: VecDeque<Envelope<P::Msg>>,
    /// Processor 0's side of the caller; `None` on a worker thread.
    host: Option<Host<P::Msg>>,
}

impl<P: Process> Worker<P> {
    fn now(&self) -> SimTime {
        micros_since(self.epoch)
    }

    fn host(&mut self) -> &mut Host<P::Msg> {
        self.host.as_mut().expect("only processor 0 has a host")
    }

    /// A worker thread: start the process, then run rounds until shutdown;
    /// returns the final process state.
    fn run(mut self) -> P {
        self.start();
        while self.step(Wait::Forever) {}
        self.proc
    }

    fn start(&mut self) {
        let at = self.now();
        self.dispatch(at, None, |p, ctx| p.on_start(ctx));
        self.flush(at, None);
    }

    /// One round of the queue manager, on a worker thread and on the caller
    /// alike: take in what the inbox holds, without waiting while the
    /// caller's FIFO holds something; on processor 0, handle half of what
    /// that FIFO then holds (at least one envelope), so the round ends — and
    /// the caller hands the other processors' outputs on — while processor
    /// 0 still has work queued; last, fire the timers that came due.
    /// `false` once the shutdown marker is reached.
    fn step(&mut self, wait: Wait) -> bool {
        let idle = self.host.as_ref().is_none_or(|h| h.local.is_empty());
        let live = self.take_inbox(if idle { wait } else { Wait::No });
        let half = self.host.as_ref().map_or(0, |h| h.local.len().div_ceil(2));
        let live = live
            && (0..half).all(|_| {
                let env = self.host().local.pop_front().expect("counted above");
                self.handle(env)
            });
        if live {
            self.fire_due();
        }
        live
    }

    /// Take everything the inbox holds, waiting for it as `wait` and the
    /// earliest armed timer allow, and handle it front to back.
    fn take_inbox(&mut self, wait: Wait) -> bool {
        let mut batch = std::mem::take(&mut self.batch);
        let due = self.timers.peek().map(|&Reverse((deadline, ..))| deadline);
        let bound = match wait {
            Wait::Until(u) => Some(due.map_or(u, |d| d.min(u))),
            _ => due,
        };
        let inbox = &self.peers[self.me.index()];
        if !matches!(wait, Wait::No) && bound.is_none_or(|b| b > Instant::now()) {
            inbox.drain(&mut batch, bound);
        } else {
            inbox.try_drain(&mut batch);
        }
        let live = batch.drain(..).all(|env| self.handle(env));
        self.batch = batch;
        live
    }

    /// Handle one envelope; `false` at the shutdown marker (what is behind
    /// it is dropped, as the rest of the channel is).
    fn handle(&mut self, env: Envelope<P::Msg>) -> bool {
        match env {
            Envelope::Msg {
                from,
                msg,
                span,
                queued,
            } => {
                let at = self.now();
                // Time spent queued, in the inbox and then in the batch
                // behind the actions ahead of it.
                let wait = queued.map_or(0, |q| at - q);
                if self.down {
                    if let Some(mut rec) = lock(&self.obs) {
                        let (kind, redelivery) = (msg.kind(), msg.redelivery());
                        let (drop, to) = (TraceEvent::Drop, self.me);
                        rec.fault(at, from, to, drop, "crash", kind, span, redelivery, wait);
                    }
                    return true;
                }
                // Open the entry before the payload moves into the handler.
                let pending = self
                    .tracing
                    .then(|| Record::delivery(at, from, self.me, span, &msg, wait));
                self.act(at, span, pending, |p, ctx| p.on_message(ctx, from, msg));
            }
            Envelope::Probe(token) => {
                let armed = self.timers.len();
                match &mut self.host {
                    Some(host) => host.echo(token, armed),
                    None => self.peers[0].send(Envelope::Echo(token, armed)),
                }
            }
            Envelope::Crash => {
                self.down = true;
                self.timers.clear();
                if let Some(mut rec) = lock(&self.obs) {
                    rec.crash(self.now(), self.me);
                }
            }
            Envelope::Restart if self.down => {
                self.down = false;
                let at = self.now();
                let pending = self.tracing.then(|| Record::restart(at, self.me));
                self.act(at, None, pending, |p, ctx| p.on_restart(ctx));
            }
            Envelope::Restart => {}
            Envelope::Shutdown => return false,
            Envelope::Output(at, from, msg) => self.host().out_buf.push_back((at, from, msg)),
            Envelope::Echo(token, armed) => self.host().echo(token, armed),
        }
        true
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

    /// Apply the effects the last handler buffered. Processor 0's outputs go
    /// straight to the caller's buffer and its sends to itself to the
    /// caller's FIFO; every other send goes to its destination's inbox.
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
                        match &mut self.host {
                            Some(host) => host.out_buf.push_back((at, me, msg)),
                            None => self.peers[0].send(Envelope::Output(at, me, msg)),
                        }
                        continue;
                    }
                    let queued = tracing.then(|| micros_since(epoch));
                    let env = Envelope::Msg {
                        from: me,
                        msg,
                        span,
                        queued,
                    };
                    match &mut self.host {
                        Some(host) if to == me => host.local.push_back(env),
                        _ => self.peers[to.index()].send(env),
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
        let mut cluster = Cluster::spawn(vec![Gated::open(), proc]);
        // 999 messages pile up behind the first one's action; the shutdown
        // marker lands behind them or behind what is left of them.
        for _ in 0..1_000 {
            cluster.inject(ProcId(1), Num(0));
        }
        begun.recv().expect("first action begins");
        go.send(()).expect("worker is waiting");
        assert_eq!(cluster.shutdown()[1].seen, 1_000);
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

        /// A process that only counts: processor 0 beside a gated worker.
        fn open() -> Self {
            let (gate, nap, seen) = (None, Duration::ZERO, 0);
            Gated { gate, nap, seen }
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
        let mut cluster = Cluster::spawn(vec![Gated::open(), proc]);
        cluster.inject(ProcId(1), Num(0));
        begun.recv().expect("first action begins");
        let before = cluster.inbox_stats();
        for _ in 0..10_000 {
            cluster.inject(ProcId(1), Num(0));
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
        assert_eq!(cluster.shutdown()[1].seen, 10_001);
    }

    #[test]
    fn traced_deliveries_record_their_queueing_wait() {
        let (proc, begun, go) = Gated::new(Duration::from_millis(2));
        let mut cluster = Cluster::spawn_with(vec![Gated::open(), proc], ObsConfig::traced(64));
        cluster.inject(ProcId(1), Num(0));
        begun.recv().expect("first action begins");
        for _ in 0..3 {
            cluster.inject(ProcId(1), Num(0));
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
        let cluster = Cluster::spawn(vec![Patient, Patient]);
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

    /// Arms a timer for every message from outside, `delay` = its value, and
    /// reports the token when the timer fires.
    #[derive(Default)]
    struct Snooze {
        fired: Vec<u64>,
    }
    impl Process for Snooze {
        type Msg = Num;
        fn on_message(&mut self, ctx: &mut Context<'_, Num>, from: ProcId, msg: Num) {
            if from.is_external() {
                ctx.set_timer(msg.0, msg.0);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Num>, token: u64) {
            self.fired.push(token);
            ctx.send(ProcId::EXTERNAL, Num(token));
        }
    }

    #[test]
    fn processor_0_timers_fire_while_the_caller_polls_and_settles() {
        let mut cluster = Cluster::spawn(vec![Snooze::default(), Snooze::default()]);
        cluster.inject(ProcId(0), Num(2_000));
        let deadline = cluster.now() + 10_000_000;
        assert_eq!(cluster.poll(Some(deadline)), Poll::Outputs);
        assert!(cluster.now() < deadline, "the timer fired inside the poll");
        let outs = Runtime::drain_outputs(&mut cluster);
        assert_eq!(outs.len(), 1);
        assert_eq!((outs[0].1, outs[0].2 .0), (ProcId(0), 2_000));
        // `settle` returns only once no timer is armed: processor 0's fires
        // inside its probe rounds.
        cluster.inject(ProcId(0), Num(3_000));
        cluster.settle().expect("settles");
        let outs = Runtime::drain_outputs(&mut cluster);
        assert_eq!(outs.len(), 1);
        assert_eq!(cluster.shutdown()[0].fired, [2_000, 3_000]);
    }

    #[test]
    fn run_until_runs_processor_0_and_keeps_its_outputs() {
        let mut cluster = Cluster::spawn(vec![Snooze::default(), Snooze::default()]);
        cluster.inject(ProcId(0), Num(1_000));
        cluster.run_until(Instant::now() + Duration::from_millis(30));
        let outs = Runtime::drain_outputs(&mut cluster);
        assert_eq!(outs.len(), 1, "the timer fired and its output waited");
        assert_eq!(cluster.shutdown()[0].fired, [1_000]);
    }

    /// Processor 1 sends processor 0 as many messages as an external one
    /// says; processor 0 logs what comes from outside, in arrival order, and
    /// counts the rest.
    #[derive(Default)]
    struct Log {
        external: Vec<u64>,
        from_peer: u64,
    }
    impl Process for Log {
        type Msg = Num;
        fn on_message(&mut self, ctx: &mut Context<'_, Num>, from: ProcId, msg: Num) {
            if !from.is_external() {
                self.from_peer += 1;
            } else if ctx.me() == ProcId(1) {
                (0..msg.0).for_each(|i| ctx.send(ProcId(0), Num(i)));
            } else {
                self.external.push(msg.0);
            }
        }
    }

    #[test]
    fn injects_to_processor_0_stay_in_order_while_processor_1_floods_it() {
        const FLOOD: u64 = 50_000;
        const N: u64 = 5_000;
        let mut cluster = Cluster::spawn(vec![Log::default(), Log::default()]);
        cluster.inject(ProcId(1), Num(FLOOD));
        for i in 0..N {
            cluster.inject(ProcId(0), Num(i));
            if i % 64 == 0 {
                // Processor 0 runs a round between injects, taking the
                // flood's batches as they come.
                let now = cluster.now();
                cluster.poll(Some(now));
            }
        }
        cluster.settle().expect("settles");
        // Crash and restart ride the same channel: what is injected between
        // them reaches a dead processor and is dropped.
        cluster.crash(ProcId(0));
        cluster.inject(ProcId(0), Num(N));
        cluster.restart(ProcId(0));
        cluster.inject(ProcId(0), Num(N + 1));
        cluster.settle().expect("settles");
        let p0 = cluster.shutdown().swap_remove(0);
        let want: Vec<u64> = (0..N).chain([N + 1]).collect();
        assert_eq!(p0.external, want);
        assert_eq!(p0.from_peer, FLOOD);
    }

    #[test]
    fn a_single_processor_runs_on_the_caller() {
        #[derive(Default)]
        struct Where {
            threads: Vec<thread::ThreadId>,
        }
        impl Process for Where {
            type Msg = Num;
            fn on_start(&mut self, _: &mut Context<'_, Num>) {
                self.threads.push(thread::current().id());
            }
            fn on_message(&mut self, _: &mut Context<'_, Num>, _: ProcId, _: Num) {
                self.threads.push(thread::current().id());
            }
        }
        let mut cluster = Cluster::spawn(vec![Where::default()]);
        cluster.inject(ProcId(0), Num(1));
        cluster.settle().expect("settles");
        let me = thread::current().id();
        assert_eq!(cluster.shutdown()[0].threads, [me, me]);
    }

    #[test]
    fn an_idle_poll_parks_instead_of_spinning_through_its_grace() {
        // One processor, so every park counted is the caller's.
        let mut cluster = Cluster::spawn(vec![Doubler]);
        let before = cluster.inbox_stats().parks;
        assert_eq!(cluster.poll(None), Poll::Idle);
        assert!(cluster.inbox_stats().parks > before, "the caller parked");
        cluster.shutdown();
    }

    #[test]
    fn a_dropped_cluster_stops_and_joins_its_threads() {
        use std::sync::atomic::AtomicUsize;
        /// Counts its own drops.
        struct Dropped(Arc<AtomicUsize>);
        impl Drop for Dropped {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        impl Process for Dropped {
            type Msg = Num;
            fn on_message(&mut self, _: &mut Context<'_, Num>, _: ProcId, _: Num) {}
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let mut cluster = Cluster::spawn((0..3).map(|_| Dropped(Arc::clone(&drops))).collect());
        cluster.inject(ProcId(2), Num(0));
        drop(cluster);
        // Each worker handed its process back to the join before `drop`
        // returned; a thread left waiting on its inbox would still hold one.
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }
}

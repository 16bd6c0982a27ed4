//! A threaded runtime for the same [`Process`] trait.
//!
//! Each process runs on its own OS thread with a crossbeam channel as its
//! message queue (the paper's queue manager). Channels are reliable and FIFO,
//! matching the §4 network model; cross-channel interleaving comes from real
//! scheduler nondeterminism instead of a latency model.
//!
//! The cluster implements [`Runtime`], so the generic workload driver
//! (`simnet::driver`) and every facade built on it run here unchanged.
//! Quiescence — which the simulator proves by an empty event heap — is
//! established with a probe barrier: the cluster counts actions globally,
//! flushes every queue with probe envelopes, and declares the network silent
//! when a full probe round completes with the action count unchanged and no
//! armed timers outstanding. [`Cluster::shutdown`] joins the threads and
//! hands back the final process states for end-of-run inspection.
//!
//! Tests and experiments that need determinism should prefer the
//! [`Simulation`](crate::Simulation); this runtime is for wall-clock
//! parallelism and for validating that protocol correctness survives real
//! scheduler interleavings.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::context::Effect;
use crate::health::{Alert, HealthMonitor};
use crate::obs::{CounterTrack, Sampler};
use crate::runtime::{Poll, QuiesceError, Runtime};
use crate::trace::{TraceEntry, TraceEvent};
use crate::{Context, Obs, ObsConfig, Payload, ProcId, ProcSample, Process, SimTime, Trace};

use rand::rngs::SmallRng;
use rand::SeedableRng;

enum Envelope<M> {
    Msg {
        from: ProcId,
        msg: M,
        /// Causal span, resolved at send time exactly as the simulator does:
        /// the payload's own span, else the sending action's.
        span: Option<u64>,
    },
    Timer {
        token: u64,
    },
    /// Quiescence probe: echoed straight back on the output channel without
    /// touching the process or the action counter.
    Probe {
        token: u64,
    },
    /// Fault injection: the worker enters crash mode — messages and timers
    /// are dropped (the volatile queue of the dead incarnation) until a
    /// `Restart` arrives. Probes are still echoed so settle stays live.
    Crash,
    /// Fault injection: leave crash mode and run `Process::on_restart`.
    Restart,
    Shutdown,
}

/// Shared observability state: every worker records into the same trace and
/// series under one mutex, so the lock-acquisition order *is* the global
/// `seq` order — the trace is a linearization of what actually interleaved.
struct ObsState {
    trace: Trace,
    series: Vec<ProcSample>,
    sampler: Sampler,
    /// Online watchdogs (`None` unless enabled) and their fired alerts,
    /// evaluated under the same lock as the sampler so alert order agrees
    /// with sample order.
    health: Option<HealthMonitor>,
    alerts: Vec<Alert>,
}

type SharedObs = Option<Arc<Mutex<ObsState>>>;

/// What worker threads emit on the shared output channel.
enum Output<M> {
    /// A message a process sent to [`ProcId::EXTERNAL`], stamped with the
    /// emitting processor's clock.
    At(SimTime, ProcId, M),
    /// A probe echo (see [`Envelope::Probe`]).
    Probe(u64),
}

/// Commands for the cluster's dedicated timer thread.
enum TimerCmd {
    At {
        deadline: Instant,
        proc: ProcId,
        token: u64,
    },
    Shutdown,
}

type Channel<M> = (Sender<Envelope<M>>, Receiver<Envelope<M>>);

/// How long a deadline-free [`Runtime::poll`] waits before reporting
/// [`Poll::Idle`].
const IDLE_GRACE: Duration = Duration::from_millis(50);

/// How long [`Runtime::settle`] waits for one probe echo before giving up.
const PROBE_TIMEOUT: Duration = Duration::from_secs(10);

/// Probe-round backstop: with one-shot timers and finite workloads the
/// action count must stabilize long before this.
const MAX_SETTLE_ROUNDS: u64 = 1_000_000;

/// Min-heap timer wheel: sleeps until the earliest deadline (or a new
/// command), then delivers `Envelope::Timer` to the owning process. One
/// tick of `Context::set_timer` is one microsecond, matching the `now()`
/// clock the worker threads report. `pending` counts timers armed but not
/// yet delivered, so the quiescence probe knows the network is not silent
/// while a timer is in flight.
fn run_timers<M: Payload + Send + 'static>(
    cmds: Receiver<TimerCmd>,
    senders: Vec<Sender<Envelope<M>>>,
    pending: Arc<AtomicU64>,
) {
    // (deadline, seq, proc, token); seq keeps same-deadline timers FIFO.
    let mut heap: BinaryHeap<Reverse<(Instant, u64, u32, u64)>> = BinaryHeap::new();
    let mut next_seq = 0u64;
    loop {
        let now = Instant::now();
        while let Some(&Reverse((deadline, _, proc, token))) = heap.peek() {
            if deadline > now {
                break;
            }
            heap.pop();
            let _ = senders[proc as usize].send(Envelope::Timer { token });
            // Decrement only after the timer event is in the worker's queue:
            // between arming and this point the probe must not see silence.
            pending.fetch_sub(1, Ordering::SeqCst);
        }
        let cmd = match heap.peek() {
            Some(&Reverse((deadline, ..))) => {
                let wait = deadline.saturating_duration_since(Instant::now());
                match cmds.recv_timeout(wait) {
                    Ok(cmd) => cmd,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            None => match cmds.recv() {
                Ok(cmd) => cmd,
                Err(_) => break,
            },
        };
        match cmd {
            TimerCmd::At {
                deadline,
                proc,
                token,
            } => {
                next_seq += 1;
                heap.push(Reverse((deadline, next_seq, proc.0, token)));
            }
            TimerCmd::Shutdown => break,
        }
    }
}

/// A running cluster of processes on OS threads.
///
/// Inject messages with [`Cluster::inject`], drive workloads through the
/// [`Runtime`] interface (or [`Cluster::recv_output`] by hand), then call
/// [`Cluster::shutdown`] to join the threads and recover the final process
/// states.
pub struct Cluster<P: Process> {
    senders: Vec<Sender<Envelope<P::Msg>>>,
    outputs: Receiver<Output<P::Msg>>,
    /// Outputs received but not yet drained (poll/settle buffer here).
    out_buf: Vec<(SimTime, ProcId, P::Msg)>,
    handles: Vec<thread::JoinHandle<P>>,
    timer_cmds: Sender<TimerCmd>,
    timer_handle: Option<thread::JoinHandle<()>>,
    /// Shared time origin: all workers and [`Cluster::now`] measure
    /// microseconds from this instant, so timestamps are comparable.
    epoch: Instant,
    /// Total actions (message + timer deliveries) processed cluster-wide.
    actions: Arc<AtomicU64>,
    /// Timers armed but not yet delivered to a worker queue.
    pending_timers: Arc<AtomicU64>,
    next_probe: u64,
    /// Shared trace + series, `None` when observability is off (the workers
    /// then skip every recording branch — zero overhead).
    obs: SharedObs,
}

impl<P> Cluster<P>
where
    P: Process + Send + 'static,
    P::Msg: Send + 'static,
{
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
        let obs: SharedObs =
            (obs_cfg.trace_capacity > 0 || obs_cfg.sample_interval > 0).then(|| {
                Arc::new(Mutex::new(ObsState {
                    trace: Trace::with_capacity(obs_cfg.trace_capacity),
                    series: Vec::new(),
                    sampler: Sampler::new(obs_cfg.sample_interval, n),
                    health: obs_cfg
                        .health
                        .enabled
                        .then(|| HealthMonitor::new(obs_cfg.health, n)),
                    alerts: Vec::new(),
                }))
            });
        let (out_tx, out_rx) = unbounded::<Output<P::Msg>>();
        let channels: Vec<Channel<P::Msg>> = (0..n).map(|_| unbounded()).collect();
        let senders: Vec<Sender<Envelope<P::Msg>>> =
            channels.iter().map(|(tx, _)| tx.clone()).collect();
        let actions = Arc::new(AtomicU64::new(0));
        let pending_timers = Arc::new(AtomicU64::new(0));

        let (timer_tx, timer_rx) = unbounded::<TimerCmd>();
        let timer_senders = senders.clone();
        let timer_pending = Arc::clone(&pending_timers);
        let timer_handle = thread::Builder::new()
            .name("simnet-timers".into())
            .spawn(move || run_timers(timer_rx, timer_senders, timer_pending))
            .expect("spawn simnet timer thread");

        let mut handles = Vec::with_capacity(n);
        for (i, (proc, (_, rx))) in procs.into_iter().zip(channels).enumerate() {
            let worker = Worker {
                me: ProcId(i as u32),
                proc,
                rng: SmallRng::seed_from_u64(0x5EED ^ i as u64),
                effects: Vec::new(),
                epoch,
                peers: senders.clone(),
                out: out_tx.clone(),
                timers: timer_tx.clone(),
                actions: Arc::clone(&actions),
                pending_timers: Arc::clone(&pending_timers),
                obs: obs.clone(),
                tracing: obs_cfg.trace_capacity > 0,
                counters: CounterTrack::default(),
                spare: None,
            };
            let handle = thread::Builder::new()
                .name(format!("simnet-p{i}"))
                .spawn(move || worker.run(rx))
                .expect("spawn simnet thread");
            handles.push(handle);
        }

        Cluster {
            senders,
            outputs: out_rx,
            out_buf: Vec::new(),
            handles,
            timer_cmds: timer_tx,
            timer_handle: Some(timer_handle),
            epoch,
            actions,
            pending_timers,
            next_probe: 0,
            obs,
        }
    }

    /// Number of processes in the cluster.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// True if the cluster has no processes.
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// Microseconds since the cluster was spawned — the same clock the
    /// worker threads stamp their contexts and outputs with.
    pub fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    /// Send `msg` to `to` from the external endpoint.
    pub fn inject(&self, to: ProcId, msg: P::Msg) {
        let span = msg.span();
        let _ = self.senders[to.index()].send(Envelope::Msg {
            from: ProcId::EXTERNAL,
            msg,
            span,
        });
    }

    /// Crash processor `p`: once the command reaches its queue the worker
    /// drops every message and timer (the volatile queue of the dead
    /// incarnation) until [`Cluster::restart`]. The process object itself
    /// survives, playing the paper's stable store. Mirrors the simulator's
    /// [`crate::CrashEvent`] fault injection.
    pub fn crash(&self, p: ProcId) {
        let _ = self.senders[p.index()].send(Envelope::Crash);
    }

    /// Restart a crashed processor: the worker leaves crash mode and runs
    /// [`Process::on_restart`]. A restart for a processor that is not down
    /// is ignored.
    pub fn restart(&self, p: ProcId) {
        let _ = self.senders[p.index()].send(Envelope::Restart);
    }

    /// Take the observability data recorded so far (empty when the cluster
    /// was spawned without an [`ObsConfig`]), leaving fresh buffers.
    pub fn take_obs(&mut self) -> Obs {
        match &self.obs {
            None => Obs::default(),
            Some(o) => {
                let mut st = o.lock().expect("obs lock");
                Obs {
                    trace: st.trace.take(),
                    series: std::mem::take(&mut st.series),
                    alerts: std::mem::take(&mut st.alerts),
                }
            }
        }
    }

    /// Pull one output from the channel into the buffer; `false` on timeout
    /// or disconnection. Probe echoes (from an abandoned settle) are
    /// skipped without consuming the timeout budget meaningfully.
    fn pump_one(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let wait = deadline.saturating_duration_since(Instant::now());
            match self.outputs.recv_timeout(wait) {
                Ok(Output::At(at, from, msg)) => {
                    self.out_buf.push((at, from, msg));
                    return true;
                }
                Ok(Output::Probe(_)) => continue,
                Err(_) => return false,
            }
        }
    }

    /// Move everything already sitting in the output channel into the
    /// buffer without blocking.
    fn pump_ready(&mut self) {
        while let Ok(out) = self.outputs.try_recv() {
            if let Output::At(at, from, msg) = out {
                self.out_buf.push((at, from, msg));
            }
        }
    }

    /// Blocking-receive the next message addressed to `ProcId::EXTERNAL`
    /// (bounded by an hour, which is "forever" for a test program).
    pub fn recv_output(&mut self) -> Option<(ProcId, P::Msg)> {
        self.recv_output_timeout(Duration::from_secs(3600))
    }

    /// Receive with a timeout; `None` on timeout or disconnection.
    pub fn recv_output_timeout(&mut self, timeout: Duration) -> Option<(ProcId, P::Msg)> {
        if self.out_buf.is_empty() && !self.pump_one(timeout) {
            return None;
        }
        let (_, from, msg) = self.out_buf.remove(0);
        Some((from, msg))
    }

    /// Run one probe barrier: send a probe to every worker and wait for all
    /// echoes, buffering any real outputs that arrive in between. Returns
    /// `false` if a worker failed to echo within [`PROBE_TIMEOUT`].
    fn probe_barrier(&mut self) -> bool {
        let token = self.next_probe;
        self.next_probe += 1;
        for tx in &self.senders {
            let _ = tx.send(Envelope::Probe { token });
        }
        let mut echoes = 0;
        let deadline = Instant::now() + PROBE_TIMEOUT;
        while echoes < self.senders.len() {
            let wait = deadline.saturating_duration_since(Instant::now());
            match self.outputs.recv_timeout(wait) {
                Ok(Output::At(at, from, msg)) => self.out_buf.push((at, from, msg)),
                Ok(Output::Probe(t)) if t == token => echoes += 1,
                Ok(Output::Probe(_)) => {}
                Err(_) => return false,
            }
        }
        true
    }

    /// Stop all threads (after their queues drain to the shutdown marker),
    /// join them, and return the final process states in `ProcId` order.
    pub fn shutdown(mut self) -> Vec<P> {
        for tx in &self.senders {
            let _ = tx.send(Envelope::Shutdown);
        }
        let mut procs = Vec::with_capacity(self.handles.len());
        for h in self.handles.drain(..) {
            procs.push(h.join().expect("worker thread panicked"));
        }
        let _ = self.timer_cmds.send(TimerCmd::Shutdown);
        if let Some(h) = self.timer_handle.take() {
            let _ = h.join();
        }
        procs
    }
}

impl<P> Runtime for Cluster<P>
where
    P: Process + Send + 'static,
    P::Msg: Send + 'static,
{
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
            self.pump_ready();
            Poll::Outputs
        } else if deadline.is_some() {
            Poll::Deadline
        } else {
            Poll::Idle
        }
    }

    /// Probe until the global action count stabilizes across a full probe
    /// round with no armed timers outstanding. Sound because a worker
    /// enqueues all of an action's sends *before* counting it, and FIFO
    /// queues deliver those sends before a later probe: an unchanged count
    /// across a completed barrier means every queue was empty when probed.
    fn settle(&mut self) -> Result<(), QuiesceError> {
        for _ in 0..MAX_SETTLE_ROUNDS {
            // A timer in flight (armed, not yet delivered) is pending work
            // the probe cannot see; wait for the timer thread.
            if self.pending_timers.load(Ordering::SeqCst) > 0 {
                thread::sleep(Duration::from_micros(200));
                continue;
            }
            let before = self.actions.load(Ordering::SeqCst);
            if !self.probe_barrier() {
                return Err(QuiesceError::Stalled { pending: 0 });
            }
            if self.actions.load(Ordering::SeqCst) == before
                && self.pending_timers.load(Ordering::SeqCst) == 0
            {
                self.pump_ready();
                return Ok(());
            }
        }
        Err(QuiesceError::Stalled { pending: 0 })
    }

    fn drain_outputs(&mut self) -> Vec<(SimTime, ProcId, P::Msg)> {
        self.pump_ready();
        std::mem::take(&mut self.out_buf)
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
    rng: SmallRng,
    effects: Vec<Effect<P::Msg>>,
    epoch: Instant,
    peers: Vec<Sender<Envelope<P::Msg>>>,
    out: Sender<Output<P::Msg>>,
    timers: Sender<TimerCmd>,
    actions: Arc<AtomicU64>,
    pending_timers: Arc<AtomicU64>,
    obs: SharedObs,
    /// `obs` holds a trace, so actions open entries.
    tracing: bool,
    /// Counter snapshots behind action deltas and samples (while `obs` is
    /// on). Taken on this thread, never under the obs lock.
    counters: CounterTrack,
    /// The trace's last evicted entry, picked up while the lock was held:
    /// the next entry is built on its allocations, outside the lock.
    spare: Option<TraceEntry>,
}

impl<P: Process> Worker<P> {
    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    /// Drain the inbox until shutdown; returns the final process state.
    fn run(mut self, rx: Receiver<Envelope<P::Msg>>) -> P {
        let at = self.now();
        self.dispatch(at, None, |p, ctx| p.on_start(ctx));
        self.flush(at, None);

        // Crash mode: envelopes addressed to a crashed worker are the dead
        // incarnation's volatile queue — dropped without running the
        // process or bumping the action counter (dropping is not an action,
        // so settle stays sound).
        let mut down = false;
        while let Ok(env) = rx.recv() {
            match env {
                Envelope::Msg { from, msg, span } => {
                    let at = self.now();
                    if down {
                        if let Some(o) = &self.obs {
                            let mut st = o.lock().expect("obs lock");
                            if let Some(e) =
                                st.trace
                                    .note(at, from, self.me, TraceEvent::Drop, msg.kind(), span)
                            {
                                e.redelivery = msg.redelivery();
                                e.set_detail("crash");
                            }
                        }
                        continue;
                    }
                    // Open the entry before the payload moves into the
                    // handler.
                    let pending = self.tracing.then(|| {
                        TraceEntry::delivery(self.spare.take(), at, from, self.me, span, &msg, 0)
                    });
                    self.act(at, span, pending, |p, ctx| p.on_message(ctx, from, msg));
                }
                Envelope::Timer { token } => {
                    if down {
                        continue;
                    }
                    let at = self.now();
                    let pending = self
                        .tracing
                        .then(|| TraceEntry::timer(self.spare.take(), at, self.me, token, 0));
                    self.act(at, None, pending, |p, ctx| p.on_timer(ctx, token));
                }
                Envelope::Probe { token } => {
                    let _ = self.out.send(Output::Probe(token));
                }
                Envelope::Crash => {
                    down = true;
                    if let Some(o) = &self.obs {
                        let mut st = o.lock().expect("obs lock");
                        let (at, me) = (self.now(), self.me);
                        st.trace
                            .note(at, me, me, TraceEvent::Crash, "fault.crash", None);
                    }
                }
                Envelope::Restart => {
                    if !down {
                        continue;
                    }
                    down = false;
                    let at = self.now();
                    let pending = self
                        .tracing
                        .then(|| TraceEntry::restart(self.spare.take(), at, self.me));
                    self.act(at, None, pending, |p, ctx| p.on_restart(ctx));
                }
                Envelope::Shutdown => break,
            }
        }
        self.proc
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
            rng: &mut self.rng,
            span,
        };
        f(&mut self.proc, &mut ctx);
    }

    /// One atomic action: run the handler, record it (its opened trace
    /// entry `pending`, a sample if due), send what it sent, count it.
    fn act(
        &mut self,
        at: SimTime,
        span: Option<u64>,
        pending: Option<TraceEntry>,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>),
    ) {
        if self.obs.is_some() {
            self.counters.arm(&self.proc);
        }
        self.dispatch(at, span, f);
        self.observe(at, pending);
        self.flush(at, span);
        // Count the action only after its sends are enqueued: the probe
        // barrier relies on "counted implies visible".
        self.actions.fetch_add(1, Ordering::SeqCst);
    }

    /// Record one executed action into the shared trace (with its counter
    /// deltas) and emit a time-series sample if one is due. The counters are
    /// read before the lock is taken; one acquisition covers entry and
    /// sample, so entry `seq` and sample order agree.
    fn observe(&mut self, at: SimTime, mut pending: Option<TraceEntry>) {
        let Some(obs) = &self.obs else {
            return;
        };
        match &mut pending {
            Some(entry) => self.counters.diff_into(&self.proc, &mut entry.deltas),
            None => self.counters.refresh(&self.proc),
        }
        let me = self.me;
        let mut st = obs.lock().expect("obs lock");
        // Reborrow through the guard so the health/trace/alerts fields can
        // be borrowed disjointly below.
        let st = &mut *st;
        if let Some(entry) = pending {
            st.trace.record(entry);
        }
        if st.sampler.due(me, at) {
            let pairs = self.counters.last();
            let gauges = self.proc.gauges(at);
            if let Some(mon) = &mut st.health {
                for alert in mon.observe(at, me, pairs, &gauges) {
                    if let Some(e) = st
                        .trace
                        .note(at, me, me, TraceEvent::Alert, alert.rule, None)
                    {
                        e.set_detail(alert.detail());
                    }
                    st.alerts.push(alert);
                }
            }
            st.series.push(ProcSample {
                at,
                proc: me,
                pairs: pairs.to_vec(),
                gauges,
            });
        }
        self.spare = st.trace.recycle();
    }

    /// Apply the effects the last handler buffered.
    fn flush(&mut self, at: SimTime, action_span: Option<u64>) {
        let me = self.me;
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    // Same span-inheritance rule as the simulator: the
                    // payload's own span wins, else the sending action's.
                    let span = msg.span().or(action_span);
                    if to.is_external() {
                        if let Some(o) = &self.obs {
                            let mut st = o.lock().expect("obs lock");
                            st.trace.output(at, me, span, &msg);
                        }
                        let _ = self.out.send(Output::At(at, me, msg));
                    } else {
                        let _ = self.peers[to.index()].send(Envelope::Msg {
                            from: me,
                            msg,
                            span,
                        });
                    }
                }
                Effect::Timer { delay, token } => {
                    // One virtual tick = one microsecond, the granularity of
                    // the `now()` clock the worker reports to its process.
                    // Count the timer as pending before the command is
                    // visible to the timer thread, so quiescence probes
                    // never miss it.
                    self.pending_timers.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_micros(delay);
                    let _ = self.timers.send(TimerCmd::At {
                        deadline,
                        proc: me,
                        token,
                    });
                }
                Effect::Mark {
                    event,
                    kind,
                    detail,
                } => {
                    if let Some(o) = &self.obs {
                        let mut st = o.lock().expect("obs lock");
                        if let Some(e) = st.trace.note(at, me, me, event, kind, action_span) {
                            e.set_detail(detail);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn settle_waits_for_cascades_and_timers() {
        // A chain: external -> P0 arms a timer; the timer forwards through
        // the ring; settle must not report quiescence until the final hop.
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
        cluster.inject(ProcId(0), Num(7));
        cluster.settle().expect("settles");
        let outs = Runtime::drain_outputs(&mut cluster);
        assert_eq!(outs.len(), 1, "the cascade finished before settle returned");
        cluster.shutdown();
    }
}

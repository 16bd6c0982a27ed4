//! The execute half of the simulator's two-phase tick: one action's handler
//! run against its processor ([`Host::run`]), and a batch's actions run on
//! two lanes — the calling thread and one persistent helper thread — each
//! processor's in sequence order.
//!
//! Nothing here touches the simulation's shared state. A [`Lane`] is
//! everything the helper needs — the processes it runs this batch, their
//! actions, and flat buffers for what the actions produce (effects, counter
//! deltas, samples) — and it travels to the helper thread and back whole,
//! so no memory is shared and no `unsafe` is needed. The commit half, which
//! applies what the lanes produced in event-sequence order, is in
//! [`crate::sim`].

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::context::{Context, Effect};
use crate::obs::CounterTrack;
use crate::{ProcId, ProcSample, Process, SimTime};

/// A processor's resident state: the process and its side of the recorder.
/// Boxed, so moving it to a lane and back moves one pointer.
pub(crate) struct Host<P> {
    pub(crate) proc: P,
    pub(crate) track: CounterTrack,
}

/// The processor table: one slot per processor, `None` while the process is
/// out (on the helper's lane).
pub(crate) type Hosts<P> = Vec<Option<Box<Host<P>>>>;

/// Which handler an action runs.
pub(crate) enum Call<M> {
    Start,
    Deliver { from: ProcId, msg: M },
    Timer(u64),
    Restart,
}

impl<P: Process> Host<P> {
    /// Run one action: the handler `call` names, with a [`Context`] whose
    /// effects append to `effects`, its counters armed before and observed
    /// after when it is `traced` or a sample falls due. `true` if they were
    /// observed — the action's deltas are then in `self.track.deltas` —
    /// with the sample, if one fell due.
    pub(crate) fn run(
        &mut self,
        id: ProcId,
        now: SimTime,
        span: Option<u64>,
        call: Call<P::Msg>,
        traced: bool,
        effects: &mut Vec<Effect<P::Msg>>,
    ) -> (bool, Option<ProcSample>) {
        if traced {
            self.track.arm(&mut self.proc);
        }
        let mut ctx = Context {
            me: id,
            now,
            effects,
            span,
        };
        let p = &mut self.proc;
        match call {
            Call::Start => p.on_start(&mut ctx),
            Call::Deliver { from, msg } => p.on_message(&mut ctx, from, msg),
            Call::Timer(token) => p.on_timer(&mut ctx, token),
            Call::Restart => p.on_restart(&mut ctx),
        }
        let due = self.track.due(now);
        if !(due || traced) {
            return (false, None);
        }
        (
            true,
            self.track.observe(&mut self.proc, id, now, traced, due),
        )
    }
}

/// One action of a batch: its input, then where its results ended up. Kept
/// small — it is pushed straight to its lane — so its trace record stays
/// with the simulation and a sample, rare, goes to [`Work::samples`].
pub(crate) struct Act<M> {
    pub(crate) to: ProcId,
    pub(crate) span: Option<u64>,
    /// Service time: the action's effects depart at `now + svc`.
    pub(crate) svc: u64,
    /// The simulation holds a trace record for this action.
    pub(crate) traced: bool,
    /// Taken by the handler.
    call: Option<Call<M>>,
    /// End of this action's effects in [`Work::effects`] (they start where
    /// the previous action's end).
    pub(crate) effects: u32,
    /// End of this action's counter deltas in [`Work::deltas`].
    pub(crate) deltas: u32,
}

impl<M> Act<M> {
    pub(crate) fn new(
        to: ProcId,
        span: Option<u64>,
        svc: u64,
        call: Call<M>,
        traced: bool,
    ) -> Self {
        Act {
            to,
            span,
            svc,
            traced,
            call: Some(call),
            effects: 0,
            deltas: 0,
        }
    }
}

/// One lane's actions for a batch and the flat buffers their results go
/// to. Reused batch after batch: cleared, never shrunk.
pub(crate) struct Work<M> {
    pub(crate) acts: Vec<Act<M>>,
    pub(crate) effects: Vec<Effect<M>>,
    pub(crate) deltas: Vec<(&'static str, u64)>,
    /// The samples that fell due, by action index, in order.
    samples: VecDeque<(u32, ProcSample)>,
    /// The batch's tick.
    now: SimTime,
}

impl<M> Work<M> {
    fn new() -> Self {
        Work {
            acts: Vec::new(),
            effects: Vec::new(),
            deltas: Vec::new(),
            samples: VecDeque::new(),
            now: SimTime::ZERO,
        }
    }

    fn clear(&mut self, now: SimTime) {
        self.acts.clear();
        self.effects.clear();
        self.deltas.clear();
        self.samples.clear();
        self.now = now;
    }

    /// Where action `idx`'s effects and deltas start: where the previous
    /// action's end.
    pub(crate) fn starts(&self, idx: usize) -> (usize, usize) {
        match idx.checked_sub(1) {
            Some(prev) => (
                self.acts[prev].effects as usize,
                self.acts[prev].deltas as usize,
            ),
            None => (0, 0),
        }
    }

    /// Action `idx`'s sample, if one fell due. Samples are taken in action
    /// order, so this pops the front of the list.
    pub(crate) fn take_sample(&mut self, idx: usize) -> Option<ProcSample> {
        match self.samples.front() {
            Some(&(at, _)) if at as usize == idx => self.samples.pop_front().map(|(_, s)| s),
            _ => None,
        }
    }

    /// Run every action against `hosts`, in order, recording where each
    /// one's effects and deltas end.
    fn execute<P: Process<Msg = M>>(&mut self, hosts: &mut [Option<Box<Host<P>>>]) {
        for (idx, act) in self.acts.iter_mut().enumerate() {
            let host = hosts[act.to.index()]
                .as_deref_mut()
                .expect("process is resident on its lane");
            let call = act.call.take().expect("an action runs once");
            let (observed, sample) = host.run(
                act.to,
                self.now,
                act.span,
                call,
                act.traced,
                &mut self.effects,
            );
            act.effects = self.effects.len() as u32;
            if observed {
                self.deltas.extend_from_slice(&host.track.deltas);
            }
            if let Some(sample) = sample {
                self.samples.push_back((idx as u32, sample));
            }
            act.deltas = self.deltas.len() as u32;
        }
    }
}

/// The helper's lane: the processes it runs this batch (indexed like the
/// simulation's table; every other slot is `None`) and their work.
struct Lane<P: Process> {
    hosts: Hosts<P>,
    work: Work<P::Msg>,
}

type Panic = Box<dyn Any + Send>;

/// The two lanes of a batch: lane 0 runs on the calling thread, lane 1 on a
/// persistent helper thread spawned by the first batch that uses it.
pub(crate) struct Pool<P: Process> {
    home: Work<P::Msg>,
    helper: Option<Helper<P>>,
}

impl<P: Process> Pool<P> {
    pub(crate) fn new() -> Self {
        Pool {
            home: Work::new(),
            helper: None,
        }
    }

    /// Lane `lane`'s work: the one accessor the batch's staging, execution
    /// and commit share.
    pub(crate) fn work(&mut self, lane: u32) -> &mut Work<P::Msg> {
        match lane {
            0 => &mut self.home,
            _ => &mut self.helper_lane().work,
        }
    }

    fn helper_lane(&mut self) -> &mut Lane<P> {
        self.helper
            .as_mut()
            .and_then(|h| h.lane.as_deref_mut())
            .expect("the helper's lane is home between batches")
    }

    /// Empty both lanes for a batch at `now` over `n` processors, spawning
    /// the helper if this is the first batch.
    pub(crate) fn begin(&mut self, now: SimTime, n: usize) {
        self.home.clear(now);
        let helper = self.helper.get_or_insert_with(Helper::spawn);
        let lane = helper.lane.as_deref_mut().expect("lane is home");
        lane.work.clear(now);
        lane.hosts.resize_with(n, || None);
    }

    /// Execute the batch: hand `on_helper`'s processes and lane 1 to the
    /// helper, run lane 0 here meanwhile, then take everything back. A
    /// handler's panic on the helper is re-raised here once the processes
    /// are home.
    pub(crate) fn execute(&mut self, hosts: &mut Hosts<P>, on_helper: &[ProcId]) {
        let lane = self.helper_lane();
        for &p in on_helper {
            lane.hosts[p.index()] = hosts[p.index()].take();
        }
        let helper = self.helper.as_mut().expect("spawned by begin");
        helper.start();
        self.home.execute(hosts);
        let panicked = helper.finish();
        let lane = self.helper_lane();
        for &p in on_helper {
            hosts[p.index()] = lane.hosts[p.index()].take();
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
    }
}

/// The persistent helper thread and its lane. The lane is here between
/// batches and on the thread during one.
struct Helper<P: Process> {
    lane: Option<Box<Lane<P>>>,
    jobs: Option<SyncSender<Box<Lane<P>>>>,
    done: Receiver<(Box<Lane<P>>, Option<Panic>)>,
    thread: Option<JoinHandle<()>>,
}

impl<P: Process> Helper<P> {
    /// Spawn the helper (a thread named `simnet-helper`).
    fn spawn() -> Self {
        let (jobs, inbox) = mpsc::sync_channel::<Box<Lane<P>>>(1);
        let (outbox, done) = mpsc::sync_channel(1);
        let thread = thread::Builder::new()
            .name("simnet-helper".into())
            .spawn(move || {
                while let Some(mut lane) = spin_recv(&inbox) {
                    // A panicking handler is reported to the simulation,
                    // which re-raises it; the lane goes home either way.
                    let Lane { hosts, work } = &mut *lane;
                    let run = panic::catch_unwind(AssertUnwindSafe(|| work.execute(hosts)));
                    if outbox.send((lane, run.err())).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn a simulator helper thread");
        Helper {
            lane: Some(Box::new(Lane {
                hosts: Vec::new(),
                work: Work::new(),
            })),
            jobs: Some(jobs),
            done,
            thread: Some(thread),
        }
    }

    /// Hand the lane to the thread.
    fn start(&mut self) {
        let lane = self.lane.take().expect("lane is home");
        self.jobs
            .as_ref()
            .expect("helper is running")
            .send(lane)
            .expect("helper thread is alive");
    }

    /// Wait for the lane to come back, with the payload of a handler that
    /// panicked on it, for the caller to re-raise.
    fn finish(&mut self) -> Option<Panic> {
        let (lane, panicked) = spin_recv(&self.done).expect("helper thread is alive");
        self.lane = Some(lane);
        panicked
    }
}

/// How long a receiver spins before it parks. Batches follow each other
/// well within it during a drive, and waking a parked thread costs tens of
/// microseconds (more on a virtual machine), which is a batch's worth.
const SPIN: Duration = Duration::from_millis(1);

/// Receive, polling for up to [`SPIN`] before blocking; `None` once the
/// sender is gone. Between bursts of polls the thread yields its core: on
/// an oversubscribed machine the sender may be waiting for it.
fn spin_recv<T>(rx: &Receiver<T>) -> Option<T> {
    let start = Instant::now();
    loop {
        for _ in 0..64 {
            match rx.try_recv() {
                Ok(v) => return Some(v),
                Err(TryRecvError::Disconnected) => return None,
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
            }
        }
        if start.elapsed() > SPIN {
            return rx.recv().ok();
        }
        thread::yield_now();
    }
}

impl<P: Process> Drop for Helper<P> {
    fn drop(&mut self) {
        // Closing the job channel ends the thread's loop once any lane it
        // holds is back.
        self.jobs = None;
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

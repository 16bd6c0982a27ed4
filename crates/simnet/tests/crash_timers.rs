//! A crash cancels every timer its processor had armed, on both runtimes: a
//! timer armed before the crash never reaches `on_timer`, even though its
//! deadline falls long after the restart, and a timer armed in
//! `on_restart` fires like any other.

use std::time::Duration;

use simnet::threaded::Cluster;
use simnet::{
    Context, CrashEvent, FaultPlan, Payload, ProcId, Process, RunOutcome, Runtime, SimConfig,
    SimTime, Simulation,
};

/// The pre-crash timer's delay: a second on threads, where a tick is a
/// microsecond — far beyond the crash and the restart.
const FAR: u64 = 1_000_000;
/// The delay of the timer `on_restart` arms.
const SOON: u64 = 1_000;
const BEFORE_CRASH: u64 = 7;
const AFTER_RESTART: u64 = 9;

#[derive(Clone, Debug)]
struct Arm;
impl Payload for Arm {}

/// Arms a far timer for every message and tells the outside world it did;
/// arms a near one on restart; logs every token that reaches `on_timer`.
#[derive(Default)]
struct Armer {
    fired: Vec<u64>,
}

impl Process for Armer {
    type Msg = Arm;
    fn on_message(&mut self, ctx: &mut Context<'_, Arm>, _: ProcId, _: Arm) {
        ctx.set_timer(FAR, BEFORE_CRASH);
        ctx.send(ProcId::EXTERNAL, Arm);
    }
    fn on_restart(&mut self, ctx: &mut Context<'_, Arm>) {
        ctx.set_timer(SOON, AFTER_RESTART);
    }
    fn on_timer(&mut self, _: &mut Context<'_, Arm>, token: u64) {
        self.fired.push(token);
    }
}

#[test]
fn a_crash_cancels_armed_timers_on_the_simulator() {
    let mut cfg = SimConfig::seeded(1);
    cfg.faults = FaultPlan::none().with_crash(CrashEvent {
        proc: ProcId(0),
        at: SimTime(5_000),
        restart_at: Some(SimTime(10_000)),
    });
    let mut sim = Simulation::new(cfg, vec![Armer::default()]);
    sim.inject(ProcId(0), Arm);
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    assert_eq!(sim.outputs().len(), 1, "armed before the crash");
    assert_eq!(sim.proc(ProcId(0)).fired, [AFTER_RESTART]);
}

/// Processor `crashed` of a `procs`-processor cluster arms a far timer,
/// crashes and restarts: only the timer its `on_restart` armed fires, and no
/// other processor fires any. Processor 0 runs on the caller, every other
/// one on its own thread, so the two crash paths differ.
fn crash_on_threads(procs: usize, crashed: ProcId) {
    let mut cluster = Cluster::spawn((0..procs).map(|_| Armer::default()).collect());
    cluster.inject(crashed, Arm);
    cluster
        .recv_output_timeout(Duration::from_secs(10))
        .expect("armed before the crash");
    cluster.crash(crashed);
    cluster.restart(crashed);
    // `settle` returns only once no timer is armed anywhere, so a pre-crash
    // timer that outlived the crash would have fired by then.
    cluster.settle().expect("settles");
    for (i, p) in cluster.shutdown().iter().enumerate() {
        let want: &[u64] = if i == crashed.index() {
            &[AFTER_RESTART]
        } else {
            &[]
        };
        assert_eq!(p.fired, want, "processor {i}");
    }
}

#[test]
fn a_crash_cancels_armed_timers_on_threads() {
    crash_on_threads(1, ProcId(0));
}

#[test]
fn a_crash_of_the_caller_hosted_processor_cancels_its_timers() {
    crash_on_threads(2, ProcId(0));
}

#[test]
fn a_crash_of_a_worker_thread_cancels_its_timers() {
    crash_on_threads(2, ProcId(1));
}

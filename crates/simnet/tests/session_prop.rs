//! Property tests of the reliable session: the contract it restores
//! (exactly-once FIFO delivery to the inner process, across loss,
//! duplication and a crash of either end) and what restoring it may cost.

use proptest::prelude::*;
use simnet::{
    Context, CrashEvent, FaultPlan, Partition, Payload, ProcId, Process, RunOutcome, SessionConfig,
    SessionProc, SimConfig, SimTime, Simulation,
};

#[derive(Clone, Debug)]
struct Num(u32);

impl Payload for Num {
    fn kind(&self) -> &'static str {
        "num"
    }
}

/// Sends its peer (the other of P0, P1) the numbers `0..plan.len()`, number
/// `i` at tick `plan[i]` (sorted), and records what the peer sends it.
struct Talker {
    plan: Vec<u64>,
    sent: usize,
    seen: Vec<u32>,
}

impl Talker {
    fn new(mut plan: Vec<u64>) -> Self {
        plan.sort_unstable();
        Talker {
            plan,
            sent: 0,
            seen: vec![],
        }
    }

    /// Send everything due, then sleep until the next send.
    fn pump(&mut self, ctx: &mut Context<'_, Num>) {
        let now = ctx.now().ticks();
        while let Some(&due) = self.plan.get(self.sent) {
            if due > now {
                ctx.set_timer(due - now, 0);
                return;
            }
            ctx.send(ProcId(1 - ctx.me().0), Num(self.sent as u32));
            self.sent += 1;
        }
    }
}

impl Process for Talker {
    type Msg = Num;
    fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
        self.pump(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Num>, _token: u64) {
        self.pump(ctx);
    }
    fn on_restart(&mut self, ctx: &mut Context<'_, Num>) {
        // The crash took the send timer with it.
        self.pump(ctx);
    }
    fn on_message(&mut self, _ctx: &mut Context<'_, Num>, _from: ProcId, msg: Num) {
        self.seen.push(msg.0);
    }
}

/// Run P0 and P1 talking to each other under `faults`; panics unless the
/// run quiesces with both streams delivered exactly once, in order, and
/// nothing left unacknowledged or given up on.
fn converse(seed: u64, plans: [Vec<u64>; 2], faults: FaultPlan) -> Simulation<SessionProc<Talker>> {
    let sent = [plans[0].len() as u32, plans[1].len() as u32];
    let procs = plans
        .into_iter()
        .map(|plan| SessionProc::new(Talker::new(plan), SessionConfig::reliable()))
        .collect();
    let mut cfg = SimConfig::jittery(seed, 2, 25);
    cfg.faults = faults;
    cfg.max_events = 200_000;
    let mut sim = Simulation::new(cfg, procs);
    assert_eq!(sim.run(), RunOutcome::Quiescent, "a timer re-arms forever");
    for (me, peer) in [(0, 1), (1, 0)] {
        let p = sim.proc(ProcId(me));
        let expected: Vec<u32> = (0..sent[peer as usize]).collect();
        assert_eq!(p.inner().seen, expected, "P{peer} -> P{me}");
        assert_eq!(p.unacked(), 0, "P{me} outbox");
        assert_eq!(p.session_stats().aborted, 0, "P{me} gave up");
    }
    sim
}

fn retransmissions(sim: &Simulation<SessionProc<Talker>>) -> u64 {
    (0..2)
        .map(|p| sim.proc(ProcId(p)).session_stats().retransmissions)
        .sum()
}

fn plan() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..600, 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// The contract, and a cost law that resending the whole outbox on a
    /// timeout fails at any loss rate: a retransmission answers a loss. A
    /// lost payload is resent once (by the hole report or by the probe); a
    /// lost frame that carried an ack can cost a probe in the other
    /// direction as well; nothing else is ever resent. `dropped` counts
    /// every lost frame — payloads, repairs and acks alike.
    #[test]
    fn loss_and_duplication_cost_at_most_two_retransmissions_per_loss(
        seed in any::<u64>(),
        to_p1 in plan(),
        to_p0 in plan(),
        loss_pct in 0u32..=30,
        dup_pct in 0u32..=30,
    ) {
        let faults = FaultPlan::lossy(loss_pct as f64 / 100.0).with_dup(dup_pct as f64 / 100.0);
        let sim = converse(seed, [to_p1, to_p0], faults);
        let dropped = sim.stats().faults().dropped;
        let retx = retransmissions(&sim);
        prop_assert!(retx <= 2 * dropped, "{} retransmissions for {} losses", retx, dropped);
    }

    /// The contract alone, with one end crashing and restarting somewhere
    /// in the conversation (a crash loses everything in flight toward it,
    /// acks included, so its cost is not bounded by `dropped`).
    #[test]
    fn a_crash_of_either_end_keeps_delivery_exactly_once(
        seed in any::<u64>(),
        to_p1 in plan(),
        to_p0 in plan(),
        loss_pct in 0u32..=30,
        dup_pct in 0u32..=30,
        victim in 0u32..2,
        at in 0u64..700,
        down_for in 1u64..500,
    ) {
        let faults = FaultPlan::lossy(loss_pct as f64 / 100.0)
            .with_dup(dup_pct as f64 / 100.0)
            .with_crash(CrashEvent {
                proc: ProcId(victim),
                at: SimTime(at),
                restart_at: Some(SimTime(at + down_for)),
            });
        converse(seed, [to_p1, to_p0], faults);
    }
}

/// What a report says is held must never count as delivered at the sender:
/// the receiver's reorder buffer is volatile. One scripted loss (a partition
/// exactly one tick wide) leaves every later sequence buffered behind the
/// hole and reported held; then the receiver crashes, at every instant of
/// the run in turn, and restarts 40 ticks on. Whatever it had reported
/// holding is gone — and is delivered all the same.
#[test]
fn a_receiver_crash_at_any_instant_loses_nothing_it_reported_holding() {
    let stream = || [(0..60).collect::<Vec<u64>>(), vec![]];
    let one_loss = || {
        FaultPlan::none().with_partition(Partition {
            start: SimTime(5),
            end: SimTime(6),
            side_a: vec![ProcId(0)],
            side_b: vec![ProcId(1)],
        })
    };
    let clean = converse(7, stream(), one_loss());
    assert_eq!(clean.stats().faults().partition_dropped, 1);
    assert!(
        clean.proc(ProcId(1)).session_stats().out_of_order > 0,
        "nothing was held behind the hole"
    );
    assert_eq!(retransmissions(&clean), 1, "the hole, once");

    let mut resent_held = 0;
    for at in 0..=clean.now().ticks() {
        let sim = converse(
            7,
            stream(),
            one_loss().with_crash(CrashEvent {
                proc: ProcId(1),
                at: SimTime(at),
                restart_at: Some(SimTime(at + 40)),
            }),
        );
        resent_held += (retransmissions(&sim) > 1) as u32;
    }
    assert!(
        resent_held > 0,
        "no crash instant found the buffer occupied"
    );
}

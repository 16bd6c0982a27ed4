//! Property tests of the reliable session: the contract it restores over a
//! stream that mixes both delivery classes (every payload delivered to the
//! inner process exactly once, the `Ordered` ones of a channel in send
//! order, across loss, duplication and a crash of either end) and what
//! restoring it may cost.

use proptest::prelude::*;
use simnet::{
    Context, CrashEvent, Delivery, FaultPlan, Partition, Payload, ProcId, Process, RunOutcome,
    SessionConfig, SessionProc, SimConfig, SimTime, Simulation,
};

#[derive(Clone, Debug)]
struct Num {
    n: u32,
    /// The class the stream's checker holds this payload to.
    ordered: bool,
    /// The class it declares to the session: `ordered`'s, except under
    /// [`Talker::mislabel`].
    declared: Delivery,
}

impl Payload for Num {
    fn kind(&self) -> &'static str {
        "num"
    }
    fn delivery(&self) -> Delivery {
        self.declared
    }
}

/// When to send a payload, and whether it must keep its place in the stream.
type Plan = Vec<(u64, bool)>;

/// Sends its peer (the other of P0, P1) the numbers `0..plan.len()`, number
/// `i` at tick `plan[i].0` (sorted) in class `plan[i].1`, and records what
/// the peer sends it.
struct Talker {
    plan: Plan,
    /// Declare every payload `Unordered`, whatever its class: the bug the
    /// order property exists to catch.
    mislabel: bool,
    sent: usize,
    seen: Vec<Num>,
}

impl Talker {
    fn new(mut plan: Plan, mislabel: bool) -> Self {
        plan.sort_by_key(|&(due, _)| due);
        Talker {
            plan,
            mislabel,
            sent: 0,
            seen: vec![],
        }
    }

    /// Send everything due, then sleep until the next send.
    fn pump(&mut self, ctx: &mut Context<'_, Num>) {
        let now = ctx.now().ticks();
        while let Some(&(due, ordered)) = self.plan.get(self.sent) {
            if due > now {
                ctx.set_timer(due - now, 0);
                return;
            }
            let declared = if ordered && !self.mislabel {
                Delivery::Ordered
            } else {
                Delivery::Unordered
            };
            let num = Num {
                n: self.sent as u32,
                ordered,
                declared,
            };
            ctx.send(ProcId(1 - ctx.me().0), num);
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
        self.seen.push(msg);
    }
}

/// Which clause of the contract a finished conversation broke.
#[derive(Debug, PartialEq)]
enum Broken {
    /// A payload was delivered twice or not at all.
    ExactlyOnce(String),
    /// `Ordered` payloads of one channel were delivered out of send order.
    Order(String),
    /// Something was left unacknowledged or given up on.
    Unsettled(String),
}

type Talk = Simulation<SessionProc<Talker>>;

/// Run P0 and P1 talking to each other under `faults` until the run
/// quiesces.
fn talk(seed: u64, plans: [Plan; 2], mislabel: bool, faults: FaultPlan) -> Talk {
    let procs = plans
        .into_iter()
        .map(|plan| SessionProc::new(Talker::new(plan, mislabel), SessionConfig::reliable()))
        .collect();
    let mut cfg = SimConfig::jittery(seed, 2, 25);
    cfg.faults = faults;
    cfg.max_events = 200_000;
    let mut sim = Simulation::new(cfg, procs);
    assert_eq!(sim.run(), RunOutcome::Quiescent, "a timer re-arms forever");
    sim
}

/// The contract: both streams delivered exactly once, their `Ordered`
/// payloads in send order, nothing left unacknowledged or given up on.
fn contract(sim: &Talk) -> Result<(), Broken> {
    for (me, peer) in [(0, 1), (1, 0)] {
        let (p, sent) = (sim.proc(ProcId(me)), sim.proc(ProcId(peer)).inner().sent);
        let seen = &p.inner().seen;
        let mut all: Vec<u32> = seen.iter().map(|num| num.n).collect();
        all.sort_unstable();
        if all != (0..sent as u32).collect::<Vec<_>>() {
            return Err(Broken::ExactlyOnce(format!("P{peer} -> P{me}: {all:?}")));
        }
        let ordered: Vec<u32> = seen
            .iter()
            .filter(|num| num.ordered)
            .map(|num| num.n)
            .collect();
        if !ordered.windows(2).all(|pair| pair[0] < pair[1]) {
            return Err(Broken::Order(format!("P{peer} -> P{me}: {ordered:?}")));
        }
        if p.unacked() != 0 || p.session_stats().aborted != 0 {
            return Err(Broken::Unsettled(format!("P{me}: {:?}", p.session_stats())));
        }
    }
    Ok(())
}

/// [`talk`], honestly labelled; panics unless the [`contract`] holds.
fn converse(seed: u64, plans: [Plan; 2], faults: FaultPlan) -> Talk {
    let sim = talk(seed, plans, false, faults);
    assert_eq!(contract(&sim), Ok(()));
    sim
}

fn retransmissions(sim: &Talk) -> u64 {
    (0..2)
        .map(|p| sim.proc(ProcId(p)).session_stats().retransmissions)
        .sum()
}

fn plan() -> impl Strategy<Value = Plan> {
    proptest::collection::vec((0u64..600, any::<bool>()), 0..200)
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

/// What a report says is held must never count as delivered at the sender
/// — the receiver's reorder buffer is volatile — while what was delivered
/// early must never be delivered again: that record is stable. One scripted
/// loss (a partition exactly one tick wide) leaves every later sequence past
/// the hole, the `Ordered` half buffered and the rest delivered, all of it
/// reported held; then the receiver crashes, at every instant of the run in
/// turn, and restarts 40 ticks on. What it had buffered is gone and is
/// delivered all the same; what it had delivered is not delivered twice.
#[test]
fn a_receiver_crash_at_any_instant_loses_nothing_it_reported_holding() {
    let stream = || [(0..60).map(|i| (i, i % 2 == 0)).collect::<Plan>(), vec![]];
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
    let stats = clean.proc(ProcId(1)).session_stats();
    assert!(stats.held > 0, "nothing was held behind the hole");
    assert!(stats.early_delivered > 0, "nothing overtook the hole");
    assert_eq!(retransmissions(&clean), 1, "the hole, once");

    let (mut resent_held, mut repeated_early) = (0, 0);
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
        let stats = sim.proc(ProcId(1)).session_stats();
        repeated_early += (stats.early_delivered > 0 && stats.dup_suppressed > 0) as u32;
    }
    assert!(
        resent_held > 0,
        "no crash instant found the buffer occupied"
    );
    assert!(
        repeated_early > 0,
        "no crash instant saw an early-delivered payload retransmitted"
    );
}

/// The checker's own check. A payload type that declares *everything*
/// `Unordered` gets what it asked for — each payload once, the moment it
/// arrives — and the order property must say so: under loss, some `Ordered`
/// payload is delivered ahead of one sent before it.
#[test]
fn declaring_everything_unordered_fails_the_order_property() {
    let stream = || [(0..60).map(|i| (i, true)).collect::<Plan>(), vec![]];
    let mut caught = 0;
    for seed in 0..8 {
        let sim = talk(seed, stream(), true, FaultPlan::lossy(0.1));
        match contract(&sim) {
            Ok(()) => {}
            Err(Broken::Order(_)) => caught += 1,
            Err(other) => panic!("seed {seed}: mislabelling broke more than order: {other:?}"),
        }
        assert_eq!(
            contract(&talk(seed, stream(), false, FaultPlan::lossy(0.1))),
            Ok(())
        );
    }
    assert!(caught > 0, "no seed delivered an overtaken payload late");
}

//! Exploration schedulers: the strategies that pick which enabled event
//! fires next, plus the recording/replay wrappers that turn every run into
//! a replayable choice string.
//!
//! Each strategy implements [`simnet::Scheduler`] and therefore only ever
//! picks among the simulator's *enabled* set — one head per FIFO channel,
//! one timer per processor, crash-before-restart (see
//! `simnet::schedule`). Any sequence of picks is thus a legal execution of
//! the protocol's fault and ordering model; the strategies differ only in
//! how adversarially they search the space:
//!
//! * [`Strategy::Fifo`] — the baseline order (index 0 = lowest seq).
//! * [`Strategy::Random`] — uniform among enabled events (the classic
//!   randomized scheduler; good general coverage).
//! * [`Strategy::Lifo`] — newest message first for a bounded prefix of the
//!   run, starving old traffic; surfaces bugs hidden by quasi-FIFO
//!   delivery.
//! * [`Strategy::DelayProc`] — starves one victim processor of incoming
//!   messages for a bounded prefix of the run, then reverts to FIFO.
//! * [`Strategy::FaultAlign`] — holds scheduled crash/restart events until
//!   a delivery burst is pending, aligning the fault with the moment the
//!   most protocol state is in flight.
//!
//! The two bounds matter: the session layer's retransmission timers
//! regenerate non-victim events forever, so an unbounded delay never
//! quiesces, and an action that re-sends itself — an `InsertAt`
//! re-descending to a leaf retired ahead of its absorb — is always the
//! newest delivery, so an unbounded LIFO delivers nothing else until the
//! event limit.
//!
//! A [`Recording`] wrapper logs every pick into a shared trace; [`Replay`]
//! feeds a trace back, clamping out-of-range or exhausted entries to the
//! FIFO choice so a trace stays legal even after the shrinker mutates the
//! scenario underneath it.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simnet::{Choice, ChoiceKind, ProcId, Scheduler, SimTime};

/// A named exploration strategy, the unit the explorer round-robins over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Baseline simulator order.
    Fifo,
    /// Uniform random among enabled events.
    Random,
    /// Newest delivery first for a bounded prefix.
    Lifo,
    /// Starve one processor for a bounded prefix.
    DelayProc,
    /// Align scheduled faults with delivery bursts.
    FaultAlign,
}

impl Strategy {
    /// Every strategy, in the order the explorer cycles through them.
    pub const ALL: [Strategy; 5] = [
        Strategy::Fifo,
        Strategy::Random,
        Strategy::Lifo,
        Strategy::DelayProc,
        Strategy::FaultAlign,
    ];

    /// Stable name (used in repro files and reports).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Fifo => "fifo",
            Strategy::Random => "random",
            Strategy::Lifo => "lifo",
            Strategy::DelayProc => "delay-proc",
            Strategy::FaultAlign => "fault-align",
        }
    }

    /// Parse a [`Strategy::name`] back.
    pub fn from_name(name: &str) -> Option<Strategy> {
        Strategy::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Instantiate the strategy for one run. `seed` feeds the strategy's
    /// private RNG (deterministic per run); `n_procs` lets the
    /// processor-targeting strategies pick a victim.
    pub fn build(self, seed: u64, n_procs: u32) -> Box<dyn Scheduler> {
        match self {
            Strategy::Fifo => Box::new(simnet::FifoScheduler),
            Strategy::Random => Box::new(UniformRandom::new(seed)),
            Strategy::Lifo => Box::new(Lifo {
                budget: 200 + seed % 300,
            }),
            Strategy::DelayProc => {
                let victim = ProcId((seed % n_procs.max(1) as u64) as u32);
                let budget = 200 + seed % 300;
                Box::new(DelayProc::new(victim, budget, seed))
            }
            Strategy::FaultAlign => Box::new(FaultAlign::new(seed)),
        }
    }
}

/// Uniform random among the enabled events.
pub struct UniformRandom {
    rng: SmallRng,
}

impl UniformRandom {
    /// A fresh scheduler with its own deterministic RNG.
    pub fn new(seed: u64) -> Self {
        UniformRandom {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for UniformRandom {
    fn choose(&mut self, _now: SimTime, enabled: &[Choice]) -> usize {
        self.rng.gen_range(0..enabled.len())
    }
}

/// Newest delivery first for the first `budget` choices — timers and
/// control events only when no delivery is enabled, starving old in-flight
/// traffic maximally; past the budget, plain FIFO.
pub struct Lifo {
    budget: u64,
}

impl Scheduler for Lifo {
    fn choose(&mut self, _now: SimTime, enabled: &[Choice]) -> usize {
        if self.budget == 0 {
            return 0;
        }
        self.budget -= 1;
        // `enabled` is sorted by seq, so the last delivery is the newest.
        enabled
            .iter()
            .rposition(|c| c.kind == ChoiceKind::Deliver)
            .unwrap_or(0)
    }
}

/// Starve `victim` of incoming deliveries for the first `budget` choices,
/// picking randomly among the others; past the budget, plain FIFO. The
/// bound keeps runs finite: retransmission timers for the starved channels
/// keep generating non-victim events, so "never deliver to the victim"
/// never quiesces.
pub struct DelayProc {
    victim: ProcId,
    budget: u64,
    rng: SmallRng,
}

impl DelayProc {
    /// Delay deliveries to `victim` for the first `budget` choices.
    pub fn new(victim: ProcId, budget: u64, seed: u64) -> Self {
        DelayProc {
            victim,
            budget,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for DelayProc {
    fn choose(&mut self, _now: SimTime, enabled: &[Choice]) -> usize {
        if self.budget == 0 {
            return 0;
        }
        self.budget -= 1;
        let spared: Vec<usize> = enabled
            .iter()
            .enumerate()
            .filter(|(_, c)| !(c.kind == ChoiceKind::Deliver && c.to == self.victim))
            .map(|(i, _)| i)
            .collect();
        if spared.is_empty() {
            0 // only the victim has pending events; delaying further is moot
        } else {
            spared[self.rng.gen_range(0..spared.len())]
        }
    }
}

/// Hold scheduled crash/restart (control) events back until at least two
/// deliveries are pending, then fire the control — the crash lands exactly
/// when a burst of protocol state is in flight. Between bursts, picks
/// randomly among non-control events.
pub struct FaultAlign {
    rng: SmallRng,
}

impl FaultAlign {
    /// A fresh fault-aligning scheduler.
    pub fn new(seed: u64) -> Self {
        FaultAlign {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for FaultAlign {
    fn choose(&mut self, _now: SimTime, enabled: &[Choice]) -> usize {
        let control = enabled.iter().position(|c| c.kind == ChoiceKind::Control);
        let delivers = enabled
            .iter()
            .filter(|c| c.kind == ChoiceKind::Deliver)
            .count();
        if let Some(ctrl) = control {
            if delivers >= 2 {
                return ctrl;
            }
        }
        let rest: Vec<usize> = enabled
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind != ChoiceKind::Control)
            .map(|(i, _)| i)
            .collect();
        if rest.is_empty() {
            0
        } else {
            rest[self.rng.gen_range(0..rest.len())]
        }
    }
}

/// A shared, growable choice trace (the run's schedule-choice string).
pub type ChoiceTrace = Rc<RefCell<Vec<u32>>>;

/// Wraps any scheduler and records every pick into a [`ChoiceTrace`] the
/// caller keeps a handle to — the simulator owns the scheduler box, so the
/// trace rides outside it.
pub struct Recording {
    inner: Box<dyn Scheduler>,
    trace: ChoiceTrace,
}

impl Recording {
    /// Wrap `inner`; returns the wrapper and the shared trace handle.
    pub fn new(inner: Box<dyn Scheduler>) -> (Self, ChoiceTrace) {
        let trace: ChoiceTrace = Rc::new(RefCell::new(Vec::new()));
        (
            Recording {
                inner,
                trace: Rc::clone(&trace),
            },
            trace,
        )
    }
}

impl Scheduler for Recording {
    fn choose(&mut self, now: SimTime, enabled: &[Choice]) -> usize {
        // Clamp before recording so the trace replays exactly, even if the
        // inner strategy returned an out-of-range index.
        let idx = self.inner.choose(now, enabled).min(enabled.len() - 1);
        self.trace.borrow_mut().push(idx as u32);
        idx
    }

    fn fired(&mut self, chosen: &Choice, created: std::ops::Range<u64>) {
        self.inner.fired(chosen, created);
    }
}

/// Replays a recorded choice string. Entries past the end of the string —
/// or out of range for the current enabled set, which happens once the
/// shrinker has removed operations from the scenario — degrade to the FIFO
/// choice, keeping every replay a legal schedule.
pub struct Replay {
    choices: Vec<u32>,
    cursor: usize,
}

impl Replay {
    /// Replay `choices` from the start.
    pub fn new(choices: Vec<u32>) -> Self {
        Replay { choices, cursor: 0 }
    }
}

impl Scheduler for Replay {
    fn choose(&mut self, _now: SimTime, enabled: &[Choice]) -> usize {
        let idx = self.choices.get(self.cursor).copied().unwrap_or(0) as usize;
        self.cursor += 1;
        if idx < enabled.len() {
            idx
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(seq: u64, to: u32) -> Choice {
        Choice {
            seq,
            at: SimTime(0),
            to: ProcId(to),
            from: Some(ProcId(9)),
            kind: ChoiceKind::Deliver,
            label: "msg",
        }
    }

    fn control(seq: u64, to: u32) -> Choice {
        Choice {
            seq,
            at: SimTime(0),
            to: ProcId(to),
            from: None,
            kind: ChoiceKind::Control,
            label: "crash",
        }
    }

    #[test]
    fn lifo_prefers_newest_delivery() {
        let mut s = Lifo { budget: 2 };
        let enabled = [deliver(1, 0), control(2, 1), deliver(5, 2)];
        assert_eq!(s.choose(SimTime(0), &enabled), 2);
        let only_control = [control(2, 1)];
        assert_eq!(s.choose(SimTime(0), &only_control), 0);
        // Budget exhausted: FIFO again.
        assert_eq!(s.choose(SimTime(0), &enabled), 0);
    }

    #[test]
    fn delay_proc_spares_victim_until_budget_runs_out() {
        let mut s = DelayProc::new(ProcId(1), 2, 7);
        let enabled = [deliver(1, 1), deliver(2, 0)];
        assert_eq!(s.choose(SimTime(0), &enabled), 1);
        assert_eq!(s.choose(SimTime(0), &enabled), 1);
        // Budget exhausted: FIFO again.
        assert_eq!(s.choose(SimTime(0), &enabled), 0);
    }

    #[test]
    fn fault_align_waits_for_a_burst() {
        let mut s = FaultAlign::new(3);
        // One delivery pending: the control is held back.
        let calm = [deliver(1, 0), control(9, 2)];
        assert_eq!(s.choose(SimTime(0), &calm), 0);
        // Two deliveries pending: the control fires.
        let burst = [deliver(1, 0), deliver(2, 1), control(9, 2)];
        assert_eq!(s.choose(SimTime(0), &burst), 2);
    }

    #[test]
    fn replay_clamps_out_of_range_and_exhausted_entries() {
        let mut r = Replay::new(vec![1, 7]);
        let enabled = [deliver(1, 0), deliver(2, 1)];
        assert_eq!(r.choose(SimTime(0), &enabled), 1);
        assert_eq!(r.choose(SimTime(0), &enabled), 0); // 7 out of range
        assert_eq!(r.choose(SimTime(0), &enabled), 0); // exhausted
    }

    #[test]
    fn recording_captures_the_clamped_choice() {
        let (mut rec, trace) = Recording::new(Box::new(Lifo { budget: 8 }));
        let enabled = [deliver(1, 0), deliver(5, 2)];
        rec.choose(SimTime(0), &enabled);
        rec.choose(SimTime(0), &enabled);
        assert_eq!(*trace.borrow(), vec![1, 1]);
    }
}

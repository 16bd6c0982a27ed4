//! Schedule control: letting an external controller pick which pending
//! event fires next.
//!
//! The default simulator fires events in virtual-time order, so one seed
//! yields exactly one interleaving — the one the latency model happens to
//! produce. A [`Scheduler`] installed via [`Simulation::set_scheduler`]
//! replaces that policy: before every step the simulator computes the set of
//! *enabled* events and asks the controller which one fires next, turning
//! the same workload into an explorable space of legal interleavings.
//!
//! ## Enabled events
//!
//! Not every pending event is a legal next step: the network guarantees
//! FIFO delivery per `(src, dst)` channel, and a crash must precede its own
//! restart. The simulator therefore groups pending events into classes —
//! deliveries by channel, timers by target processor, crash/restart controls
//! by target processor — and exposes only the oldest (lowest-sequence) event
//! of each class. Picking any enabled event is then schedule-legal by
//! construction: a message can be delayed arbitrarily long, but never
//! overtaken by a later message on its own channel.
//!
//! Virtual time degenerates to causal order under a controller: the chosen
//! event fires at `max(now, at)`, so latencies stop mattering and the
//! schedule-choice sequence alone determines the run. That is exactly what
//! makes a recorded choice string a complete, replayable schedule.
//!
//! [`Simulation::set_scheduler`]: crate::Simulation::set_scheduler

use crate::{ProcId, SimTime};

/// What sort of event a [`Choice`] would fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChoiceKind {
    /// A message delivery (the head of one `(src, dst)` channel).
    Deliver,
    /// A timer firing on the target processor.
    Timer,
    /// A fault-plan control event (crash or restart) on the target.
    Control,
}

/// One enabled event, as presented to a [`Scheduler`].
#[derive(Clone, Copy, Debug)]
pub struct Choice {
    /// Global sequence number of the underlying event — unique, and totally
    /// ordering the enabled set (choices are presented sorted by it).
    pub seq: u64,
    /// The virtual time the latency model had scheduled this event for.
    pub at: SimTime,
    /// Target processor.
    pub to: ProcId,
    /// Sending processor for deliveries ([`ProcId::EXTERNAL`] for injected
    /// client messages); `None` for timers and controls.
    pub from: Option<ProcId>,
    /// What firing this choice does.
    pub kind: ChoiceKind,
    /// Static label of the underlying event: the payload's
    /// [`Payload::kind`](crate::Payload::kind) for deliveries (the victim's
    /// for tombstones), `"timer"` for timers, `"crash"`/`"restart"` for
    /// controls. This is the hook the model checker's independence relation
    /// keys on — two deliveries to the same processor may still commute if
    /// the §4.1 taxonomy says their kinds do.
    pub label: &'static str,
}

/// A schedule controller: picks which enabled event the simulator fires
/// next.
///
/// `choose` is called once per step with the enabled set (never empty,
/// sorted by `seq` — index 0 is the oldest enabled event). The return value
/// is an index into `enabled`;
/// out-of-range values are clamped to the last entry, so a replayed choice
/// string recorded against a slightly different run still yields a legal
/// (if different) schedule rather than a panic.
pub trait Scheduler {
    /// Pick the next event to fire.
    fn choose(&mut self, now: SimTime, enabled: &[Choice]) -> usize;

    /// Observation hook: called after the chosen event fired and all its
    /// immediate effects (sends, timer arms) were scheduled. `created` is
    /// the half-open range of event sequence numbers the firing allocated —
    /// the causal "this step created those events" edge DPOR's
    /// happens-before relation is built from. Default: ignore.
    fn fired(&mut self, chosen: &Choice, created: std::ops::Range<u64>) {
        let _ = (chosen, created);
    }
}

/// The identity controller: always picks the lowest-sequence enabled event.
/// Useful as a base case and for exercising the controlled step path itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn choose(&mut self, _now: SimTime, _enabled: &[Choice]) -> usize {
        0
    }
}

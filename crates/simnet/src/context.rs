//! The per-action handle a [`Process`](crate::Process) uses to interact with
//! the world: send messages, set timers, read the clock and its span.
//! Nothing else: a handler reaches its own process and this handle, which is
//! what lets the simulator run a tick's actions on several cores.

use crate::trace::TraceEvent;
use crate::{ProcId, SimTime};

/// Buffered outgoing effects of one action.
#[derive(Debug)]
pub(crate) enum Effect<M> {
    Send {
        to: ProcId,
        msg: M,
    },
    Timer {
        delay: u64,
        token: u64,
    },
    /// A process-emitted trace annotation (detector transitions, recovery
    /// milestones). Recorded into the causal trace with the action's span;
    /// no message moves.
    Mark {
        event: TraceEvent,
        kind: &'static str,
        detail: String,
    },
}

/// Handle passed to every [`Process`](crate::Process) callback.
///
/// All effects are buffered and applied by the runtime after the callback
/// returns, which is what makes each callback an atomic *action* in the
/// paper's sense.
pub struct Context<'a, M> {
    pub(crate) me: ProcId,
    pub(crate) now: SimTime,
    pub(crate) effects: &'a mut Vec<Effect<M>>,
    /// Span of the action being executed (the delivered message's span, or
    /// the sending action's span it inherited). Everything this action sends
    /// inherits it unless the payload carries its own.
    pub(crate) span: Option<u64>,
}

impl<'a, M> Context<'a, M> {
    /// The processor this action is executing on.
    #[inline]
    pub fn me(&self) -> ProcId {
        self.me
    }

    /// Current virtual time (wall-clock-derived in the threaded runtime).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Send `msg` to `to`. Sending to [`ProcId::EXTERNAL`] emits a
    /// simulation output; sending to `self.me()` enqueues a local action.
    #[inline]
    pub fn send(&mut self, to: ProcId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Fire `on_timer(token)` on this processor after `delay` ticks.
    #[inline]
    pub fn set_timer(&mut self, delay: u64, token: u64) {
        self.effects.push(Effect::Timer { delay, token });
    }

    /// Record a trace annotation attributed to this action's span: detector
    /// transitions (suspect/alive) and recovery milestones
    /// (quarantine/rejoin). Purely observational — nothing is sent.
    #[inline]
    pub fn mark(&mut self, event: TraceEvent, kind: &'static str, detail: String) {
        self.effects.push(Effect::Mark {
            event,
            kind,
            detail,
        });
    }

    /// The operation span this action runs on behalf of, if any. Sends from
    /// this action inherit it automatically; protocol code only needs it to
    /// stamp state that *outlives* the action (e.g. buffered relay items
    /// flushed later by a timer).
    #[inline]
    pub fn span(&self) -> Option<u64> {
        self.span
    }
}

//! # simnet — deterministic message-passing network simulation
//!
//! `simnet` is the substrate on which the dB-tree protocols run. It provides
//! two runtimes that share a single [`Process`] trait:
//!
//! * [`Simulation`] — a single-threaded discrete-event simulator with a
//!   virtual clock. Channels are reliable and FIFO per `(src, dst)` pair
//!   (exactly the network model assumed by the paper, §4), message latencies
//!   are configurable, and every run is a pure function of its inputs and RNG
//!   seed, so protocol races are reproducible and property-testable.
//! * [`threaded::Cluster`] — the same processes driven by real OS threads,
//!   each behind its own inbox, for wall-clock parallelism.
//!
//! Both implement the [`Runtime`] trait, and the generic workload driver in
//! [`driver`] (op-id allocation, pending-op tracking, closed- and open-loop
//! driving, latency statistics) is written against that trait alone — one
//! driver implementation serves every search structure on either substrate.
//!
//! The simulator counts messages by kind and by locality (see [`NetStats`]),
//! which is what the paper's message-complexity claims (e.g. `3·|copies|` vs
//! `|copies|` messages per split) are measured with.
//!
//! ```
//! use simnet::{Simulation, SimConfig, Process, Context, ProcId, Payload};
//!
//! #[derive(Clone, Debug)]
//! enum Ping { Ping(u32), Pong(u32) }
//! impl Payload for Ping {
//!     fn kind(&self) -> &'static str {
//!         match self { Ping::Ping(_) => "ping", Ping::Pong(_) => "pong" }
//!     }
//! }
//!
//! struct Echo;
//! impl Process for Echo {
//!     type Msg = Ping;
//!     fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: ProcId, msg: Ping) {
//!         if let Ping::Ping(n) = msg { ctx.send(from, Ping::Pong(n)); }
//!     }
//! }
//!
//! let mut sim = Simulation::new(SimConfig::default(), vec![Echo, Echo]);
//! sim.inject(ProcId(0), Ping::Ping(7));
//! sim.run();
//! assert_eq!(sim.stats().total_messages(), 2);
//! ```

#![warn(missing_docs)]

mod context;
pub mod driver;
// Public (but doc-hidden) so the perf ledger's `event.ns_per_push_pop` rung
// can drive it; not part of the supported API surface.
#[doc(hidden)]
#[allow(missing_docs)]
pub mod event;
mod fault;
pub mod fx;
mod health;
mod inbox;
mod json;
mod latency;
mod obs;
pub mod profile;
mod runtime;
pub mod schedule;
pub mod session;
mod sim;
mod stats;
pub mod threaded;
mod time;
mod trace;

pub use context::Context;
pub use driver::{Driver, OpenLoopCfg, Release, RetryPolicy};
pub use fault::{CrashEvent, FaultPlan, FaultStats, Partition};
pub use fx::{FxHashMap, FxHashSet, FxHasher};
pub use health::{Alert, HealthConfig, HealthMonitor, HealthReport};
pub use latency::LatencyModel;
pub use obs::{Histogram, Obs, ObsConfig, ProcSample};
pub use profile::{folded_waits, Hop, OpProfile, Profiler, RunProfile, Segments, ServiceTimes};
pub use runtime::{Poll, QuiesceError, Runtime};
pub use schedule::{Choice, ChoiceKind, FifoScheduler, Scheduler};
pub use session::{
    DetectorConfig, SessionConfig, SessionMsg, SessionProc, SessionStats, PING_INTERVAL,
};
pub use sim::{RunOutcome, SimConfig, Simulation};
pub use stats::{KindStats, NetStats};
pub use time::SimTime;
pub use trace::{SpanIndex, Trace, TraceEntry, TraceEvent};

use std::fmt;

/// Identifier of a simulated processor.
///
/// Processors are dense small integers, assigned in the order the process
/// objects are handed to [`Simulation::new`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

impl ProcId {
    /// Sender id used for messages injected from outside the simulation
    /// (client requests). Replies sent *to* this id are collected as
    /// simulation outputs rather than delivered to a process.
    pub const EXTERNAL: ProcId = ProcId(u32::MAX);

    /// Returns `true` for the synthetic external endpoint.
    #[inline]
    pub fn is_external(self) -> bool {
        self == Self::EXTERNAL
    }

    /// The processor's index into the process table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_external() {
            write!(f, "P(ext)")
        } else {
            write!(f, "P{}", self.0)
        }
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// What the reliable session owes a payload beyond exactly-once delivery.
/// A property of the message *type*: nothing configures it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered in its channel's send order, after every `Ordered` payload
    /// sent before it.
    Ordered,
    /// Commutes with everything else on its channel: delivered the moment
    /// it arrives, even past a hole in the sequence.
    Unordered,
}

/// Message payloads carried by the network.
///
/// `kind` buckets the per-kind statistics; `size_hint` feeds the byte
/// counters (a logical size — the simulator never serializes). `Send + Sync
/// + 'static` because the trace keeps a clone of a delivered payload as it
/// is and renders its `{:?}` only at export.
pub trait Payload: Clone + fmt::Debug + Send + Sync + 'static {
    /// A short static label used to bucket message statistics.
    fn kind(&self) -> &'static str {
        "msg"
    }

    /// Logical size of the message in bytes, for byte accounting.
    fn size_hint(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    /// The operation id this message is explicitly tagged with, for causal
    /// tracing. Most payloads return `None` and inherit the span of the
    /// action that sent them (the runtime propagates it); only messages
    /// that *name* an operation — client requests, replies, buffered relay
    /// items — override this.
    fn span(&self) -> Option<u64> {
        None
    }

    /// `true` if this delivery is a repeat of an earlier transmission
    /// (session-layer retransmission). Traced as `redelivery`.
    fn redelivery(&self) -> bool {
        false
    }

    /// The payload's delivery class under the reliable session
    /// ([`session`]). The raw channels of both runtimes are FIFO whatever it
    /// says.
    fn delivery(&self) -> Delivery {
        Delivery::Ordered
    }

    /// Fold the payload's content into `h`: its share of the model checker's
    /// state fingerprint ([`Simulation::fingerprint`]), so payloads hash
    /// equal exactly when they are equal. A `#[derive(Hash)]` payload
    /// overrides this with `self.hash(h)` — identity is then the structure,
    /// not how `Debug` happens to print it. The default hashes the `{:?}`
    /// text and exists for payloads that are never model-checked.
    fn fingerprint_into<H: std::hash::Hasher>(&self, h: &mut H) {
        std::hash::Hash::hash(&format!("{self:?}"), h);
    }
}

/// A state machine that runs on one simulated processor.
///
/// One invocation of [`Process::on_message`] is the paper's *action*: it runs
/// atomically with respect to all other actions on the same processor, and
/// schedules its subsequent actions by sending messages through the
/// [`Context`].
pub trait Process {
    /// The message type this process exchanges.
    type Msg: Payload;

    /// Called once before any message is delivered.
    fn on_start(&mut self, _ctx: &mut Context<'_, Self::Msg>) {}

    /// Deliver one message. Runs atomically (the paper's node-manager model).
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: ProcId, msg: Self::Msg);

    /// A timer set via [`Context::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Context<'_, Self::Msg>, _token: u64) {}

    /// The processor restarted after a crash: a [`FaultPlan`]'s
    /// [`CrashEvent`] on the simulator, [`threaded::Cluster::crash`] on
    /// threads.
    ///
    /// The crash contract, the same on both runtimes: a crash drops every
    /// delivery the processor has not yet begun — what is queued or in
    /// flight to it, and what reaches it while it is down — and cancels
    /// every timer it had armed. The process object itself survives,
    /// playing the paper's §1.1 "stable" store (a recoverable queue
    /// manager). Implementations should discard whatever state they model
    /// as volatile and re-arm any timers they need.
    ///
    /// Never called without a crash.
    fn on_restart(&mut self, _ctx: &mut Context<'_, Self::Msg>) {}

    /// A failure detector changed its opinion of `peer`: `up = false` when
    /// the peer became suspect (no traffic within the detector's threshold),
    /// `up = true` when a suspected peer was heard from again. The default
    /// ignores the hint — detection is advisory; safety never depends on it.
    ///
    /// Called by the session-layer detector (when enabled) from within an
    /// action, so implementations may send messages and set timers.
    fn on_peer_change(&mut self, _ctx: &mut Context<'_, Self::Msg>, _peer: ProcId, _up: bool) {}

    /// Named monotone counters describing this process's internal work,
    /// snapshotted by the observability layer: the trace records the
    /// per-action *delta* of each counter, and the sampler emits periodic
    /// per-processor time series. The default (no counters) disables both.
    fn metrics(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Append [`Process::metrics`] to `out` — what the sampler calls, and
    /// the trace when the process does not implement
    /// [`Process::take_moved`], with a buffer it reuses. Override it to
    /// write the counters without building a `Vec`; a wrapper that forwards
    /// only `metrics` stays correct through this default.
    fn metrics_into(&self, out: &mut Vec<(&'static str, u64)>) {
        out.extend(self.metrics());
    }

    /// The counters that moved since the last call, for the trace's
    /// per-action deltas: with `out`, append `(name, increase)` for each
    /// counter that rose, in [`Process::metrics`] order; with `None`,
    /// forget every movement so far (the process was handed out mutably,
    /// or ran actions nobody traced). Either way the next call counts
    /// afresh.
    ///
    /// Returns `false` — the default — if the process cannot tell what
    /// moved; the trace then diffs a [`Process::metrics_into`] snapshot
    /// taken before each action against one taken after it. A process that
    /// keeps a touched mask beside its counters answers in time
    /// proportional to what the action raised, not to how many counters it
    /// has.
    fn take_moved(&mut self, _out: Option<&mut Vec<(&'static str, u64)>>) -> bool {
        false
    }

    /// Named point-in-time *level* gauges (queue depths, backlog ages,
    /// dwell times) — unlike [`Process::metrics`] these may fall as well as
    /// rise, so the trace never diffs them; the sampler snapshots them into
    /// the same time series and the [`HealthMonitor`] evaluates its rules
    /// over them. `now` is the sample time, so age-style gauges can be
    /// computed without the process keeping its own clock. Called only when
    /// a sample is due — with sampling disabled this is never invoked, so
    /// the default (no gauges) costs nothing.
    fn gauges(&self, _now: SimTime) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// A digest of this process's *logical* state, for the model checker's
    /// visited-state pruning ([`Simulation::fingerprint`]). Two states with
    /// equal fingerprints must be behaviorally indistinguishable, so
    /// implementations hash the protocol-visible state (stored entries,
    /// links, in-progress restructures) and exclude bookkeeping that cannot
    /// influence future behavior (metrics counters, history logs, wall
    /// times). The default `None` opts the whole simulation out — pruning
    /// on an unfaithful digest would silently skip distinct states.
    fn fingerprint(&self) -> Option<u64> {
        None
    }
}

//! The [`Runtime`] abstraction: one interface over both execution
//! substrates.
//!
//! The paper's processing model (§1.1: a queue manager feeding a node
//! manager over reliable FIFO channels) says nothing about *how* actions are
//! scheduled, so neither does the driver layer. [`Runtime`] is the seam:
//!
//! * [`Simulation`](crate::Simulation) — deterministic discrete events on a
//!   virtual clock;
//! * [`threaded::Cluster`](crate::threaded::Cluster) — processor 0 on the
//!   caller's thread and one OS thread per other processor, wall-clock
//!   microseconds as ticks.
//!
//! The generic workload driver ([`crate::driver`]) is written against this
//! trait only, which is what lets every protocol run — and be measured —
//! identically on both runtimes.

use crate::{Obs, ProcId, Process, SimTime};

/// Why a run aborted before the network went silent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuiesceError {
    /// `SimConfig::max_events` was hit — likely a protocol livelock (or a
    /// fault plan that keeps a retransmission loop alive forever).
    EventLimit {
        /// Events delivered when the limit tripped.
        delivered: u64,
    },
    /// The runtime stopped making progress while operations were still
    /// outstanding (threaded runs: the quiescence probe stabilized with
    /// completions missing; simulated runs never produce this).
    Stalled {
        /// Operations still pending when the run gave up.
        pending: usize,
    },
}

impl std::fmt::Display for QuiesceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuiesceError::EventLimit { delivered } => {
                write!(f, "event limit hit after {delivered} deliveries")
            }
            QuiesceError::Stalled { pending } => {
                write!(f, "runtime stalled with {pending} operations pending")
            }
        }
    }
}

impl std::error::Error for QuiesceError {}

/// What one [`Runtime::poll`] call observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Poll {
    /// External outputs are ready to be drained.
    Outputs,
    /// The requested deadline was reached with no outputs before it.
    Deadline,
    /// The runtime is quiescent: no events remain anywhere (only the
    /// simulator can prove this cheaply; threads report `Idle` instead).
    Quiescent,
    /// Nothing happened for an implementation-chosen grace period; the
    /// caller should decide whether to keep waiting or probe for
    /// quiescence with [`Runtime::settle`].
    Idle,
    /// A configured run limit tripped.
    Limit(QuiesceError),
}

/// An execution substrate for [`Process`] state machines.
///
/// Implemented by the discrete-event [`Simulation`](crate::Simulation) and
/// the wall-clock [`threaded::Cluster`](crate::threaded::Cluster). A
/// `Runtime` owns its processes for the duration of the run and hands them
/// back — joined and final — via [`Runtime::into_procs`], so end-of-run
/// checkers (§3 history digests, convergence, metrics) work identically on
/// both substrates.
pub trait Runtime {
    /// The process type this runtime executes.
    type Proc: Process;

    /// Number of processors.
    fn num_procs(&self) -> usize;

    /// Current time in ticks (virtual for the simulator, wall-clock
    /// microseconds since spawn for threads).
    fn now(&self) -> SimTime;

    /// Deliver `msg` to `to` from [`ProcId::EXTERNAL`] (a client request).
    fn inject(&mut self, to: ProcId, msg: <Self::Proc as Process>::Msg);

    /// Advance until external outputs are available, the optional deadline
    /// is reached, the runtime quiesces, or a limit trips. With no deadline
    /// the simulator never reports [`Poll::Deadline`] or [`Poll::Idle`];
    /// threads report [`Poll::Idle`] after a grace period so callers can
    /// probe for quiescence.
    fn poll(&mut self, deadline: Option<SimTime>) -> Poll;

    /// Run until the network is silent: every queue empty, every armed
    /// timer fired and processed. The simulator steps to queue exhaustion;
    /// the threaded runtime runs a probe barrier until the global action
    /// count stabilizes. Outputs produced on the way are retained for
    /// [`Runtime::drain_outputs`].
    fn settle(&mut self) -> Result<(), QuiesceError>;

    /// Remove and return all collected external outputs, stamped with their
    /// emission time and emitting processor.
    fn drain_outputs(&mut self) -> Vec<(SimTime, ProcId, <Self::Proc as Process>::Msg)>;

    /// Take the observability data accumulated so far — the causal trace
    /// and the per-processor metrics time series — leaving the runtime with
    /// fresh, empty buffers. Both substrates emit the same schema, so
    /// exports and equivalence checks are substrate-agnostic. The default
    /// (for runtimes without observability) returns an empty [`Obs`].
    fn take_obs(&mut self) -> Obs {
        Obs::default()
    }

    /// Tear the runtime down and hand back the final process states (the
    /// threaded runtime joins its worker threads first). Post-run
    /// inspection — history digests, metrics, convergence checks — starts
    /// here.
    fn into_procs(self) -> Vec<Self::Proc>
    where
        Self: Sized;
}

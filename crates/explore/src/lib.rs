//! # explore — schedule exploration with history-theory oracles
//!
//! The simulator (`simnet`) is deterministic: one seed, one schedule. That
//! makes runs reproducible but leaves the schedule *space* unexplored — and
//! the paper's correctness argument (§3) quantifies over all schedules:
//! lazy protocols are correct because every pair of actions that can be
//! reordered commutes. This crate searches that space:
//!
//! * **Schedule controller** — [`sched`] plugs into the simulator's
//!   event-queue hook ([`simnet::Scheduler`]) and permutes delivery order
//!   among the *enabled* events (per-channel FIFO heads, timers, pending
//!   faults), under a seed. Strategies range from uniform random to
//!   targeted adversaries (LIFO, processor starvation, fault-burst
//!   alignment).
//! * **Oracle stack** — [`scenario`] replays the structural checkers, the
//!   §3 history-log check, and the sequence oracle
//!   ([`history::check_sequences`]) after every schedule, so a protocol
//!   bug surfaces as a typed violation no matter which interleaving
//!   exposes it.
//! * **Shrinker** — [`shrink()`] minimizes a failing `(ops, faults,
//!   choices)` triple by delta debugging, re-running every candidate.
//! * **Repro files** — [`repro`] serializes the shrunk case to a
//!   self-contained text file; replaying it reproduces the execution
//!   byte-for-byte, and [`repro::emit_test`] renders it as a `#[test]`.
//! * **Model checker** — [`dpor`] replaces sampling with bounded-exhaustive
//!   enumeration for small configs: depth-first search over the same
//!   choice points, dynamic partial-order reduction whose independence
//!   relation is the history taxonomy's commutation table, state-digest
//!   pruning, and liveness oracles under a fair-schedule bound.
//!   [`frontier`] checkpoints a search to disk so long runs resume.
//!
//! The `explore` binary (`cargo run -p explore -- --help`) wraps all of it
//! with iteration/time budgets for CI smoke jobs and desk debugging.

#![warn(missing_docs)]

pub mod dpor;
pub mod explorer;
pub mod frontier;
pub mod repro;
pub mod scenario;
pub mod sched;
pub mod shrink;

pub use dpor::{check, CheckOptions, CheckReport, CheckState};
pub use explorer::{explore, splitmix64, Budget, Report};
pub use repro::{emit_test, format_repro, format_repro_lossy, parse_repro, run_repro};
pub use scenario::{
    blink_scenario, crash_faults, hash_scenario, light_faults, merge_race_scenario, merge_scenario,
    replay_run, replay_traced, run_recorded, run_under, ExKind, ExOp, Proto, RunReport, Scenario,
};
pub use sched::{Recording, Replay, Strategy};
pub use shrink::{shrink, Failure, ShrinkStats};

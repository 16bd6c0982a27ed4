//! # workload — synthetic workloads for the dB-tree experiments
//!
//! The paper reports no workload traces; its claims are structural. These
//! generators supply the key streams and operation mixes the experiment
//! harness sweeps over: uniform, Zipf-skewed, sequential (the split-heavy
//! adversary), and hotspot distributions, plus operation-mix composition. A
//! generated batch is a plain `Vec<Op>`: replaying it is replaying the run.

#![warn(missing_docs)]

mod dist;
mod mix;

pub use dist::{KeyDist, Zipf};
pub use mix::{Mix, Op, OpKind, WorkloadGen};

//! The perf ledger: the repo's performance benchmark, measured from outside
//! through public traits only. See `perf/README.md`.

pub mod alloc;
pub mod gen;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod reference;
pub mod run;
pub mod rungs;
pub mod timed;
pub mod workloads;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

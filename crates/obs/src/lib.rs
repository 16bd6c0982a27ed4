//! # obs — post-mortem analysis of simnet observability exports
//!
//! The runtimes export three JSONL streams with pinned schemas: the causal
//! trace (`Trace::to_jsonl`), the per-processor sample series
//! (`Obs::series_jsonl`, counters + lazy-lag gauges), and the watchdog
//! alert stream (`Obs::alerts_jsonl`, also embedded in the trace as
//! `alert` records). This crate re-parses those streams **without any
//! dependency on the simulator** — it is the schemas' second, independent
//! consumer — and derives the post-mortem views the `obsctl` binary
//! prints: incident timelines around alerts, lazy-lag percentiles per
//! processor, slowest-op hop chains, windowed metric deltas, and
//! run-vs-run diffs.

#![warn(missing_docs)]

pub mod analyze;
pub mod json;
pub mod model;

pub use analyze::{
    gauge_quantiles, kind_visits, slowest_spans, timeline, window_deltas, Diff, HopChain,
    KindVisits, Quantiles, Report, WindowDelta,
};
pub use json::Json;
pub use model::{parse_samples_jsonl, parse_trace_jsonl, AlertRec, SampleRec, TraceRec};

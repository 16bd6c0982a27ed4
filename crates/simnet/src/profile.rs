//! Critical-path profiling: turn the span-attributed causal [`Trace`] into
//! a per-operation latency decomposition.
//!
//! Every operation's trace entries form a causal DAG: the client request
//! arrives, actions fire on processors, their sends become further
//! deliveries, and one action finally emits the reply ([`TraceEvent::Output`]).
//! The **critical path** is the chain of actions that actually carried the
//! op from submission to reply; everything else the op triggered (lazy relay
//! propagation, split rounds completing in the background) is **off-path**
//! work that never delayed the caller — the paper's "a slow operation never
//! blocks a fast operation" made measurable.
//!
//! Along the path, every tick of latency is attributed to one of four
//! segments, and they sum *exactly* to the measured latency on the
//! simulator's service-time model:
//!
//! * **transit** — wire time between a hop's send (predecessor action's
//!   completion) and its arrival at the destination;
//! * **queueing** — ticks the delivery waited for a busy node manager
//!   ([`TraceEntry::wait`]);
//! * **service** — the action's own execution time on its processor;
//! * **stall** — time between the last span-attributed action's completion
//!   and the reply's departure. Zero for non-blocking protocols; for
//!   blocking ones (sync splits, available-copies locks) it is exactly the
//!   time the op sat parked waiting for an action *not* attributed to it.
//!
//! The decomposition telescopes: with `r_i = at_i − wait_i` (arrival),
//! `d_i = at_i + service(proc_i)` (completion) and `d_0 = submitted`,
//! `latency = Σ_i (r_i − d_{i−1}) + wait_i + service_i` plus the final
//! stall — each term non-negative, nothing double-counted.

use std::collections::BTreeMap;

use crate::driver::DriverStats;
use crate::trace::{Trace, TraceEntry, TraceEvent};
use crate::{ProcId, SimTime};

/// Per-processor service times, mirroring
/// [`SimConfig`](crate::SimConfig)`::service_time` + `service_overrides` —
/// the profiler needs them to reconstruct action completion times from the
/// trace (which records arrivals).
#[derive(Clone, Debug, Default)]
pub struct ServiceTimes {
    base: u64,
    overrides: Vec<(ProcId, u64)>,
}

impl ServiceTimes {
    /// Every processor serves actions in `base` ticks.
    pub fn uniform(base: u64) -> Self {
        ServiceTimes {
            base,
            overrides: Vec::new(),
        }
    }

    /// Override one processor's service time (builder style).
    pub fn with_override(mut self, proc: ProcId, ticks: u64) -> Self {
        self.overrides.push((proc, ticks));
        self
    }

    /// The service time of `proc` (external endpoints serve in 0).
    pub fn of(&self, proc: ProcId) -> u64 {
        if proc.is_external() {
            return 0;
        }
        self.overrides
            .iter()
            .rev()
            .find(|(p, _)| *p == proc)
            .map_or(self.base, |&(_, s)| s)
    }
}

/// One hop on an operation's critical path, with its latency contribution.
#[derive(Clone, Debug)]
pub struct Hop {
    /// The processor the action ran on.
    pub proc: ProcId,
    /// Deliver or Timer.
    pub event: TraceEvent,
    /// The payload kind that triggered the action.
    pub kind: &'static str,
    /// Wire ticks from the predecessor's completion to this arrival.
    pub transit: u64,
    /// Ticks waited for the busy node manager.
    pub queueing: u64,
    /// The action's own execution ticks.
    pub service: u64,
}

/// The full latency decomposition of one operation.
#[derive(Clone, Debug)]
pub struct OpProfile {
    /// The op's span (driver-assigned id).
    pub span: u64,
    /// Measured end-to-end latency (`completed − submitted`).
    pub latency: u64,
    /// Total wire time along the critical path.
    pub transit: u64,
    /// Total node-manager queueing along the critical path.
    pub queueing: u64,
    /// Total action execution time along the critical path.
    pub service: u64,
    /// Reply-side blocking: completion minus the last path action's end.
    pub stall: u64,
    /// `true` when the four segments sum exactly to `latency` with no
    /// clamped (would-be-negative) term — always the case on clean
    /// simulator runs; reconstruction on truncated or faulty traces may be
    /// approximate.
    pub exact: bool,
    /// The critical path, submission → reply.
    pub hops: Vec<Hop>,
    /// Span-attributed actions that ran *off* the critical path (lazy
    /// background work this op triggered but never waited for).
    pub off_path_actions: u64,
    /// Node-manager ticks those off-path actions waited (load they felt).
    pub off_path_queueing: u64,
    /// Execution ticks of off-path actions (load they imposed).
    pub off_path_service: u64,
    /// Ticks the op's background work kept running past its completion.
    pub lazy_tail: u64,
    /// Fault events (drops, duplicates) attributed to this span.
    pub faults: u64,
}

impl OpProfile {
    /// Sum of the four critical-path segments; equals [`OpProfile::latency`]
    /// when [`OpProfile::exact`].
    pub fn segments_sum(&self) -> u64 {
        self.transit + self.queueing + self.service + self.stall
    }
}

/// Aggregated segment totals over a profiled run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Segments {
    /// Operations profiled.
    pub ops: u64,
    /// Summed measured latency.
    pub latency: u64,
    /// Summed wire time.
    pub transit: u64,
    /// Summed node-manager queueing.
    pub queueing: u64,
    /// Summed action execution time.
    pub service: u64,
    /// Summed reply-side blocking.
    pub stall: u64,
    /// Summed off-path action count.
    pub off_path_actions: u64,
    /// Summed off-path queueing ticks.
    pub off_path_queueing: u64,
}

impl Segments {
    /// `part` as a fraction of total latency (0.0 when nothing measured).
    pub fn share(&self, part: u64) -> f64 {
        if self.latency == 0 {
            0.0
        } else {
            part as f64 / self.latency as f64
        }
    }
}

/// A profiled run: per-op decompositions plus the records the profiler had
/// to skip (trace truncated, or the causal chain could not be closed).
#[derive(Debug, Default)]
pub struct RunProfile {
    /// Per-op profiles, in the order the records were supplied.
    pub ops: Vec<OpProfile>,
    /// Records whose critical path could not be reconstructed.
    pub skipped: u64,
}

impl RunProfile {
    /// Segment totals across all profiled ops.
    pub fn totals(&self) -> Segments {
        let mut t = Segments::default();
        for op in &self.ops {
            t.ops += 1;
            t.latency += op.latency;
            t.transit += op.transit;
            t.queueing += op.queueing;
            t.service += op.service;
            t.stall += op.stall;
            t.off_path_actions += op.off_path_actions;
            t.off_path_queueing += op.off_path_queueing;
        }
        t
    }

    /// Number of ops whose decomposition is not exact.
    pub fn inexact(&self) -> u64 {
        self.ops.iter().filter(|o| !o.exact).count() as u64
    }

    /// Folded-stack export of the critical paths themselves: one line per
    /// distinct hop chain, frames `proc.kind` joined by `;`, weighted by
    /// the total latency ticks spent on ops taking that path — so the hop
    /// chains that dominate latency dominate the flamegraph.
    pub fn folded_paths(&self) -> String {
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        for op in &self.ops {
            let stack = op
                .hops
                .iter()
                .map(|h| format!("{}.{}", proc_label(h.proc), h.kind))
                .collect::<Vec<_>>()
                .join(";");
            *agg.entry(stack).or_insert(0) += op.latency;
        }
        let mut out = String::new();
        for (stack, weight) in agg {
            out.push_str(&format!("{stack} {weight}\n"));
        }
        out
    }
}

/// Reconstructs critical paths from a trace given the runtime's service
/// model.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    svc: ServiceTimes,
}

impl Profiler {
    /// A profiler for runs executed under `svc`.
    pub fn new(svc: ServiceTimes) -> Self {
        Profiler { svc }
    }

    /// Profile every record of a driven run. `records` supplies
    /// `(span, submitted, completed)` triples; entries are looked up via a
    /// [span index](Trace::span_index) built once.
    pub fn profile_run(
        &self,
        trace: &Trace,
        records: impl IntoIterator<Item = (u64, SimTime, SimTime)>,
    ) -> RunProfile {
        let index = trace.span_index();
        let mut out = RunProfile::default();
        for (span, submitted, completed) in records {
            match self.profile_op(span, index.of_span(span), submitted, completed) {
                Some(p) => out.ops.push(p),
                None => out.skipped += 1,
            }
        }
        out
    }

    /// Profile a [`DriverStats`] result directly (the record id is the span).
    pub fn profile_stats<Op, O>(&self, trace: &Trace, stats: &DriverStats<Op, O>) -> RunProfile {
        self.profile_run(
            trace,
            stats
                .records
                .iter()
                .map(|r| (r.id, r.submitted, r.completed)),
        )
    }

    /// Decompose one operation given its span-attributed entries (in trace
    /// order). Returns `None` when the causal chain cannot be closed — no
    /// reply in the trace, or a link evicted from the ring buffer.
    pub fn profile_op(
        &self,
        span: u64,
        entries: &[&TraceEntry],
        submitted: SimTime,
        completed: SimTime,
    ) -> Option<OpProfile> {
        let output = entries
            .iter()
            .find(|e| e.event == TraceEvent::Output && e.at == completed)
            .or_else(|| entries.iter().find(|e| e.event == TraceEvent::Output))?;

        // Walk backward from the action that emitted the reply: at each step
        // the current action's `from` names the predecessor processor, and
        // the predecessor action is the latest span-attributed action on it
        // that had *completed* by the time this hop arrived.
        let mut chain: Vec<&TraceEntry> = Vec::new();
        let mut cur = *entries
            .iter()
            .rev()
            .find(|e| is_action(e) && e.to == output.from && e.seq < output.seq)?;
        loop {
            chain.push(cur);
            if cur.from.is_external() {
                break;
            }
            let arrival = cur.at.ticks().saturating_sub(cur.wait);
            let (pred, bound) = (cur.from, cur.seq);
            match entries.iter().rev().find(|e| {
                is_action(e)
                    && e.to == pred
                    && e.seq < bound
                    && e.at.ticks() + self.svc.of(e.to) <= arrival
            }) {
                Some(prev) => cur = prev,
                // Chain broken: sender's action predates the retained trace
                // window, or the hop was handed off by an action attributed
                // to another span (cross-span hand-off). Treat the walk as
                // closed here only if the first hop came from outside.
                None => return None,
            }
        }
        chain.reverse();

        let mut exact = true;
        let mut sub = |a: u64, b: u64| {
            a.checked_sub(b).unwrap_or_else(|| {
                exact = false;
                0
            })
        };
        let mut hops = Vec::with_capacity(chain.len());
        let mut prev_end = submitted.ticks();
        for e in &chain {
            let service = self.svc.of(e.to);
            let arrival = sub(e.at.ticks(), e.wait);
            let transit = sub(arrival, prev_end);
            hops.push(Hop {
                proc: e.to,
                event: e.event,
                kind: e.kind,
                transit,
                queueing: e.wait,
                service,
            });
            prev_end = e.at.ticks() + service;
        }
        let stall = sub(completed.ticks(), prev_end);

        let on_path = |seq: u64| chain.iter().any(|e| e.seq == seq);
        let mut off_actions = 0u64;
        let mut off_queueing = 0u64;
        let mut off_service = 0u64;
        let mut lazy_tail = 0u64;
        let mut faults = 0u64;
        for e in entries {
            match e.event {
                TraceEvent::Deliver | TraceEvent::Timer if !on_path(e.seq) => {
                    off_actions += 1;
                    off_queueing += e.wait;
                    let svc = self.svc.of(e.to);
                    off_service += svc;
                    lazy_tail =
                        lazy_tail.max((e.at.ticks() + svc).saturating_sub(completed.ticks()));
                }
                TraceEvent::Drop | TraceEvent::Duplicate => faults += 1,
                _ => {}
            }
        }

        let (transit, queueing, service) = hops.iter().fold((0, 0, 0), |(t, q, s), h| {
            (t + h.transit, q + h.queueing, s + h.service)
        });
        let latency = completed - submitted;
        let profile = OpProfile {
            span,
            latency,
            transit,
            queueing,
            service,
            stall,
            exact: exact && transit + queueing + service + stall == latency,
            hops,
            off_path_actions: off_actions,
            off_path_queueing: off_queueing,
            off_path_service: off_service,
            lazy_tail,
            faults,
        };
        Some(profile)
    }
}

fn is_action(e: &TraceEntry) -> bool {
    matches!(e.event, TraceEvent::Deliver | TraceEvent::Timer)
}

fn proc_label(p: ProcId) -> String {
    if p.is_external() {
        "ext".to_string()
    } else {
        format!("P{}", p.0)
    }
}

/// Folded-stack export weighted by queueing (flamegraph-compatible): each
/// `proc;event;kind` line carries the total ticks deliveries of that kind
/// waited for that processor's node manager. Combinations that never waited
/// are omitted — the export directly names the hot (queue-building)
/// processors.
pub fn folded_waits(trace: &Trace) -> String {
    let mut agg: BTreeMap<(String, &'static str, &'static str), u64> = BTreeMap::new();
    // Only actions (deliveries, timers) wait, and they act on `to`.
    for e in trace.iter().filter(|e| e.wait > 0) {
        *agg.entry((proc_label(e.to), e.event.as_str(), e.kind))
            .or_insert(0) += e.wait;
    }
    let mut out = String::new();
    for ((proc, event, kind), w) in agg {
        out.push_str(&format!("{proc};{event};{kind} {w}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{ClientProtocol, Completion, Driver, NoScan};
    use crate::{Context, Payload, Process, SimConfig, Simulation};

    fn entry(
        at: u64,
        from: ProcId,
        to: ProcId,
        event: TraceEvent,
        kind: &'static str,
        wait: u64,
    ) -> TraceEntry {
        let mut e = TraceEntry::new(SimTime(at), from, to, event, kind, Some(1));
        e.wait = wait;
        e
    }

    /// Hand-built three-hop chain with known arithmetic:
    /// submit t=0; arrive P0 t=5 (transit 5), service 4, depart 9;
    /// arrive P1 t=15 but waited 3 (sent arrival 12 → transit 3), service 4,
    /// depart 19; reply output at 19+4=23... built explicitly below.
    #[test]
    fn hand_built_chain_decomposes_exactly() {
        let mut t = Trace::with_capacity(16);
        t.record(entry(
            5,
            ProcId::EXTERNAL,
            ProcId(0),
            TraceEvent::Deliver,
            "client",
            0,
        ));
        // P0 departs at 9; wire 3 ticks → raw arrival 12; waited 3 → ran 15.
        t.record(entry(
            15,
            ProcId(0),
            ProcId(1),
            TraceEvent::Deliver,
            "descend",
            3,
        ));
        // P1 departs at 19; output stamped at departure.
        t.record(entry(
            19,
            ProcId(1),
            ProcId::EXTERNAL,
            TraceEvent::Output,
            "done",
            0,
        ));
        // An off-path lazy action the op triggered, running past completion.
        t.record(entry(
            30,
            ProcId(1),
            ProcId(2),
            TraceEvent::Deliver,
            "relay",
            2,
        ));

        let profiler = Profiler::new(ServiceTimes::uniform(4));
        let entries: Vec<&TraceEntry> = t.iter().collect();
        let p = profiler
            .profile_op(1, &entries, SimTime(0), SimTime(19))
            .expect("chain closes");
        assert!(p.exact, "clean chain is exact: {p:?}");
        assert_eq!(p.latency, 19);
        assert_eq!(p.hops.len(), 2);
        // transit: 5 (inject→P0) + 3 (P0 depart 9 → raw arrival 12) = 8.
        assert_eq!(p.transit, 8);
        assert_eq!(p.queueing, 3);
        assert_eq!(p.service, 8);
        // P1 departs at 15+4=19 == completion: no stall.
        assert_eq!(p.stall, 0);
        assert_eq!(p.segments_sum(), p.latency);
        assert_eq!(p.off_path_actions, 1);
        assert_eq!(p.off_path_queueing, 2);
        // Off-path action ends at 30+4=34, 15 ticks past completion.
        assert_eq!(p.lazy_tail, 15);
    }

    /// A reply emitted later than the op's last own action shows up as
    /// stall — the blocked-op (sync split / lock wait) shape.
    #[test]
    fn late_reply_is_attributed_to_stall() {
        let mut t = Trace::with_capacity(16);
        t.record(entry(
            5,
            ProcId::EXTERNAL,
            ProcId(0),
            TraceEvent::Deliver,
            "client",
            0,
        ));
        // The op's own work ends at 5+4=9, but the reply (triggered by some
        // other span's action unblocking it) only departs at 40.
        t.record(entry(
            40,
            ProcId(0),
            ProcId::EXTERNAL,
            TraceEvent::Output,
            "done",
            0,
        ));
        let profiler = Profiler::new(ServiceTimes::uniform(4));
        let entries: Vec<&TraceEntry> = t.iter().collect();
        let p = profiler
            .profile_op(1, &entries, SimTime(0), SimTime(40))
            .expect("chain closes");
        assert!(p.exact);
        assert_eq!(p.transit, 5);
        assert_eq!(p.service, 4);
        assert_eq!(p.stall, 31);
        assert_eq!(p.segments_sum(), 40);
    }

    #[test]
    fn missing_output_or_broken_chain_is_skipped() {
        let profiler = Profiler::new(ServiceTimes::uniform(0));
        assert!(profiler
            .profile_op(1, &[], SimTime(0), SimTime(9))
            .is_none());
        // Output present but its emitting action evicted from the ring.
        let mut t = Trace::with_capacity(4);
        t.record(entry(
            19,
            ProcId(1),
            ProcId::EXTERNAL,
            TraceEvent::Output,
            "done",
            0,
        ));
        let entries: Vec<&TraceEntry> = t.iter().collect();
        assert!(profiler
            .profile_op(1, &entries, SimTime(0), SimTime(19))
            .is_none());
    }

    #[test]
    fn service_overrides_shape_the_decomposition() {
        let svc = ServiceTimes::uniform(2).with_override(ProcId(1), 7);
        assert_eq!(svc.of(ProcId(0)), 2);
        assert_eq!(svc.of(ProcId(1)), 7);
        assert_eq!(svc.of(ProcId::EXTERNAL), 0);
    }

    // -- end-to-end: drive a real simulated workload and assert exactness --

    #[derive(Clone, Debug)]
    enum TMsg {
        Req { id: u64, hop: u32 },
        Done { id: u64 },
    }
    impl Payload for TMsg {
        fn kind(&self) -> &'static str {
            match self {
                TMsg::Req { .. } => "req",
                TMsg::Done { .. } => "done",
            }
        }
        fn span(&self) -> Option<u64> {
            match self {
                TMsg::Req { id, .. } | TMsg::Done { id } => Some(*id),
            }
        }
    }

    /// Forwards each request around the ring `hops` times, then replies.
    struct Relay {
        n: u32,
        hops: u32,
    }
    impl Process for Relay {
        type Msg = TMsg;
        fn on_message(&mut self, ctx: &mut Context<'_, TMsg>, _from: ProcId, msg: TMsg) {
            match msg {
                TMsg::Req { id, hop } if hop < self.hops => {
                    let next = ProcId((ctx.me().0 + 1) % self.n);
                    ctx.send(next, TMsg::Req { id, hop: hop + 1 });
                }
                TMsg::Req { id, .. } => ctx.send(ProcId::EXTERNAL, TMsg::Done { id }),
                TMsg::Done { .. } => {}
            }
        }
    }

    enum RelayProtocol {}
    impl ClientProtocol for RelayProtocol {
        type Msg = TMsg;
        type Op = ProcId;
        type Outcome = ();
        type Scan = NoScan;
        type ScanResult = ();
        fn origin(op: &ProcId) -> ProcId {
            *op
        }
        fn request(id: u64, _op: &ProcId) -> TMsg {
            TMsg::Req { id, hop: 0 }
        }
        fn scan_origin(scan: &NoScan) -> ProcId {
            match *scan {}
        }
        fn scan_request(_id: u64, scan: &NoScan) -> TMsg {
            match *scan {}
        }
        fn parse(msg: TMsg) -> Option<Completion<(), ()>> {
            match msg {
                TMsg::Done { id } => Some(Completion::Op { id, outcome: () }),
                _ => None,
            }
        }
    }

    /// Acceptance: on a real contended run (jitter + service times +
    /// closed-loop concurrency), every op's critical-path segments sum to
    /// its measured latency, exactly.
    #[test]
    fn segments_sum_to_latency_on_a_real_run() {
        let mut cfg = SimConfig::jittery(42, 2, 25);
        cfg.service_time = 4;
        cfg.service_overrides = vec![(ProcId(2), 11)];
        cfg.trace_capacity = 1 << 16;
        let mut sim = Simulation::new(cfg, (0..4).map(|_| Relay { n: 4, hops: 6 }).collect());
        let mut driver: Driver<RelayProtocol> = Driver::new();
        let ops: Vec<ProcId> = (0..120).map(|i| ProcId(i % 4)).collect();
        let stats = driver.try_run_closed_loop(&mut sim, &ops, 3).unwrap();
        assert_eq!(stats.records.len(), 120);

        let svc = ServiceTimes::uniform(4).with_override(ProcId(2), 11);
        let profile = Profiler::new(svc).profile_stats(sim.trace(), &stats);
        assert_eq!(profile.skipped, 0, "every chain closes");
        assert_eq!(profile.ops.len(), 120);
        for op in &profile.ops {
            assert!(op.exact, "span {} inexact: {op:?}", op.span);
            assert_eq!(
                op.segments_sum(),
                op.latency,
                "span {} segments don't telescope",
                op.span
            );
            assert_eq!(op.hops.len(), 7, "6 forwards + the initial delivery");
            assert_eq!(op.stall, 0, "relay ring never blocks a reply");
        }
        let totals = profile.totals();
        assert_eq!(
            totals.latency,
            totals.transit + totals.queueing + totals.service + totals.stall
        );
        assert!(totals.queueing > 0, "concurrency 3 must queue somewhere");
        let degraded_q: u64 = profile
            .ops
            .iter()
            .flat_map(|o| &o.hops)
            .filter(|h| h.proc == ProcId(2))
            .map(|h| h.queueing)
            .sum();
        assert!(degraded_q > 0, "the slow node manager builds a queue");

        // The folded export conserves what the decomposition measured.
        let folded = profile.folded_paths();
        assert!(!folded.is_empty());
        let weight_sum: u64 = folded
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(
            weight_sum, totals.latency,
            "folded weights conserve latency"
        );
    }

    #[test]
    fn folded_event_export_shape() {
        let mut t = Trace::with_capacity(16);
        t.record(entry(
            5,
            ProcId::EXTERNAL,
            ProcId(0),
            TraceEvent::Deliver,
            "client",
            0,
        ));
        t.record(entry(
            8,
            ProcId::EXTERNAL,
            ProcId(0),
            TraceEvent::Deliver,
            "client",
            2,
        ));
        t.record(entry(
            19,
            ProcId(1),
            ProcId::EXTERNAL,
            TraceEvent::Output,
            "done",
            0,
        ));
        let waits = folded_waits(&t);
        assert_eq!(waits, "P0;deliver;client 2\n", "only nonzero waits appear");
    }
}

//! The generic workload driver: one implementation of op-id allocation,
//! pending-op tracking, workload driving, and latency statistics, shared by
//! every search structure and both runtimes.
//!
//! There is one drive loop, for point ops and range scans alike
//! ([`Submission`]); closed- and open-loop driving differ only in *when the
//! next item is released* ([`Release`]). A tripped run limit comes back as a
//! [`QuiesceError`] from every entry point, never as a panic.
//!
//! A structure plugs in by implementing [`ClientProtocol`] — how to turn an
//! operation into a request message and recognize its completion — and gets
//! the whole driver surface (`submit`, `try_run_mixed` and its op-only
//! adapters, quiescence draining, [`DriverStats`]) on any [`Runtime`]. The
//! dB-tree's `DbCluster` and the hash table's `HashCluster` are thin typed
//! wrappers over [`Driver`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fx::FxHashMap;
use crate::runtime::{Poll, QuiesceError, Runtime};
use crate::{Histogram, Payload, ProcId, Process, SimTime};

/// How a search structure talks to clients: request construction and
/// completion parsing. Implementors are zero-sized marker types; all
/// methods are static.
pub trait ClientProtocol {
    /// The wire message type (must match the runtime's process message).
    type Msg: Payload;
    /// A client operation as the workload sees it.
    type Op: Clone;
    /// The structure-reported result of one operation.
    type Outcome;
    /// A range-scan request (use [`NoScan`] if the structure has none).
    type Scan: Clone;
    /// The result of a completed scan.
    type ScanResult;

    /// The processor an operation is submitted to.
    fn origin(op: &Self::Op) -> ProcId;

    /// Build the request message carrying driver-assigned id `id`.
    fn request(id: u64, op: &Self::Op) -> Self::Msg;

    /// The processor a scan is submitted to.
    fn scan_origin(scan: &Self::Scan) -> ProcId;

    /// Build the scan request message carrying driver-assigned id `id`.
    fn scan_request(id: u64, scan: &Self::Scan) -> Self::Msg;

    /// Parse an external output: `Some` if it completes a driver-submitted
    /// operation or scan, `None` for anything else.
    fn parse(msg: Self::Msg) -> Option<Completion<Self::Outcome, Self::ScanResult>>;

    /// Rewrite `op` so the driver submits it to `to` instead of its current
    /// origin. Client-side retry uses this to redirect an operation away
    /// from a suspected-down processor; any live processor can navigate to
    /// the operation's home. The default keeps the op unchanged (no
    /// redirection — retries go back to the original origin).
    fn retarget(op: &Self::Op, to: ProcId) -> Self::Op {
        let _ = to;
        op.clone()
    }
}

/// A runtime whose processes speak protocol `C`'s wire messages: the bound
/// every driver entry point puts on its runtime. Implemented for every such
/// [`Runtime`]; nothing implements it by hand.
pub trait RuntimeFor<C: ClientProtocol>: Runtime<Proc: Process<Msg = C::Msg>> {}

impl<C: ClientProtocol, R: Runtime<Proc: Process<Msg = C::Msg>>> RuntimeFor<C> for R {}

/// A parsed completion message.
pub enum Completion<O, S> {
    /// A point operation finished.
    Op {
        /// The driver-assigned operation id.
        id: u64,
        /// The reported outcome.
        outcome: O,
    },
    /// A range scan finished.
    Scan {
        /// The driver-assigned operation id.
        id: u64,
        /// The collected result.
        result: S,
    },
}

/// Scan type for structures without range scans; uninhabited, so
/// [`ClientProtocol::scan_request`] is trivially unreachable.
#[derive(Clone, Copy, Debug)]
pub enum NoScan {}

/// One item of a workload: a point operation or a range scan, driven
/// through the same loop (see [`Driver::try_run_mixed`]).
#[derive(Clone, Copy, Debug)]
pub enum Submission<Op, Scan> {
    /// A point operation.
    Op(Op),
    /// A range scan.
    Scan(Scan),
}

impl<Op, Scan> Submission<Op, Scan> {
    /// The item, borrowed.
    fn as_ref(&self) -> Submission<&Op, &Scan> {
        match self {
            Submission::Op(op) => Submission::Op(op),
            Submission::Scan(scan) => Submission::Scan(scan),
        }
    }
}

/// A workload item of protocol `C`, borrowed from the caller's slice.
type ItemRef<'a, C> = Submission<&'a <C as ClientProtocol>::Op, &'a <C as ClientProtocol>::Scan>;

/// Completed point-op records of protocol `C`, in completion order.
pub type Records<C> = Vec<OpRecord<<C as ClientProtocol>::Op, <C as ClientProtocol>::Outcome>>;

/// When the drive loop releases the next workload item — the only thing
/// that separates closed- from open-loop driving.
#[derive(Clone, Copy, Debug)]
pub enum Release {
    /// Closed loop: this many items outstanding per origin processor
    /// (clamped to ≥ 1); a completion releases the next item queued at the
    /// same origin.
    Window(usize),
    /// Open loop: arrivals follow the deterministic [`arrival_offsets`]
    /// schedule regardless of completions (the paper's fixed λ regime).
    Schedule(OpenLoopCfg),
}

/// Uniform accessors over protocol-specific outcomes, so [`DriverStats`]
/// can aggregate hops/chases/losses without knowing the structure.
/// Implemented for `()` so outcome-less protocols (driver tests, synthetic
/// profiler workloads) still get the full stats surface.
pub trait OpOutcome {
    /// Nodes visited while navigating to the operation's home.
    fn hops(&self) -> u32 {
        0
    }
    /// Misnavigation recoveries (right-link chases, split-image chases).
    fn chases(&self) -> u32 {
        0
    }
    /// The structure admitted losing the operation (broken strawmen only).
    fn lost(&self) -> bool {
        false
    }
}

impl OpOutcome for () {}

/// A completed operation with its timing. Scans use the same record, with
/// the scan request as `op` and the collected result as `outcome`.
#[derive(Clone, Copy, Debug)]
pub struct OpRecord<Op, O> {
    /// The driver-assigned operation id — also the op's trace *span*, which
    /// is how the critical-path profiler joins records to trace entries.
    pub id: u64,
    /// The submitted operation.
    pub op: Op,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time (when the reply left the structure).
    pub completed: SimTime,
    /// The protocol-reported outcome.
    pub outcome: O,
}

impl<Op, O> OpRecord<Op, O> {
    /// Latency in ticks.
    pub fn latency(&self) -> u64 {
        self.completed - self.submitted
    }
}

/// Client-side robustness policy: per-attempt deadlines, bounded
/// exponential backoff with jitter, and redirection away from suspected
/// processors. Disabled by default — the driver then never times out an
/// operation, draws no randomness, and behaves byte-identically to builds
/// without the retry layer.
///
/// Time quantities are in runtime ticks (virtual for the simulator,
/// microseconds for threads), so callers set them per substrate.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Master switch.
    pub enabled: bool,
    /// Per-attempt deadline: an operation unanswered this long is timed
    /// out, its origin suspected, and the op rescheduled.
    pub deadline: u64,
    /// Backoff before the first resubmission; doubles per attempt.
    pub backoff_base: u64,
    /// Backoff ceiling.
    pub backoff_max: u64,
    /// Give an operation up (count it `abandoned`) after this many
    /// attempts, the initial submission included.
    pub max_attempts: u32,
    /// Seed of the jitter stream (each backoff adds a uniform draw from
    /// `[0, backoff/4]` to decorrelate retry storms).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            enabled: false,
            deadline: 3_000,
            backoff_base: 50,
            backoff_max: 800,
            max_attempts: 8,
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// An enabled policy with default timing.
    pub fn on() -> Self {
        RetryPolicy {
            enabled: true,
            ..RetryPolicy::default()
        }
    }
}

/// One outstanding attempt of a retry-tracked operation.
#[derive(Clone, Copy, Debug)]
struct Attempt {
    /// When this attempt times out.
    deadline_at: SimTime,
    /// How many attempts this op has made, this one included.
    attempts: u32,
    /// The processor this attempt was actually submitted to (the original
    /// origin, or the redirect target if that origin was suspect). A
    /// timeout suspects it; a completion rehabilitates it.
    origin: ProcId,
}

/// An operation waiting out its backoff before resubmission.
struct Resub<Op> {
    op: Op,
    /// Original submission time — latency is measured end to end across
    /// every attempt.
    submitted: SimTime,
    /// Attempts made so far.
    attempts: u32,
}

/// Aggregate results of a driven workload.
#[derive(Clone, Debug)]
pub struct DriverStats<Op, O> {
    /// Completed operations in completion order.
    pub records: Vec<OpRecord<Op, O>>,
    /// Ticks from first injection to last completion.
    pub makespan: u64,
    /// Attempts that hit their per-attempt deadline (retry layer only).
    pub timeouts: u64,
    /// Resubmissions made after a timeout.
    pub retries: u64,
    /// Resubmissions redirected to a different origin because the original
    /// was suspected down.
    pub redirects: u64,
    /// Operations given up after `max_attempts`.
    pub abandoned: u64,
}

impl<Op, O> Default for DriverStats<Op, O> {
    fn default() -> Self {
        DriverStats {
            records: Vec::new(),
            makespan: 0,
            timeouts: 0,
            retries: 0,
            redirects: 0,
            abandoned: 0,
        }
    }
}

impl<Op, O> DriverStats<Op, O> {
    /// Mean latency in ticks.
    pub fn mean_latency(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.latency()).sum::<u64>() as f64 / self.records.len() as f64
    }

    /// The `q`-quantile (clamped to `0..=1`) of latency by nearest-rank;
    /// `q = 0` is the minimum, `q = 1` the maximum, `0` with no records.
    pub fn latency_quantile(&self, q: f64) -> u64 {
        if self.records.is_empty() {
            return 0;
        }
        let mut l: Vec<u64> = self.records.iter().map(|r| r.latency()).collect();
        l.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let idx = (((l.len() - 1) as f64 * q).round() as usize).min(l.len() - 1);
        l[idx]
    }

    /// Operations per 1000 ticks of driven time.
    pub fn throughput_per_kilotick(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.records.len() as f64 * 1000.0 / self.makespan as f64
    }

    /// The full latency distribution as a log₂-bucketed [`Histogram`] —
    /// the registry-friendly aggregate (mergeable across runs), replacing
    /// ad-hoc percentile arithmetic in experiment binaries.
    pub fn latency_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for r in &self.records {
            h.record(r.latency());
        }
        h
    }

    /// Partition the completed records by `class` (e.g. the op kind), so
    /// per-class latency quantiles can be reported alongside the aggregate.
    /// Each partition keeps the run-wide `makespan` (the records shared one
    /// run, so a per-class throughput is still ops over driven time); the
    /// retry counters are run-wide and not attributable to a class, so they
    /// are zeroed in the partitions — read them off the aggregate. Classes
    /// with no records simply don't appear; every accessor is total on an
    /// empty `DriverStats` regardless.
    pub fn split_by<K: Ord, F: FnMut(&Op) -> K>(&self, mut class: F) -> BTreeMap<K, Self>
    where
        Op: Clone,
        O: Clone,
    {
        let mut out: BTreeMap<K, Self> = BTreeMap::new();
        for r in &self.records {
            let part = out.entry(class(&r.op)).or_insert_with(|| DriverStats {
                makespan: self.makespan,
                ..DriverStats::default()
            });
            part.records.push(r.clone());
        }
        out
    }
}

impl<Op, O: OpOutcome> DriverStats<Op, O> {
    /// Mean hops per operation.
    pub fn mean_hops(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .map(|r| r.outcome.hops() as u64)
            .sum::<u64>() as f64
            / self.records.len() as f64
    }

    /// Total misnavigation recoveries.
    pub fn total_chases(&self) -> u64 {
        self.records.iter().map(|r| r.outcome.chases() as u64).sum()
    }

    /// Operations the structure reported losing.
    pub fn lost_count(&self) -> usize {
        self.records.iter().filter(|r| r.outcome.lost()).count()
    }
}

/// Arrival schedule for open-loop (fixed-rate) driving.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopCfg {
    /// Target inter-arrival gap in ticks (clamped to ≥ 1).
    pub period: u64,
    /// Draw each gap uniformly from `[1, 2·period)` instead of using the
    /// constant period (mean stays `period`).
    pub jitter: bool,
    /// Seed for the jitter stream; the schedule is a pure function of
    /// `(n, period, jitter, seed)`.
    pub seed: u64,
}

impl OpenLoopCfg {
    /// A constant-rate schedule: one arrival every `period` ticks.
    pub fn fixed(period: u64) -> Self {
        OpenLoopCfg {
            period,
            jitter: false,
            seed: 0,
        }
    }

    /// A jittered schedule with mean gap `period`.
    pub fn jittered(period: u64, seed: u64) -> Self {
        OpenLoopCfg {
            period,
            jitter: true,
            seed,
        }
    }
}

/// The deterministic arrival offsets (ticks after the run starts) for `n`
/// operations under `cfg`. Exposed so tests and experiments can predict —
/// and assert — the schedule.
pub fn arrival_offsets(n: usize, cfg: &OpenLoopCfg) -> Vec<u64> {
    let period = cfg.period.max(1);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x0A11_5EED);
    let mut t = 0u64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        t += if cfg.jitter {
            rng.gen_range(1..2 * period)
        } else {
            period
        };
        out.push(t);
    }
    out
}

/// Number of consecutive idle polls a threaded run tolerates before a
/// quiescence probe; each idle poll is one grace period long.
const IDLE_PROBE_AFTER: u32 = 1;

/// The generic workload driver. See the module docs; construct with
/// [`Driver::new`] and pass the runtime to each call (the driver does not
/// own the runtime, so wrappers can keep theirs public).
pub struct Driver<C: ClientProtocol> {
    next_op: u64,
    /// Live ids are minted here and the maps are never iterated, so the
    /// fast hasher cannot reorder anything.
    pending: FxHashMap<u64, (C::Op, SimTime)>,
    pending_scans: FxHashMap<u64, (C::Scan, SimTime)>,
    scans: Vec<OpRecord<C::Scan, C::ScanResult>>,
    retry: RetryPolicy,
    retry_rng: SmallRng,
    /// Per-attempt deadlines of retry-tracked live ids (⊆ `pending` keys).
    inflight: BTreeMap<u64, Attempt>,
    /// Timed-out ops waiting out their backoff, keyed by wake time (the
    /// second key component keeps same-tick resubmissions FIFO).
    backlog: BTreeMap<(SimTime, u64), Resub<C::Op>>,
    backlog_seq: u64,
    /// Origins the client currently believes down (an attempt against them
    /// timed out; cleared by the next completion from that origin).
    suspects: BTreeSet<ProcId>,
    timeouts: u64,
    retries: u64,
    redirects: u64,
    abandoned: u64,
}

impl<C: ClientProtocol> Default for Driver<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: ClientProtocol> Driver<C> {
    /// A fresh driver; ids start at 1.
    pub fn new() -> Self {
        Self::with_retry(RetryPolicy::default())
    }

    /// A fresh driver with the given client-side retry policy.
    pub fn with_retry(retry: RetryPolicy) -> Self {
        Driver {
            next_op: 1,
            pending: FxHashMap::default(),
            pending_scans: FxHashMap::default(),
            scans: Vec::new(),
            retry,
            retry_rng: SmallRng::seed_from_u64(retry.seed ^ 0x7E7A_11ED),
            inflight: BTreeMap::new(),
            backlog: BTreeMap::new(),
            backlog_seq: 0,
            suspects: BTreeSet::new(),
            timeouts: 0,
            retries: 0,
            redirects: 0,
            abandoned: 0,
        }
    }

    /// Replace the retry policy (resets the jitter stream).
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
        self.retry_rng = SmallRng::seed_from_u64(retry.seed ^ 0x7E7A_11ED);
    }

    /// Operations submitted but not yet completed (scans included; ops
    /// waiting out a retry backoff included).
    pub fn pending_ops(&self) -> usize {
        self.pending.len() + self.pending_scans.len() + self.backlog.len()
    }

    /// Completed scans (drained).
    pub fn take_scans(&mut self) -> Vec<OpRecord<C::Scan, C::ScanResult>> {
        std::mem::take(&mut self.scans)
    }

    /// Submit one operation; returns the driver-assigned id.
    pub fn submit<R: RuntimeFor<C>>(&mut self, rt: &mut R, op: C::Op) -> u64 {
        let now = rt.now();
        self.submit_attempt(rt, op, now, 1)
    }

    /// Submit one attempt of `op` under a fresh id, preserving the original
    /// submission time so latency is end-to-end across attempts. `pending`
    /// keeps the op exactly as the workload issued it (records and
    /// closed-loop refill see original origins); if that origin is
    /// currently suspect, the attempt itself is redirected to the nearest
    /// non-suspect processor on the wire.
    fn submit_attempt<R: RuntimeFor<C>>(
        &mut self,
        rt: &mut R,
        op: C::Op,
        submitted: SimTime,
        attempts: u32,
    ) -> u64 {
        let id = self.next_op;
        self.next_op += 1;
        let mut wire = op.clone();
        if self.retry.enabled && self.suspects.contains(&C::origin(&wire)) {
            let from = C::origin(&wire);
            let n = rt.num_procs() as u32;
            for step in 1..n {
                let cand = ProcId((from.0 + step) % n);
                if !self.suspects.contains(&cand) {
                    wire = C::retarget(&wire, cand);
                    self.redirects += 1;
                    break;
                }
            }
        }
        self.pending.insert(id, (op, submitted));
        if self.retry.enabled {
            self.inflight.insert(
                id,
                Attempt {
                    deadline_at: rt.now() + self.retry.deadline,
                    attempts,
                    origin: C::origin(&wire),
                },
            );
        }
        rt.inject(C::origin(&wire), C::request(id, &wire));
        id
    }

    /// The next instant the retry layer needs the clock to reach: the
    /// earliest attempt deadline or backlog wake-up. `None` when the retry
    /// layer is off or has nothing scheduled.
    fn next_wake(&self) -> Option<SimTime> {
        if !self.retry.enabled {
            return None;
        }
        let d = self.inflight.values().map(|a| a.deadline_at).min();
        let b = self.backlog.keys().next().map(|(at, _)| *at);
        [d, b].into_iter().flatten().min()
    }

    /// Time out overdue attempts and resubmit ops whose backoff expired.
    /// Timed-out attempts suspect their origin; resubmissions against a
    /// suspected origin are redirected to the nearest non-suspect
    /// processor. No-op while the retry layer is off.
    fn service_retries<R: RuntimeFor<C>>(&mut self, rt: &mut R) {
        if !self.retry.enabled {
            return;
        }
        let now = rt.now();
        let expired: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, a)| a.deadline_at <= now)
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            let a = self.inflight.remove(&id).expect("key just listed");
            let Some((op, submitted)) = self.pending.remove(&id) else {
                continue;
            };
            self.timeouts += 1;
            self.suspects.insert(a.origin);
            if a.attempts >= self.retry.max_attempts {
                self.abandoned += 1;
                continue;
            }
            let shift = (a.attempts - 1).min(16);
            let backoff = (self.retry.backoff_base << shift)
                .min(self.retry.backoff_max)
                .max(1);
            let jitter = self.retry_rng.gen_range(0..=backoff / 4);
            self.backlog_seq += 1;
            self.backlog.insert(
                (now + backoff + jitter, self.backlog_seq),
                Resub {
                    op,
                    submitted,
                    attempts: a.attempts,
                },
            );
        }
        let due: Vec<(SimTime, u64)> = self
            .backlog
            .range(..=(now, u64::MAX))
            .map(|(k, _)| *k)
            .collect();
        for key in due {
            let r = self.backlog.remove(&key).expect("key just listed");
            self.retries += 1;
            // `submit_attempt` redirects away from suspect origins itself.
            self.submit_attempt(rt, r.op, r.submitted, r.attempts + 1);
        }
    }

    /// Submit one scan; returns the driver-assigned id.
    pub fn submit_scan<R: RuntimeFor<C>>(&mut self, rt: &mut R, scan: C::Scan) -> u64 {
        let id = self.next_op;
        self.next_op += 1;
        self.pending_scans.insert(id, (scan.clone(), rt.now()));
        rt.inject(C::scan_origin(&scan), C::scan_request(id, &scan));
        id
    }

    /// Parse everything the runtime has emitted, matching completions to
    /// pending operations. Returns how many ops and scans completed.
    fn drain_into<R: RuntimeFor<C>>(&mut self, rt: &mut R, records: &mut Records<C>) -> usize {
        let before = records.len() + self.scans.len();
        for (at, _from, msg) in rt.drain_outputs() {
            match C::parse(msg) {
                Some(Completion::Op { id, outcome }) => {
                    // Completions of retired attempt ids (the op was
                    // resubmitted under a fresh id after a timeout) are not
                    // in `pending` and fall through silently: the op is
                    // recorded exactly once, under whichever id was live.
                    if let Some((op, submitted)) = self.pending.remove(&id) {
                        if let Some(a) = self.inflight.remove(&id) {
                            // A completion is proof of life for the
                            // processor that served the attempt.
                            self.suspects.remove(&a.origin);
                        }
                        records.push(OpRecord {
                            id,
                            op,
                            submitted,
                            completed: at,
                            outcome,
                        });
                    }
                }
                Some(Completion::Scan { id, result }) => {
                    if let Some((op, submitted)) = self.pending_scans.remove(&id) {
                        self.scans.push(OpRecord {
                            id,
                            op,
                            submitted,
                            completed: at,
                            outcome: result,
                        });
                    }
                }
                None => {}
            }
        }
        records.len() + self.scans.len() - before
    }

    /// Replace a stall's placeholder pending count with the real one.
    fn stamp(&self, e: QuiesceError) -> QuiesceError {
        match e {
            QuiesceError::Stalled { .. } => QuiesceError::Stalled {
                pending: self.pending_ops(),
            },
            other => other,
        }
    }

    /// Run until the network is silent and return the completions drained
    /// on the way, or fail with the limit that tripped. On error the
    /// completions drained so far are dropped with the run: partial results
    /// of an aborted run are not usable.
    pub fn try_run_to_quiescence<R: RuntimeFor<C>>(
        &mut self,
        rt: &mut R,
    ) -> Result<Records<C>, QuiesceError> {
        let mut records = Vec::new();
        let settled = rt.settle();
        self.drain_into(rt, &mut records);
        settled.map(|()| records).map_err(|e| self.stamp(e))
    }

    /// Drive `ops` closed-loop with `concurrency` outstanding operations
    /// per origin processor, then run to quiescence: [`Driver::try_run_mixed`]
    /// over point ops only, under [`Release::Window`].
    pub fn try_run_closed_loop<R: RuntimeFor<C>>(
        &mut self,
        rt: &mut R,
        ops: &[C::Op],
        concurrency: usize,
    ) -> Result<DriverStats<C::Op, C::Outcome>, QuiesceError> {
        self.drive(
            rt,
            ops,
            |op| Submission::Op(op),
            Release::Window(concurrency),
        )
    }

    /// Drive `ops` open-loop on the arrival schedule of `cfg`, then run to
    /// quiescence: [`Driver::try_run_mixed`] over point ops only, under
    /// [`Release::Schedule`].
    pub fn try_run_open_loop<R: RuntimeFor<C>>(
        &mut self,
        rt: &mut R,
        ops: &[C::Op],
        cfg: &OpenLoopCfg,
    ) -> Result<DriverStats<C::Op, C::Outcome>, QuiesceError> {
        self.drive(rt, ops, |op| Submission::Op(op), Release::Schedule(*cfg))
    }

    /// Drive a stream of point ops and range scans, releasing items as
    /// `release` says, then run to quiescence.
    ///
    /// Point-op results land in the returned stats; scan results accumulate
    /// for [`Driver::take_scans`]. Scans are not retried by the retry layer
    /// (they are idempotent reads — the caller can resubmit).
    ///
    /// If the structure loses items (the naive strawmen do, by design), the
    /// run still terminates — at quiescence the lost items' windows simply
    /// never refilled — and the partial records are returned, so loss shows
    /// up as fewer records than items.
    pub fn try_run_mixed<R: RuntimeFor<C>>(
        &mut self,
        rt: &mut R,
        items: &[Submission<C::Op, C::Scan>],
        release: Release,
    ) -> Result<DriverStats<C::Op, C::Outcome>, QuiesceError> {
        self.drive(rt, items, Submission::as_ref, release)
    }

    /// The one drive loop behind every `try_run_*` entry. It borrows the
    /// caller's items and queues their indices, `item` viewing each one as
    /// an op or a scan; an item is cloned only when it is submitted.
    fn drive<R: RuntimeFor<C>, T>(
        &mut self,
        rt: &mut R,
        items: &[T],
        item: impl Fn(&T) -> ItemRef<'_, C>,
        release: Release,
    ) -> Result<DriverStats<C::Op, C::Outcome>, QuiesceError> {
        let start = rt.now();
        let mut records: Records<C> = Vec::with_capacity(items.len());
        let origins = items.iter().map(|x| match item(x) {
            Submission::Op(op) => C::origin(op),
            Submission::Scan(scan) => C::scan_origin(scan),
        });
        let mut queued = Queued::new(rt.num_procs(), start, origins, release);
        let item_at = |i: usize| item(&items[i]);
        if let Release::Window(concurrency) = release {
            // Prime each origin's window.
            for origin in (0..rt.num_procs() as u32).map(ProcId) {
                for _ in 0..concurrency.max(1) {
                    let Some(i) = queued.pop_for(origin) else {
                        break;
                    };
                    self.submit_item(rt, item_at(i));
                }
            }
        }
        let mut idle = 0u32;
        loop {
            while let Some(i) = queued.pop_due(rt.now()) {
                self.submit_item(rt, item_at(i));
            }
            if queued.left == 0
                && self.pending.is_empty()
                && self.pending_scans.is_empty()
                && self.backlog.is_empty()
            {
                // Workload drained; let stragglers (relays, acks) finish.
                rt.settle().map_err(|e| self.stamp(e))?;
                self.drain_into(rt, &mut records);
                break;
            }
            // Poll only as far as the next scheduled arrival and, with the
            // retry layer on, the next attempt deadline or backoff expiry:
            // ops against a crashed processor then time out and retry
            // instead of hanging the run.
            let arrival = queued.next_arrival();
            let wake = [self.next_wake(), arrival].into_iter().flatten().min();
            match rt.poll(wake) {
                Poll::Outputs => {
                    idle = 0;
                    self.drain_and_refill(rt, &mut queued, &mut records, item_at);
                    self.service_retries(rt);
                }
                Poll::Deadline => self.service_retries(rt),
                Poll::Quiescent => {
                    // Simulator: queue empty with items still pending — they
                    // were lost. Retry what the retry layer still owns;
                    // break only once it has nothing left to do and no
                    // arrival is still scheduled.
                    self.drain_and_refill(rt, &mut queued, &mut records, item_at);
                    self.service_retries(rt);
                    if arrival.is_none() && self.next_wake().is_none() {
                        break;
                    }
                }
                Poll::Idle => {
                    // Threads: no outputs for a grace period. Probe: if the
                    // cluster is genuinely quiescent and nothing new
                    // completed, the pending items are lost.
                    idle += 1;
                    if idle <= IDLE_PROBE_AFTER {
                        continue;
                    }
                    rt.settle().map_err(|e| self.stamp(e))?;
                    let done = self.drain_and_refill(rt, &mut queued, &mut records, item_at);
                    if done == 0 && arrival.is_none() {
                        break;
                    }
                    idle = 0;
                }
                Poll::Limit(e) => {
                    self.drain_into(rt, &mut records);
                    return Err(self.stamp(e));
                }
            }
        }
        let last = records
            .iter()
            .map(|r| r.completed)
            .chain(self.scans.iter().map(|s| s.completed))
            .fold(start, SimTime::max);
        Ok(DriverStats {
            records,
            makespan: last - start,
            timeouts: self.timeouts,
            retries: self.retries,
            redirects: self.redirects,
            abandoned: self.abandoned,
        })
    }

    /// Submit one workload item.
    fn submit_item<R: RuntimeFor<C>>(&mut self, rt: &mut R, item: ItemRef<'_, C>) {
        match item {
            Submission::Op(op) => self.submit(rt, op.clone()),
            Submission::Scan(scan) => self.submit_scan(rt, scan.clone()),
        };
    }

    /// Drain completions and, for each, release the next item queued at the
    /// same origin — closed-loop windowing: one out, one in, scans and point
    /// ops alike. (Scheduled items ignore completions; they wait for their
    /// arrival time.) Returns how many items completed.
    fn drain_and_refill<'a, R: RuntimeFor<C>>(
        &mut self,
        rt: &mut R,
        queued: &mut Queued,
        records: &mut Records<C>,
        item_at: impl Fn(usize) -> ItemRef<'a, C>,
    ) -> usize
    where
        C::Op: 'a,
        C::Scan: 'a,
    {
        let (ops_from, scans_from) = (records.len(), self.scans.len());
        let done = self.drain_into(rt, records);
        for r in &records[ops_from..] {
            if let Some(i) = queued.pop_for(C::origin(&r.op)) {
                self.submit_item(rt, item_at(i));
            }
        }
        let scans = std::mem::take(&mut self.scans);
        for s in &scans[scans_from..] {
            if let Some(i) = queued.pop_for(C::scan_origin(&s.op)) {
                self.submit_item(rt, item_at(i));
            }
        }
        self.scans = scans;
        done
    }
}

/// The items of one run not yet released to the runtime, as indices into
/// the caller's slice: per origin for a closed loop, in arrival order for
/// an open one. The container the policy does not serve stays empty, so
/// each accessor is a no-op under it.
struct Queued {
    /// Per-origin FIFO queues of item indices, indexed by processor.
    windows: Vec<VecDeque<u32>>,
    /// Arrival time of every item, in item order; `arrivals[next..]` are
    /// still to come.
    arrivals: Vec<SimTime>,
    next: usize,
    /// Items held in either container: the loop's stop check reads this
    /// instead of scanning every origin's queue.
    left: usize,
}

impl Queued {
    /// Queue `origins.len()` items, item `i` submitted at `origins[i]`.
    fn new<I>(n_procs: usize, start: SimTime, origins: I, release: Release) -> Self
    where
        I: ExactSizeIterator<Item = ProcId>,
    {
        let n = origins.len();
        assert!(u32::try_from(n).is_ok(), "{n} items overflow a u32 index");
        let mut queued = Queued {
            windows: Vec::new(),
            arrivals: Vec::new(),
            next: 0,
            left: n,
        };
        match release {
            Release::Window(_) => {
                queued.windows.resize_with(n_procs, VecDeque::new);
                for (i, origin) in origins.enumerate() {
                    queued.windows[origin.index()].push_back(i as u32);
                }
            }
            Release::Schedule(cfg) => {
                let offsets = arrival_offsets(n, &cfg);
                queued.arrivals = offsets.into_iter().map(|o| start + o).collect();
            }
        }
        queued
    }

    /// The next item queued at `origin`, if any.
    fn pop_for(&mut self, origin: ProcId) -> Option<usize> {
        let i = self.windows.get_mut(origin.index())?.pop_front()?;
        self.left -= 1;
        Some(i as usize)
    }

    /// The next scheduled item, if its arrival time has come.
    fn pop_due(&mut self, now: SimTime) -> Option<usize> {
        if self.next_arrival()? > now {
            return None;
        }
        self.left -= 1;
        self.next += 1;
        Some(self.next - 1)
    }

    /// When the next scheduled item arrives.
    fn next_arrival(&self) -> Option<SimTime> {
        self.arrivals.get(self.next).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, SimConfig, Simulation};

    #[derive(Clone, Debug)]
    enum TMsg {
        Req { id: u64 },
        Done { id: u64 },
        Scan { id: u64 },
        ScanDone { id: u64 },
    }
    impl Payload for TMsg {}

    /// Replies to every request after bouncing it off a peer once.
    struct Echo {
        n: u32,
    }
    impl Process for Echo {
        type Msg = TMsg;
        fn on_message(&mut self, ctx: &mut Context<'_, TMsg>, from: ProcId, msg: TMsg) {
            match msg {
                TMsg::Req { id } if from.is_external() => {
                    let peer = ProcId((ctx.me().0 + 1) % self.n);
                    ctx.send(peer, TMsg::Req { id });
                }
                TMsg::Scan { id } if from.is_external() => {
                    let peer = ProcId((ctx.me().0 + 1) % self.n);
                    ctx.send(peer, TMsg::Scan { id });
                }
                TMsg::Req { id } => ctx.send(from, TMsg::Done { id }),
                TMsg::Scan { id } => ctx.send(from, TMsg::ScanDone { id }),
                done @ (TMsg::Done { .. } | TMsg::ScanDone { .. }) => {
                    ctx.send(ProcId::EXTERNAL, done)
                }
            }
        }
    }

    /// Op = scan = origin processor; outcome = ().
    enum EchoProtocol {}
    impl ClientProtocol for EchoProtocol {
        type Msg = TMsg;
        type Op = ProcId;
        type Outcome = ();
        type Scan = ProcId;
        type ScanResult = ();
        fn origin(op: &ProcId) -> ProcId {
            *op
        }
        fn request(id: u64, _op: &ProcId) -> TMsg {
            TMsg::Req { id }
        }
        fn scan_origin(scan: &ProcId) -> ProcId {
            *scan
        }
        fn scan_request(id: u64, _scan: &ProcId) -> TMsg {
            TMsg::Scan { id }
        }
        fn parse(msg: TMsg) -> Option<Completion<(), ()>> {
            match msg {
                TMsg::Done { id } => Some(Completion::Op { id, outcome: () }),
                TMsg::ScanDone { id } => Some(Completion::Scan { id, result: () }),
                _ => None,
            }
        }
        fn retarget(_op: &ProcId, to: ProcId) -> ProcId {
            to
        }
    }

    fn sim(n: u32, seed: u64) -> Simulation<Echo> {
        Simulation::new(
            SimConfig::jittery(seed, 1, 20),
            (0..n).map(|_| Echo { n }).collect(),
        )
    }

    fn ops(n: u32, count: usize) -> Vec<ProcId> {
        (0..count).map(|i| ProcId(i as u32 % n)).collect()
    }

    #[test]
    fn closed_loop_completes_all() {
        let mut rt = sim(3, 7);
        let mut driver: Driver<EchoProtocol> = Driver::new();
        let work = ops(3, 50);
        let stats = driver.try_run_closed_loop(&mut rt, &work, 4).unwrap();
        assert_eq!(stats.records.len(), 50);
        assert_eq!(driver.pending_ops(), 0);
        assert!(stats.makespan > 0);
        assert!(stats.mean_latency() > 0.0);
    }

    /// Every statistics accessor must be total on zero samples: 0, never a
    /// panic or NaN. Downstream (benchsuite, experiment bins) calls these
    /// unconditionally on possibly-empty cells.
    #[test]
    fn empty_stats_are_total() {
        let empty: DriverStats<ProcId, ()> = DriverStats::default();
        assert_eq!(empty.mean_latency(), 0.0);
        assert!(!empty.mean_latency().is_nan());
        assert_eq!(empty.mean_hops(), 0.0);
        assert!(!empty.mean_hops().is_nan());
        assert_eq!(empty.total_chases(), 0);
        assert_eq!(empty.lost_count(), 0);
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(empty.latency_quantile(q), 0, "q={q}");
        }
        assert_eq!(empty.throughput_per_kilotick(), 0.0);
        let h = empty.latency_histogram();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn split_by_partitions_records_and_keeps_the_makespan() {
        let rec = |id: u64, origin: u32, lat: u64| OpRecord {
            id,
            op: ProcId(origin),
            submitted: SimTime(0),
            completed: SimTime(lat),
            outcome: (),
        };
        let stats = DriverStats {
            records: vec![rec(0, 0, 10), rec(1, 1, 30), rec(2, 0, 20), rec(3, 1, 50)],
            makespan: 100,
            timeouts: 3,
            retries: 2,
            ..Default::default()
        };
        let by_origin = stats.split_by(|op: &ProcId| op.0);
        assert_eq!(by_origin.len(), 2);
        let p0 = &by_origin[&0];
        assert_eq!(p0.records.len(), 2);
        assert_eq!(p0.latency_quantile(1.0), 20);
        assert_eq!(p0.makespan, 100, "partitions keep the run-wide makespan");
        assert_eq!(p0.timeouts, 0, "retry counters are not attributable");
        assert_eq!(p0.retries, 0);
        let p1 = &by_origin[&1];
        assert_eq!(p1.latency_quantile(0.0), 30);
        assert_eq!(p1.latency_quantile(1.0), 50);
        assert_eq!(
            p0.records.len() + p1.records.len(),
            stats.records.len(),
            "partition is exhaustive"
        );
    }

    #[test]
    fn split_by_on_empty_stats_is_total() {
        // Empty-kind totality: a kind with no completions yields no
        // partition, and every accessor on any partition (or on the empty
        // split itself) is total.
        let empty: DriverStats<ProcId, ()> = DriverStats::default();
        let split = empty.split_by(|op: &ProcId| op.0);
        assert!(split.is_empty(), "no records, no partitions");
        // A partition-shaped empty stats object stays total through every
        // accessor (same contract as `empty_stats_are_total`).
        let part: DriverStats<ProcId, ()> = DriverStats {
            makespan: 42,
            ..DriverStats::default()
        };
        assert_eq!(part.mean_latency(), 0.0);
        assert_eq!(part.latency_quantile(0.99), 0);
        assert_eq!(part.throughput_per_kilotick(), 0.0);
        assert_eq!(part.latency_histogram().count(), 0);
    }

    #[test]
    fn quantile_edge_cases() {
        let empty: DriverStats<ProcId, ()> = DriverStats::default();
        assert_eq!(empty.latency_quantile(0.5), 0, "no records -> 0");
        assert_eq!(empty.mean_latency(), 0.0);
        assert_eq!(empty.throughput_per_kilotick(), 0.0);

        let rec = |lat: u64| OpRecord {
            id: lat,
            op: ProcId(0),
            submitted: SimTime(0),
            completed: SimTime(lat),
            outcome: (),
        };
        let single = DriverStats {
            records: vec![rec(42)],
            makespan: 42,
            ..Default::default()
        };
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(single.latency_quantile(q), 42, "single record at q={q}");
        }

        let many = DriverStats {
            records: (1..=100).map(rec).collect(),
            makespan: 100,
            ..Default::default()
        };
        assert_eq!(many.latency_quantile(0.0), 1, "q=0 is the minimum");
        assert_eq!(many.latency_quantile(1.0), 100, "q=1 is the maximum");
        assert_eq!(many.latency_quantile(2.0), 100, "q>1 clamps to max");
        assert_eq!(many.latency_quantile(-0.5), 1, "q<0 clamps to min");
        // Nearest-rank: index round(99 * 0.5) = 50, i.e. the 51st latency.
        assert_eq!(many.latency_quantile(0.5), 51);
    }

    /// Without the retry layer, ops submitted to a permanently crashed
    /// processor hang a closed-loop run (the driver waits forever). With it
    /// they time out, suspect the dead processor, redirect to a live one,
    /// and the whole workload completes.
    fn crash_retry_run() -> (DriverStats<ProcId, ()>, Driver<EchoProtocol>) {
        use crate::{CrashEvent, FaultPlan};
        let mut cfg = SimConfig::jittery(13, 1, 20);
        cfg.faults = FaultPlan::none().with_crash(CrashEvent {
            proc: ProcId(1),
            at: SimTime(0),
            restart_at: None,
        });
        let mut rt = Simulation::new(cfg, (0..3).map(|_| Echo { n: 3 }).collect());
        let mut driver: Driver<EchoProtocol> = Driver::with_retry(RetryPolicy {
            enabled: true,
            deadline: 500,
            backoff_base: 20,
            backoff_max: 200,
            max_attempts: 8,
            seed: 1,
        });
        let stats = driver
            .try_run_closed_loop(&mut rt, &ops(3, 30), 2)
            .expect("retries route around the dead processor");
        (stats, driver)
    }

    #[test]
    fn retry_redirects_around_a_crashed_processor() {
        let (stats, driver) = crash_retry_run();
        assert_eq!(stats.records.len(), 30, "every op completed");
        assert_eq!(driver.pending_ops(), 0);
        assert!(stats.timeouts > 0, "dead-processor attempts timed out");
        assert!(stats.retries > 0, "timed-out ops were resubmitted");
        assert!(stats.redirects > 0, "retries were redirected to live procs");
        assert_eq!(stats.abandoned, 0, "nothing was given up");
        // Records keep the op as the workload issued it (original origin),
        // even when the attempt that completed it was redirected.
        assert!(stats.records.iter().any(|r| r.op == ProcId(1)));
    }

    /// With the retry layer off, a clean run draws no randomness and
    /// behaves exactly as before the layer existed.
    #[test]
    fn retry_disabled_changes_nothing() {
        let run = |retry: RetryPolicy| {
            let mut rt = sim(3, 7);
            let mut driver: Driver<EchoProtocol> = Driver::with_retry(retry);
            let stats = driver.try_run_closed_loop(&mut rt, &ops(3, 50), 4).unwrap();
            let lat: Vec<u64> = stats.records.iter().map(|r| r.latency()).collect();
            (lat, stats.makespan, stats.timeouts, stats.retries)
        };
        let base = run(RetryPolicy::default());
        let tuned = run(RetryPolicy {
            enabled: false,
            deadline: 1,
            backoff_base: 1,
            backoff_max: 1,
            max_attempts: 1,
            seed: 9,
        });
        assert_eq!(base, tuned);
        assert_eq!(base.2, 0);
        assert_eq!(base.3, 0);
    }

    /// Collect the resubmission delays (wake - timeout instant) and the
    /// attempt counts of one op retried to exhaustion against a
    /// permanently crashed processor, under a given jitter seed.
    fn backoff_delays(seed: u64) -> (Vec<u64>, Vec<u32>, u64) {
        use crate::{CrashEvent, FaultPlan};
        let mut cfg = SimConfig::jittery(3, 1, 20);
        cfg.faults = FaultPlan::none().with_crash(CrashEvent {
            proc: ProcId(0),
            at: SimTime(0),
            restart_at: None,
        });
        let mut rt = Simulation::new(cfg, vec![Echo { n: 1 }]);
        let mut driver: Driver<EchoProtocol> = Driver::with_retry(RetryPolicy {
            enabled: true,
            deadline: 100,
            backoff_base: 50,
            backoff_max: 800,
            max_attempts: 6,
            seed,
        });
        driver.submit(&mut rt, ProcId(0));
        let mut delays = Vec::new();
        let mut attempts = Vec::new();
        for _ in 0..10_000 {
            if driver.inflight.is_empty() && driver.backlog.is_empty() {
                return (delays, attempts, driver.abandoned);
            }
            if let Poll::Limit(e) = rt.poll(driver.next_wake()) {
                panic!("sim limit tripped: {e}");
            }
            let now = rt.now();
            let had_backlog = driver.backlog.len();
            driver.service_retries(&mut rt);
            if driver.backlog.len() > had_backlog {
                let ((wake, _), resub) = driver.backlog.iter().next().expect("just inserted");
                delays.push(wake.0 - now.0);
                attempts.push(resub.attempts);
            }
        }
        panic!("retry loop failed to terminate");
    }

    /// The backoff schedule is exactly the documented policy — exponential
    /// from `backoff_base`, capped at `backoff_max`, plus a jitter draw
    /// from `[0, backoff/4]` — and the jitter stream is a pure function of
    /// the policy seed, so a reproduced run retries at identical ticks.
    #[test]
    fn retry_backoff_is_exponential_capped_and_seed_deterministic() {
        let (delays, attempts, abandoned) = backoff_delays(7);
        // Six attempts: five rescheduled with backoff, the sixth abandoned.
        assert_eq!(attempts, vec![1, 2, 3, 4, 5]);
        assert_eq!(abandoned, 1);
        for (i, &d) in delays.iter().enumerate() {
            let backoff = (50u64 << i).min(800);
            assert!(
                d >= backoff && d <= backoff + backoff / 4,
                "attempt {}: delay {} outside [{}, {}]",
                i + 1,
                d,
                backoff,
                backoff + backoff / 4
            );
        }
        // The cap engaged: the last uncapped term would be 50 << 4 = 800,
        // so delays 5 and beyond sit at the ceiling, not 1600+.
        assert!(*delays.last().unwrap() <= 1000);
        // Same seed, same jitter draws, same schedule — byte-for-byte.
        assert_eq!(backoff_delays(7), (delays, attempts, abandoned));
    }

    /// When every processor an op could run on stays dead, the op is given
    /// up after `max_attempts` and the closed loop terminates — abandoned
    /// ops are counted, never waited on forever.
    #[test]
    fn retry_exhaustion_abandons_instead_of_hanging() {
        use crate::{CrashEvent, FaultPlan};
        let mut cfg = SimConfig::jittery(11, 1, 20);
        cfg.faults = FaultPlan::none().with_crash(CrashEvent {
            proc: ProcId(0),
            at: SimTime(0),
            restart_at: None,
        });
        let mut rt = Simulation::new(cfg, vec![Echo { n: 1 }]);
        let mut driver: Driver<EchoProtocol> = Driver::with_retry(RetryPolicy {
            enabled: true,
            deadline: 200,
            backoff_base: 20,
            backoff_max: 100,
            max_attempts: 3,
            seed: 5,
        });
        // Window of 2: the two in-flight ops exhaust their attempts; the
        // queued remainder never gets a slot (no completions ever open one).
        let stats = driver.try_run_closed_loop(&mut rt, &ops(1, 5), 2).unwrap();
        assert_eq!(stats.records.len(), 0, "nothing can complete");
        assert_eq!(stats.abandoned, 2, "both windowed ops were given up");
        assert_eq!(stats.timeouts, 6, "3 attempts each, all timed out");
        assert_eq!(stats.retries, 4, "2 resubmissions per op");
        assert_eq!(stats.redirects, 0, "a 1-proc wire has nowhere to go");
        assert_eq!(driver.pending_ops(), 0, "no op left in flight or backlog");
        assert_eq!(driver.suspects, BTreeSet::from([ProcId(0)]));
    }

    /// Redirection picks the nearest processor on the wire that is *not*
    /// currently suspect — never a suspected one, wrapping around the ring,
    /// and falling back to the original origin only when every processor is
    /// suspect (nowhere better to go).
    #[test]
    fn retry_redirects_exclude_suspected_processors() {
        let submit_target = |suspects: &[u32], origin: u32| {
            let mut rt = sim(4, 9);
            let mut driver: Driver<EchoProtocol> = Driver::with_retry(RetryPolicy::on());
            driver.suspects = suspects.iter().map(|&p| ProcId(p)).collect();
            let id = driver.submit(&mut rt, ProcId(origin));
            let attempt = driver.inflight[&id];
            // The pending record keeps the op as issued, redirect or not.
            assert_eq!(driver.pending[&id].0, ProcId(origin));
            (attempt.origin, driver.redirects)
        };
        // Next proc up is suspect too: skip both, land on proc 2.
        assert_eq!(submit_target(&[0, 1], 0), (ProcId(2), 1));
        // Wrap around the end of the ring.
        assert_eq!(submit_target(&[2, 3], 3), (ProcId(0), 1));
        // No suspects: no redirect at all.
        assert_eq!(submit_target(&[], 1), (ProcId(1), 0));
        // Everyone suspect: stay with the original origin, count nothing.
        assert_eq!(submit_target(&[0, 1, 2, 3], 1), (ProcId(1), 0));
    }

    #[test]
    fn open_loop_schedule_is_deterministic() {
        let cfg = OpenLoopCfg::jittered(10, 99);
        let a = arrival_offsets(200, &cfg);
        let b = arrival_offsets(200, &cfg);
        assert_eq!(a, b, "same seed, same schedule");
        let c = arrival_offsets(200, &OpenLoopCfg::jittered(10, 100));
        assert_ne!(a, c, "different seed, different schedule");
        assert!(
            a.windows(2).all(|w| w[0] < w[1]),
            "offsets strictly increase"
        );

        let fixed = arrival_offsets(5, &OpenLoopCfg::fixed(7));
        assert_eq!(fixed, vec![7, 14, 21, 28, 35]);
        // Degenerate period clamps to 1 tick, never 0.
        let tight = arrival_offsets(3, &OpenLoopCfg::fixed(0));
        assert_eq!(tight, vec![1, 2, 3]);
    }

    #[test]
    fn open_loop_run_is_deterministic_on_sim() {
        let run = || {
            let mut rt = sim(3, 5);
            let mut driver: Driver<EchoProtocol> = Driver::new();
            let work = ops(3, 80);
            let stats = driver
                .try_run_open_loop(&mut rt, &work, &OpenLoopCfg::jittered(8, 21))
                .unwrap();
            assert_eq!(stats.records.len(), 80);
            let lat: Vec<u64> = stats.records.iter().map(|r| r.latency()).collect();
            (lat, stats.makespan)
        };
        assert_eq!(run(), run(), "open-loop sim runs replay exactly");
    }

    #[test]
    fn open_loop_arrivals_follow_schedule() {
        let mut rt = sim(2, 3);
        let mut driver: Driver<EchoProtocol> = Driver::new();
        let work = ops(2, 20);
        let cfg = OpenLoopCfg::fixed(50);
        let stats = driver.try_run_open_loop(&mut rt, &work, &cfg).unwrap();
        let offsets = arrival_offsets(20, &cfg);
        // Records are in completion order; compare submission times sorted.
        let mut submitted: Vec<u64> = stats.records.iter().map(|r| r.submitted.ticks()).collect();
        submitted.sort_unstable();
        assert_eq!(submitted, offsets, "paced by the schedule");
    }
    /// Every third item is a scan from the same origin rotation.
    fn mixed(n: u32, count: usize) -> Vec<Submission<ProcId, ProcId>> {
        (0..count)
            .map(|i| {
                let origin = ProcId(i as u32 % n);
                if i % 3 == 2 {
                    Submission::Scan(origin)
                } else {
                    Submission::Op(origin)
                }
            })
            .collect()
    }

    /// FNV-1a over `(id, origin, submitted, completed)` of every point-op
    /// record, then every scan record: the whole client-visible schedule of
    /// a run in one number.
    fn digest(stats: &DriverStats<ProcId, ()>, scans: &[OpRecord<ProcId, ()>]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for r in stats.records.iter().chain(scans) {
            for x in [
                r.id,
                r.op.0 as u64,
                r.submitted.ticks(),
                r.completed.ticks(),
            ] {
                h = (h ^ x).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// The digests below were captured from the three separate loops
    /// (closed, closed-mixed, open) the single drive loop replaced: the
    /// unification moved no submission and no completion by a tick.
    #[test]
    fn unified_loop_reproduces_the_three_loops_it_replaced() {
        for (window, want) in [(1, 0x17c5_23a6_2b6d_725d), (4, 0x633e_84a1_5cbd_bdbb)] {
            let mut rt = sim(3, 7);
            let mut driver: Driver<EchoProtocol> = Driver::new();
            let stats = driver
                .try_run_closed_loop(&mut rt, &ops(3, 50), window)
                .unwrap();
            assert_eq!(digest(&stats, &[]), want, "closed loop, window {window}");
        }

        let mut rt = sim(3, 7);
        let mut driver: Driver<EchoProtocol> = Driver::new();
        let stats = driver
            .try_run_mixed(&mut rt, &mixed(3, 60), Release::Window(2))
            .unwrap();
        let scans = driver.take_scans();
        assert_eq!((stats.records.len(), scans.len()), (40, 20));
        assert_eq!(stats.makespan, 258, "makespan covers ops and scans");
        assert_eq!(
            digest(&stats, &scans),
            0x2ae6_dbfe_1690_d695,
            "closed mixed"
        );

        for (cfg, want, makespan) in [
            (OpenLoopCfg::fixed(50), 0x728c_2bb2_43c7_55dc, 4021),
            (OpenLoopCfg::jittered(8, 21), 0x2dec_c135_0095_116f, 681),
        ] {
            let mut rt = sim(3, 5);
            let mut driver: Driver<EchoProtocol> = Driver::new();
            let stats = driver
                .try_run_open_loop(&mut rt, &ops(3, 80), &cfg)
                .unwrap();
            assert_eq!(stats.makespan, makespan, "{cfg:?}");
            assert_eq!(digest(&stats, &[]), want, "{cfg:?}");
        }

        let (stats, _) = crash_retry_run();
        assert_eq!(stats.makespan, 690);
        assert_eq!(
            digest(&stats, &[]),
            0xd747_6767_8e39_4667,
            "crash with retry"
        );
    }

    /// Scans ride the arrival schedule like point ops: nothing about the
    /// open loop is op-specific any more.
    #[test]
    fn open_loop_drives_scans_too() {
        let items = mixed(3, 60);
        let cfg = OpenLoopCfg::jittered(8, 21);
        let mut rt = sim(3, 5);
        let mut driver: Driver<EchoProtocol> = Driver::new();
        let stats = driver
            .try_run_mixed(&mut rt, &items, Release::Schedule(cfg))
            .unwrap();
        let scans = driver.take_scans();
        assert_eq!((stats.records.len(), scans.len()), (40, 20));
        assert_eq!(driver.pending_ops(), 0);
        // Every item, scan or op, was submitted at its scheduled offset.
        let mut submitted: Vec<u64> = stats
            .records
            .iter()
            .chain(&scans)
            .map(|r| r.submitted.ticks())
            .collect();
        submitted.sort_unstable();
        assert_eq!(submitted, arrival_offsets(60, &cfg));
        let last = scans.iter().map(|s| s.completed.ticks()).max().unwrap();
        assert!(stats.makespan >= last, "makespan covers scan completions");
    }

    /// The same mixed stream on real threads, under both release policies
    /// (wall-clock timing, so counts only).
    #[test]
    fn mixed_stream_completes_on_threads() {
        use crate::threaded::Cluster;
        let items = mixed(3, 60);
        for release in [
            Release::Window(2),
            Release::Schedule(OpenLoopCfg::fixed(20)),
        ] {
            let mut rt = Cluster::spawn((0..3).map(|_| Echo { n: 3 }).collect());
            let mut driver: Driver<EchoProtocol> = Driver::new();
            let stats = driver.try_run_mixed(&mut rt, &items, release).unwrap();
            assert_eq!(stats.records.len(), 40, "{release:?}");
            assert_eq!(driver.take_scans().len(), 20, "{release:?}");
            assert_eq!(driver.pending_ops(), 0, "{release:?}");
            Runtime::into_procs(rt);
        }
    }
}

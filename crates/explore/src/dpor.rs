//! The model checker: bounded-exhaustive schedule search with dynamic
//! partial-order reduction (DPOR).
//!
//! Where [`crate::explorer`] *samples* the schedule space, this module
//! *enumerates* it — depth-first over the scheduler's choice points, with
//! three classic prunings layered on top:
//!
//! * **DPOR backtrack sets** (Flanagan–Godefroid). A fresh choice point
//!   starts with only the choice actually taken; after each run a race
//!   analysis walks the executed steps, and wherever two *dependent* steps
//!   could have fired in the other order it plants the later step as a
//!   backtrack point at the earlier one. Independent (commuting) pairs are
//!   never permuted. The independence relation is seeded from the §4.1
//!   taxonomy ([`history::shapes_commute`]): two deliveries to the same
//!   processor are independent when both payloads are pure lazy-update
//!   relays whose shapes commute in every state — see [`shape_of`].
//! * **Sleep sets.** Choices fully explored at an ancestor stay "asleep"
//!   along sibling branches until some dependent step wakes them, so the
//!   tail scheduler never re-runs a continuation an earlier branch covered.
//! * **Visited-state pruning.** After every step of a fault-free run the
//!   simulator's logical fingerprint ([`simnet::Simulation::fingerprint`])
//!   is recorded with the step index it was first reached at; re-reaching a
//!   fingerprint no shallower than before caps how far the run extends the
//!   choice-point stack. (DPOR plus state caching is known to be able to
//!   skip interleavings a pure DPOR search would visit; this checker
//!   accepts that — the bounded depth already makes the search a bug
//!   hunter, not a proof.)
//!
//! The search is **depth-bounded**: only the first [`CheckOptions::depth`]
//! steps of a run become choice points; beyond the bound the run continues
//! under a fair (FIFO-among-awake) tail to quiescence, where the full
//! oracle stack — including the liveness probes of
//! [`crate::scenario`] — judges it. A run that never quiesces within
//! [`CheckOptions::max_steps`] scheduled steps is itself a liveness
//! violation (the fair-schedule bound).
//!
//! The entire frontier — the choice-point stack, the visited set, the
//! schedule count — is a plain value ([`CheckState`]) that
//! [`crate::frontier`] persists to disk, so a budget-capped run is
//! resumable: relaunching replays the saved stack prefix once and
//! continues where it stopped, skipping double-visits via the saved
//! fingerprints.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

use history::{shapes_commute, Shape};
use simnet::{Choice, ChoiceKind, Scheduler, SimTime};

use crate::scenario::{build_blink, finish_blink, Proto, RunReport, Scenario};
use crate::shrink::{shrink, Failure, ShrinkStats};

/// Race-analysis bound: runs longer than this only have their first
/// `ANALYSIS_CAP` steps analysed for backtrack points (the happens-before
/// closure is quadratic). Choice points never exceed `depth` anyway, so the
/// cap only limits how far *ahead* a race can look; runs this long are tail
/// traffic (retransmissions) far past every choice point.
const ANALYSIS_CAP: usize = 2_048;

/// Map a delivery label (see [`simnet::Choice::label`]) to the §4.1 action
/// shapes its handler may perform, for the independence relation: a batch
/// applies relayed inserts, and a split relay applies its split and then the
/// relayed inserts it carries. Only the **pure apply-relays** are mapped —
/// deliveries whose handler just applies lazy updates to the local replica.
/// Initial actions (`insert.initial`, `split.start`, `merge.absorb`, ...)
/// also run decision logic (splitting, forwarding, grant protocol), so they
/// map to nothing and stay conservatively dependent on everything at the
/// same processor, as do all structural/control messages.
pub fn shape_of(label: &str) -> &'static [Shape] {
    match label {
        "insert.relay" | "insert.relay-batch" => &[Shape::InsertRelayed],
        "split.relay" => &[Shape::SplitRelayed, Shape::InsertRelayed],
        "merge.retire-relay" => &[Shape::RetireRelayed],
        "merge.absorb-relay" => &[Shape::AbsorbRelayed],
        _ => &[],
    }
}

/// The checker's independence relation over enabled choices.
///
/// Choices targeting different processors always commute: each step mutates
/// only its target's state, and channel FIFO order is preserved by the
/// enabled-set construction itself. At the same processor everything is
/// dependent **except** two relay deliveries every pair of whose shapes the
/// §4.1 commutativity table proves commute, both ways, in every state — the
/// assume/guarantee reduction the paper's history theory buys the checker.
pub fn dependent(a: &Choice, b: &Choice) -> bool {
    if a.to != b.to {
        return false;
    }
    if a.kind != ChoiceKind::Deliver || b.kind != ChoiceKind::Deliver {
        return true;
    }
    let (sa, sb) = (shape_of(a.label), shape_of(b.label));
    if sa.is_empty() || sb.is_empty() {
        return true;
    }
    let commute = |x: Shape, y: Shape| shapes_commute(x, y) && shapes_commute(y, x);
    !sa.iter().all(|&x| sb.iter().all(|&y| commute(x, y)))
}

/// Tunables for one [`check`] run.
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Apply DPOR backtrack/sleep sets. Off = plain bounded-exhaustive
    /// enumeration (every enabled choice at every point), the baseline the
    /// CI smoke job compares reduction against.
    pub dpor: bool,
    /// Choice-point depth: scheduler picks beyond this many steps are fair
    /// FIFO, not branched over.
    pub depth: usize,
    /// Stop after this many schedules (this session; resumable).
    pub max_schedules: u64,
    /// Per-run scheduled-step bound; exceeding it is a liveness violation.
    pub max_steps: u64,
    /// Keep (and shrink) at most this many failures; further failing runs
    /// are only counted.
    pub max_failures: usize,
    /// Shrink budget (candidate replays) per kept failure; 0 = keep raw.
    pub shrink_candidates: u64,
    /// Prune subtrees whose post-state fingerprint was already visited at
    /// the same or a shallower step. Automatically inert when the fault
    /// plan makes fingerprints unavailable.
    pub prune_visited: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            dpor: true,
            depth: 20,
            max_schedules: 5_000,
            max_steps: 20_000,
            max_failures: 5,
            shrink_candidates: 400,
            prune_visited: true,
        }
    }
}

/// One persisted choice point: which event is currently selected, which are
/// scheduled to be tried (backtrack), which are finished (done). The
/// enabled set itself is *not* persisted — it is a deterministic function
/// of the prefix and is refreshed from the first replayed run on resume.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameState {
    /// Sequence number of the event this branch of the DFS fires here.
    pub selected: u64,
    /// Event seqs scheduled for exploration at this point.
    pub backtrack: Vec<u64>,
    /// Event seqs fully explored at this point.
    pub done: Vec<u64>,
}

/// The resumable search frontier: everything [`check`] needs to continue
/// where a previous session stopped. Written and read by [`crate::frontier`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckState {
    /// The DFS stack of choice points (root first).
    pub frames: Vec<FrameState>,
    /// Visited-state store: `(fingerprint, earliest step reached at)`.
    pub visited: Vec<(u64, u32)>,
    /// Schedules executed across all sessions.
    pub schedules: u64,
    /// The frontier is exhausted; nothing left to explore.
    pub complete: bool,
}

/// What a [`check`] session did.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Schedules executed this session.
    pub schedules: u64,
    /// Schedules executed across all sessions (resume-aware).
    pub total_schedules: u64,
    /// Scheduler steps executed this session.
    pub steps: u64,
    /// Runs whose frame extension was cut short by a visited fingerprint.
    pub pruned: u64,
    /// Backtrack points planted by the race analysis.
    pub races: u64,
    /// Slept choices skipped over by the fair tail scheduler.
    pub sleep_skips: u64,
    /// Runs on which at least one oracle fired (kept or not).
    pub failing_runs: u64,
    /// Stopped by [`CheckOptions::max_schedules`] with frontier remaining.
    pub capped: bool,
    /// The frontier is exhausted: every schedule in the bound was covered.
    pub complete: bool,
    /// Kept failures, shrunk when a budget was given.
    pub failures: Vec<Failure>,
    /// Aggregate shrink effort across kept failures.
    pub shrink_stats: ShrinkStats,
}

/// Can [`check`] explore this scenario? Blink scenarios only (the hash
/// table has no independence theory to reduce with), and no timed
/// partitions (not schedulable as choices).
pub fn supports(scenario: &Scenario) -> bool {
    matches!(scenario.proto, Proto::Blink(_)) && scenario.faults.partitions.is_empty()
}

/// In-memory frame: [`FrameState`] plus the cached enabled set (refreshed
/// from the next run after a resume, when it starts out empty).
#[derive(Clone, Debug)]
struct Frame {
    enabled: Vec<Choice>,
    selected: u64,
    backtrack: BTreeSet<u64>,
    done: BTreeSet<u64>,
}

/// One executed scheduler step, as recorded by the [`Driver`].
#[derive(Clone, Debug)]
struct StepRec {
    enabled: Vec<Choice>,
    chosen: Choice,
    chosen_idx: u32,
    created: std::ops::Range<u64>,
    fp: Option<u64>,
}

#[derive(Default)]
struct RunLog {
    steps: Vec<StepRec>,
    sleep_skips: u64,
}

/// The scheduler that executes one DFS branch: replay the frame stack's
/// selected seqs, run a tail that skips slept choices while still inside
/// the branching depth, then fall back to plain FIFO, recording every step
/// for the race analysis.
struct Driver {
    prefix: Vec<u64>,
    sleep: Vec<Choice>,
    /// The search's branching bound. Sleep-set skipping only applies to
    /// steps that can become frames (`k < depth`); past the bound the tail
    /// is pure FIFO. Skipping there would buy no pruning (the tail never
    /// branches) and can *starve* a slept event — e.g. a crash-restart
    /// control event independent of everything a retransmission loop keeps
    /// generating — turning a fair, quiescing schedule into a false
    /// livelock report.
    depth: usize,
    log: Rc<RefCell<RunLog>>,
}

impl Scheduler for Driver {
    fn choose(&mut self, _now: SimTime, enabled: &[Choice]) -> usize {
        let k = self.log.borrow().steps.len();
        let idx = if k < self.prefix.len() {
            // Deterministic replay: the same prefix always re-produces the
            // same enabled set, so the selected seq is present. The FIFO
            // fallback keeps a (hypothetically) diverged run legal.
            enabled
                .iter()
                .position(|c| c.seq == self.prefix[k])
                .unwrap_or(0)
        } else if k < self.depth {
            // Within the branching bound: oldest enabled choice that is not
            // asleep. If every choice is asleep the continuation is provably
            // redundant, but the run must still go somewhere — take the
            // oldest.
            match enabled
                .iter()
                .position(|c| !self.sleep.iter().any(|s| s.seq == c.seq))
            {
                Some(i) => {
                    self.log.borrow_mut().sleep_skips += i as u64;
                    i
                }
                None => 0,
            }
        } else {
            // Beyond the bound: fair FIFO, no skipping (see `depth`).
            0
        };
        let chosen = enabled[idx];
        if k >= self.prefix.len() && k < self.depth {
            // Sleeping choices wake when a dependent step fires.
            self.sleep.retain(|s| !dependent(s, &chosen));
        }
        self.log.borrow_mut().steps.push(StepRec {
            enabled: enabled.to_vec(),
            chosen,
            chosen_idx: idx as u32,
            created: 0..0,
            fp: None,
        });
        idx
    }

    fn fired(&mut self, _chosen: &Choice, created: std::ops::Range<u64>) {
        if let Some(s) = self.log.borrow_mut().steps.last_mut() {
            s.created = created;
        }
    }
}

struct RunOutcome {
    report: RunReport,
    steps: Vec<StepRec>,
    sleep_skips: u64,
}

/// Execute one schedule: build the cluster, drive it step by step under the
/// [`Driver`] (fingerprinting after each step when pruning), then apply the
/// oracle stack at quiescence — or synthesize the fair-schedule-bound
/// liveness violation if the run never got there.
fn run_one(
    scenario: &Scenario,
    opts: &CheckOptions,
    prefix: Vec<u64>,
    sleep: Vec<Choice>,
) -> RunOutcome {
    let Proto::Blink(cfg) = &scenario.proto else {
        unreachable!("check() rejects unsupported scenarios up front");
    };
    let mut cluster = build_blink(scenario, cfg, 0);
    let log = Rc::new(RefCell::new(RunLog::default()));
    cluster.sim.set_scheduler(Box::new(Driver {
        prefix,
        sleep,
        depth: opts.depth,
        log: Rc::clone(&log),
    }));

    let mut steps_run = 0u64;
    let mut capped = false;
    loop {
        if steps_run >= opts.max_steps {
            capped = true;
            break;
        }
        if !cluster.sim.step() {
            break;
        }
        steps_run += 1;
        if opts.prune_visited {
            let fp = cluster.sim.fingerprint();
            if let Some(s) = log.borrow_mut().steps.last_mut() {
                s.fp = fp;
            }
        }
    }

    let report = if capped {
        RunReport {
            violations: vec![format!(
                "liveness: no quiescence within {} scheduled steps \
                 (fair-schedule bound exceeded — livelock)",
                opts.max_steps
            )],
            completed: 0,
        }
    } else {
        finish_blink(scenario, &mut cluster)
    };
    let mut log = log.borrow_mut();
    RunOutcome {
        report,
        steps: std::mem::take(&mut log.steps),
        sleep_skips: log.sleep_skips,
    }
}

/// The sleep set the tail scheduler starts with, recomputed from the frame
/// stack: walking root to top, siblings fully explored at each frame join
/// the set, and whatever the frame's selected step is dependent with is
/// woken. Frames with an unrefreshed enabled set (just resumed) reset the
/// chain — sound (sleep sets only skip redundant work), merely less pruned
/// for that one run.
fn sleep_chain(frames: &[Frame]) -> Vec<Choice> {
    let mut sleep: Vec<Choice> = Vec::new();
    for f in frames {
        let Some(sel) = f.enabled.iter().find(|c| c.seq == f.selected).copied() else {
            return Vec::new();
        };
        for c in &f.enabled {
            if f.done.contains(&c.seq)
                && c.seq != f.selected
                && !sleep.iter().any(|s| s.seq == c.seq)
            {
                sleep.push(*c);
            }
        }
        sleep.retain(|s| !dependent(s, &sel));
    }
    sleep
}

/// The DPOR race analysis: find executed step pairs `(i, j)` that were
/// *racing* — dependent, `j`'s event already pending when `i` fired, and
/// not ordered through any intermediate step — and plant backtrack points
/// at `i` so the reversed order gets explored. Returns how many points were
/// planted.
fn add_backtracks(frames: &mut [Frame], steps: &[StepRec]) -> u64 {
    let n = steps.len().min(ANALYSIS_CAP);
    if n == 0 || frames.is_empty() {
        return 0;
    }
    // pred[j]: bitset of steps i < j with i →hb j (dependence ∪ creation
    // edges, transitively closed in execution order).
    let words = n.div_ceil(64);
    let mut pred: Vec<Vec<u64>> = Vec::with_capacity(n);
    for j in 0..n {
        let mut bits = vec![0u64; words];
        for i in 0..j {
            let direct = steps[i].created.contains(&steps[j].chosen.seq)
                || dependent(&steps[i].chosen, &steps[j].chosen);
            if direct {
                bits[i / 64] |= 1 << (i % 64);
                for w in 0..words {
                    bits[w] |= pred[i][w];
                }
            }
        }
        pred.push(bits);
    }
    let has = |set: &[u64], i: usize| set[i / 64] >> (i % 64) & 1 == 1;

    let mut planted = 0u64;
    for j in 1..n {
        for i in 0..j.min(frames.len()) {
            if !dependent(&steps[i].chosen, &steps[j].chosen) {
                continue;
            }
            // `j`'s event must have been pending (hence schedulable) before
            // step `i` fired — otherwise there is no reversal to explore.
            if steps[j].chosen.seq >= steps[i].created.start {
                continue;
            }
            // Ordered through an intermediate step ⇒ the reversal is not
            // reachable by flipping this one pair.
            if (i + 1..j).any(|k| has(&pred[j], k) && has(&pred[k], i)) {
                continue;
            }
            let f = &mut frames[i];
            if f.enabled.iter().any(|c| c.seq == steps[j].chosen.seq) {
                if f.backtrack.insert(steps[j].chosen.seq) {
                    planted += 1;
                }
            } else {
                // The racing event is pending but not currently enabled at
                // `i` (behind its channel head): conservatively schedule
                // everything, per Flanagan–Godefroid.
                for c in f.enabled.clone() {
                    if f.backtrack.insert(c.seq) {
                        planted += 1;
                    }
                }
            }
        }
    }
    planted
}

/// Run the bounded-exhaustive search. `resume` continues a saved frontier
/// (pass the [`CheckState`] a previous call returned); `None` starts fresh.
/// Returns the session report and the frontier to persist.
///
/// Errors if [`supports`] rejects the scenario.
pub fn check(
    scenario: &Scenario,
    opts: &CheckOptions,
    resume: Option<CheckState>,
) -> Result<(CheckReport, CheckState), String> {
    if !supports(scenario) {
        return Err("model checking supports blink scenarios without timed partitions".into());
    }
    let state = resume.unwrap_or_default();
    let mut frames: Vec<Frame> = state
        .frames
        .iter()
        .map(|f| Frame {
            enabled: Vec::new(), // refreshed from the first replayed run
            selected: f.selected,
            backtrack: f.backtrack.iter().copied().collect(),
            done: f.done.iter().copied().collect(),
        })
        .collect();
    let mut visited: HashMap<u64, u32> = state.visited.iter().copied().collect();
    let mut total_schedules = state.schedules;
    let mut report = CheckReport::default();

    if state.complete {
        report.complete = true;
        report.total_schedules = total_schedules;
        return Ok((report, state));
    }

    loop {
        if report.schedules >= opts.max_schedules {
            report.capped = true;
            break;
        }
        let prefix: Vec<u64> = frames.iter().map(|f| f.selected).collect();
        let sleep = if opts.dpor {
            sleep_chain(&frames)
        } else {
            Vec::new()
        };
        let out = run_one(scenario, opts, prefix, sleep);
        report.schedules += 1;
        total_schedules += 1;
        report.steps += out.steps.len() as u64;
        report.sleep_skips += out.sleep_skips;

        // Refresh enabled sets on frames restored from a saved frontier.
        for (f, s) in frames.iter_mut().zip(&out.steps) {
            if f.enabled.is_empty() {
                f.enabled = s.enabled.clone();
            }
        }

        if !out.report.violations.is_empty() {
            report.failing_runs += 1;
            if report.failures.len() < opts.max_failures {
                let failure = Failure {
                    scenario: scenario.clone(),
                    choices: out.steps.iter().map(|s| s.chosen_idx).collect(),
                    violations: out.report.violations.clone(),
                    strategy: if opts.dpor { "dpor" } else { "exhaustive" },
                    sched_seed: 0,
                };
                let kept = if opts.shrink_candidates > 0 {
                    let (best, stats) = shrink(&failure, opts.shrink_candidates);
                    report.shrink_stats.candidates += stats.candidates;
                    report.shrink_stats.accepted += stats.accepted;
                    best
                } else {
                    failure
                };
                report.failures.push(kept);
            }
        }

        // Visited-state pruning: a post-state re-reached no shallower than
        // before caps how far this run grows the stack — branch points in
        // the already-covered subtree are redundant. Only steps from the
        // current branch point onward are candidates: earlier prefix steps
        // re-produce their own previously recorded states on every run of
        // this subtree and must not prune the path they sit on. (Each
        // distinct prefix serves as a run's branch point exactly once, so
        // the scan never sees its own insertions.)
        let full_limit = out.steps.len().min(opts.depth);
        let mut limit = full_limit;
        let scan_from = frames.len().saturating_sub(1);
        for (i, s) in out.steps.iter().enumerate().take(limit).skip(scan_from) {
            let Some(fp) = s.fp else { continue };
            match visited.entry(fp) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    if i as u32 >= *e.get() {
                        limit = i + 1;
                        if limit < full_limit {
                            report.pruned += 1;
                        }
                        break;
                    }
                    e.insert(i as u32);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i as u32);
                }
            }
        }
        // States beyond the extension limit still feed the visited store.
        for (i, s) in out.steps.iter().enumerate().skip(limit.max(scan_from)) {
            if let Some(fp) = s.fp {
                visited
                    .entry(fp)
                    .and_modify(|d| *d = (*d).min(i as u32))
                    .or_insert(i as u32);
            }
        }

        // Grow the stack with the fresh choice points this run executed.
        for s in out.steps.iter().take(limit).skip(frames.len()) {
            let backtrack: BTreeSet<u64> = if opts.dpor {
                [s.chosen.seq].into()
            } else {
                s.enabled.iter().map(|c| c.seq).collect()
            };
            frames.push(Frame {
                enabled: s.enabled.clone(),
                selected: s.chosen.seq,
                backtrack,
                done: BTreeSet::new(),
            });
        }

        if opts.dpor {
            report.races += add_backtracks(&mut frames, &out.steps);
        }

        // Advance the DFS: mark the top selected done, move to the next
        // backtrack candidate, popping exhausted frames.
        let mut advanced = false;
        while let Some(top) = frames.last_mut() {
            top.done.insert(top.selected);
            match top.backtrack.iter().find(|s| !top.done.contains(s)) {
                Some(&next) => {
                    top.selected = next;
                    advanced = true;
                    break;
                }
                None => {
                    frames.pop();
                }
            }
        }
        if !advanced {
            report.complete = true;
            break;
        }
    }

    report.total_schedules = total_schedules;
    let mut visited: Vec<(u64, u32)> = visited.into_iter().collect();
    visited.sort_unstable();
    let next = CheckState {
        frames: frames
            .iter()
            .map(|f| FrameState {
                selected: f.selected,
                backtrack: f.backtrack.iter().copied().collect(),
                done: f.done.iter().copied().collect(),
            })
            .collect(),
        visited,
        schedules: total_schedules,
        complete: report.complete,
    };
    Ok((report, next))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::merge_race_scenario;
    use dbtree::SeededBug;
    use simnet::ProcId;

    fn choice(seq: u64, to: u32, kind: ChoiceKind, label: &'static str) -> Choice {
        Choice {
            seq,
            at: SimTime(0),
            to: ProcId(to),
            from: Some(ProcId(9)),
            kind,
            label,
        }
    }

    /// The label→shapes map only ever claims independence the §4.1 table
    /// backs: every mapped pair that `dependent` treats as commuting must
    /// commute in the derived table, shape by shape, and the structural
    /// merge messages (unmapped) must stay dependent — the Naive
    /// insert/split race and the unsafe-merge race both live on same-target
    /// structural pairs.
    #[test]
    fn independence_is_backed_by_the_taxonomy() {
        let relays = [
            "insert.relay",
            "insert.relay-batch",
            "split.relay",
            "merge.retire-relay",
            "merge.absorb-relay",
        ];
        for a in relays {
            for b in relays {
                let ca = choice(1, 0, ChoiceKind::Deliver, a);
                let cb = choice(2, 0, ChoiceKind::Deliver, b);
                let (sa, sb) = (shape_of(a), shape_of(b));
                assert!(!sa.is_empty() && !sb.is_empty(), "{a}, {b}: mapped");
                let commute = sa.iter().all(|&x| {
                    sb.iter()
                        .all(|&y| shapes_commute(x, y) && shapes_commute(y, x))
                });
                assert_eq!(
                    dependent(&ca, &cb),
                    !commute,
                    "{a} vs {b} must mirror the table"
                );
            }
        }
        // A batch is relayed inserts and nothing else.
        let batch = choice(1, 0, ChoiceKind::Deliver, "insert.relay-batch");
        let relay = choice(2, 0, ChoiceKind::Deliver, "insert.relay");
        assert!(!dependent(&batch, &relay) && !dependent(&batch, &batch));
        // Structural messages never commute with anything at one target.
        for s in ["insert.initial", "split.start", "merge.grant", "merge.req"] {
            let cs = choice(1, 0, ChoiceKind::Deliver, s);
            let cr = choice(2, 0, ChoiceKind::Deliver, "insert.relay");
            assert!(dependent(&cs, &cr), "{s} must stay dependent");
            assert!(dependent(&cr, &cs), "{s} must stay dependent (flipped)");
        }
        // Different targets always commute; timers/controls never do at one.
        let t0 = choice(1, 0, ChoiceKind::Deliver, "split.start");
        let t1 = choice(2, 1, ChoiceKind::Deliver, "split.start");
        assert!(!dependent(&t0, &t1));
        let timer = choice(3, 0, ChoiceKind::Timer, "timer");
        assert!(dependent(&t0, &timer));
    }

    /// A split relay carries the relays of the action that split: its
    /// delivery applies relayed inserts too, so it must be dependent on
    /// everything a relayed insert is dependent on — whatever else its own
    /// shape adds.
    #[test]
    fn a_carrying_split_relay_is_dependent_wherever_a_relayed_insert_is() {
        let labels = [
            "insert.relay",
            "insert.relay-batch",
            "insert.initial",
            "split.relay",
            "split.start",
            "merge.retire-relay",
            "merge.absorb-relay",
            "merge.absorb",
            "merge.grant",
            "copy.install",
            "descend",
        ];
        let split = choice(1, 0, ChoiceKind::Deliver, "split.relay");
        let insert = choice(1, 0, ChoiceKind::Deliver, "insert.relay");
        for other in labels {
            let c = choice(2, 0, ChoiceKind::Deliver, other);
            if dependent(&insert, &c) {
                assert!(dependent(&split, &c), "split.relay vs {other}");
                assert!(dependent(&c, &split), "{other} vs split.relay");
            }
        }
        let timer = choice(2, 0, ChoiceKind::Timer, "timer");
        assert!(dependent(&split, &timer));
    }

    /// A tiny exhaustive run over the safe merge-race scenario terminates
    /// with zero violations, and resuming a capped frontier picks up where
    /// it stopped without redoing schedules.
    #[test]
    fn safe_scenario_checks_clean_and_resumes() {
        let scenario = merge_race_scenario();
        let opts = CheckOptions {
            depth: 6,
            max_schedules: 40,
            shrink_candidates: 0,
            ..CheckOptions::default()
        };
        let (full, _) = check(&scenario, &opts, None).expect("supported");
        assert!(full.schedules > 1, "the race must branch");
        assert_eq!(full.failing_runs, 0, "safe merge survives every schedule");

        // Same search, chunked through the frontier.
        let chunk = CheckOptions {
            max_schedules: 7,
            ..opts.clone()
        };
        let mut state: Option<CheckState> = None;
        let mut total = 0u64;
        for _ in 0..32 {
            let (r, s) = check(&scenario, &chunk, state.take()).expect("supported");
            total += r.schedules;
            let done = r.complete;
            state = Some(s);
            if done {
                break;
            }
        }
        assert!(state.unwrap().complete, "chunked search must finish");
        // Resuming resets the sleep chain (enabled sets are not persisted),
        // so tails — and thus exact counts — may differ from the one-shot
        // search; the frontier still guarantees no branch is run twice and
        // the whole bound gets covered.
        assert!(total > 1, "chunked search explored {total} schedules");
    }

    /// The wedged scenario trips the liveness oracles on the very first
    /// schedule and the failure shrinks to a pure-delete repro.
    #[test]
    fn wedged_scenario_trips_liveness_and_shrinks() {
        let scenario = merge_race_scenario().with_bug(SeededBug::MergeWedgeGrants);
        let opts = CheckOptions {
            depth: 4,
            max_schedules: 5,
            max_failures: 1,
            shrink_candidates: 200,
            ..CheckOptions::default()
        };
        let (report, _) = check(&scenario, &opts, None).expect("supported");
        assert!(report.failing_runs > 0, "every wedged schedule livelocks");
        let f = &report.failures[0];
        assert!(
            f.violations.iter().any(|v| v.starts_with("liveness:")),
            "violations: {:?}",
            f.violations
        );
        assert!(
            f.scenario.ops.len() <= 2,
            "shrinks to the emptying deletes, got {:?}",
            f.scenario.ops
        );
    }

    /// DPOR must explore strictly fewer schedules than the unreduced
    /// enumeration on the same bound, and still catch the unsafe-merge bug.
    #[test]
    fn dpor_reduces_and_still_catches_the_bug() {
        let scenario = merge_race_scenario().with_bug(SeededBug::MergeNoReverify);
        let base = CheckOptions {
            depth: 5,
            max_schedules: 2_000,
            max_failures: 1,
            shrink_candidates: 0,
            ..CheckOptions::default()
        };
        let unreduced = CheckOptions {
            dpor: false,
            ..base.clone()
        };
        let (a, _) = check(&scenario, &unreduced, None).expect("supported");
        let (b, _) = check(&scenario, &base, None).expect("supported");
        assert!(b.complete, "DPOR search must finish in the budget");
        assert!(
            b.schedules < a.schedules || a.capped,
            "DPOR ({}) must beat enumeration ({})",
            b.schedules,
            a.schedules
        );
    }
}

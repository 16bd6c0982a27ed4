//! Scenarios: the replayable unit of exploration.
//!
//! A [`Scenario`] pins everything about one run *except* the schedule: the
//! structure's configuration (for the dB-tree, the [`TreeConfig`] it runs:
//! protocol, placement, fanout, merge policy and any seeded bug), the
//! deployment size, the preloaded keys, the client operations, the fault
//! plan, and the simulator seed (which fixes every latency and fault-RNG
//! draw). Running a scenario under a
//! [`simnet::Scheduler`] then makes the schedule itself the only free
//! variable, so a `(scenario, choice string)` pair identifies an execution
//! byte-for-byte — the property the shrinker and the repro files rely on.
//!
//! After each run the full oracle stack is applied:
//!
//! * the structural checkers (`dbtree::checker::check_all` /
//!   `dhash::check_hash_cluster`): convergence digests, key findability
//!   from every processor, leaf-chain and stash invariants;
//! * the §3 history log check (coverage sets and final digests), which
//!   both checkers already embed;
//! * the sequence oracle ([`history::check_sequences`]) over each copy's
//!   reconstructed action log: completeness, orderedness, and
//!   compatibility (only commuting reorders) — wired into `check_all` for
//!   the dB-tree and applied here for the hash table;
//! * a completion check: with no crash in the plan, the session layer owes
//!   every submitted operation an acknowledgement, whatever the schedule.

use std::collections::{BTreeMap, BTreeSet};

use dbtree::{
    checker, BuildSpec, ClientOp, DbCluster, Intent, ProtocolKind, SeededBug, TreeConfig,
};
use dhash::{check_hash_cluster, HKind, HashCluster, HashConfig, HashSpec};
use history::check_sequences;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simnet::{CrashEvent, FaultPlan, ProcId, Scheduler, SessionConfig, SimConfig, SimTime, Trace};

use crate::sched::{Recording, Replay, Strategy};

/// Which search structure (and which of its configurations) a scenario
/// exercises.
#[derive(Clone, Debug, PartialEq)]
pub enum Proto {
    /// The dB-tree, run under exactly this configuration.
    Blink(TreeConfig),
    /// The lazy-directory distributed hash table.
    Hash {
        /// Bucket capacity before a split.
        capacity: usize,
    },
}

/// What one explorer operation does to its key.
///
/// Deletes need care to keep the oracle exact: a delete racing an insert of
/// the *same* key would make the expected final contents schedule-dependent.
/// The canned generators therefore keep the two key sets disjoint (deletes
/// target preloaded keys, inserts fresh ones), and the oracle conservatively
/// skips any key a hand-written scenario contests both ways.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExKind {
    /// Insert the value at the key.
    Insert(u64),
    /// Point lookup.
    Search,
    /// Tombstone the key (and, with merging enabled, maybe empty a leaf).
    Delete,
}

/// One client operation in explorer form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExOp {
    /// Submitting processor (taken modulo the scenario's processor count).
    pub origin: u32,
    /// Target key.
    pub key: u64,
    /// What to do at the key.
    pub kind: ExKind,
}

/// Everything about a run except the schedule. See the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Structure and protocol under test.
    pub proto: Proto,
    /// Deployment size.
    pub n_procs: u32,
    /// Simulator seed (latency draws, fault RNG).
    pub seed: u64,
    /// Keys present before the workload starts.
    pub preload: Vec<u64>,
    /// The client workload, submitted up front (open loop) so delivery
    /// order is maximally schedulable.
    pub ops: Vec<ExOp>,
    /// Fault plan (drops, duplicates, crashes).
    pub faults: FaultPlan,
}

/// Outcome of one scheduled run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Every oracle violation, rendered. Empty = the run was correct.
    pub violations: Vec<String>,
    /// Operations acknowledged before quiescence.
    pub completed: usize,
}

impl Scenario {
    /// This scenario with `bug` seeded into its dB-tree configuration: how
    /// the explorer's must-catch scenarios (`naive`, `unsafe-merge`,
    /// `wedged`) are made from the canned ones.
    ///
    /// # Panics
    ///
    /// On a hash scenario: seeded bugs are dB-tree settings.
    pub fn with_bug(mut self, bug: SeededBug) -> Scenario {
        let Proto::Blink(cfg) = &mut self.proto else {
            panic!("seeded bugs are dB-tree settings");
        };
        cfg.seeded = Some(bug);
        self
    }

    fn sim_cfg(&self, trace_capacity: usize) -> SimConfig {
        SimConfig {
            seed: self.seed,
            faults: self.faults.clone(),
            trace_capacity,
            // Generous runaway bound: adversarial schedules legitimately
            // run long (retransmissions under starvation), but a protocol
            // livelock must still terminate the run.
            max_events: 500_000,
            ..SimConfig::default()
        }
    }

    /// The session configuration explorer runs use. Retries are raised far
    /// beyond the default because an adversarial scheduler may starve a
    /// channel for a long stretch; letting the session layer give up would
    /// manufacture a message loss the protocol never caused, and the
    /// completeness oracle would mis-blame the protocol.
    fn session(&self) -> SessionConfig {
        if self.faults.is_active() {
            SessionConfig {
                max_retries: 10_000,
                ..SessionConfig::reliable()
            }
        } else {
            // A perfect network still wants the session layer once crashes
            // are possible; without faults the pass-through keeps runs
            // identical to the plain simulator.
            SessionConfig::default()
        }
    }
}

/// Run `scenario` under `scheduler` and apply the oracle stack.
pub fn run_under(scenario: &Scenario, scheduler: Box<dyn Scheduler>) -> RunReport {
    run_traced(scenario, scheduler, 0, &mut |_| {})
}

/// [`run_under`] with the simulator's trace kept (`trace_capacity` entries)
/// and shown to `inspect` once the run has quiesced.
fn run_traced(
    scenario: &Scenario,
    scheduler: Box<dyn Scheduler>,
    trace_capacity: usize,
    inspect: &mut dyn FnMut(&Trace),
) -> RunReport {
    match &scenario.proto {
        Proto::Blink(cfg) => {
            let mut cluster = build_blink(scenario, cfg, trace_capacity);
            cluster.sim.set_scheduler(scheduler);
            let report = finish_blink(scenario, &mut cluster);
            inspect(cluster.sim.trace());
            report
        }
        Proto::Hash { capacity } => {
            run_hash(scenario, *capacity, scheduler, trace_capacity, inspect)
        }
    }
}

/// Run under a named strategy, returning the report and the recorded
/// schedule-choice string.
pub fn run_recorded(
    scenario: &Scenario,
    strategy: Strategy,
    sched_seed: u64,
) -> (RunReport, Vec<u32>) {
    let inner = strategy.build(sched_seed, scenario.n_procs);
    let (recording, trace) = Recording::new(inner);
    let report = run_under(scenario, Box::new(recording));
    let choices = trace.borrow().clone();
    (report, choices)
}

/// Replay a recorded choice string against (a possibly shrunk) scenario.
pub fn replay_run(scenario: &Scenario, choices: &[u32]) -> RunReport {
    run_under(scenario, Box::new(Replay::new(choices.to_vec())))
}

/// [`replay_run`] with the whole run's trace shown to `inspect`: how a
/// regression test shows that its schedule still *reaches* the race it is
/// named after, rather than trusting quiet oracles on a run that no longer
/// does.
pub fn replay_traced(
    scenario: &Scenario,
    choices: &[u32],
    inspect: &mut dyn FnMut(&Trace),
) -> RunReport {
    let replay = Box::new(Replay::new(choices.to_vec()));
    run_traced(scenario, replay, 1 << 16, inspect)
}

/// Build the dB-tree cluster for a blink scenario and submit its workload
/// (open loop). Shared between [`run_under`]'s one-shot path and the model
/// checker ([`crate::dpor`]), which steps the simulator manually between
/// state fingerprints.
pub(crate) fn build_blink(
    scenario: &Scenario,
    cfg: &TreeConfig,
    trace_capacity: usize,
) -> DbCluster {
    let spec = BuildSpec::new(scenario.preload.clone(), scenario.n_procs, cfg.clone());
    let sim_cfg = scenario.sim_cfg(trace_capacity);
    let mut cluster = DbCluster::build_with_session(&spec, sim_cfg, scenario.session());

    for op in &scenario.ops {
        cluster.submit(ClientOp {
            origin: ProcId(op.origin % scenario.n_procs),
            key: op.key,
            intent: match op.kind {
                ExKind::Insert(v) => Intent::Insert(v),
                ExKind::Search => Intent::Search,
                ExKind::Delete => Intent::Delete,
            },
        });
    }
    cluster
}

/// Drain the driver and apply the full oracle stack to a blink cluster
/// whose schedule has run its course. Shared with [`crate::dpor`].
pub(crate) fn finish_blink(scenario: &Scenario, cluster: &mut DbCluster) -> RunReport {
    let mut violations = Vec::new();
    let completed = match cluster.try_run_to_quiescence() {
        Ok(records) => {
            check_completion(scenario, records.len(), &mut violations);
            // Expected keys: the preload plus every *acknowledged* insert,
            // minus every key any delete targets. (With crashes in the plan
            // an unacknowledged op may or may not have landed, so presence
            // is only owed for acknowledged inserts, and absence only for
            // acknowledged deletes.) A key both inserted and deleted is
            // schedule-dependent either way — the canned generators never
            // produce one, and the oracle claims nothing about it.
            let inserted: BTreeSet<u64> = scenario
                .ops
                .iter()
                .filter(|op| matches!(op.kind, ExKind::Insert(_)))
                .map(|op| op.key)
                .collect();
            let delete_targets: BTreeSet<u64> = scenario
                .ops
                .iter()
                .filter(|op| op.kind == ExKind::Delete)
                .map(|op| op.key)
                .collect();
            let mut expected: BTreeSet<u64> = scenario.preload.iter().copied().collect();
            let mut deleted: BTreeSet<u64> = BTreeSet::new();
            for rec in &records {
                match rec.op.intent {
                    Intent::Insert(_) => {
                        expected.insert(rec.op.key);
                    }
                    Intent::Delete if !inserted.contains(&rec.op.key) => {
                        deleted.insert(rec.op.key);
                    }
                    _ => {}
                }
            }
            expected.retain(|k| !delete_targets.contains(k));
            violations.extend(
                checker::check_all(cluster, &expected)
                    .iter()
                    .map(|v| v.to_string()),
            );
            violations.extend(
                checker::check_deleted_keys(&cluster.sim, &deleted)
                    .iter()
                    .map(|v| v.to_string()),
            );
            check_liveness(scenario, cluster, &mut violations);
            records.len()
        }
        Err(e) => {
            violations.push(format!("quiescence: {e}"));
            0
        }
    };
    RunReport {
        violations,
        completed,
    }
}

/// The liveness oracles, applied at quiescence under the same fairness
/// bound as [`check_completion`]: the explorer's schedules always drain
/// every deliverable event, so "pending forever at quiescence" *is*
/// "pending forever". Two probes:
///
/// * **No merge grant held forever** — a leaf's `merge_pending` bit is set
///   by the first `MergeReq` and cleared by the grant or decline; at
///   quiescence with every crash restarted, a set bit means the answer
///   never came (the seeded `MergeWedgeGrants` wedge, or a protocol bug
///   that lost the reply).
/// * **No write parked forever** — client writes parked behind a pending
///   merge are ops the session layer owes an acknowledgement; a non-empty
///   park at quiescence is a livelock, not slowness.
///
/// (The third liveness property — every submitted op completes — is
/// [`check_completion`]; an infinite right-link chase cannot quiesce at
/// all and surfaces as the `quiescence:` event-budget violation.)
fn check_liveness(scenario: &Scenario, cluster: &DbCluster, violations: &mut Vec<String>) {
    let recoverable = scenario
        .faults
        .crashes
        .iter()
        .all(|c| c.restart_at.is_some());
    if !recoverable {
        // A crash that never restarts may legitimately strand a MergeReq
        // with the dead parent; liveness is only owed on recoverable plans.
        return;
    }
    for (pid, p) in cluster.sim.procs() {
        let pending = p.merge_pending_count();
        if pending > 0 {
            violations.push(format!(
                "liveness: proc {} holds {pending} merge request(s) pending \
                 forever (no grant or decline ever arrived)",
                pid.0
            ));
        }
        let parked = p.parked_write_count();
        if parked > 0 {
            violations.push(format!(
                "liveness: {parked} client write(s) parked behind a \
                 never-granted merge on proc {}",
                pid.0
            ));
        }
    }
}

fn run_hash(
    scenario: &Scenario,
    capacity: usize,
    scheduler: Box<dyn Scheduler>,
    trace_capacity: usize,
    inspect: &mut dyn FnMut(&Trace),
) -> RunReport {
    let spec = HashSpec {
        preload: scenario.preload.clone(),
        n_procs: scenario.n_procs,
        cfg: HashConfig {
            capacity,
            ..HashConfig::default()
        },
    };
    let sim_cfg = scenario.sim_cfg(trace_capacity);
    let mut cluster = HashCluster::build_with_session(&spec, sim_cfg, scenario.session());
    cluster.sim.set_scheduler(scheduler);

    for op in &scenario.ops {
        let origin = ProcId(op.origin % scenario.n_procs);
        // Values derive from keys so concurrent duplicate-key inserts agree
        // on the final value whatever the schedule.
        let kind = match op.kind {
            ExKind::Insert(_) => HKind::Insert(op.key + 1),
            ExKind::Search => HKind::Search,
            ExKind::Delete => HKind::Delete,
        };
        cluster.submit(origin, op.key, kind);
    }

    let mut violations = Vec::new();
    let completed = match cluster.try_run_to_quiescence() {
        Ok(stats) => {
            check_completion(scenario, stats.records.len(), &mut violations);
            if stats.lost_count() > 0 {
                violations.push(format!("{} operations reported lost", stats.lost_count()));
            }
            let mut expected: BTreeMap<u64, u64> =
                scenario.preload.iter().map(|&k| (k, k)).collect();
            for op in &scenario.ops {
                match op.kind {
                    ExKind::Insert(_) => {
                        expected.insert(op.key, op.key + 1);
                    }
                    ExKind::Delete => {
                        expected.remove(&op.key);
                    }
                    ExKind::Search => {}
                }
            }
            violations.extend(
                check_hash_cluster(&mut cluster, &expected)
                    .iter()
                    .map(|v| format!("{v:?}")),
            );
            // The hash checker predates the sequence oracle; apply it here.
            // `dir-patch` updates commute pairwise (each patches its own
            // slot), so the dB-tree relation — splits conflict with splits,
            // everything else commutes — is vacuously safe and still buys
            // the completeness and orderedness checks.
            let log = cluster.log();
            let log = log.lock();
            violations.extend(
                check_sequences(&log, &dbtree::db_class_conflicts)
                    .iter()
                    .map(|v| v.to_string()),
            );
            stats.records.len()
        }
        Err(e) => {
            violations.push(format!("quiescence: {e}"));
            0
        }
    };
    inspect(cluster.sim.trace());
    RunReport {
        violations,
        completed,
    }
}

/// With no crash in the plan, the session layer owes every operation an
/// acknowledgement regardless of schedule. With crashes the scenario
/// generator keeps client origins off the crashing processors, so
/// completion is still owed once every crash has a restart.
fn check_completion(scenario: &Scenario, completed: usize, violations: &mut Vec<String>) {
    let recoverable = scenario
        .faults
        .crashes
        .iter()
        .all(|c| c.restart_at.is_some());
    if recoverable && completed != scenario.ops.len() {
        violations.push(format!(
            "completion: {completed}/{} operations acknowledged",
            scenario.ops.len()
        ));
    }
}

/// The configuration the canned dB-tree scenarios run: §4.1's test bed
/// (every node on three processors) at fanout 4, so small workloads split.
fn test_bed(protocol: ProtocolKind, merge_at_empty: bool) -> Proto {
    Proto::Blink(TreeConfig {
        fanout: 4,
        merge_at_empty,
        ..TreeConfig::fixed_copies(protocol, 3)
    })
}

/// A canned dB-tree scenario: a small tree (low fanout) with an insert/
/// search mix clustered tightly enough to force splits and split races.
/// Deterministic in its arguments.
pub fn blink_scenario(
    protocol: ProtocolKind,
    seed: u64,
    n_ops: usize,
    faults: FaultPlan,
) -> Scenario {
    let n_procs = 3;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xB11A);
    // A tight key range over a small fanout-4 preload: inserts concentrate
    // in a handful of leaves, so even ~8-op workloads overflow one and the
    // explorer gets split races to reorder (the regime §3 quantifies over).
    let preload: Vec<u64> = (0..6).map(|k| k * 10).collect();
    let crashers: Vec<u32> = faults.crashes.iter().map(|c| c.proc.0).collect();
    let ops = (0..n_ops)
        .map(|i| {
            let mut origin = rng.gen_range(0..n_procs);
            // Clients avoid crashing processors (an injection into a down
            // processor is lost with the rest of its volatile queue).
            while crashers.contains(&origin) {
                origin = (origin + 1) % n_procs;
            }
            let key = rng.gen_range(0..70u64);
            let kind = if rng.gen_bool(0.75) {
                ExKind::Insert(1_000 + i as u64)
            } else {
                ExKind::Search
            };
            ExOp { origin, key, kind }
        })
        .collect();
    Scenario {
        proto: test_bed(protocol, false),
        n_procs,
        seed,
        preload,
        ops,
        faults,
    }
}

/// A canned merge-enabled dB-tree scenario: deletes cluster on the upper
/// preloaded leaves (so some leaf usually empties and retires), inserts
/// stay on fresh keys (so the expected final contents are exact whatever
/// the schedule), and every run goes through the full oracle stack plus
/// the deleted-key check. Deterministic in its arguments.
pub fn merge_scenario(
    protocol: ProtocolKind,
    seed: u64,
    n_ops: usize,
    faults: FaultPlan,
) -> Scenario {
    let n_procs = 3;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4E26);
    // Eight preloaded keys over fanout 4: two-plus leaves, and the delete
    // band (the upper four keys) covers the rightmost leaf entirely, so a
    // handful of deletes reliably empties it and the merge family actually
    // runs under exploration.
    let preload: Vec<u64> = (0..8).map(|k| k * 10).collect();
    let band: Vec<u64> = preload[4..].to_vec();
    let crashers: Vec<u32> = faults.crashes.iter().map(|c| c.proc.0).collect();
    let ops = (0..n_ops)
        .map(|i| {
            let mut origin = rng.gen_range(0..n_procs);
            while crashers.contains(&origin) {
                origin = (origin + 1) % n_procs;
            }
            let roll: f64 = rng.gen();
            let (key, kind) = if roll < 0.45 {
                // Delete a band key (repeats are fine: a second tombstone
                // of the same key is just a later stamp).
                (band[rng.gen_range(0..band.len())], ExKind::Delete)
            } else if roll < 0.8 {
                // Insert a fresh key: off the preload grid, some inside the
                // deleted band's range so re-admission races absorbs.
                let mut key = rng.gen_range(1..80u64);
                if key % 10 == 0 {
                    key += 1;
                }
                (key, ExKind::Insert(1_000 + i as u64))
            } else {
                (rng.gen_range(0..80u64), ExKind::Search)
            };
            ExOp { origin, key, kind }
        })
        .collect();
    Scenario {
        proto: test_bed(protocol, true),
        n_procs,
        seed,
        preload,
        ops,
        faults,
    }
}

/// The injected merge/insert race, distilled: the four-key preload builds
/// one root over leaves `[0,20)` and `[20,∞)` — siblings under the *same*
/// parent, so the right one is grantable (a leftmost child never is). The
/// two deletes empty the right leaf while one insert targets a key inside
/// it. The scenario must survive every schedule. With
/// [`SeededBug::MergeNoReverify`] (`unsafe-merge`) the commit skips the
/// emptiness re-verify, so a schedule that lands the insert inside the
/// grant round trip loses it — the check-then-act bug the explorer must
/// catch and shrink. With [`SeededBug::MergeWedgeGrants`] (`wedged`) the
/// parent drops every `MergeReq`: any schedule that empties the right leaf
/// leaves its merge pending forever, and the insert into its range parks
/// behind the grant that never comes — what the liveness oracles must
/// catch.
pub fn merge_race_scenario() -> Scenario {
    let preload: Vec<u64> = (0..4).map(|k| k * 10).collect();
    let ops = vec![
        ExOp {
            origin: 0,
            key: 20,
            kind: ExKind::Delete,
        },
        ExOp {
            origin: 1,
            key: 30,
            kind: ExKind::Delete,
        },
        ExOp {
            origin: 2,
            key: 25,
            kind: ExKind::Insert(1_025),
        },
        ExOp {
            origin: 1,
            key: 25,
            kind: ExKind::Search,
        },
    ];
    Scenario {
        proto: test_bed(ProtocolKind::SemiSync, true),
        n_procs: 3,
        seed: 5,
        preload,
        ops,
        faults: FaultPlan::none(),
    }
}

/// A canned hash-table scenario: small buckets, keys spread over preloaded
/// and fresh territory so inserts race bucket splits.
pub fn hash_scenario(seed: u64, n_ops: usize, faults: FaultPlan) -> Scenario {
    let n_procs = 3;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xDA5);
    let preload: Vec<u64> = (0..16).map(|k| k * 3).collect();
    let crashers: Vec<u32> = faults.crashes.iter().map(|c| c.proc.0).collect();
    let ops = (0..n_ops)
        .map(|_| {
            let mut origin = rng.gen_range(0..n_procs);
            while crashers.contains(&origin) {
                origin = (origin + 1) % n_procs;
            }
            let key = rng.gen_range(0..96u64);
            let kind = if rng.gen_bool(0.75) {
                ExKind::Insert(key + 1)
            } else {
                ExKind::Search
            };
            ExOp { origin, key, kind }
        })
        .collect();
    Scenario {
        proto: Proto::Hash { capacity: 4 },
        n_procs,
        seed,
        preload,
        ops,
        faults,
    }
}

/// The light fault plan canned scenarios default to: drops and duplicates,
/// no crashes.
pub fn light_faults() -> FaultPlan {
    FaultPlan::lossy(0.05).with_dup(0.05)
}

/// A fault plan with one crash/restart on top of the light plan, for the
/// fault-alignment strategy to play with.
pub fn crash_faults(proc: u32) -> FaultPlan {
    light_faults().with_crash(CrashEvent {
        proc: ProcId(proc),
        at: SimTime(400),
        restart_at: Some(SimTime(1_500)),
    })
}

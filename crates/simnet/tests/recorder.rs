//! What the one recorder reads off a process, on both runtimes: nothing for
//! an action that is neither traced nor due a sample, and otherwise one
//! counter snapshot that a sample then reports as the process stood at that
//! very action.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use simnet::threaded::Cluster;
use simnet::{
    Context, ObsConfig, Payload, ProcId, Process, Runtime, SimConfig, SimTime, Simulation,
};

#[derive(Clone, Debug)]
struct Tick;
impl Payload for Tick {}

/// Counts its messages, and how often the recorder asked for its counters.
struct Counting {
    seen: u64,
    reads: Arc<AtomicU64>,
}

impl Process for Counting {
    type Msg = Tick;
    fn on_message(&mut self, _: &mut Context<'_, Tick>, _: ProcId, _: Tick) {
        self.seen += 1;
        // Let the wall clock move on, so that on threads — where a tick is a
        // microsecond — every action can fall due a sample of its own.
        let begun = Instant::now();
        while begun.elapsed() < Duration::from_micros(2) {}
    }
    fn metrics(&self) -> Vec<(&'static str, u64)> {
        vec![("seen", self.seen)]
    }
    fn metrics_into(&self, out: &mut Vec<(&'static str, u64)>) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        out.extend(self.metrics());
    }
    /// The same number as a gauge: read off the process itself when the
    /// sample is taken, whatever the recorder's counter snapshot says.
    fn gauges(&self, _now: SimTime) -> Vec<(&'static str, u64)> {
        vec![("seen.now", self.seen)]
    }
}

const PROCS: u32 = 2;

fn procs(reads: &Arc<AtomicU64>) -> Vec<Counting> {
    (0..PROCS)
        .map(|_| Counting {
            seen: 0,
            reads: Arc::clone(reads),
        })
        .collect()
}

/// `n` messages round-robin, run to silence; returns what was observed.
fn drive<R: Runtime<Proc = Counting>>(mut rt: R, n: u32) -> simnet::Obs {
    for i in 0..n {
        rt.inject(ProcId(i % PROCS), Tick);
    }
    rt.settle().expect("settles");
    let obs = rt.take_obs();
    let seen: u64 = rt.into_procs().iter().map(|p| p.seen).sum();
    assert_eq!(seen, u64::from(n));
    obs
}

/// Sampling on, tracing off: the counters are read when a sample is due —
/// here once per processor, the first — not once per action.
fn untraced_actions_read_no_counters<R: Runtime<Proc = Counting>>(
    spawn: impl FnOnce(Vec<Counting>, ObsConfig) -> R,
) {
    let reads = Arc::new(AtomicU64::new(0));
    let cfg = ObsConfig {
        sample_interval: u64::MAX / 2,
        ..ObsConfig::default()
    };
    let obs = drive(spawn(procs(&reads), cfg), 10_000);
    let samples = obs.series.len() as u64;
    assert_eq!(samples, u64::from(PROCS), "one first sample each");
    let reads = reads.load(Ordering::Relaxed);
    assert!(reads <= samples + 1, "{reads} reads for {samples} samples");
}

/// Tracing and sampling on: every sample's counters are the process's own
/// as of the action it was taken at.
fn samples_show_the_process_at_their_action<R: Runtime<Proc = Counting>>(
    spawn: impl FnOnce(Vec<Counting>, ObsConfig) -> R,
) {
    let reads = Arc::new(AtomicU64::new(0));
    let cfg = ObsConfig {
        trace_capacity: 1 << 12,
        sample_interval: 1,
        ..ObsConfig::default()
    };
    let obs = drive(spawn(procs(&reads), cfg), 400);
    assert!(obs.series.len() > PROCS as usize, "{}", obs.series.len());
    for s in &obs.series {
        assert_eq!(s.pairs.len(), 1);
        assert_eq!(s.pairs[0].1, s.gauges[0].1, "sample at {:?}", s.at);
    }
    // One snapshot per traced action served both its deltas and its sample.
    let actions = obs.trace.len() as u64;
    assert!(reads.load(Ordering::Relaxed) <= actions + u64::from(PROCS));
}

fn sim(procs: Vec<Counting>, obs: ObsConfig) -> Simulation<Counting> {
    let cfg = SimConfig {
        trace_capacity: obs.trace_capacity,
        sample_interval: obs.sample_interval,
        health: obs.health,
        // One delivery per tick per processor, so samples can fall due.
        service_time: 1,
        ..SimConfig::seeded(3)
    };
    Simulation::new(cfg, procs)
}

#[test]
fn untraced_actions_read_no_counters_on_the_simulator() {
    untraced_actions_read_no_counters(sim);
}

#[test]
fn untraced_actions_read_no_counters_on_threads() {
    untraced_actions_read_no_counters(Cluster::spawn_with);
}

#[test]
fn samples_show_the_process_at_their_action_on_the_simulator() {
    samples_show_the_process_at_their_action(sim);
}

#[test]
fn samples_show_the_process_at_their_action_on_threads() {
    samples_show_the_process_at_their_action(Cluster::spawn_with);
}

//! What must repeat exactly does: the simulated workloads under one seed,
//! with and without the timing wrappers around them.

use perf::gen;
use perf::workloads::{repetition, Plain, RuntimeKind, Traced, Workload, WORKLOADS};

fn sim_workloads() -> impl Iterator<Item = Workload> {
    WORKLOADS
        .iter()
        .filter(|w| w.runtime == RuntimeKind::Sim)
        .map(|w| w.quick())
}

#[test]
fn sim_workloads_repeat_bit_for_bit() {
    for w in sim_workloads() {
        let (a, b) = (repetition::<Plain>(&w, 7), repetition::<Plain>(&w, 7));
        assert!(a.errors.is_empty(), "{}: {:?}", w.name, a.errors);
        assert_eq!(a.failed(), 0, "{}", w.name);
        assert_eq!(a.exact(), b.exact(), "{} does not repeat", w.name);
        assert!(a.sim.expect("simulated").events > 0);
    }
}

#[test]
fn another_seed_is_another_stream() {
    for w in WORKLOADS {
        let keys = |seed| -> Vec<u64> {
            gen::stream(&w.stream, seed)
                .iter()
                .map(|op| op.key)
                .collect()
        };
        assert_eq!(keys(1), keys(1), "{}: same seed, same inputs", w.name);
        assert_ne!(keys(1), keys(2), "{}: the seed is ignored", w.name);
    }
}

/// `TimedProc` and `TimedRuntime` forward everything: the program under
/// them delivers the same events and reports the same counts.
#[test]
fn wrapping_changes_nothing_the_program_does() {
    for w in sim_workloads() {
        let plain = repetition::<Plain>(&w, 3);
        let traced = repetition::<Traced>(&w, 3);
        assert!(traced.errors.is_empty(), "{}: {:?}", w.name, traced.errors);
        assert_eq!(plain.exact(), traced.exact(), "{} diverged", w.name);
        let t = traced.trace.expect("the traced stack records spans");
        let events = plain.sim.expect("simulated").events;
        // One session-layer span per delivered event (plus `on_start`).
        assert_eq!(t.session.calls - t.session.kind("start").calls, events);
        assert!(t.core.calls <= t.session.calls && t.core.ns <= t.session.ns);
        assert!(t.runtime.ns >= t.session.ns - t.session.kind("start").ns);
    }
}

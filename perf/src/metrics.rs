//! The metric catalogue (names, units, directions — the same list
//! `BENCHMARK.json` carries) and the arithmetic that turns repetitions into
//! reported values.

use crate::json::Json;
use crate::timed::ClockCost;
use crate::workloads::{Rep, RuntimeKind, Workload};

/// One catalogue entry.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Repeats bit-for-bit on a `sim-*` workload under the same seed.
    pub exact: bool,
    /// Listed in `BENCHMARK.json` (and so on the plain result line).
    pub listed: bool,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str, exact: bool) -> Def {
    Def {
        name,
        unit,
        better,
        exact,
        listed: true,
    }
}

const fn unlisted(d: Def) -> Def {
    Def { listed: false, ..d }
}

/// End-to-end metrics. Two are reported by the ledger but not listed in
/// `BENCHMARK.json`: `failed_share` is 0 on a healthy run (the driver takes
/// failures from `attempted`/`failed`), and raw `ops_per_s` moves with the
/// sandbox's neighbours by more than any bound the contract allows
/// (`ops_per_ref` is the same measurement with that divided out).
pub const END_TO_END: [Def; 8] = [
    def("setup_s", "s", "lower", false),
    def("ops_per_ref", "ops/ref", "higher", false),
    unlisted(def("ops_per_s", "ops/s", "higher", false)),
    def("peak_rss_mb", "MiB", "lower", false),
    unlisted(def("failed_share", "ratio", "lower", true)),
    def("msgs_per_op", "msgs/op", "lower", true),
    def("lat_p50_ticks", "ticks", "lower", true),
    def("lat_p99_ticks", "ticks", "lower", true),
];

pub const PER_LAYER: [Def; 40] = [
    def("driver.self_share", "ratio", "lower", false),
    def("driver.ns_per_op", "ns", "lower", false),
    def("sim.self_share", "ratio", "lower", false),
    def("sim.self_ns_per_event", "ns", "lower", false),
    def("sim.ns_per_event", "ns", "lower", false),
    def("sim.events_per_op", "count", "lower", true),
    def("session.self_share", "ratio", "lower", false),
    def("session.self_ns_per_event", "ns", "lower", false),
    def("session.acks_per_op", "count", "lower", true),
    def("session.retransmits_per_op", "count", "lower", true),
    def("core.self_share", "ratio", "lower", false),
    def("core.ns_per_action", "ns", "lower", false),
    def("core.actions_per_op", "count", "lower", true),
    def("core.hops_mean", "count", "lower", true),
    def("core.chases_per_op", "count", "lower", true),
    def("core.relay_msgs_per_op", "count", "lower", true),
    def("core.splits", "count", "lower", true),
    def("core.msgs_per_split", "count", "lower", true),
    def("core.live_nodes", "count", "lower", true),
    def("core.store_imbalance", "ratio", "lower", true),
    def("trace.ns_per_event", "ns", "lower", false),
    def("trace.overhead_ratio", "ratio", "lower", false),
    def("trace.records", "count", "higher", true),
    def("trace.dropped", "count", "lower", true),
    def("trace.export_s", "s", "lower", false),
    def("trace.profile_s", "s", "lower", false),
    def("threaded.worker_busy_share", "ratio", "higher", false),
    def("threaded.poll_wait_share", "ratio", "lower", false),
    def("threaded.spawn_s", "s", "lower", false),
    def("threaded.settle_s", "s", "lower", false),
    def("threaded.teardown_s", "s", "lower", false),
    def("threaded.deliveries_per_op", "count", "lower", false),
    def("threaded.op_p50_us", "us", "lower", false),
    def("threaded.op_p99_us", "us", "lower", false),
    def("alloc.count_per_op", "count", "lower", false),
    def("alloc.bytes_per_op", "B", "lower", false),
    def("alloc.peak_live_mb", "MiB", "lower", false),
    def("bench.trace_overhead", "ratio", "lower", false),
    def("bench.clock_ns", "ns", "lower", false),
    def("bench.unattributed_share", "ratio", "lower", false),
];

/// A reported value: the median of its samples, with their range and
/// quartiles.
#[derive(Clone, Debug)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub listed: bool,
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Value {
    /// `{"value": .., "unit": ..}`, plus the range when `detail`.
    pub fn to_json(&self, detail: bool) -> Json {
        let mut pairs = vec![
            ("value", Json::Num(self.value)),
            ("unit", Json::Str(self.unit.into())),
        ];
        if detail {
            pairs.push(("min", Json::Num(self.min)));
            pairs.push(("q1", Json::Num(self.q1)));
            pairs.push(("q3", Json::Num(self.q3)));
            pairs.push(("max", Json::Num(self.max)));
            pairs.push(("n", Json::Num(self.n as f64)));
        }
        Json::obj(pairs)
    }
}

/// Linear interpolation between order statistics; 0 with no samples.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn lookup(table: &[Def], name: &str) -> Def {
    *table
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// Collects values against the catalogue, so a name or unit cannot drift
/// from what `BENCHMARK.json` promises.
pub struct Collector {
    table: &'static [Def],
    values: Vec<Value>,
}

impl Collector {
    pub fn new(table: &'static [Def]) -> Self {
        Collector {
            table,
            values: Vec::new(),
        }
    }

    /// Median of one sample per repetition.
    pub fn over(&mut self, name: &str, reps: &[Rep], f: impl Fn(&Rep) -> f64) {
        self.samples(name, reps.iter().map(f).collect());
    }

    /// Median of the samples given.
    pub fn samples(&mut self, name: &str, mut samples: Vec<f64>) {
        samples.sort_by(f64::total_cmp);
        let d = lookup(self.table, name);
        self.values.push(Value {
            name: d.name,
            unit: d.unit,
            listed: d.listed,
            value: quantile_sorted(&samples, 0.5),
            min: quantile_sorted(&samples, 0.0),
            max: quantile_sorted(&samples, 1.0),
            q1: quantile_sorted(&samples, 0.25),
            q3: quantile_sorted(&samples, 0.75),
            n: samples.len(),
        });
    }

    pub fn one(&mut self, name: &str, v: f64) {
        self.samples(name, vec![v]);
    }

    /// Every catalogue entry must have been given a value.
    pub fn finish(self) -> Vec<Value> {
        for d in self.table {
            assert!(
                self.values.iter().any(|v| v.name == d.name),
                "metric {} was not measured",
                d.name
            );
        }
        self.values
    }
}

/// The end-to-end values of a workload. `virt` is where the virtual-time
/// metrics come from: the repetitions themselves on a `sim-*` workload, the
/// simulated twin on `thr-mixed` (threads have neither a virtual clock nor
/// message accounting).
pub fn end_to_end(reps: &[Rep], virt: &[Rep], rss_mb: f64) -> Vec<Value> {
    let ops_per_s = |r: &Rep| r.verified as f64 / r.drive_s;
    let mut c = Collector::new(&END_TO_END);
    c.over("setup_s", reps, |r| r.setup_s);
    c.over("ops_per_ref", reps, |r| ops_per_s(r) * r.ref_s);
    c.over("ops_per_s", reps, ops_per_s);
    c.one("peak_rss_mb", rss_mb);
    c.over("failed_share", reps, |r| {
        r.failed() as f64 / r.submitted as f64
    });
    c.over("msgs_per_op", virt, |r| {
        r.sim
            .map_or(0.0, |s| s.msgs as f64 / r.verified.max(1) as f64)
    });
    c.over("lat_p50_ticks", virt, |r| r.lat_p50);
    c.over("lat_p99_ticks", virt, |r| r.lat_p99);
    c.finish()
}

/// A traced repetition's corrected self times, in seconds.
struct SelfTimes {
    driver: f64,
    sim: f64,
    session: f64,
    core: f64,
    /// Σ handler time on the workers (threaded: what `worker_busy_share`
    /// is made of).
    handlers: f64,
    poll: f64,
    settle: f64,
    handler_calls: f64,
    core_calls: f64,
}

impl SelfTimes {
    fn total(&self) -> f64 {
        self.driver + self.sim + self.session + self.core
    }
}

/// A layer's self time is its spans minus its children's, minus what the
/// clock itself cost: each span hides `inside_ns` in its own duration and
/// leaves `outside_ns` in its parent's.
fn self_times(r: &Rep, cost: &ClockCost, threaded: bool) -> SelfTimes {
    let t = r.trace.as_ref().expect("a traced repetition");
    let (cin, cout) = (cost.inside_ns * 1e-9, cost.outside_ns * 1e-9);
    // Spans outside the drive: `on_start` runs in set-up, `into_procs` in
    // teardown.
    let within = |agg: &crate::timed::LayerAgg, skip: &str| {
        let k = agg.kind(skip);
        ((agg.calls - k.calls) as f64, (agg.ns - k.ns) as f64 * 1e-9)
    };
    let (n_rt, s_rt) = within(&t.runtime, "into_procs");
    let (n_s, s_s) = within(&t.session, "start");
    let (n_c, s_c) = within(&t.core, "start");
    let core = s_c - n_c * cin;
    let session = s_s - s_c - n_s * cin - n_c * cout;
    // On threads the handlers run on the workers, not inside runtime calls.
    let sim = if threaded {
        0.0
    } else {
        s_rt - s_s - n_rt * cin - n_s * cout
    };
    SelfTimes {
        driver: r.drive_s - s_rt - n_rt * cout,
        sim,
        session,
        core,
        handlers: s_s - n_s * cin - n_c * (cin + cout),
        poll: t.runtime.kind("poll").ns as f64 * 1e-9,
        settle: t.runtime.kind("settle").ns as f64 * 1e-9,
        handler_calls: n_s,
        core_calls: n_c,
    }
}

/// The per-layer values of a workload, from alternating `plain` and
/// `traced` repetitions (and, on `sim-traced`, `control` repetitions of the
/// same stream with obs off).
pub fn per_layer(
    w: &Workload,
    plain: &[Rep],
    traced: &[Rep],
    control: &[Rep],
    cost: &ClockCost,
) -> Vec<Value> {
    let threaded = w.runtime == RuntimeKind::Threaded;
    // Repetitions of one cycle ran back to back, so they saw the same
    // machine: ratios between them are taken cycle by cycle.
    let cycles = |a: &[Rep], b: &[Rep], f: &dyn Fn(&Rep, &Rep) -> f64| -> Vec<f64> {
        a.iter().zip(b).map(|(a, b)| f(a, b)).collect()
    };
    let ops = |r: &Rep| r.submitted as f64;
    let events = |r: &Rep| r.sim.map_or(0.0, |s| s.events as f64);
    let per_event = |x: f64, r: &Rep| if events(r) > 0.0 { x / events(r) } else { 0.0 };
    let selfs = |r: &Rep| self_times(r, cost, threaded);
    // Shares are of the corrected total on the simulator (so the four
    // layers sum to 1), and of the workers' combined wall on threads.
    let workers = w.stream.procs as f64;
    let share = |r: &Rep, part: f64, on_workers: bool| {
        if !threaded {
            part / selfs(r).total()
        } else if on_workers {
            part / (workers * r.drive_s)
        } else {
            part / r.drive_s
        }
    };

    let mut c = Collector::new(&PER_LAYER);
    c.over("driver.self_share", traced, |r| {
        share(r, selfs(r).driver, false)
    });
    c.over("driver.ns_per_op", traced, |r| {
        selfs(r).driver * 1e9 / ops(r)
    });
    c.over("sim.self_share", traced, |r| share(r, selfs(r).sim, false));
    c.over("sim.self_ns_per_event", traced, |r| {
        per_event(selfs(r).sim * 1e9, r)
    });
    c.over("sim.ns_per_event", plain, |r| per_event(r.drive_s * 1e9, r));
    c.over("sim.events_per_op", plain, |r| events(r) / ops(r));
    c.over("session.self_share", traced, |r| {
        share(r, selfs(r).session, true)
    });
    c.over("session.self_ns_per_event", traced, |r| {
        selfs(r).session * 1e9 / selfs(r).handler_calls
    });
    c.over("session.acks_per_op", plain, |r| {
        r.sim.map_or(0.0, |s| s.acks as f64) / ops(r)
    });
    c.over("session.retransmits_per_op", plain, |r| {
        r.retransmits as f64 / ops(r)
    });
    c.over("core.self_share", traced, |r| share(r, selfs(r).core, true));
    c.over("core.ns_per_action", traced, |r| {
        selfs(r).core * 1e9 / selfs(r).core_calls
    });
    c.over("core.actions_per_op", traced, |r| {
        selfs(r).core_calls / ops(r)
    });
    c.over("core.hops_mean", plain, |r| r.hops_mean);
    c.over("core.chases_per_op", plain, |r| r.chases as f64 / ops(r));
    c.over("core.relay_msgs_per_op", plain, |r| {
        r.sim.map_or(0.0, |s| s.relay_msgs as f64) / ops(r)
    });
    c.over("core.splits", plain, |r| r.splits as f64);
    c.over("core.msgs_per_split", plain, Rep::msgs_per_split);
    c.over("core.live_nodes", plain, |r| r.live_nodes as f64);
    c.over("core.store_imbalance", plain, |r| r.store_imbalance);

    // Obs-on against the same stream obs-off, both untraced.
    let obs =
        |f: fn(&crate::workloads::ObsCost) -> f64| move |r: &Rep| r.obs.as_ref().map_or(0.0, f);
    if control.is_empty() {
        c.one("trace.ns_per_event", 0.0);
        c.one("trace.overhead_ratio", 0.0);
    } else {
        let extra = |on: &Rep, off: &Rep| per_event((on.drive_s - off.drive_s) * 1e9, on);
        c.samples("trace.ns_per_event", cycles(plain, control, &extra));
        let ratio = |on: &Rep, off: &Rep| on.drive_s / off.drive_s;
        c.samples("trace.overhead_ratio", cycles(plain, control, &ratio));
    }
    c.over("trace.records", plain, obs(|o| o.records as f64));
    c.over("trace.dropped", plain, obs(|o| o.dropped as f64));
    c.over("trace.export_s", plain, obs(|o| o.export_s));
    c.over("trace.profile_s", plain, obs(|o| o.profile_s));

    let thr = |v: f64| if threaded { v } else { 0.0 };
    c.over("threaded.worker_busy_share", traced, |r| {
        thr(selfs(r).handlers / (workers * r.drive_s))
    });
    c.over("threaded.poll_wait_share", traced, |r| {
        thr(selfs(r).poll / r.drive_s)
    });
    c.over("threaded.spawn_s", plain, |r| r.spawn_s);
    c.over("threaded.settle_s", traced, |r| thr(selfs(r).settle));
    c.over("threaded.teardown_s", plain, |r| thr(r.teardown_s));
    c.over("threaded.deliveries_per_op", traced, |r| {
        thr(selfs(r).handler_calls / ops(r))
    });
    c.over("threaded.op_p50_us", plain, |r| thr(r.lat_p50));
    c.over("threaded.op_p99_us", plain, |r| thr(r.lat_p99));

    let alloc = |r: &Rep| r.trace.as_ref().expect("a traced repetition").alloc;
    c.over("alloc.count_per_op", traced, |r| {
        alloc(r).count as f64 / ops(r)
    });
    c.over("alloc.bytes_per_op", traced, |r| {
        alloc(r).bytes as f64 / ops(r)
    });
    c.over("alloc.peak_live_mb", traced, |r| {
        alloc(r).peak_live as f64 / (1 << 20) as f64
    });

    let overhead = |t: &Rep, p: &Rep| t.drive_s / p.drive_s;
    c.samples("bench.trace_overhead", cycles(traced, plain, &overhead));
    c.one("bench.clock_ns", cost.read_ns);
    // On threads the workers' spans overlap in time, so the sum of self
    // times is not a wall time and there is nothing to compare.
    let unattributed = |t: &Rep, p: &Rep| match threaded {
        true => 0.0,
        false => (selfs(t).total() - p.drive_s).abs() / p.drive_s,
    };
    c.samples(
        "bench.unattributed_share",
        cycles(traced, plain, &unattributed),
    );
    c.finish()
}

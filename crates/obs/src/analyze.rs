//! Post-mortem analyses over parsed exports: incident timelines around
//! alerts, lazy-lag percentiles, slowest-op hop chains, windowed metric
//! deltas, and run-vs-run diffs.

use std::collections::BTreeMap;

use crate::model::{AlertRec, SampleRec, TraceRec};

/// Exact nearest-rank percentiles of a gauge's sampled values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Quantiles {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest sampled value.
    pub max: u64,
}

impl Quantiles {
    /// Nearest-rank quantiles over a set of observations (all zero when
    /// empty).
    pub fn of(mut values: Vec<u64>) -> Quantiles {
        if values.is_empty() {
            return Quantiles::default();
        }
        values.sort_unstable();
        let rank = |q: f64| {
            let idx = ((values.len() as f64 - 1.0) * q).round() as usize;
            values[idx.min(values.len() - 1)]
        };
        Quantiles {
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
            max: *values.last().unwrap(),
        }
    }
}

/// Per-processor percentiles of one gauge across the whole series — the
/// lazy-lag summary when pointed at `relay.backlog_age`.
pub fn gauge_quantiles(samples: &[SampleRec], gauge: &str) -> BTreeMap<u32, Quantiles> {
    let mut per_proc: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for s in samples {
        if let Some(v) = s.gauge(gauge) {
            per_proc.entry(s.proc).or_default().push(v);
        }
    }
    per_proc
        .into_iter()
        .map(|(p, vs)| (p, Quantiles::of(vs)))
        .collect()
}

/// The trace records within `window` ticks of `center`, in trace order —
/// the incident timeline around one alert.
pub fn timeline(trace: &[TraceRec], center: u64, window: u64) -> Vec<&TraceRec> {
    trace
        .iter()
        .filter(|r| r.at >= center.saturating_sub(window) && r.at <= center.saturating_add(window))
        .collect()
}

/// One operation's reconstructed hop chain.
#[derive(Clone, Debug)]
pub struct HopChain {
    /// The operation span.
    pub span: u64,
    /// Number of delivered actions attributed to the span.
    pub hops: usize,
    /// Total ticks those actions waited behind busy node managers.
    pub wait: u64,
    /// Span of trace time the chain covers (last `at` minus first `at`).
    pub elapsed: u64,
    /// The deliveries themselves: `(at, from, to, kind, wait)`.
    pub path: Vec<(u64, i64, i64, String, u64)>,
}

/// Group delivered actions by span and rank chains slowest-first (by
/// elapsed trace time, then by queueing). Returns at most `n` chains.
pub fn slowest_spans(trace: &[TraceRec], n: usize) -> Vec<HopChain> {
    let mut by_span: BTreeMap<u64, Vec<&TraceRec>> = BTreeMap::new();
    for r in trace {
        if r.event == "deliver" || r.event == "output" {
            if let Some(sp) = r.span {
                by_span.entry(sp).or_default().push(r);
            }
        }
    }
    let mut chains: Vec<HopChain> = by_span
        .into_iter()
        .map(|(span, recs)| {
            let first = recs.iter().map(|r| r.at).min().unwrap_or(0);
            let last = recs.iter().map(|r| r.at).max().unwrap_or(0);
            HopChain {
                span,
                hops: recs.len(),
                wait: recs.iter().map(|r| r.wait).sum(),
                elapsed: last - first,
                path: recs
                    .iter()
                    .map(|r| (r.at, r.from, r.to, r.kind.clone(), r.wait))
                    .collect(),
            }
        })
        .collect();
    chains.sort_by(|a, b| (b.elapsed, b.wait, a.span).cmp(&(a.elapsed, a.wait, b.span)));
    chains.truncate(n);
    chains
}

/// Deliveries and node visits of one message kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindVisits {
    /// Delivered actions of this kind.
    pub deliveries: u64,
    /// Nodes those actions visited: one each, plus the steps they went on
    /// to take in-process (the `nav.local_steps` delta of each entry).
    pub visits: u64,
    /// Of those, link chases by the client plane (`link_chases`) ...
    pub link_chases: u64,
    /// ... and by the update plane (`update_chases`): a split completion or
    /// re-issued insert walking from a stale hint to where it belongs.
    pub update_chases: u64,
}

/// Per message kind, how many actions were delivered and how many nodes
/// they visited. A navigation step whose next node is resident runs inside
/// the delivering action, so one delivery can stand for a whole chain;
/// `visits / deliveries` is the chain length the per-hop entries used to
/// spell out.
pub fn kind_visits(trace: &[TraceRec]) -> BTreeMap<String, KindVisits> {
    let mut out: BTreeMap<String, KindVisits> = BTreeMap::new();
    for r in trace.iter().filter(|r| r.event == "deliver") {
        let delta = |counter: &str| {
            let found = r.deltas.iter().find(|(name, _)| name == counter);
            found.map_or(0, |(_, v)| *v)
        };
        let k = out.entry(r.kind.clone()).or_default();
        k.deliveries += 1;
        k.visits += 1 + delta("nav.local_steps");
        k.link_chases += delta("link_chases");
        k.update_chases += delta("update_chases");
    }
    out
}

/// One metric's movement across a time window on one processor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowDelta {
    /// The processor.
    pub proc: u32,
    /// Metric name.
    pub name: String,
    /// Value at the first sample inside the window.
    pub first: u64,
    /// Value at the last sample inside the window.
    pub last: u64,
    /// `true` for gauges (levels), `false` for counters (monotone).
    pub gauge: bool,
}

impl WindowDelta {
    /// Signed movement across the window.
    pub fn delta(&self) -> i64 {
        self.last as i64 - self.first as i64
    }
}

/// First-to-last movement of every counter and gauge, per processor, over
/// the samples falling inside `[t0, t1]`. Metrics that never move are
/// omitted.
pub fn window_deltas(samples: &[SampleRec], t0: u64, t1: u64) -> Vec<WindowDelta> {
    // (proc, name, is_gauge) -> (first, last), in sample order.
    let mut seen: BTreeMap<(u32, String, bool), (u64, u64)> = BTreeMap::new();
    for s in samples {
        if s.at < t0 || s.at > t1 {
            continue;
        }
        for (pairs, gauge) in [(&s.counters, false), (&s.gauges, true)] {
            for (name, v) in pairs {
                seen.entry((s.proc, name.clone(), gauge))
                    .and_modify(|(_, last)| *last = *v)
                    .or_insert((*v, *v));
            }
        }
    }
    seen.into_iter()
        .filter(|(_, (first, last))| first != last)
        .map(|((proc, name, gauge), (first, last))| WindowDelta {
            proc,
            name,
            first,
            last,
            gauge,
        })
        .collect()
}

/// The full post-mortem of one run — everything `obsctl report` prints,
/// exportable as one pinned JSON object.
#[derive(Clone, Debug)]
pub struct Report {
    /// Number of distinct processors seen across trace and samples.
    pub procs: usize,
    /// Trace records parsed.
    pub events: usize,
    /// Ring-buffer head gap (the first retained record's `seq`).
    pub head_gap: u64,
    /// Sample records parsed.
    pub samples: usize,
    /// First trace/sample tick (`None` when both exports are empty).
    pub first_at: Option<u64>,
    /// Last trace/sample tick.
    pub last_at: Option<u64>,
    /// Alerts in firing order.
    pub alerts: Vec<AlertRec>,
    /// Alert count per rule.
    pub by_rule: BTreeMap<String, u64>,
    /// Alert count per processor.
    pub by_proc: BTreeMap<u32, u64>,
    /// Per-processor lazy-lag percentiles (`relay.backlog_age`).
    pub lag: BTreeMap<u32, Quantiles>,
    /// Slowest reconstructed op chains.
    pub slowest: Vec<HopChain>,
}

/// How many slow op chains a report keeps.
pub const SLOWEST_N: usize = 5;

impl Report {
    /// Build the post-mortem from parsed exports.
    pub fn build(trace: &[TraceRec], samples: &[SampleRec]) -> Report {
        let alerts = AlertRec::all_from_trace(trace);
        let mut by_rule: BTreeMap<String, u64> = BTreeMap::new();
        let mut by_proc: BTreeMap<u32, u64> = BTreeMap::new();
        for a in &alerts {
            *by_rule.entry(a.rule.clone()).or_insert(0) += 1;
            *by_proc.entry(a.proc).or_insert(0) += 1;
        }
        let mut procs: std::collections::BTreeSet<u32> = samples.iter().map(|s| s.proc).collect();
        for r in trace {
            for id in [r.from, r.to] {
                if let Ok(p) = u32::try_from(id) {
                    procs.insert(p);
                }
            }
        }
        let ticks = trace
            .iter()
            .map(|r| r.at)
            .chain(samples.iter().map(|s| s.at));
        let first_at = ticks.clone().min();
        let last_at = ticks.max();
        Report {
            procs: procs.len(),
            events: trace.len(),
            head_gap: trace.first().map_or(0, |r| r.seq),
            samples: samples.len(),
            first_at,
            last_at,
            alerts,
            by_rule,
            by_proc,
            lag: gauge_quantiles(samples, "relay.backlog_age"),
            slowest: slowest_spans(trace, SLOWEST_N),
        }
    }

    /// `true` when no watchdog fired.
    pub fn healthy(&self) -> bool {
        self.alerts.is_empty()
    }

    /// The report as one JSON object (schema pinned by test).
    pub fn to_json(&self) -> String {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |t| t.to_string());
        let mut s = format!(
            "{{\"procs\":{},\"events\":{},\"head_gap\":{},\"samples\":{},\"first_at\":{},\"last_at\":{},\"healthy\":{},\"alerts\":[",
            self.procs,
            self.events,
            self.head_gap,
            self.samples,
            opt(self.first_at),
            opt(self.last_at),
            self.healthy(),
        );
        for (i, a) in self.alerts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"at\":{},\"proc\":{},\"rule\":\"{}\",\"value\":{},\"threshold\":{},\"windows\":{}}}",
                a.at, a.proc, a.rule, a.value, a.threshold, a.windows
            ));
        }
        s.push_str("],\"rules\":{");
        for (i, (rule, n)) in self.by_rule.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{rule}\":{n}"));
        }
        s.push_str("},\"alert_procs\":{");
        for (i, (p, n)) in self.by_proc.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{p}\":{n}"));
        }
        s.push_str("},\"lag\":{");
        for (i, (p, q)) in self.lag.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{p}\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                q.p50, q.p90, q.p99, q.max
            ));
        }
        s.push_str("},\"slowest\":[");
        for (i, c) in self.slowest.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"span\":{},\"hops\":{},\"wait\":{},\"elapsed\":{}}}",
                c.span, c.hops, c.wait, c.elapsed
            ));
        }
        s.push_str("]}");
        s
    }
}

/// A run-vs-run comparison (`obsctl diff`).
#[derive(Clone, Debug)]
pub struct Diff {
    /// Alert totals: `(run A, run B)`.
    pub alerts: (u64, u64),
    /// Per-rule alert counts: rule -> `(A, B)`.
    pub rules: BTreeMap<String, (u64, u64)>,
    /// Per-processor lag p99: proc -> `(A, B)`.
    pub lag_p99: BTreeMap<u32, (u64, u64)>,
}

impl Diff {
    /// Compare two reports.
    pub fn of(a: &Report, b: &Report) -> Diff {
        let mut rules: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (r, n) in &a.by_rule {
            rules.entry(r.clone()).or_default().0 = *n;
        }
        for (r, n) in &b.by_rule {
            rules.entry(r.clone()).or_default().1 = *n;
        }
        let mut lag_p99: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for (p, q) in &a.lag {
            lag_p99.entry(*p).or_default().0 = q.p99;
        }
        for (p, q) in &b.lag {
            lag_p99.entry(*p).or_default().1 = q.p99;
        }
        Diff {
            alerts: (a.alerts.len() as u64, b.alerts.len() as u64),
            rules,
            lag_p99,
        }
    }

    /// The diff as one JSON object (schema pinned by test).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"alerts\":{{\"a\":{},\"b\":{}}},\"rules\":{{",
            self.alerts.0, self.alerts.1
        );
        for (i, (rule, (a, b))) in self.rules.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{rule}\":{{\"a\":{a},\"b\":{b}}}"));
        }
        s.push_str("},\"lag_p99\":{");
        for (i, (p, (a, b))) in self.lag_p99.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{p}\":{{\"a\":{a},\"b\":{b}}}"));
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at: u64, proc: u32, age: u64) -> SampleRec {
        SampleRec {
            at,
            proc,
            counters: vec![("relays_applied".to_string(), at / 10)],
            gauges: vec![("relay.backlog_age".to_string(), age)],
        }
    }

    #[test]
    fn quantiles_are_nearest_rank_exact() {
        let q = Quantiles::of((1..=100).collect());
        // Nearest rank over 1..=100: index round(99·0.5) = 50 → value 51.
        assert_eq!(q.p50, 51);
        assert_eq!(q.p90, 90);
        assert_eq!(q.p99, 99);
        assert_eq!(q.max, 100);
        assert_eq!(Quantiles::of(Vec::new()), Quantiles::default());
    }

    #[test]
    fn gauge_quantiles_split_by_processor() {
        let samples: Vec<SampleRec> = (0..10)
            .flat_map(|i| [sample(i * 100, 0, i), sample(i * 100, 1, 10 * i)])
            .collect();
        let lag = gauge_quantiles(&samples, "relay.backlog_age");
        assert_eq!(lag[&0].max, 9);
        assert_eq!(lag[&1].max, 90);
        assert!(lag[&1].p50 > lag[&0].p50);
    }

    #[test]
    fn window_deltas_track_first_to_last_inside_the_window() {
        let samples = vec![sample(0, 0, 0), sample(100, 0, 40), sample(200, 0, 80)];
        let deltas = window_deltas(&samples, 50, 250);
        let age = deltas
            .iter()
            .find(|d| d.name == "relay.backlog_age")
            .unwrap();
        assert_eq!((age.first, age.last), (40, 80));
        assert_eq!(age.delta(), 40);
        assert!(age.gauge);
        let counter = deltas.iter().find(|d| d.name == "relays_applied").unwrap();
        assert!(!counter.gauge);
        // Samples outside the window are invisible.
        assert!(window_deltas(&samples, 300, 400).is_empty());
    }

    #[test]
    fn empty_report_is_healthy_and_total() {
        let r = Report::build(&[], &[]);
        assert!(r.healthy());
        assert_eq!(r.first_at, None);
        assert_eq!(
            r.to_json(),
            "{\"procs\":0,\"events\":0,\"head_gap\":0,\"samples\":0,\"first_at\":null,\"last_at\":null,\"healthy\":true,\"alerts\":[],\"rules\":{},\"alert_procs\":{},\"lag\":{},\"slowest\":[]}"
        );
    }

    #[test]
    fn diff_pairs_rules_and_lag_from_both_sides() {
        let samples_a = vec![sample(0, 0, 5)];
        let samples_b = vec![sample(0, 0, 500)];
        let a = Report::build(&[], &samples_a);
        let b = Report::build(&[], &samples_b);
        let d = Diff::of(&a, &b);
        assert_eq!(d.alerts, (0, 0));
        assert_eq!(d.lag_p99[&0], (5, 500));
        assert_eq!(
            d.to_json(),
            "{\"alerts\":{\"a\":0,\"b\":0},\"rules\":{},\"lag_p99\":{\"0\":{\"a\":5,\"b\":500}}}"
        );
    }

    #[test]
    fn visits_count_the_in_process_steps_of_each_delivery() {
        let rec = |seq: u32, event: &str, kind: &str, deltas: &str| {
            format!(
                r#"{{"seq":{seq},"at":1,"from":0,"to":1,"event":"{event}","kind":"{kind}","span":null,"redelivery":false,"wait":0,"detail":"","deltas":{deltas}}}"#
            )
        };
        let text = [
            rec(0, "deliver", "client", r#"{"nav.local_steps":3}"#),
            rec(1, "deliver", "client", r#"{"link_chases":1}"#),
            rec(2, "deliver", "insert.relay", r#"{"update_chases":7}"#),
            rec(3, "output", "done", r#"{"nav.local_steps":9}"#),
        ]
        .join("\n");
        let trace = crate::model::parse_trace_jsonl(&text).unwrap();
        let by_kind = kind_visits(&trace);
        assert_eq!(by_kind.len(), 2, "outputs are not deliveries");
        assert_eq!(
            by_kind["client"],
            KindVisits {
                deliveries: 2,
                visits: 5,
                link_chases: 1,
                update_chases: 0,
            }
        );
        assert_eq!(by_kind["insert.relay"].visits, 1);
        assert_eq!(by_kind["insert.relay"].update_chases, 7);
    }
}

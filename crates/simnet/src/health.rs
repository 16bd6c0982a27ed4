//! Online cluster-health watchdogs over the sampled metric series.
//!
//! The paper's laziness claims are only checkable if the *lag* signals —
//! relay backlog, parked writes, retransmit pressure, detector flapping —
//! are watched while the run is still going. A [`HealthMonitor`] evaluates
//! threshold/derivative rules at every sample boundary (the series'
//! cadence, on both runtimes) and emits
//! schema-pinned [`Alert`]s: each becomes a trace event the moment it fires
//! and is retained for the end-of-run [`HealthReport`].
//!
//! Rules are deliberately per-processor and hysteretic: one incident fires
//! one alert, and the rule re-arms only after the signal recovers, so a
//! long-lived fault cannot flood the trace ring.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{escape_into, opt_into, pairs_into};
use crate::{ProcId, SimTime};

/// The watchdog switch, identical for both runtimes. The default is off: no
/// rule is evaluated, no per-sample state is kept, and runs are
/// byte-identical to builds that predate the monitor. The thresholds are
/// the constants below — no caller ever set one.
#[derive(Clone, Copy, Debug, Default)]
pub struct HealthConfig {
    /// Master switch; `false` (the default) skips evaluation entirely.
    pub enabled: bool,
}

impl HealthConfig {
    /// All rules armed.
    pub fn watchdogs() -> Self {
        HealthConfig { enabled: true }
    }
}

/// `backlog_growth` fires when the `relay.backlog_depth` gauge rises
/// strictly for this many consecutive samples of one processor without the
/// backlog draining in between (by `relay.backlog_age`, where reported, the
/// oldest buffered relay is still the same one). A healthy backlog that is
/// flushed and refills between samples is noise — depth alone read four
/// rises in a row on 4 of 60 clean E21 seeds.
const BACKLOG_GROWTH_WINDOWS: u32 = 4;
/// `parked_write_stall` fires when the `proc.parked_dwell` gauge (oldest
/// parked write's age in ticks) exceeds this bound.
const PARKED_DWELL_TICKS: u64 = 5_000;
/// `retransmit_storm` fires when the `session.retransmissions` counter grows
/// by more than this between two consecutive samples of one processor.
const RETRANSMIT_STORM_DELTA: u64 = 64;
/// `suspect_flapping` fires when the combined `detector.suspects` +
/// `detector.alives` transition count grows by more than this within one
/// sampling window.
const FLAP_TRANSITIONS: u64 = 6;

/// One watchdog firing. The JSON shape (and the `rule` vocabulary) is
/// pinned by golden tests — extend, don't reshape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alert {
    /// Sample time the rule tripped (virtual or wall-clock ticks).
    pub at: SimTime,
    /// The processor whose series tripped it.
    pub proc: ProcId,
    /// Rule name: `backlog_growth`, `parked_write_stall`,
    /// `retransmit_storm`, or `suspect_flapping`.
    pub rule: &'static str,
    /// The observed value (gauge level, or per-window delta for the
    /// derivative rules).
    pub value: u64,
    /// The rule's bound the value crossed.
    pub threshold: u64,
    /// Consecutive samples the predicate held when the alert fired (1 for
    /// the pure threshold rules).
    pub windows: u32,
}

impl Alert {
    /// One line of the alert JSONL schema (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }

    /// Append [`Alert::to_json`] to `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let (at, proc) = (self.at.ticks(), self.proc.0);
        let _ = write!(out, "{{\"at\":{at},\"proc\":{proc},\"rule\":\"");
        escape_into(out, self.rule);
        let _ = write!(
            out,
            "\",\"value\":{},\"threshold\":{},\"windows\":{}}}",
            self.value, self.threshold, self.windows
        );
    }

    /// The human-readable detail string the paired trace event carries.
    pub fn detail(&self) -> String {
        format!(
            "rule={} value={} threshold={} windows={}",
            self.rule, self.value, self.threshold, self.windows
        )
    }
}

/// Per-processor rule state: last-seen levels for the derivative rules and
/// a latched bit per rule for hysteresis.
#[derive(Clone, Debug, Default)]
struct ProcHealth {
    last_backlog: Option<u64>,
    /// When the oldest relay buffered at the previous sample went in
    /// (sample time − `relay.backlog_age`; `None` for an empty backlog).
    backlog_since: Option<u64>,
    backlog_rising: u32,
    backlog_latched: bool,
    dwell_latched: bool,
    last_retrans: Option<u64>,
    storm_latched: bool,
    last_flaps: Option<u64>,
    flap_latched: bool,
}

/// Evaluates the watchdog rules over the per-processor sample stream.
///
/// Feed it every `(at, proc, counters, gauges)` snapshot the sampler takes
/// (the recorder both runtimes share does) and record whatever alerts come
/// back. The monitor itself never touches the event stream:
/// with the config disabled it is never even constructed.
#[derive(Debug)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    procs: Vec<ProcHealth>,
}

/// Look up a named value in a `(name, value)` snapshot.
fn lookup(pairs: &[(&'static str, u64)], name: &str) -> Option<u64> {
    pairs.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

impl HealthMonitor {
    /// A monitor for `n_procs` processors.
    pub fn new(cfg: HealthConfig, n_procs: usize) -> Self {
        HealthMonitor {
            cfg,
            procs: vec![ProcHealth::default(); n_procs],
        }
    }

    /// Evaluate every armed rule against one sample; returns the alerts
    /// that fired (usually none).
    pub fn observe(
        &mut self,
        at: SimTime,
        proc: ProcId,
        counters: &[(&'static str, u64)],
        gauges: &[(&'static str, u64)],
    ) -> Vec<Alert> {
        if !self.cfg.enabled {
            return Vec::new();
        }
        if proc.index() >= self.procs.len() {
            self.procs.resize(proc.index() + 1, ProcHealth::default());
        }
        let st = &mut self.procs[proc.index()];
        let mut out = Vec::new();

        // backlog_growth: the relay backlog depth rose strictly for N
        // consecutive windows — relays are being produced faster than they
        // drain (or drainage is wedged entirely).
        if let Some(depth) = lookup(gauges, "relay.backlog_depth") {
            let age = lookup(gauges, "relay.backlog_age").filter(|_| depth > 0);
            let since = age.map(|age| at.ticks().saturating_sub(age));
            let undrained = match (st.backlog_since, since) {
                (Some(was), Some(is)) => is <= was,
                _ => true,
            };
            st.backlog_since = since;
            match st.last_backlog {
                Some(prev) if depth > prev && undrained => st.backlog_rising += 1,
                Some(_) => {
                    st.backlog_rising = 0;
                    st.backlog_latched = false;
                }
                None => {}
            }
            st.last_backlog = Some(depth);
            if st.backlog_rising >= BACKLOG_GROWTH_WINDOWS && !st.backlog_latched {
                st.backlog_latched = true;
                out.push(Alert {
                    at,
                    proc,
                    rule: "backlog_growth",
                    value: depth,
                    threshold: BACKLOG_GROWTH_WINDOWS as u64,
                    windows: st.backlog_rising,
                });
            }
        }

        // parked_write_stall: the oldest parked client write has dwelled
        // past the bound — a liveness smell (the wedged-merge livelock's
        // online signature).
        if let Some(dwell) = lookup(gauges, "proc.parked_dwell") {
            if dwell > PARKED_DWELL_TICKS {
                if !st.dwell_latched {
                    st.dwell_latched = true;
                    out.push(Alert {
                        at,
                        proc,
                        rule: "parked_write_stall",
                        value: dwell,
                        threshold: PARKED_DWELL_TICKS,
                        windows: 1,
                    });
                }
            } else {
                st.dwell_latched = false;
            }
        }

        // retransmit_storm: the session layer's retransmission counter
        // jumped by more than the bound within one window.
        if let Some(now) = lookup(counters, "session.retransmissions") {
            if let Some(prev) = st.last_retrans {
                let delta = now.saturating_sub(prev);
                if delta > RETRANSMIT_STORM_DELTA {
                    if !st.storm_latched {
                        st.storm_latched = true;
                        out.push(Alert {
                            at,
                            proc,
                            rule: "retransmit_storm",
                            value: delta,
                            threshold: RETRANSMIT_STORM_DELTA,
                            windows: 1,
                        });
                    }
                } else {
                    st.storm_latched = false;
                }
            }
            st.last_retrans = Some(now);
        }

        // suspect_flapping: the failure detector changed its mind too often
        // within one window (suspect+alive transitions both count).
        let flaps = match (
            lookup(counters, "detector.suspects"),
            lookup(counters, "detector.alives"),
        ) {
            (None, None) => None,
            (s, a) => Some(s.unwrap_or(0) + a.unwrap_or(0)),
        };
        if let Some(now) = flaps {
            if let Some(prev) = st.last_flaps {
                let delta = now.saturating_sub(prev);
                if delta > FLAP_TRANSITIONS {
                    if !st.flap_latched {
                        st.flap_latched = true;
                        out.push(Alert {
                            at,
                            proc,
                            rule: "suspect_flapping",
                            value: delta,
                            threshold: FLAP_TRANSITIONS,
                            windows: 1,
                        });
                    }
                } else {
                    st.flap_latched = false;
                }
            }
            st.last_flaps = Some(now);
        }

        out
    }
}

/// End-of-run summary of everything the watchdogs fired, with a pinned
/// JSON shape (`obsctl` and the CI must-alert guard parse it).
#[derive(Clone, Debug, Default)]
pub struct HealthReport {
    /// Total alerts fired.
    pub alerts: u64,
    /// Alert counts per rule name, in name order.
    pub by_rule: BTreeMap<&'static str, u64>,
    /// Alert counts per processor, in processor order.
    pub by_proc: BTreeMap<u32, u64>,
    /// Time of the first alert, if any fired.
    pub first_at: Option<u64>,
    /// Time of the last alert, if any fired.
    pub last_at: Option<u64>,
}

impl HealthReport {
    /// Summarize a run's alert stream.
    pub fn build(alerts: &[Alert]) -> Self {
        let mut r = HealthReport {
            alerts: alerts.len() as u64,
            ..HealthReport::default()
        };
        for a in alerts {
            *r.by_rule.entry(a.rule).or_insert(0) += 1;
            *r.by_proc.entry(a.proc.0).or_insert(0) += 1;
            let t = a.at.ticks();
            r.first_at = Some(r.first_at.map_or(t, |f| f.min(t)));
            r.last_at = Some(r.last_at.map_or(t, |l| l.max(t)));
        }
        r
    }

    /// `true` when no watchdog fired.
    pub fn healthy(&self) -> bool {
        self.alerts == 0
    }

    /// The pinned report JSON (one object, no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        // Writing to a `String` cannot fail.
        let (healthy, alerts) = (self.healthy(), self.alerts);
        let _ = write!(
            s,
            "{{\"healthy\":{healthy},\"alerts\":{alerts},\"first_at\":"
        );
        opt_into(&mut s, self.first_at);
        s.push_str(",\"last_at\":");
        opt_into(&mut s, self.last_at);
        s.push_str(",\"rules\":");
        let rules: Vec<_> = self.by_rule.iter().map(|(r, n)| (*r, *n)).collect();
        pairs_into(&mut s, &rules);
        s.push_str(",\"procs\":{");
        for (i, (p, n)) in self.by_proc.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(s, "{sep}\"{p}\":{n}");
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(m: &mut HealthMonitor, at: u64, gauges: &[(&'static str, u64)]) -> Vec<Alert> {
        m.observe(SimTime(at), ProcId(0), &[], gauges)
    }

    #[test]
    fn disabled_monitor_never_fires() {
        let mut m = HealthMonitor::new(HealthConfig::default(), 1);
        for i in 0..10 {
            assert!(sample(&mut m, i * 10, &[("relay.backlog_depth", i * 5)]).is_empty());
        }
    }

    #[test]
    fn backlog_growth_fires_once_per_incident() {
        let mut m = HealthMonitor::new(HealthConfig::watchdogs(), 1);
        // Strictly rising: fires exactly at the 4th consecutive rise.
        for (i, d) in (1u64..=4).enumerate() {
            assert!(sample(&mut m, 10 * i as u64, &[("relay.backlog_depth", d)]).is_empty());
        }
        let fired = sample(&mut m, 40, &[("relay.backlog_depth", 5)]);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "backlog_growth");
        assert_eq!(fired[0].windows, BACKLOG_GROWTH_WINDOWS);
        // Still rising: latched, no second alert.
        assert!(sample(&mut m, 50, &[("relay.backlog_depth", 9)]).is_empty());
        // A backlog that drained and refilled higher is not growth: four
        // rises, but the oldest buffered relay is a new one each window.
        let mut flushed = HealthMonitor::new(HealthConfig::watchdogs(), 1);
        for i in 0..8u64 {
            let gauges = [("relay.backlog_depth", i), ("relay.backlog_age", 1 + i % 3)];
            assert!(sample(&mut flushed, 10 * i, &gauges).is_empty());
        }
        // Recovery re-arms; a fresh climb fires again.
        assert!(sample(&mut m, 60, &[("relay.backlog_depth", 1)]).is_empty());
        for (i, d) in (2u64..=5).enumerate() {
            let fired = sample(&mut m, 70 + 10 * i as u64, &[("relay.backlog_depth", d)]);
            assert_eq!(fired.len(), usize::from(d == 5));
        }
    }

    #[test]
    fn parked_dwell_threshold_is_hysteretic() {
        let mut m = HealthMonitor::new(HealthConfig::watchdogs(), 1);
        let bound = PARKED_DWELL_TICKS;
        assert!(sample(&mut m, 0, &[("proc.parked_dwell", bound)]).is_empty());
        let fired = sample(&mut m, 10, &[("proc.parked_dwell", bound + 1)]);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "parked_write_stall");
        assert!(sample(&mut m, 20, &[("proc.parked_dwell", 5 * bound)]).is_empty());
        assert!(sample(&mut m, 30, &[("proc.parked_dwell", 0)]).is_empty());
        assert_eq!(
            sample(&mut m, 40, &[("proc.parked_dwell", 2 * bound)]).len(),
            1
        );
    }

    #[test]
    fn retransmit_storm_watches_the_window_delta() {
        let mut m = HealthMonitor::new(HealthConfig::watchdogs(), 1);
        let c = |v| vec![("session.retransmissions", v)];
        assert!(m.observe(SimTime(0), ProcId(0), &c(100), &[]).is_empty());
        // +64 within the window: fine. +65: storm.
        assert!(m.observe(SimTime(10), ProcId(0), &c(164), &[]).is_empty());
        let fired = m.observe(SimTime(20), ProcId(0), &c(229), &[]);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "retransmit_storm");
        assert_eq!(fired[0].value, RETRANSMIT_STORM_DELTA + 1);
    }

    #[test]
    fn flapping_sums_suspect_and_alive_transitions() {
        let mut m = HealthMonitor::new(HealthConfig::watchdogs(), 1);
        let c = |s, a| vec![("detector.suspects", s), ("detector.alives", a)];
        assert!(m.observe(SimTime(0), ProcId(0), &c(0, 0), &[]).is_empty());
        // 3 + 3 transitions in one window: at the bound. 4 + 3: past it.
        assert!(m.observe(SimTime(10), ProcId(0), &c(3, 3), &[]).is_empty());
        let fired = m.observe(SimTime(20), ProcId(0), &c(7, 6), &[]);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "suspect_flapping");
        assert_eq!(fired[0].value, FLAP_TRANSITIONS + 1);
    }

    #[test]
    fn rules_are_tracked_per_processor() {
        let mut m = HealthMonitor::new(HealthConfig::watchdogs(), 2);
        for d in 1u64..=5 {
            // Proc 1 rises; proc 0 stays flat and must not fire.
            assert!(m
                .observe(
                    SimTime(10 * d),
                    ProcId(0),
                    &[],
                    &[("relay.backlog_depth", 1)]
                )
                .is_empty());
            let fired = m.observe(
                SimTime(10 * d),
                ProcId(1),
                &[],
                &[("relay.backlog_depth", d)],
            );
            assert_eq!(fired.len(), usize::from(d == 5));
            if d == 5 {
                assert_eq!(fired[0].proc, ProcId(1));
            }
        }
    }

    #[test]
    fn alert_and_report_json_shapes_are_pinned() {
        let a = Alert {
            at: SimTime(120),
            proc: ProcId(2),
            rule: "backlog_growth",
            value: 40,
            threshold: 4,
            windows: 5,
        };
        assert_eq!(
            a.to_json(),
            "{\"at\":120,\"proc\":2,\"rule\":\"backlog_growth\",\
             \"value\":40,\"threshold\":4,\"windows\":5}"
        );
        let b = Alert {
            at: SimTime(300),
            proc: ProcId(2),
            rule: "retransmit_storm",
            value: 80,
            threshold: 64,
            windows: 1,
        };
        let report = HealthReport::build(&[a, b]);
        assert!(!report.healthy());
        assert_eq!(
            report.to_json(),
            "{\"healthy\":false,\"alerts\":2,\"first_at\":120,\"last_at\":300,\
             \"rules\":{\"backlog_growth\":1,\"retransmit_storm\":1},\"procs\":{\"2\":2}}"
        );
        let empty = HealthReport::build(&[]);
        assert!(empty.healthy());
        assert_eq!(
            empty.to_json(),
            "{\"healthy\":true,\"alerts\":0,\"first_at\":null,\"last_at\":null,\
             \"rules\":{},\"procs\":{}}"
        );
    }
}

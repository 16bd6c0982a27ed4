//! Typed records for the three JSONL export streams, re-parsed from their
//! pinned schemas: the causal trace, the per-processor sample series, and
//! the watchdog alert stream.

use crate::json::Json;

/// One causal-trace record (`TraceEntry::to_json` schema).
#[derive(Clone, Debug)]
pub struct TraceRec {
    /// Global sequence number (the first retained record's `seq` names the
    /// ring buffer's head gap).
    pub seq: u64,
    /// Event time in ticks.
    pub at: u64,
    /// Sender (`-1` is the external endpoint).
    pub from: i64,
    /// Receiver (`-1` is the external endpoint).
    pub to: i64,
    /// Event label (`deliver`, `timer`, `alert`, ...).
    pub event: String,
    /// Message/rule kind.
    pub kind: String,
    /// Causal span (operation id), if attributed.
    pub span: Option<u64>,
    /// Whether this delivery was a session-layer retransmission.
    pub redelivery: bool,
    /// Ticks the delivery waited behind a busy node manager.
    pub wait: u64,
    /// Free-form detail.
    pub detail: String,
    /// Per-action protocol counter increases.
    pub deltas: Vec<(String, u64)>,
}

/// One sample-series record (`ProcSample::to_json` schema).
#[derive(Clone, Debug)]
pub struct SampleRec {
    /// Sample time in ticks.
    pub at: u64,
    /// The processor sampled.
    pub proc: u32,
    /// Monotone counter snapshot.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time level gauges.
    pub gauges: Vec<(String, u64)>,
}

/// One watchdog alert (`Alert::to_json` schema, or reconstructed from an
/// `alert` trace record).
#[derive(Clone, Debug, PartialEq)]
pub struct AlertRec {
    /// Firing time in ticks.
    pub at: u64,
    /// The processor whose series tripped the rule.
    pub proc: u32,
    /// The rule name (`backlog_growth`, `parked_write_stall`,
    /// `retransmit_storm`, `suspect_flapping`).
    pub rule: String,
    /// The observed value that tripped the rule.
    pub value: u64,
    /// The configured threshold.
    pub threshold: u64,
    /// How many sample windows the rule looked across.
    pub windows: u64,
}

fn field<'a>(v: &'a Json, name: &str, line_no: usize) -> Result<&'a Json, String> {
    v.get(name)
        .ok_or_else(|| format!("line {line_no}: missing field {name:?}"))
}

/// The `{"name":count,...}` object `name` of a record, counts as `u64`.
fn pairs_of(v: &Json, name: &str, line_no: usize) -> Result<Vec<(String, u64)>, String> {
    let count = |(k, n): &(String, Json)| {
        let n = n
            .as_u64()
            .ok_or_else(|| format!("line {line_no}: {name}.{k} is not a u64"))?;
        Ok((k.clone(), n))
    };
    field(v, name, line_no)?
        .members()
        .iter()
        .map(count)
        .collect()
}

/// Parse a trace JSONL export. Blank lines are skipped; any malformed line
/// is an error naming its line number.
pub fn parse_trace_jsonl(src: &str) -> Result<Vec<TraceRec>, String> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let n = i + 1;
        let v = Json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
        let u = |name: &str| -> Result<u64, String> {
            field(&v, name, n)?
                .as_u64()
                .ok_or_else(|| format!("line {n}: {name} is not a u64"))
        };
        let int = |name: &str| -> Result<i64, String> {
            field(&v, name, n)?
                .as_i64()
                .ok_or_else(|| format!("line {n}: {name} is not an integer"))
        };
        let s = |name: &str| -> Result<String, String> {
            Ok(field(&v, name, n)?
                .as_str()
                .ok_or_else(|| format!("line {n}: {name} is not a string"))?
                .to_string())
        };
        let span = match field(&v, "span", n)? {
            Json::Null => None,
            other => Some(
                other
                    .as_u64()
                    .ok_or_else(|| format!("line {n}: span is not a u64"))?,
            ),
        };
        out.push(TraceRec {
            seq: u("seq")?,
            at: u("at")?,
            from: int("from")?,
            to: int("to")?,
            event: s("event")?,
            kind: s("kind")?,
            span,
            redelivery: field(&v, "redelivery", n)?
                .as_bool()
                .ok_or_else(|| format!("line {n}: redelivery is not a bool"))?,
            wait: u("wait")?,
            detail: s("detail")?,
            deltas: pairs_of(&v, "deltas", n)?,
        });
    }
    Ok(out)
}

/// Parse a sample-series JSONL export.
pub fn parse_samples_jsonl(src: &str) -> Result<Vec<SampleRec>, String> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let n = i + 1;
        let v = Json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
        let u = |name: &str| -> Result<u64, String> {
            field(&v, name, n)?
                .as_u64()
                .ok_or_else(|| format!("line {n}: {name} is not a u64"))
        };
        out.push(SampleRec {
            at: u("at")?,
            proc: u("proc")? as u32,
            counters: pairs_of(&v, "counters", n)?,
            gauges: pairs_of(&v, "gauges", n)?,
        });
    }
    Ok(out)
}

impl SampleRec {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

impl AlertRec {
    /// Reconstruct an alert from its trace record. The trace carries the
    /// rule as `kind` and the numbers in the pinned
    /// `rule=.. value=.. threshold=.. windows=..` detail string, so the
    /// alert stream is recoverable from the trace export alone.
    pub fn from_trace(rec: &TraceRec) -> Option<AlertRec> {
        if rec.event != "alert" {
            return None;
        }
        let mut value = 0;
        let mut threshold = 0;
        let mut windows = 0;
        for part in rec.detail.split_whitespace() {
            if let Some((k, v)) = part.split_once('=') {
                let n = v.parse().unwrap_or(0);
                match k {
                    "value" => value = n,
                    "threshold" => threshold = n,
                    "windows" => windows = n,
                    _ => {}
                }
            }
        }
        Some(AlertRec {
            at: rec.at,
            // Alerts are self-addressed; a negative (external) from can't
            // happen, but saturate rather than wrap if it ever does.
            proc: u32::try_from(rec.from).unwrap_or(u32::MAX),
            rule: rec.kind.clone(),
            value,
            threshold,
            windows,
        })
    }

    /// All alerts in a parsed trace, in firing order.
    pub fn all_from_trace(trace: &[TraceRec]) -> Vec<AlertRec> {
        trace.iter().filter_map(AlertRec::from_trace).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = concat!(
        r#"{"seq":4,"at":15,"from":2,"to":2,"event":"timer","kind":"timer","span":null,"redelivery":false,"wait":0,"detail":"token=1","deltas":{}}"#,
        "\n",
        r#"{"seq":5,"at":32,"from":1,"to":1,"event":"alert","kind":"backlog_growth","span":null,"redelivery":false,"wait":0,"detail":"rule=backlog_growth value=12 threshold=4 windows=4","deltas":{}}"#,
        "\n",
    );

    #[test]
    fn trace_lines_round_trip() {
        let recs = parse_trace_jsonl(TRACE).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq, 4);
        assert_eq!(recs[0].event, "timer");
        assert_eq!(recs[1].kind, "backlog_growth");
    }

    #[test]
    fn alerts_reconstruct_from_the_trace() {
        let recs = parse_trace_jsonl(TRACE).unwrap();
        let alerts = AlertRec::all_from_trace(&recs);
        assert_eq!(
            alerts,
            vec![AlertRec {
                at: 32,
                proc: 1,
                rule: "backlog_growth".to_string(),
                value: 12,
                threshold: 4,
                windows: 4,
            }]
        );
    }

    #[test]
    fn sample_lines_round_trip() {
        let src =
            r#"{"at":100,"proc":3,"counters":{"x":1,"y":2},"gauges":{"relay.backlog_depth":7}}"#;
        let recs = parse_samples_jsonl(src).unwrap();
        assert_eq!(recs[0].proc, 3);
        assert_eq!(recs[0].counter("y"), Some(2));
        assert_eq!(recs[0].gauge("relay.backlog_depth"), Some(7));
        assert_eq!(recs[0].gauge("missing"), None);
    }

    /// The reader holds `BENCH.json`'s decimals, but where a JSONL schema
    /// says integer a decimal is still an error.
    #[test]
    fn a_decimal_where_the_schema_says_integer_is_an_error() {
        let err = parse_trace_jsonl(&TRACE.replace(r#""at":15"#, r#""at":1.5"#)).unwrap_err();
        assert_eq!(err, "line 1: at is not a u64");
        let err = parse_samples_jsonl(r#"{"at":1,"proc":0,"counters":{"x":0.5},"gauges":{}}"#)
            .unwrap_err();
        assert_eq!(err, "line 1: counters.x is not a u64");
    }

    #[test]
    fn malformed_lines_name_their_line_number() {
        let err = parse_samples_jsonl("{\"at\":1}\nnot json\n").unwrap_err();
        assert!(
            err.starts_with("line 1:") || err.starts_with("line 2:"),
            "{err}"
        );
    }
}

//! Self-contained repro files.
//!
//! A repro file is a line-oriented text serialization of a [`Failure`]:
//! the scenario, the schedule-choice string, and (informationally) the
//! violations observed when it was written. [`run_repro`] parses and
//! replays one; because a scenario plus a choice string determines the
//! execution byte-for-byte, replaying the file reproduces the original
//! run exactly — same schedule, same oracle verdicts.
//!
//! The format is hand-rolled (this workspace deliberately has no serde
//! JSON): one `key value...` pair per line, `#` comments, order
//! insignificant except that `op` lines keep their relative order.
//! Floats round-trip through Rust's shortest-representation `Display`.
//!
//! ```text
//! # explore repro v1
//! strategy lifo
//! sched-seed 7
//! proto blink
//! protocol naive
//! fanout 4
//! n-procs 3
//! seed 42
//! drop 0.05
//! dup 0
//! crash 1 400 1500
//! preload 0 10 20 30
//! op 0 17 insert 1017
//! op 2 88 search
//! choices 0 3 1 2
//! violation sequence oracle: lost update #12 (leaf-write)
//! ```
//!
//! [`emit_test`] renders a `#[test]` function that embeds the file and
//! asserts it still reproduces — paste it into any suite that depends on
//! `explore`.

use std::fmt::Write as _;

use dbtree::{ProtocolKind, SeededBug, TreeConfig};
use simnet::{CrashEvent, FaultPlan, ProcId, SimTime};

use crate::scenario::{replay_run, ExKind, ExOp, Proto, RunReport, Scenario};
use crate::shrink::Failure;

const HEADER: &str = "# explore repro v1";

/// The largest `n-procs` a file may name: the simulator keeps per-channel
/// state, quadratic in the processor count.
const MAX_PROCS: u32 = 1024;

/// The dB-tree configuration a blink file's `protocol`, `fanout` and
/// `merge` lines state (`merge` is `None` when the line is absent). A file
/// always runs §4.1's test bed, every node on three processors. `protocol
/// naive` is semisync with Fig 4's seeded bug, and `merge unsafe|wedged`
/// seed the merge family's two, so naming both is an error: a run carries
/// at most one seeded bug.
fn blink_config(protocol: &str, fanout: usize, merge: Option<&str>) -> Result<TreeConfig, String> {
    let (protocol, naive) = match protocol {
        "sync" => (ProtocolKind::Sync, false),
        "semisync" => (ProtocolKind::SemiSync, false),
        "naive" => (ProtocolKind::SemiSync, true),
        "available-copies" => (ProtocolKind::AvailableCopies, false),
        _ => return Err(format!("unknown protocol {protocol:?}")),
    };
    let merge_bug = match merge {
        None | Some("safe") => None,
        Some("unsafe") => Some(SeededBug::MergeNoReverify),
        Some("wedged") => Some(SeededBug::MergeWedgeGrants),
        Some(other) => return Err(format!("merge wants `safe|unsafe|wedged`: {other:?}")),
    };
    let seeded = match (naive, merge_bug) {
        (true, Some(_)) => {
            return Err("`protocol naive` and `merge unsafe|wedged` name two seeded bugs".into())
        }
        (true, None) => Some(SeededBug::DiscardOutOfRange),
        (false, bug) => bug,
    };
    Ok(TreeConfig {
        fanout,
        merge_at_empty: merge.is_some(),
        seeded,
        ..TreeConfig::fixed_copies(protocol, 3)
    })
}

/// The inverse of [`blink_config`]: the `protocol` and `merge` values that
/// state `cfg` (with its `fanout`), or `Err` when no lines can — another
/// placement, piggybacking or seeded bug, say.
fn blink_lines(cfg: &TreeConfig) -> Result<(&'static str, Option<&'static str>), String> {
    let protocols = ["sync", "semisync", "naive", "available-copies"];
    let merges = [None, Some("safe"), Some("unsafe"), Some("wedged")];
    protocols
        .into_iter()
        .flat_map(|p| merges.map(|m| (p, m)))
        .find(|&(p, m)| blink_config(p, cfg.fanout, m).as_ref() == Ok(cfg))
        .ok_or_else(|| format!("repro format cannot state the dB-tree config {cfg:?}"))
}

/// `rest` as a probability: a number in [0, 1].
fn parse_prob(rest: &str, what: &str) -> Result<f64, String> {
    rest.parse()
        .ok()
        .filter(|p| (0.0..=1.0).contains(p))
        .ok_or(format!("{what} wants a probability in [0, 1]: {rest:?}"))
}

/// Serialize a failure to repro-file text.
///
/// Timed partitions are not representable (the explorer never generates
/// them), nor is a dB-tree config the `protocol`, `fanout` and `merge`
/// lines cannot state (path placement, say); such a failure is rejected
/// rather than silently truncated.
pub fn format_repro(failure: &Failure) -> Result<String, String> {
    let s = &failure.scenario;
    if !s.faults.partitions.is_empty() {
        return Err("repro format does not carry timed partitions".into());
    }
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");
    let _ = writeln!(out, "strategy {}", failure.strategy);
    let _ = writeln!(out, "sched-seed {}", failure.sched_seed);
    match &s.proto {
        Proto::Blink(cfg) => {
            let (protocol, merge) = blink_lines(cfg)?;
            let _ = writeln!(out, "proto blink");
            let _ = writeln!(out, "protocol {protocol}");
            let _ = writeln!(out, "fanout {}", cfg.fanout);
            // Only a non-default merge mode is written, so pre-merge repro
            // files stay canonical byte-for-byte.
            if let Some(merge) = merge {
                let _ = writeln!(out, "merge {merge}");
            }
        }
        Proto::Hash { capacity } => {
            let _ = writeln!(out, "proto hash");
            let _ = writeln!(out, "capacity {capacity}");
        }
    }
    let _ = writeln!(out, "n-procs {}", s.n_procs);
    let _ = writeln!(out, "seed {}", s.seed);
    let _ = writeln!(out, "drop {}", s.faults.drop_prob);
    let _ = writeln!(out, "dup {}", s.faults.dup_prob);
    for c in &s.faults.crashes {
        match c.restart_at {
            Some(r) => {
                let _ = writeln!(out, "crash {} {} {}", c.proc.0, c.at.0, r.0);
            }
            None => {
                let _ = writeln!(out, "crash {} {} never", c.proc.0, c.at.0);
            }
        }
    }
    let preload: Vec<String> = s.preload.iter().map(u64::to_string).collect();
    let _ = writeln!(out, "preload {}", preload.join(" "));
    for op in &s.ops {
        match op.kind {
            ExKind::Insert(v) => {
                let _ = writeln!(out, "op {} {} insert {v}", op.origin, op.key);
            }
            ExKind::Search => {
                let _ = writeln!(out, "op {} {} search", op.origin, op.key);
            }
            ExKind::Delete => {
                let _ = writeln!(out, "op {} {} delete", op.origin, op.key);
            }
        }
    }
    let choices: Vec<String> = failure.choices.iter().map(u32::to_string).collect();
    let _ = writeln!(out, "choices {}", choices.join(" "));
    for v in &failure.violations {
        let _ = writeln!(out, "violation {}", v.replace('\n', " "));
    }
    Ok(out)
}

/// [`format_repro`] that never fails: an unrepresentable failure (timed
/// partitions) degrades to a commented-out file that still records the
/// scenario debug form and the violations, so the CLI always has *bytes
/// to write* even when it can't produce a replayable repro. The comment
/// body deliberately fails [`parse_repro`]'s header check — nobody can
/// mistake it for a replayable file.
pub fn format_repro_lossy(failure: &Failure) -> String {
    match format_repro(failure) {
        Ok(text) => text,
        Err(why) => {
            let mut out = String::new();
            let _ = writeln!(out, "# explore repro (NOT replayable: {why})");
            let _ = writeln!(out, "# strategy {}", failure.strategy);
            let _ = writeln!(out, "# sched-seed {}", failure.sched_seed);
            let _ = writeln!(out, "# scenario {:?}", failure.scenario);
            let _ = writeln!(out, "# choices {:?}", failure.choices);
            for v in &failure.violations {
                let _ = writeln!(out, "# violation {}", v.replace('\n', " "));
            }
            out
        }
    }
}

fn parse_nums<T: std::str::FromStr>(rest: &str, what: &str) -> Result<Vec<T>, String> {
    rest.split_whitespace()
        .map(|t| t.parse().map_err(|_| format!("bad {what}: {t:?}")))
        .collect()
}

/// Parse repro-file text back into a [`Failure`].
pub fn parse_repro(text: &str) -> Result<Failure, String> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(HEADER) {
        return Err(format!("missing header line {HEADER:?}"));
    }

    let mut strategy: &'static str = "replay";
    let mut sched_seed = 0u64;
    let mut proto: Option<&str> = None;
    let mut protocol: Option<&str> = None;
    let mut fanout = 4usize;
    let mut merge: Option<&str> = None;
    let mut capacity = 4usize;
    let mut n_procs = 0u32;
    let mut seed = 0u64;
    let mut faults = FaultPlan::none();
    let mut preload = Vec::new();
    let mut ops = Vec::new();
    let mut choices = Vec::new();
    let mut violations = Vec::new();

    for line in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "strategy" => {
                strategy = match rest {
                    // The model checker's strategies aren't in the random
                    // explorer's rotation; preserve their names anyway so
                    // a re-formatted repro says where it came from.
                    "exhaustive" => "exhaustive",
                    "dpor" => "dpor",
                    _ => crate::sched::Strategy::from_name(rest)
                        .map(|s| s.name())
                        .unwrap_or("replay"),
                };
            }
            "sched-seed" => sched_seed = rest.parse().map_err(|_| "bad sched-seed")?,
            "proto" => proto = Some(rest),
            "protocol" => protocol = Some(rest),
            "fanout" => fanout = rest.parse().map_err(|_| "bad fanout")?,
            "merge" => merge = Some(rest),
            "capacity" => capacity = rest.parse().ok().filter(|&c| c > 0).ok_or("bad capacity")?,
            "n-procs" => n_procs = rest.parse().map_err(|_| "bad n-procs")?,
            "seed" => seed = rest.parse().map_err(|_| "bad seed")?,
            "drop" => faults.drop_prob = parse_prob(rest, "drop")?,
            "dup" => faults.dup_prob = parse_prob(rest, "dup")?,
            "crash" => {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 3 {
                    return Err(format!("crash wants `proc at restart|never`: {line:?}"));
                }
                faults.crashes.push(CrashEvent {
                    proc: ProcId(parts[0].parse().map_err(|_| "bad crash proc")?),
                    at: SimTime(parts[1].parse().map_err(|_| "bad crash time")?),
                    restart_at: if parts[2] == "never" {
                        None
                    } else {
                        Some(SimTime(parts[2].parse().map_err(|_| "bad restart time")?))
                    },
                });
            }
            "preload" => preload = parse_nums(rest, "preload key")?,
            "op" => {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                let kind = match parts.as_slice() {
                    [_, _, "search"] => ExKind::Search,
                    [_, _, "delete"] => ExKind::Delete,
                    [_, _, "insert", v] => {
                        ExKind::Insert(v.parse().map_err(|_| "bad insert value")?)
                    }
                    _ => {
                        return Err(format!(
                            "op wants `origin key insert v|search|delete`: {line:?}"
                        ))
                    }
                };
                ops.push(ExOp {
                    origin: parts[0].parse().map_err(|_| "bad op origin")?,
                    key: parts[1].parse().map_err(|_| "bad op key")?,
                    kind,
                });
            }
            "choices" => choices = parse_nums(rest, "choice")?,
            "violation" => violations.push(rest.to_string()),
            _ => return Err(format!("unknown repro key {key:?}")),
        }
    }

    let blink = protocol
        .map(|protocol| blink_config(protocol, fanout, merge))
        .transpose()?;
    let proto = match proto.ok_or("missing proto line")? {
        "hash" => {
            if merge.is_some() {
                // Accepting it would parse, then re-format without the line —
                // breaking the format's canonical round-trip.
                return Err("merge is a blink setting; hash repros may not carry it".into());
            }
            Proto::Hash { capacity }
        }
        "blink" => Proto::Blink(blink.ok_or("blink repro missing protocol line")?),
        other => return Err(format!("proto wants `blink|hash`: {other:?}")),
    };
    if n_procs == 0 || n_procs > MAX_PROCS {
        return Err(format!("n-procs wants 1..={MAX_PROCS}, got {n_procs}"));
    }
    if let Some(c) = faults.crashes.iter().find(|c| c.proc.0 >= n_procs) {
        return Err(format!("crash names processor {} of {n_procs}", c.proc.0));
    }
    Ok(Failure {
        scenario: Scenario {
            proto,
            n_procs,
            seed,
            preload,
            ops,
            faults,
        },
        choices,
        violations,
        strategy,
        sched_seed,
    })
}

/// Parse and replay a repro file, returning what the oracles say *now*.
/// (The stored `violation` lines are what they said when it was written.)
pub fn run_repro(text: &str) -> Result<RunReport, String> {
    let failure = parse_repro(text)?;
    Ok(replay_run(&failure.scenario, &failure.choices))
}

/// Render a `#[test]` function that embeds the repro and asserts it still
/// reproduces — byte-for-byte, since the embedded text is the whole input.
pub fn emit_test(name: &str, failure: &Failure) -> Result<String, String> {
    let repro = format_repro(failure)?;
    Ok(format!(
        r####"/// Auto-generated by `explore` — replays a shrunk failing schedule.
#[test]
fn {name}() {{
    let repro = r##"{repro}"##;
    let report = explore::run_repro(repro).expect("repro parses");
    assert!(
        !report.violations.is_empty(),
        "shrunk repro no longer reproduces a violation"
    );
}}
"####
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_failure() -> Failure {
        Failure {
            scenario: Scenario {
                proto: Proto::Blink(TreeConfig {
                    fanout: 4,
                    seeded: Some(SeededBug::DiscardOutOfRange),
                    ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3)
                }),
                n_procs: 3,
                seed: 42,
                preload: vec![0, 10, 20],
                ops: vec![
                    ExOp {
                        origin: 0,
                        key: 17,
                        kind: ExKind::Insert(1017),
                    },
                    ExOp {
                        origin: 2,
                        key: 88,
                        kind: ExKind::Search,
                    },
                ],
                faults: FaultPlan::lossy(0.05).with_dup(0.1).with_crash(CrashEvent {
                    proc: ProcId(1),
                    at: SimTime(400),
                    restart_at: Some(SimTime(1500)),
                }),
            },
            choices: vec![0, 3, 1, 2],
            violations: vec!["sequence oracle: lost update #12 (leaf-write)".into()],
            strategy: "lifo",
            sched_seed: 7,
        }
    }

    /// The wedged merge round-trips, and the model checker's strategy
    /// names survive a reparse instead of degrading to `replay`.
    #[test]
    fn wedged_mode_and_checker_strategies_round_trip() {
        let mut failure = sample_failure();
        failure.strategy = "dpor";
        let Proto::Blink(cfg) = &mut failure.scenario.proto else {
            unreachable!()
        };
        cfg.merge_at_empty = true;
        cfg.seeded = Some(SeededBug::MergeWedgeGrants);
        let text = format_repro(&failure).expect("representable");
        assert!(text.contains("merge wedged"));
        assert!(text.contains("strategy dpor"));
        let back = parse_repro(&text).expect("parse");
        assert_eq!(back, failure);
        failure.strategy = "exhaustive";
        let back = parse_repro(&format_repro(&failure).unwrap()).unwrap();
        assert_eq!(back.strategy, "exhaustive");
    }

    /// Regression: a liveness failure whose fault plan carries a timed
    /// partition is not representable as a replayable repro — the CLI used
    /// to panic on it mid-report. Nor is a path-placed dB-tree, which the
    /// `protocol`, `fanout` and `merge` lines cannot state. The lossy
    /// formatter must always return bytes that carry the violations, and
    /// those bytes must *not* parse back as a replayable file.
    #[test]
    fn lossy_formatter_degrades_unrepresentable_failures() {
        let mut partitioned = sample_failure();
        partitioned.violations = vec!["liveness: proc 1 holds 1 merge request(s) pending forever \
             (no grant or decline ever arrived)"
            .into()];
        let mut path_placed = partitioned.clone();
        partitioned.scenario.faults =
            partitioned
                .scenario
                .faults
                .with_partition(simnet::Partition {
                    start: SimTime(100),
                    end: SimTime(200),
                    side_a: vec![ProcId(0)],
                    side_b: vec![ProcId(1)],
                });
        let Proto::Blink(cfg) = &mut path_placed.scenario.proto else {
            unreachable!()
        };
        cfg.placement = dbtree::Placement::PathReplication;
        for failure in [partitioned, path_placed] {
            assert!(format_repro(&failure).is_err(), "still unrepresentable");
            let lossy = format_repro_lossy(&failure);
            assert!(lossy.contains("NOT replayable"));
            assert!(lossy.contains("liveness: proc 1"));
            assert!(
                parse_repro(&lossy).is_err(),
                "must not masquerade as a repro"
            );
        }
        // And on a representable failure the lossy path is the real format.
        let ok = sample_failure();
        assert_eq!(format_repro_lossy(&ok), format_repro(&ok).unwrap());
    }

    #[test]
    fn round_trips() {
        let failure = sample_failure();
        let text = format_repro(&failure).unwrap();
        let parsed = parse_repro(&text).unwrap();
        assert_eq!(parsed, failure);
        // And formatting the parse is byte-identical: the format is
        // canonical.
        assert_eq!(format_repro(&parsed).unwrap(), text);
    }

    #[test]
    fn hash_round_trips() {
        let mut failure = sample_failure();
        failure.scenario.proto = Proto::Hash { capacity: 6 };
        let text = format_repro(&failure).unwrap();
        assert_eq!(parse_repro(&text).unwrap(), failure);
    }

    #[test]
    fn merge_and_delete_round_trip() {
        let mut failure = sample_failure();
        failure.scenario.proto = Proto::Blink(TreeConfig {
            fanout: 4,
            merge_at_empty: true,
            seeded: Some(SeededBug::MergeNoReverify),
            ..TreeConfig::fixed_copies(ProtocolKind::SemiSync, 3)
        });
        failure.scenario.ops.push(ExOp {
            origin: 1,
            key: 10,
            kind: ExKind::Delete,
        });
        let text = format_repro(&failure).unwrap();
        assert!(text.contains("merge unsafe"));
        assert!(text.contains("op 1 10 delete"));
        let parsed = parse_repro(&text).unwrap();
        assert_eq!(parsed, failure);
        assert_eq!(format_repro(&parsed).unwrap(), text, "canonical");
    }

    #[test]
    fn merge_off_is_not_written_and_old_files_still_parse() {
        // The sample does not merge: the line must be absent, and a file
        // written before the merge family existed parses to merging off.
        let text = format_repro(&sample_failure()).unwrap();
        assert!(!text.contains("merge "));
        match parse_repro(&text).unwrap().scenario.proto {
            Proto::Blink(cfg) => assert!(!cfg.merge_at_empty),
            other => panic!("expected blink, got {other:?}"),
        }
        // And a hash repro smuggling a merge line is rejected outright.
        assert!(parse_repro("# explore repro v1\nproto hash\nmerge safe\nn-procs 3\n").is_err());
    }

    /// Files the parser cannot replay are an `Err`, not a silent default
    /// or a panic at replay. Each hostile line is appended to a valid file
    /// (a later line overrides an earlier one).
    #[test]
    fn rejects_garbage() {
        assert!(parse_repro("not a repro").is_err());
        assert!(parse_repro("# explore repro v1\nfrobnicate 3").is_err());
        assert!(parse_repro("# explore repro v1\nproto blink\nn-procs 3").is_err());
        let valid = format_repro(&sample_failure()).unwrap();
        assert!(parse_repro(&valid).is_ok());
        for line in [
            "proto frobnicate",
            "n-procs 100000",
            "proto hash\ncapacity 0",
            "crash 9 10 20",
            "drop 2.5",
            "dup -0.1",
            "dup NaN",
            // Two seeded bugs: `protocol naive` already seeds Fig 4's.
            "merge unsafe",
            "merge wedged",
        ] {
            let text = format!("{valid}{line}\n");
            assert!(parse_repro(&text).is_err(), "accepted {line:?}");
        }
    }

    #[test]
    fn emitted_test_embeds_the_repro() {
        let failure = sample_failure();
        let test = emit_test("shrunk_case", &failure).unwrap();
        assert!(test.contains("fn shrunk_case()"));
        assert!(test.contains(&format_repro(&failure).unwrap()));
    }
}

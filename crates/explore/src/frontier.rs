//! Frontier persistence: save/load the model checker's search state so a
//! budget-capped [`crate::dpor::check`] run is resumable across processes.
//!
//! The file is line-oriented text in the house style (no serde):
//!
//! ```text
//! # explore frontier v1
//! scenario 1f2e3d4c5b6a7988
//! schedules 1234
//! complete 0
//! frame 17 b 17 23 41 d 23
//! v 00ff00ff00ff00ff 12
//! ```
//!
//! * `scenario` — a digest of the scenario **and** the soundness-relevant
//!   check options (depth, DPOR on/off). Loading refuses a mismatch rather
//!   than silently resuming the wrong search.
//! * `frame` — one DFS choice point: selected seq, `b`-prefixed backtrack
//!   seqs, `d`-prefixed done seqs. Frame order is stack order.
//! * `v` — one visited fingerprint (hex) with the earliest step it was
//!   reached at.
//!
//! Enabled sets are deliberately not persisted: they are a deterministic
//! function of the prefix and are refreshed from the first run after a
//! resume (see [`crate::dpor::FrameState`]).

use std::fmt::Write as _;
use std::path::Path;

use crate::dpor::{CheckOptions, CheckState, FrameState};
use crate::scenario::Scenario;

const HEADER: &str = "# explore frontier v1";

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Digest identifying one search: the scenario plus the options that change
/// what a saved frontier *means* (depth bound, DPOR reduction). Two
/// sessions may only share a frontier file if these agree.
pub fn scenario_id(scenario: &Scenario, opts: &CheckOptions) -> u64 {
    let mut h = fnv1a(format!("{scenario:?}").as_bytes(), 0xcbf2_9ce4_8422_2325);
    h = fnv1a(&[opts.dpor as u8], h);
    h = fnv1a(&opts.depth.to_le_bytes(), h);
    h
}

/// Render a frontier to file text.
pub fn format_frontier(id: u64, state: &CheckState) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");
    let _ = writeln!(out, "scenario {id:016x}");
    let _ = writeln!(out, "schedules {}", state.schedules);
    let _ = writeln!(out, "complete {}", state.complete as u8);
    for f in &state.frames {
        let mut line = format!("frame {} b", f.selected);
        for s in &f.backtrack {
            let _ = write!(line, " {s}");
        }
        let _ = write!(line, " d");
        for s in &f.done {
            let _ = write!(line, " {s}");
        }
        let _ = writeln!(out, "{line}");
    }
    for (fp, step) in &state.visited {
        let _ = writeln!(out, "v {fp:016x} {step}");
    }
    out
}

/// Parse frontier text, checking it belongs to the search identified by
/// `id`.
pub fn parse_frontier(text: &str, id: u64) -> Result<CheckState, String> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(HEADER) {
        return Err(format!("missing header line {HEADER:?}"));
    }
    let mut state = CheckState::default();
    let mut saw_id = false;
    for line in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "scenario" => {
                let file_id = u64::from_str_radix(rest, 16).map_err(|_| "bad scenario id")?;
                if file_id != id {
                    return Err(format!(
                        "frontier belongs to a different search \
                         (file {file_id:016x}, expected {id:016x}) — \
                         delete it or point --frontier elsewhere"
                    ));
                }
                saw_id = true;
            }
            "schedules" => state.schedules = rest.parse().map_err(|_| "bad schedules")?,
            "complete" => state.complete = rest == "1",
            "frame" => {
                let mut toks = rest.split_whitespace();
                let selected = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or("frame wants a selected seq")?;
                let mut backtrack = Vec::new();
                let mut done = Vec::new();
                let mut bucket: Option<&mut Vec<u64>> = None;
                for t in toks {
                    match t {
                        "b" => bucket = Some(&mut backtrack),
                        "d" => bucket = Some(&mut done),
                        _ => bucket
                            .as_deref_mut()
                            .ok_or("frame seq outside b/d section")?
                            .push(t.parse().map_err(|_| format!("bad frame seq {t:?}"))?),
                    }
                }
                state.frames.push(FrameState {
                    selected,
                    backtrack,
                    done,
                });
            }
            "v" => {
                let (fp, step) = rest.split_once(' ').ok_or("v wants `fp step`")?;
                state.visited.push((
                    u64::from_str_radix(fp, 16).map_err(|_| "bad fingerprint")?,
                    step.trim().parse().map_err(|_| "bad visited step")?,
                ));
            }
            _ => return Err(format!("unknown frontier key {key:?}")),
        }
    }
    if !saw_id {
        return Err("missing scenario line".into());
    }
    Ok(state)
}

/// Load a frontier file. `Ok(None)` when the file does not exist (a fresh
/// search); `Err` on a corrupt file or a scenario-id mismatch.
pub fn load(path: &Path, id: u64) -> Result<Option<CheckState>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse_frontier(&text, id).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("read {}: {e}", path.display())),
    }
}

/// Write a frontier file (atomically, via a sibling temp file).
pub fn save(path: &Path, id: u64, state: &CheckState) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, format_frontier(id, state))
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::merge_race_scenario;
    use dbtree::SeededBug;

    fn sample() -> CheckState {
        CheckState {
            frames: vec![
                FrameState {
                    selected: 17,
                    backtrack: vec![17, 23, 41],
                    done: vec![23],
                },
                FrameState {
                    selected: 99,
                    backtrack: vec![99],
                    done: vec![],
                },
            ],
            visited: vec![(0xdead_beef, 3), (42, 0)],
            schedules: 1234,
            complete: false,
        }
    }

    #[test]
    fn frontier_round_trips() {
        let state = sample();
        let text = format_frontier(7, &state);
        let back = parse_frontier(&text, 7).expect("parse");
        assert_eq!(back, state);
        // Canonical: formatting the parse reproduces the bytes.
        assert_eq!(format_frontier(7, &back), text);
    }

    #[test]
    fn mismatched_search_is_refused() {
        let text = format_frontier(7, &sample());
        let err = parse_frontier(&text, 8).unwrap_err();
        assert!(err.contains("different search"), "{err}");
    }

    #[test]
    fn id_covers_scenario_and_bounds() {
        let a = merge_race_scenario();
        let b = merge_race_scenario().with_bug(SeededBug::MergeNoReverify);
        let opts = CheckOptions::default();
        assert_ne!(scenario_id(&a, &opts), scenario_id(&b, &opts));
        let deeper = CheckOptions {
            depth: opts.depth + 1,
            ..opts.clone()
        };
        assert_ne!(scenario_id(&a, &opts), scenario_id(&a, &deeper));
        let undpor = CheckOptions {
            dpor: false,
            ..opts.clone()
        };
        assert_ne!(scenario_id(&a, &opts), scenario_id(&a, &undpor));
    }
}

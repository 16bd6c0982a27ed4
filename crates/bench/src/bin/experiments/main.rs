//! The paper's experiments, E1–E21, in one binary: a module per figure or
//! claim (results in EXPERIMENTS.md), run from the registry, [`EXPERIMENTS`].
//!
//! `experiments [--smoke] [--export DIR] [ID...]` runs the named ids (`e1` …
//! `e21`) in the order given, or with none all of them in numeric order, in
//! this process. `--smoke` is the CI size of E14 and E19–E21; E21 writes its
//! JSONL exports into `--export DIR`. An unknown flag or id, `--export` with
//! no directory, or a flag no selected experiment takes exits 2, nothing run.

use std::path::PathBuf;
use std::process::ExitCode;

use bench::report::section;

/// The command line, as every experiment is handed it.
#[derive(Default)]
struct Args {
    /// Run at the CI size (the experiments that take `--smoke`).
    smoke: bool,
    /// Where to write JSONL exports (the experiments that take `--export`).
    export: Option<PathBuf>,
}

/// One registry row: the module (the `eN` before its first `_` is the id),
/// its `run`, the flags that reads, and the banner's title.
type Experiment = (
    &'static str,
    fn(&Args),
    &'static [&'static str],
    &'static str,
);

macro_rules! registry {
    ($($module:ident $takes:tt => $title:literal,)*) => {
        $(mod $module;)*
        /// Every experiment, in numeric order.
        const EXPERIMENTS: &[Experiment] = &[$((stringify!($module), $module::run, &$takes, $title)),*];
    };
}

registry! {
    e1_half_split [] => "Fig 1 — half-split navigability",
    e2_replication_policy [] => "Fig 2 — dB-tree replication policy",
    e3_lazy_convergence [] => "Fig 3 — concurrent lazy inserts at different copies converge",
    e4_lost_insert [] => "Fig 4 — lost inserts: naive lazy vs semisync",
    e5_split_cost [] => "Fig 5 — messages per split and insert blocking, sync vs semisync",
    e6_join_race [] => "Fig 6 — concurrent joins and inserts (version-relay fix)",
    e7_root_bottleneck [] => "root bottleneck — throughput vs processors, replicated root or not",
    e8_mobility [] => "leaf data balancing via lazy migration (§4.2, [14])",
    e9_lazy_vs_vigorous [] => "lazy (semisync) vs vigorous (available-copies)",
    e10_piggyback [] => "piggybacked relays — batching ablation (§1.1)",
    e11_hash_table [] => "lazy updates on a distributed extendible hash table (§5)",
    e12_slow_replica [] => "slow-replica tolerance — \"a slow operation never blocks a fast operation\" (§1)",
    e13_fault_tolerance [] => "fault tolerance — earning the paper's network assumptions (§1.1, §4, §4.3)",
    e14_threaded_throughput ["--smoke"] => "threaded throughput — the same protocols on real OS threads",
    e15_trace_anatomy [] => "trace anatomy — per-op hop chains and latency decomposition from the JSONL export",
    e16_explore [] => "schedule exploration — budget vs bugs found",
    e17_critical_path [] => "critical-path anatomy of a degraded replica — queueing, not transit (§1)",
    e18_self_healing [] => "self-healing — detection latency vs false suspects vs op latency under crash-restart",
    e19_scale ["--smoke"] => "cluster scale, P = 8..1024",
    e20_reclaim ["--smoke"] => "node reclamation: merge-at-empty frees and reuses arena slots",
    e21_lazy_lag ["--smoke", "--export"] => "lazy lag under load — bounded when healthy, alarmed when relays are suppressed",
}

fn id(module: &'static str) -> &'static str {
    module.split('_').next().unwrap_or(module)
}

fn parse_args(
    mut it: impl Iterator<Item = String>,
) -> Result<(Args, Vec<&'static Experiment>), String> {
    let (mut args, mut selected) = (Args::default(), Vec::new());
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--export" => match it.next().filter(|dir| !dir.starts_with('-')) {
                Some(dir) => args.export = Some(dir.into()),
                None => return Err("--export needs a directory".to_string()),
            },
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            name => match EXPERIMENTS.iter().find(|e| id(e.0) == name) {
                Some(e) => selected.push(e),
                None => return Err(format!("unknown experiment {name:?}")),
            },
        }
    }
    if selected.is_empty() {
        selected.extend(EXPERIMENTS);
    }
    for (flag, given) in [("--smoke", args.smoke), ("--export", args.export.is_some())] {
        if given && !selected.iter().any(|e| e.2.contains(&flag)) {
            return Err(format!("no selected experiment takes {flag}"));
        }
    }
    Ok((args, selected))
}

fn main() -> ExitCode {
    let (args, selected) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("experiments: {e}\nusage: experiments [--smoke] [--export DIR] [ID...]");
            return ExitCode::from(2);
        }
    };
    for &(module, run, takes, title) in selected {
        let smoke = (args.smoke && takes.contains(&"--smoke")).then_some(" (smoke)");
        let title = format!("{title}{}", smoke.unwrap_or(""));
        section(&id(module).to_uppercase(), &title);
        run(&args);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(Args, Vec<&'static str>), String> {
        parse_args(line.split_whitespace().map(String::from))
            .map(|(args, selected)| (args, selected.iter().map(|e| id(e.0)).collect()))
    }

    /// A run with no id runs the registry, and EXPERIMENTS.md documents it:
    /// the ids are `e1` … `e21`, contiguous, unique and in numeric order, and
    /// the page gives each one's regenerating command.
    #[test]
    fn registry_is_e1_to_e21_and_documented() {
        let doc = include_str!("../../../../../EXPERIMENTS.md");
        assert_eq!(EXPERIMENTS.len(), 21);
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert_eq!(id(e.0), format!("e{}", i + 1), "{} is out of place", e.0);
            let cmd = format!(
                "cargo run --release -p bench --bin experiments -- {}",
                id(e.0)
            );
            let documented = doc
                .match_indices(&cmd)
                .any(|(at, _)| !doc[at + cmd.len()..].starts_with(|c: char| c.is_ascii_digit()));
            assert!(documented, "EXPERIMENTS.md has no `{cmd}`");
        }
    }

    /// A mistyped flag, `--smoke` where no selected experiment has a smoke
    /// size, and `--export` with no directory would each run silently at full
    /// size or export nothing; they are usage errors, as is an unknown id.
    #[test]
    fn malformed_command_lines_are_usage_errors() {
        for line in [
            "e19 --smok",
            "--help",
            "e13 --smoke",
            "e5 --export out",
            "e21 --smoke --export",
            "--export --smoke e21",
            "e22",
            "e0",
            "E5",
            "e5_split_cost",
        ] {
            assert!(parse(line).is_err(), "{line:?} must be refused");
        }
    }

    #[test]
    fn smoke_goes_anywhere_and_no_id_means_all() {
        for line in ["--smoke e19 e21", "e19 --smoke e21", "e19 e21 --smoke"] {
            let (args, ids) = parse(line).expect(line);
            assert!(args.smoke && args.export.is_none(), "{line:?}");
            assert_eq!(ids, ["e19", "e21"], "{line:?}");
        }
        let (args, ids) = parse("e13 e14 --smoke").expect("one selected experiment takes it");
        assert!(args.smoke);
        assert_eq!(ids, ["e13", "e14"]);
        let (args, ids) = parse("").expect("no flags");
        assert!(!args.smoke && args.export.is_none());
        assert_eq!(ids.len(), EXPERIMENTS.len());
        let (args, ids) = parse("--export target/obs --smoke").expect("all, exporting");
        assert_eq!(args.export, Some(PathBuf::from("target/obs")));
        assert_eq!(ids.len(), EXPERIMENTS.len());
    }
}

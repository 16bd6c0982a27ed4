//! Run every experiment binary, E1 to the last, in numeric order — what
//! regenerates EXPERIMENTS.md's data:
//! `cargo build --release -p bench --bins && cargo run --release -p bench
//! --bin all_experiments` (`cargo run --bin` alone builds only this wrapper,
//! not its siblings).
//!
//! The registry is the source directory, as it is for cargo's own target
//! autodiscovery: every `src/bin/e<N>_*.rs` must have a built sibling next
//! to this executable. One that is missing, or fails, ends the run with a
//! non-zero exit.

use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let src = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
    let mut bins: Vec<(u32, String)> = std::fs::read_dir(src)
        .unwrap_or_else(|e| panic!("cannot list {src}: {e}"))
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            let bin = name.strip_suffix(".rs")?;
            let number = bin.strip_prefix('e')?.split('_').next()?.parse().ok()?;
            Some((number, bin.to_string()))
        })
        .collect();
    bins.sort();
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    for (_, bin) in bins {
        let path = dir.join(&bin);
        let ran = Command::new(&path).status();
        if !matches!(&ran, Ok(status) if status.success()) {
            eprintln!("{}: {ran:?}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

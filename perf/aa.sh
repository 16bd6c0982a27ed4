#!/bin/sh
# A/A: run the full benchmark twice on the same code and compare the two
# ledgers. Every wall-clock end-to-end metric must land inside its bound and
# every exact metric must be bit-identical. Usage: perf/aa.sh [seed]
set -eu
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path perf/Cargo.toml
ledger="${CARGO_TARGET_DIR:-perf/target}/release/ledger"
mkdir -p perf/out
"$ledger" --seed "${1:-1}" --out perf/out/aa_a.json
"$ledger" --seed "${1:-1}" --out perf/out/aa_b.json
"$ledger" compare perf/out/aa_a.json perf/out/aa_b.json

//! Seed-determinism guards for the E20 reclamation experiment.
//!
//! `experiments e20 --smoke` runs entirely on the simulator with fixed seeds,
//! so every row it prints is a pure function of the code. The digest test
//! pins the whole `--smoke` output (every field of every phase row across
//! Part A and both Part B runs) to a single value: if it moves, a code
//! change altered the protocol's observable reclamation behaviour — either
//! update the pin deliberately or investigate the drift. Noise cannot move
//! it; two in-process runs must already agree bit-for-bit, which the
//! repeatability test checks independently of the pin.

use bench::reclaim::{digest, run_sliding, run_wrapping, smoke_digest, DOMAIN_BANDS, SMOKE_LAPS};

/// The pinned digest of the full `--smoke` configuration. Update this
/// value (and say why in the commit) when a deliberate protocol or
/// workload change moves it.
const PINNED_SMOKE_DIGEST: u64 = 0x2a13_125a_6358_0d82;

#[test]
fn e20_smoke_digest_is_pinned() {
    assert_eq!(
        smoke_digest(),
        PINNED_SMOKE_DIGEST,
        "the experiments e20 --smoke rows changed; if intentional, update the pin"
    );
}

#[test]
fn e20_runs_are_repeatable_in_process() {
    // Two fresh clusters, same seeds — the row streams must agree exactly,
    // independent of what the pinned value happens to be.
    let wrap_a = run_wrapping(SMOKE_LAPS * DOMAIN_BANDS);
    let wrap_b = run_wrapping(SMOKE_LAPS * DOMAIN_BANDS);
    assert_eq!(
        digest(&[("wrap", &wrap_a)]),
        digest(&[("wrap", &wrap_b)]),
        "wrapping-churn rows differ across identical runs"
    );
    let on_a = run_sliding(true, 4);
    let on_b = run_sliding(true, 4);
    assert_eq!(
        digest(&[("on", &on_a)]),
        digest(&[("on", &on_b)]),
        "sliding-window rows differ across identical runs"
    );
}

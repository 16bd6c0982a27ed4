//! The reference pass: a fixed routine of the benchmark's own, timed beside
//! every repetition, that throughput is divided by.
//!
//! A shared sandbox runs everything slower for tens of seconds at a time
//! when a neighbour contends for the cache and for memory; wall-clock
//! throughput of the simulated workloads then moves by 10–35 % between
//! runs of the same code. The slow-down is that of dependent memory loads,
//! so a pass is just that: a pointer chase through a table far larger than
//! the last-level cache (what `sim-search`'s 170 MiB of nodes feel) and one
//! through a table that fits it only while nobody else wants it (what
//! `sim-append`'s one hot processor feels). Dividing by the pass measured
//! just before and after a repetition brought the spread between 15-second
//! runs from 10–34 % down to 4–11 % on the machine the benchmark was written
//! on; an ALU-only loop did not (it does not slow down when memory does).

use std::cell::Cell;
use std::time::Instant;

const BIG: usize = 16 << 20;
const SMALL: usize = 2 << 20;

/// MiB the two tables keep resident for the life of the process;
/// `peak_rss_mb` is reported net of them.
pub const RESIDENT_MIB: f64 = (((BIG + SMALL) * 4) >> 20) as f64;

pub struct Reference {
    big: Vec<u32>,
    small: Vec<u32>,
    /// Where the two walks stand: each slice carries on from the last, so
    /// none re-reads lines an earlier one just pulled into the cache.
    at: Cell<(u32, u32)>,
}

/// `next[i] = (a·i + c) mod n`: with `n` a power of two, `c` odd and
/// `a ≡ 1 (mod 4)` the walk visits every slot before it repeats
/// (Hull–Dobell), and consecutive slots are far apart, so no prefetcher
/// follows it.
fn table(n: usize) -> Vec<u32> {
    (0..n as u64)
        .map(|i| ((i.wrapping_mul(0x9E37_79B5) + 0x7F4A_7C15) % n as u64) as u32)
        .collect()
}

fn chase(next: &[u32], mut i: u32, steps: u32) -> u32 {
    for _ in 0..steps {
        i = next[i as usize];
    }
    i
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            big: table(BIG),
            small: table(SMALL),
            at: Cell::new((0, 0)),
        }
    }

    /// Run one pass; returns how long it took, in seconds. The pass is run
    /// as five slices and costed at five times their median: the slow-downs
    /// it is there to follow last seconds, and a slice that loses its core
    /// for a few milliseconds would otherwise inflate both repetitions the
    /// pass sits between.
    pub fn pass(&self) -> f64 {
        let mut slices = [0.0; 5];
        for s in &mut slices {
            let (big, small) = self.at.get();
            let t = Instant::now();
            let at = (
                chase(&self.big, big, 40_000),
                chase(&self.small, small, 80_000),
            );
            *s = t.elapsed().as_secs_f64();
            self.at.set(at);
        }
        slices.sort_by(f64::total_cmp);
        slices[2] * 5.0
    }
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_is_one_cycle() {
        let next = table(1 << 12);
        let mut seen = vec![false; next.len()];
        let mut i = 0;
        for _ in 0..next.len() {
            assert!(!std::mem::replace(&mut seen[i as usize], true));
            i = next[i as usize];
        }
        assert_eq!(i, 0, "back at the start after visiting every slot");
    }
}

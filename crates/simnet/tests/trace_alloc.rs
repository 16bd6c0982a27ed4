//! Allocation budget of the trace recorder, counted deterministically.
//!
//! A counting `#[global_allocator]` (per thread, so the parallel test
//! harness does not leak into a measurement) runs a ring of processes that
//! forward a flat payload:
//!
//! * obs **off** performs exactly the allocations the same run performed
//!   before the flight-recorder change — the untraced path gained no work
//!   (re-pinned once since, lower: when the event queue's drained buckets
//!   began handing their buffers on instead of each keeping its own);
//! * obs **on**, ring full: a traced delivery allocates nothing in steady
//!   state — the payload is copied into the ring slot it overwrites, the
//!   counter snapshot and the deltas go to reused buffers — and exactly
//!   one `Vec` when the process (or a wrapper around it) implements only
//!   `Process::metrics`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simnet::{Context, Payload, ProcId, Process, RunOutcome, SimConfig, Simulation};

struct Counting;

thread_local! {
    /// Allocations made by this thread (const-initialised and `Drop`-free,
    /// so touching it from inside the allocator cannot recurse).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A flat payload: no heap behind it, so its clone is a copy.
#[derive(Clone, Debug)]
struct Token {
    id: u64,
    hops: u32,
}

impl Payload for Token {
    fn kind(&self) -> &'static str {
        "token"
    }
    fn span(&self) -> Option<u64> {
        Some(self.id)
    }
}

const N: u32 = 8;
const TOKENS: u64 = 16;

/// Forwards every token around the ring until it has made `limit` hops.
struct Ring {
    limit: u32,
    forwarded: u64,
    retired: u64,
    /// Write counters straight into the trace's buffer (`metrics_into`);
    /// otherwise answer like a process that only knows `metrics`.
    lean: bool,
}

impl Process for Ring {
    type Msg = Token;

    fn on_message(&mut self, ctx: &mut Context<'_, Token>, _from: ProcId, msg: Token) {
        if msg.hops < self.limit {
            self.forwarded += 1;
            ctx.send(
                ProcId((ctx.me().0 + 1) % N),
                Token {
                    hops: msg.hops + 1,
                    ..msg
                },
            );
        } else {
            self.retired += 1;
        }
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        vec![("forwarded", self.forwarded), ("retired", self.retired)]
    }

    fn metrics_into(&self, out: &mut Vec<(&'static str, u64)>) {
        if self.lean {
            out.push(("forwarded", self.forwarded));
            out.push(("retired", self.retired));
        } else {
            out.extend(self.metrics());
        }
    }
}

fn ring(cfg: SimConfig, limit: u32, lean: bool) -> Simulation<Ring> {
    let procs = (0..N)
        .map(|_| Ring {
            limit,
            forwarded: 0,
            retired: 0,
            lean,
        })
        .collect();
    let mut sim = Simulation::new(cfg, procs);
    for id in 0..TOKENS {
        sim.inject(ProcId((id % N as u64) as u32), Token { id, hops: 0 });
    }
    sim
}

/// Allocations of `sim.run()` alone (set-up and injection excluded).
fn allocs_of_run(sim: &mut Simulation<Ring>) -> u64 {
    let before = allocs();
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    allocs() - before
}

#[test]
fn obs_off_allocates_exactly_what_it_did_before() {
    let mut sim = ring(SimConfig::jittery(7, 2, 25), 2_000, true);
    let n = allocs_of_run(&mut sim);
    assert_eq!(sim.events_delivered(), TOKENS * 2_001);
    assert_eq!(
        n, 46,
        "allocations of the untraced run (5116 while every wheel bucket kept its own buffer)"
    );
}

/// Allocations of events `[from, to)` of the run.
fn allocs_of_window(sim: &mut Simulation<Ring>, from: u64, to: u64) -> u64 {
    while sim.events_delivered() < from {
        assert!(sim.step());
    }
    let before = allocs();
    while sim.events_delivered() < to {
        assert!(sim.step());
    }
    allocs() - before
}

#[test]
fn traced_delivery_allocates_nothing_in_steady_state() {
    const CAP: usize = 256;
    // Past the warm-up every ring slot has been allocated and overwritten a
    // few times, and the track's buffers have grown to size (every delivery
    // here moves a counter).
    let (warm, end) = (8 * CAP as u64, 24 * CAP as u64);
    let traced = |lean| {
        let cfg = SimConfig {
            trace_capacity: CAP,
            ..SimConfig::jittery(7, 2, 25)
        };
        let mut sim = ring(cfg, 2_000, lean);
        let n = allocs_of_window(&mut sim, warm, end);
        assert_eq!(sim.trace().len(), CAP);
        assert_eq!(
            sim.trace().dropped(),
            end - CAP as u64,
            "every event was recorded"
        );
        n
    };
    // Observation schedules nothing, so the same window of the untraced run
    // is the event queue's own allocations.
    let untraced = allocs_of_window(
        &mut ring(SimConfig::jittery(7, 2, 25), 2_000, true),
        warm,
        end,
    );

    assert_eq!(traced(true), untraced, "recording itself allocates nothing");
    assert_eq!(
        traced(false),
        untraced + (end - warm),
        "one `metrics()` Vec per delivery when `metrics_into` is not implemented"
    );
}

//! The threaded runtime's queue: many senders, one receiver, and a wake-up
//! paid once per batch by whoever is already awake.
//!
//! * **Batch drain.** The receiver takes *everything* queued in one lock
//!   acquisition (the `VecDeque` is swapped with the caller's empty one, so
//!   the two buffers trade places forever and steady state allocates
//!   nothing) and works through the batch without touching the lock again.
//! * **Bounded spin, then park.** An empty receiver watches a flag for
//!   [`SPIN`] iterations, yielding its core every [`YIELD_EVERY`] (test
//!   clusters run far more threads than cores), before it parks on the
//!   condvar.
//! * **Wake only a parked receiver.** The receiver publishes `parked` under
//!   the lock before it waits; a sender that finds it set clears it and calls
//!   `notify_one` after unlocking. A busy or spinning receiver costs its
//!   senders a push and no syscall. The flag is set and tested under the
//!   same lock the condvar releases, so no wake-up is lost.
//!
//! Order is FIFO per inbox, and a batch is processed front to back, so the
//! receiver handles items in exactly the order a one-at-a-time queue would
//! hand them over. `Cluster::settle`'s argument therefore holds for batches
//! as it stands: when a worker echoes a probe, everything queued ahead of the
//! probe — in the shared queue or in the batch the worker had already taken
//! — has run and been counted, and every send of a counted action is in its
//! destination's queue (`Worker::act` counts after it flushes). An unchanged
//! action count across a completed barrier means each worker found nothing
//! ahead of its probe and nothing was sent behind it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Instant;

/// Iterations an empty receiver watches the flag before parking.
const SPIN: u32 = 2_000;
/// Every this many spin iterations the receiver yields its core.
const YIELD_EVERY: u32 = 16;

/// How often an inbox paid for what: `wakes ≤ parks` always, and
/// `sends / batches` is the mean batch length.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InboxStats {
    /// Items pushed.
    pub sends: u64,
    /// `notify_one` calls — sends that found the receiver parked.
    pub wakes: u64,
    /// Times the receiver gave up spinning and waited on the condvar.
    pub parks: u64,
    /// Non-empty drains.
    pub batches: u64,
}

impl std::ops::AddAssign for InboxStats {
    fn add_assign(&mut self, o: Self) {
        self.sends += o.sends;
        self.wakes += o.wakes;
        self.parks += o.parks;
        self.batches += o.batches;
    }
}

struct State<T> {
    queue: VecDeque<T>,
    /// The receiver is (about to be) waiting on `ready`.
    parked: bool,
    /// Plain counters: every one of them changes under the lock anyway.
    stats: InboxStats,
}

pub(crate) struct Inbox<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    /// `!queue.is_empty()`, written under the lock only; what the spinning
    /// receiver reads instead of contending for the lock.
    nonempty: AtomicBool,
}

impl<T> Inbox<T> {
    pub(crate) fn new() -> Self {
        Inbox {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                parked: false,
                stats: InboxStats::default(),
            }),
            ready: Condvar::new(),
            nonempty: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // No code path panics while holding the lock, and every update
        // leaves the queue valid, so a poisoned guard is still good.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn send(&self, item: T) {
        let mut st = self.lock();
        st.queue.push_back(item);
        st.stats.sends += 1;
        // Release pairs with the spinner's Acquire load.
        self.nonempty.store(true, Ordering::Release);
        let wake = std::mem::take(&mut st.parked);
        st.stats.wakes += wake as u64;
        drop(st);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Move everything queued into `batch` (which must be empty) without
    /// waiting; `false` if there was nothing.
    pub(crate) fn try_drain(&self, batch: &mut VecDeque<T>) -> bool {
        self.nonempty.load(Ordering::Acquire) && self.take(&mut self.lock(), batch)
    }

    /// Wait until something is queued, then move all of it into `batch`
    /// (which must be empty). With a `deadline`, give up then and return
    /// `false`; without one, always `true`.
    pub(crate) fn drain(&self, batch: &mut VecDeque<T>, deadline: Option<Instant>) -> bool {
        for i in 1..=SPIN {
            if self.nonempty.load(Ordering::Acquire) {
                break;
            }
            if i % YIELD_EVERY != 0 {
                std::hint::spin_loop();
                continue;
            }
            // A yield can cost a scheduler quantum when the box is
            // oversubscribed: that is where a deadline is checked.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            thread::yield_now();
        }
        let mut st = self.lock();
        loop {
            if self.take(&mut st, batch) {
                return true;
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|l| l.is_zero()) {
                return false;
            }
            st.parked = true;
            st.stats.parks += 1;
            st = match left {
                None => self.ready.wait(st).unwrap_or_else(|e| e.into_inner()),
                Some(left) => {
                    let timed = self.ready.wait_timeout(st, left);
                    timed.unwrap_or_else(|e| e.into_inner()).0
                }
            };
            // Cleared by the sender that woke us; still set after a timeout
            // or a spurious wake-up.
            st.parked = false;
        }
    }

    fn take(&self, st: &mut State<T>, batch: &mut VecDeque<T>) -> bool {
        debug_assert!(batch.is_empty(), "the previous batch was not finished");
        if st.queue.is_empty() {
            return false;
        }
        std::mem::swap(&mut st.queue, batch);
        st.stats.batches += 1;
        self.nonempty.store(false, Ordering::Relaxed);
        true
    }

    pub(crate) fn stats(&self) -> InboxStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_per_sender_with_four_producers() {
        const PER: u64 = 100_000;
        let inbox = Arc::new(Inbox::new());
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let inbox = Arc::clone(&inbox);
                thread::spawn(move || (0..PER).for_each(|i| inbox.send((p, i))))
            })
            .collect();
        let mut next = [0u64; 4];
        let mut batch = VecDeque::new();
        while next.iter().sum::<u64>() < 4 * PER {
            inbox.drain(&mut batch, None);
            for (p, i) in batch.drain(..) {
                assert_eq!(i, next[p as usize], "producer {p} out of order");
                next[p as usize] += 1;
            }
        }
        for p in producers {
            p.join().expect("producer");
        }
        assert_eq!(next, [PER; 4]);
        let stats = inbox.stats();
        assert_eq!(stats.sends, 4 * PER);
        assert!(stats.wakes <= stats.parks, "{stats:?}");
    }

    #[test]
    fn no_lost_wakeup_in_strict_ping_pong() {
        // One token in flight: every hop finds its receiver spinning or
        // parked, so a lost wake-up hangs here (the harness's timeout — CI's
        // job timeout — is the bound; a pass takes well under a second).
        const CYCLES: u64 = 100_000;
        let (ping, pong) = (Arc::new(Inbox::new()), Arc::new(Inbox::new()));
        let echo = {
            let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
            thread::spawn(move || {
                let mut batch = VecDeque::new();
                for _ in 0..CYCLES {
                    ping.drain(&mut batch, None);
                    pong.send(batch.pop_front().expect("one token"));
                    assert!(batch.is_empty());
                }
            })
        };
        let mut batch = VecDeque::new();
        for i in 0..CYCLES {
            ping.send(i);
            pong.drain(&mut batch, None);
            assert_eq!(batch.pop_front(), Some(i));
            assert!(batch.is_empty());
        }
        echo.join().expect("echo thread");
    }

    #[test]
    fn drain_times_out_on_an_empty_inbox() {
        let inbox: Inbox<u8> = Inbox::new();
        let mut batch = VecDeque::new();
        let timeout = Duration::from_millis(100);
        let t = Instant::now();
        assert!(!inbox.drain(&mut batch, Some(t + timeout)));
        let took = t.elapsed();
        assert!(took >= timeout, "returned early: {took:?}");
        assert!(took < 2 * timeout, "overshot the deadline: {took:?}");
        assert!(!inbox.try_drain(&mut batch));
        // A deadline already past still hands over what is queued.
        inbox.send(7);
        assert!(inbox.drain(&mut batch, Some(t)));
        assert_eq!(batch, [7]);
    }
}

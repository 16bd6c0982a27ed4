//! The indexed event core: a deterministic timing-wheel queue of pending
//! deliveries with O(1) push/pop, O(1) cancellation, and incremental
//! enabled-set tracking.
//!
//! Four structures cooperate:
//!
//! * a **slab** (`slots` + free list) owns the full [`Event`] payloads at
//!   stable indices, so scheduling never moves message bodies around;
//! * a **timing wheel** of `SPAN` per-tick buckets orders the near future.
//!   Latencies and service times are small relative to `SPAN`, so almost
//!   every event is bucketed in O(1) — a bucket append on push, a deque
//!   `pop_front` on pop — instead of the O(log n) sift a binary heap pays.
//!   Within a bucket (one tick), entries are kept in sequence order, which
//!   appends preserve for free because sequence numbers are allocated
//!   monotonically. A bucket that drains hands its buffer to a pool the
//!   next bucket to fill takes from, so the wheel holds buffers for the
//!   ticks in flight, not for every tick it ever served;
//! * an **overflow heap** holds the far future (`at ≥ base + SPAN`:
//!   long-delay timers, fault-plan controls). When the wheel runs dry the
//!   window re-anchors at the heap's earliest event and everything inside
//!   the new window migrates into buckets;
//! * a **seq index** (`by_seq`, built lazily — only schedule exploration
//!   needs it) maps sequence numbers to slots, giving the explorer O(1)
//!   `pop_seq` where the old queue paid a full heap rebuild per controlled
//!   step. The per-class FIFO heads (`classes`) are likewise lazy.
//!
//! The queue maintains a **front cache**: after every mutation, the
//! earliest pending event's `(at, seq)` is known, so `next_at` is an
//! O(1) `&self` peek. Wheel entries are always live
//! (indexed removal deletes from the bucket directly); only the overflow
//! heap can hold stale entries, and it is compacted when they accumulate.
//!
//! Cancellation (crash invalidation, see [`EventQueue::cancel_for`]) does
//! not remove events at all: it converts them **in place** to
//! [`EventKind::Tombstone`], freeing the message payload immediately while
//! keeping the `(at, seq)` firing point, the accumulated queueing `wait`,
//! and the trace-visible identity of the victim. The tombstone fires at
//! the original time as a drop, which is what keeps traces and fault
//! statistics bit-identical to the older lazy epoch-check-at-pop scheme.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use crate::fx::FxHashMap;
use crate::schedule::{Choice, ChoiceKind};
use crate::{ProcId, SimTime};

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind<M> {
    /// Deliver `msg` from `from` to the owning processor. `span` is the
    /// operation the delivery is causally attributable to, resolved at send
    /// time (the payload's own span, else the sending action's).
    Deliver {
        from: ProcId,
        msg: M,
        span: Option<u64>,
    },
    /// Fire a timer with the given token.
    Timer { token: u64 },
    /// Fault-plan control: crash the owning processor.
    Crash,
    /// Fault-plan control: restart the owning processor.
    Restart,
    /// A delivery or timer invalidated by a crash of its target: the
    /// payload is already freed, but the event still fires at its original
    /// `(at, seq)` as a drop, carrying everything the trace and fault
    /// statistics need to describe the victim.
    Tombstone {
        from: ProcId,
        kind: &'static str,
        redelivery: bool,
        span: Option<u64>,
        is_timer: bool,
    },
}

#[derive(Debug)]
pub struct Event<M> {
    pub at: SimTime,
    /// Global sequence number: total tiebreaker so runs are deterministic.
    pub seq: u64,
    pub to: ProcId,
    /// Crash epoch of the target when this event was scheduled. A crash
    /// bumps the target's epoch and eagerly tombstones the in-flight
    /// events it invalidates, so a live event's epoch always matches its
    /// target's — the field survives as the backstop `debug_assert`
    /// checking exactly that, and as the discriminator for events sent
    /// *while* the target is down (current epoch, dropped by the liveness
    /// check, not by cancellation).
    pub epoch: u32,
    /// Ticks this event has spent requeued behind a busy node manager
    /// (accumulated by the service-time model; traced as queueing delay).
    pub wait: u64,
    pub kind: EventKind<M>,
}

/// A wheel-bucket entry: just enough to order firing within one tick,
/// pointing into the slab. Buckets are kept sorted by `seq`.
#[derive(Clone, Copy, Debug)]
struct WheelEntry {
    seq: u64,
    slot: u32,
}

/// An overflow-heap entry for events beyond the wheel window.
#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The cached earliest pending event (the queue's "front").
#[derive(Clone, Copy, Debug)]
struct Front {
    at: SimTime,
    seq: u64,
}

/// Ordering class of an event: `(0, src, dst)` for deliveries (per-channel
/// FIFO), `(1, dst, dst)` for timers, `(2, dst, dst)` for crash/restart
/// controls. Tombstones keep their victim's class.
type ClassKey = (u8, ProcId, ProcId);

/// Wheel window width in ticks. Latencies and timer delays below this
/// bound are bucketed in O(1); anything further out takes the overflow
/// heap and migrates in when the window reaches it.
const SPAN: usize = 4096;

/// Compact the overflow heap when stale entries exceed this count and
/// outnumber the live ones.
const COMPACT_SLACK: usize = 64;

/// Deterministic indexed min-queue of events.
pub struct EventQueue<M> {
    /// Per-tick buckets covering `[base, base + SPAN)`; bucket `t % SPAN`
    /// holds the events firing at tick `t`, sorted by seq.
    wheel: Vec<VecDeque<WheelEntry>>,
    /// Buffers of drained buckets, handed to the next bucket that fills.
    /// An empty bucket owns no buffer, so the wheel's memory follows the
    /// occupied buckets and never grows past their peak count.
    pool: Vec<VecDeque<WheelEntry>>,
    /// Occupancy bitmap over buckets (bit `b` set ⇔ `wheel[b]` non-empty),
    /// scanned to find the next firing tick without touching empty buckets.
    occ: Vec<u64>,
    /// Total entries across all buckets (wheel entries are always live).
    wheel_count: usize,
    /// Lower bound of the wheel window. Invariant: every pending event
    /// fires at `≥ base` (the simulator never schedules into the past),
    /// and every overflow-heap event fires at `≥ base + SPAN`.
    base: u64,
    /// Overflow heap for events beyond the window. May hold stale entries
    /// (left by `pop_seq`), counted in `stale_heap`.
    heap: BinaryHeap<HeapEntry>,
    stale_heap: usize,
    /// Slab of event payloads; `None` slots are on the free list.
    slots: Vec<Option<Event<M>>>,
    free: Vec<u32>,
    /// Number of pending events (tombstones included until they fire).
    live: usize,
    /// Cached earliest pending event; `None` iff the queue is empty.
    front: Option<Front>,
    next_seq: u64,
    /// Live events by sequence number, for the schedule explorer's
    /// `pop_seq`. Built lazily on first use, maintained incrementally
    /// afterwards — the plain simulation path never touches it.
    by_seq: Option<FxHashMap<u64, u32>>,
    /// Per-class FIFO heads for the schedule explorer, built lazily on the
    /// first `choices` call and maintained incrementally afterwards. Each
    /// class's `BTreeSet` yields its oldest pending seq in O(log n),
    /// replacing the old full-heap scan per explored step.
    classes: Option<FxHashMap<ClassKey, BTreeSet<u64>>>,
}

fn class_key<M>(e: &Event<M>) -> ClassKey {
    match &e.kind {
        EventKind::Deliver { from, .. } => (0, *from, e.to),
        EventKind::Timer { .. } => (1, e.to, e.to),
        EventKind::Crash | EventKind::Restart => (2, e.to, e.to),
        EventKind::Tombstone { from, is_timer, .. } => {
            if *is_timer {
                (1, e.to, e.to)
            } else {
                (0, *from, e.to)
            }
        }
    }
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue {
            wheel: (0..SPAN).map(|_| VecDeque::new()).collect(),
            pool: Vec::new(),
            occ: vec![0; SPAN / 64],
            wheel_count: 0,
            base: 0,
            heap: BinaryHeap::new(),
            stale_heap: 0,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            front: None,
            next_seq: 0,
            by_seq: None,
            classes: None,
        }
    }

    pub fn push(&mut self, at: SimTime, to: ProcId, kind: EventKind<M>) {
        self.push_epoch(at, to, 0, kind);
    }

    /// Push with an explicit crash-epoch stamp (see [`Event::epoch`]).
    pub fn push_epoch(&mut self, at: SimTime, to: ProcId, epoch: u32, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Event {
            at,
            seq,
            to,
            epoch,
            wait: 0,
            kind,
        });
    }

    /// Re-insert a popped event at a later time, preserving its original
    /// sequence number so it cannot be overtaken by events sent after it
    /// (the service-time model relies on this for per-channel FIFO).
    pub fn requeue(&mut self, at: SimTime, event: Event<M>) {
        self.insert(Event { at, ..event });
    }

    fn insert(&mut self, event: Event<M>) {
        debug_assert!(
            event.at.ticks() >= self.base,
            "events are never scheduled into the past"
        );
        if let Some(classes) = &mut self.classes {
            classes
                .entry(class_key(&event))
                .or_default()
                .insert(event.seq);
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        if let Some(by_seq) = &mut self.by_seq {
            by_seq.insert(event.seq, slot);
        }
        let (at, seq) = (event.at, event.seq);
        self.slots[slot as usize] = Some(event);
        self.live += 1;
        if at.ticks() < self.base + SPAN as u64 {
            self.wheel_insert(at, seq, slot);
        } else {
            self.heap.push(HeapEntry { at, seq, slot });
        }
        if self.front.is_none_or(|f| (at, seq) < (f.at, f.seq)) {
            self.front = Some(Front { at, seq });
        }
    }

    /// Insert into the wheel bucket for `at`, keeping the bucket sorted by
    /// seq. Normal pushes append (seqs are allocated monotonically); only
    /// a `requeue` of an old seq pays the sorted insert.
    fn wheel_insert(&mut self, at: SimTime, seq: u64, slot: u32) {
        let b = (at.ticks() % SPAN as u64) as usize;
        let bucket = &mut self.wheel[b];
        if bucket.capacity() == 0 {
            if let Some(buf) = self.pool.pop() {
                *bucket = buf;
            }
        }
        let entry = WheelEntry { seq, slot };
        match bucket.back() {
            Some(last) if last.seq > seq => {
                let i = bucket.partition_point(|e| e.seq < seq);
                bucket.insert(i, entry);
            }
            _ => bucket.push_back(entry),
        }
        self.occ[b / 64] |= 1 << (b % 64);
        self.wheel_count += 1;
    }

    /// Bucket `b` just lost an entry: if that emptied it, clear its
    /// occupancy bit and return its buffer to the pool.
    fn after_bucket_removal(&mut self, b: usize) {
        self.wheel_count -= 1;
        if self.wheel[b].is_empty() {
            self.occ[b / 64] &= !(1 << (b % 64));
            self.pool.push(std::mem::take(&mut self.wheel[b]));
        }
    }

    /// First non-empty bucket at or after `base` (window order, wrapping).
    /// Caller guarantees `wheel_count > 0`.
    fn first_occupied(&self) -> usize {
        let start = (self.base % SPAN as u64) as usize;
        let (sw, sb) = (start / 64, start % 64);
        // Scan the start word masked below the start bit, then wrap through
        // the remaining words. The window is exactly SPAN wide, so the
        // first set bit in window order is the earliest firing tick.
        let words = self.occ.len();
        let masked = self.occ[sw] & (!0u64 << sb);
        if masked != 0 {
            return sw * 64 + masked.trailing_zeros() as usize;
        }
        for k in 1..=words {
            let w = (sw + k) % words;
            let bits = if w == sw {
                self.occ[w] & !(!0u64 << sb)
            } else {
                self.occ[w]
            };
            if bits != 0 {
                return w * 64 + bits.trailing_zeros() as usize;
            }
        }
        unreachable!("first_occupied called on an empty wheel");
    }

    /// Recompute the front cache after a removal. Wheel entries are always
    /// live, so the wheel's earliest bucket head wins outright (overflow
    /// events all fire later than the whole window); the overflow heap is
    /// scrubbed of stale entries when it supplies the front.
    fn scrub(&mut self) {
        if self.live == 0 {
            self.front = None;
            return;
        }
        if self.wheel_count > 0 {
            let b = self.first_occupied();
            let e = self.wheel[b].front().expect("occupancy bit set");
            let ev = self.slots[e.slot as usize]
                .as_ref()
                .expect("wheel entries are live");
            debug_assert_eq!(ev.seq, e.seq);
            self.front = Some(Front {
                at: ev.at,
                seq: ev.seq,
            });
            return;
        }
        while let Some(top) = self.heap.peek() {
            match self.slots[top.slot as usize].as_ref() {
                Some(ev) if ev.seq == top.seq => {
                    self.front = Some(Front {
                        at: top.at,
                        seq: top.seq,
                    });
                    return;
                }
                _ => {
                    self.heap.pop();
                    self.stale_heap -= 1;
                }
            }
        }
        unreachable!("live > 0 but no event found in wheel or heap");
    }

    /// Migrate every overflow event the current window has reached into
    /// the wheel, restoring the invariant that heap residents all fire at
    /// `≥ base + SPAN`. Heap pops come out in `(at, seq)` order, so bucket
    /// appends stay sorted. Called after every `base` advance; the common
    /// case is a single peek that finds nothing to move.
    fn migrate_window(&mut self) {
        let horizon = self.base + SPAN as u64;
        while let Some(top) = self.heap.peek() {
            if top.at.ticks() >= horizon {
                break;
            }
            let top = self.heap.pop().expect("just peeked");
            let is_live = self.slots[top.slot as usize]
                .as_ref()
                .is_some_and(|ev| ev.seq == top.seq);
            if is_live {
                self.wheel_insert(top.at, top.seq, top.slot);
            } else {
                self.stale_heap -= 1;
            }
        }
    }

    /// Rebuild the overflow heap from live far slots once stale entries
    /// dominate, so an exploration-heavy run cannot hold the heap at its
    /// high-water mark.
    fn maybe_compact(&mut self) {
        if self.stale_heap > COMPACT_SLACK && self.stale_heap * 2 > self.heap.len() {
            let horizon = self.base + SPAN as u64;
            self.heap = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    s.as_ref()
                        .filter(|ev| ev.at.ticks() >= horizon)
                        .map(|ev| HeapEntry {
                            at: ev.at,
                            seq: ev.seq,
                            slot: i as u32,
                        })
                })
                .collect();
            self.stale_heap = 0;
        }
    }

    /// Detach the event in `slot` from every index and free the slot.
    fn take_slot(&mut self, slot: u32) -> Event<M> {
        let event = self.slots[slot as usize]
            .take()
            .expect("entry points at an occupied slot");
        self.free.push(slot);
        self.live -= 1;
        if let Some(by_seq) = &mut self.by_seq {
            by_seq.remove(&event.seq);
        }
        if let Some(classes) = &mut self.classes {
            let key = class_key(&event);
            let set = classes.get_mut(&key).expect("event was indexed");
            set.remove(&event.seq);
            if set.is_empty() {
                classes.remove(&key);
            }
        }
        event
    }

    pub fn pop(&mut self) -> Option<Event<M>> {
        let f = self.front.take()?;
        // The front is the global minimum, so every remaining event — and
        // every future push (the simulator's clock is now here) — fires at
        // or after it: the window anchors at its tick, and any overflow
        // events the window slid over migrate into buckets.
        self.base = f.at.ticks();
        self.migrate_window();
        let b = (f.at.ticks() % SPAN as u64) as usize;
        let e = self.wheel[b].pop_front().expect("front is bucketed");
        debug_assert_eq!(e.seq, f.seq, "front cache points at the bucket head");
        self.after_bucket_removal(b);
        let event = self.take_slot(e.slot);
        self.scrub();
        Some(event)
    }

    /// Time of the earliest pending event, if any.
    pub fn next_at(&self) -> Option<SimTime> {
        self.front.map(|f| f.at)
    }

    /// The events of the earliest tick, in the order [`EventQueue::pop`]
    /// will return them, without popping any — `None` when that tick is
    /// not bucketed yet (it is in the overflow heap until the first pop
    /// reaches it). Pushes may still append to the tick.
    pub fn front_tick(&self) -> Option<impl ExactSizeIterator<Item = &Event<M>>> {
        let f = self.front?;
        if self.wheel_count == 0 {
            return None;
        }
        let bucket = &self.wheel[(f.at.ticks() % SPAN as u64) as usize];
        debug_assert_eq!(bucket.front().map(|e| e.seq), Some(f.seq));
        Some(bucket.iter().map(|e| {
            self.slots[e.slot as usize]
                .as_ref()
                .expect("wheel entries are live")
        }))
    }

    /// Number of pending events (tombstones included until they fire).
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no events (tombstones included) are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Convert every pending delivery and timer addressed to `to` into a
    /// tombstone: the paper's crash invalidation, applied *eagerly* at the
    /// crash instead of lazily at each victim's pop. Payloads are freed
    /// here; firing times, sequence numbers, accumulated waits, and the
    /// trace-visible identity of each victim are preserved, so the
    /// resulting run is bit-identical to the lazy scheme. Control events
    /// (the crash's own restart) are untouched, as are events that do not
    /// target `to`.
    pub fn cancel_for(&mut self, to: ProcId)
    where
        M: crate::Payload,
    {
        for slot in &mut self.slots {
            let Some(event) = slot else { continue };
            if event.to != to {
                continue;
            }
            event.kind = match &event.kind {
                EventKind::Deliver { from, msg, span } => EventKind::Tombstone {
                    from: *from,
                    kind: msg.kind(),
                    redelivery: msg.redelivery(),
                    span: *span,
                    is_timer: false,
                },
                EventKind::Timer { .. } => EventKind::Tombstone {
                    from: event.to,
                    kind: "timer",
                    redelivery: false,
                    span: None,
                    is_timer: true,
                },
                // Controls survive (a crash must not eat its own restart);
                // an existing tombstone is already canceled.
                EventKind::Crash | EventKind::Restart | EventKind::Tombstone { .. } => continue,
            };
        }
    }

    /// Build the seq index on first explorer use.
    fn ensure_by_seq(&mut self) {
        if self.by_seq.is_none() {
            let mut by_seq = FxHashMap::default();
            for (i, s) in self.slots.iter().enumerate() {
                if let Some(ev) = s {
                    by_seq.insert(ev.seq, i as u32);
                }
            }
            self.by_seq = Some(by_seq);
        }
    }

    /// The *enabled* events a schedule controller may legally fire next:
    /// the lowest-sequence pending event of each ordering class. Classes
    /// are `(src, dst)` channels for deliveries (per-channel FIFO), the
    /// target processor for timers, and the target processor for
    /// crash/restart controls (a crash precedes its own restart). Sorted by
    /// sequence number so the listing is deterministic.
    ///
    /// The first call builds the per-class index; subsequent calls reuse
    /// it, maintained incrementally by push/pop, so a controlled run pays
    /// O(classes) per step instead of O(pending events).
    pub fn choices(&mut self) -> Vec<Choice>
    where
        M: crate::Payload,
    {
        self.ensure_by_seq();
        if self.classes.is_none() {
            let mut classes: FxHashMap<ClassKey, BTreeSet<u64>> = FxHashMap::default();
            for event in self.slots.iter().flatten() {
                classes
                    .entry(class_key(event))
                    .or_default()
                    .insert(event.seq);
            }
            self.classes = Some(classes);
        }
        let classes = self.classes.as_ref().unwrap();
        let by_seq = self.by_seq.as_ref().unwrap();
        let mut out: Vec<Choice> = classes
            .values()
            .filter_map(|set| set.iter().next())
            .map(|seq| {
                let slot = by_seq[seq];
                let event = self.slots[slot as usize].as_ref().expect("indexed event");
                Choice {
                    seq: event.seq,
                    at: event.at,
                    to: event.to,
                    from: match &event.kind {
                        EventKind::Deliver { from, .. } => Some(*from),
                        EventKind::Tombstone {
                            from,
                            is_timer: false,
                            ..
                        } => Some(*from),
                        _ => None,
                    },
                    kind: match &event.kind {
                        EventKind::Deliver { .. } => ChoiceKind::Deliver,
                        EventKind::Timer { .. } => ChoiceKind::Timer,
                        EventKind::Crash | EventKind::Restart => ChoiceKind::Control,
                        EventKind::Tombstone { is_timer, .. } => {
                            if *is_timer {
                                ChoiceKind::Timer
                            } else {
                                ChoiceKind::Deliver
                            }
                        }
                    },
                    label: match &event.kind {
                        EventKind::Deliver { msg, .. } => msg.kind(),
                        EventKind::Timer { .. } => "timer",
                        EventKind::Crash => "crash",
                        EventKind::Restart => "restart",
                        EventKind::Tombstone { kind, .. } => kind,
                    },
                }
            })
            .collect();
        out.sort_unstable_by_key(|c| c.seq);
        out
    }

    /// The next sequence number this queue will allocate. The simulator
    /// samples it around each controlled step to report which events the
    /// step created (see [`crate::Scheduler::fired`]).
    pub fn seq_watermark(&self) -> u64 {
        self.next_seq
    }

    /// Fold the *content* of every pending event into `h`, in channel
    /// order: for each ordering class (sorted), the queued payloads oldest
    /// first. Virtual times and sequence numbers are deliberately excluded
    /// — the model checker's state fingerprint must identify two states
    /// that differ only in when their events were minted. Payloads hash
    /// through [`crate::Payload::fingerprint_into`].
    pub fn pending_fingerprint(&self, h: &mut impl std::hash::Hasher)
    where
        M: crate::Payload,
    {
        use std::hash::Hash;
        let mut pending: Vec<(ClassKey, u64, u32)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|ev| (class_key(ev), ev.seq, i as u32)))
            .collect();
        pending.sort_unstable_by_key(|&(key, seq, _)| (key, seq));
        for (key, _, slot) in pending {
            let event = self.slots[slot as usize].as_ref().expect("slot is live");
            (key.0, key.1 .0, key.2 .0).hash(h);
            match &event.kind {
                EventKind::Deliver { msg, .. } => msg.fingerprint_into(h),
                EventKind::Timer { token } => ("timer", token).hash(h),
                EventKind::Crash => "crash".hash(h),
                EventKind::Restart => "restart".hash(h),
                EventKind::Tombstone {
                    kind, redelivery, ..
                } => ("tomb", kind, redelivery).hash(h),
            }
        }
    }

    /// Remove and return the pending event with the given sequence number
    /// (the schedule explorer's controlled step). Wheel residents are
    /// deleted from their bucket directly; overflow residents leave a
    /// stale heap entry behind, swept when it surfaces or at compaction.
    pub fn pop_seq(&mut self, seq: u64) -> Option<Event<M>> {
        self.ensure_by_seq();
        let slot = *self.by_seq.as_ref().unwrap().get(&seq)?;
        // Free the slot *before* the overflow bookkeeping: heap compaction
        // rebuilds from live slots, and the victim must not be one of them.
        let event = self.take_slot(slot);
        if event.at.ticks() < self.base + SPAN as u64 {
            let b = (event.at.ticks() % SPAN as u64) as usize;
            let bucket = &mut self.wheel[b];
            let i = bucket.partition_point(|e| e.seq < seq);
            debug_assert_eq!(bucket[i].seq, seq, "bucket is sorted by seq");
            bucket.remove(i);
            self.after_bucket_removal(b);
        } else {
            self.stale_heap += 1;
            self.maybe_compact();
        }
        if self.front.is_none_or(|f| f.seq == seq) {
            self.scrub();
        }
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(SimTime(30), ProcId(0), EventKind::Timer { token: 3 });
        q.push(SimTime(10), ProcId(0), EventKind::Timer { token: 1 });
        q.push(SimTime(20), ProcId(0), EventKind::Timer { token: 2 });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.ticks())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for token in 0..10 {
            q.push(SimTime(5), ProcId(0), EventKind::Timer { token });
        }
        let tokens: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tokens, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn front_tick_lists_the_earliest_ticks_events_in_pop_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let far = SPAN as u64 * 2;
        q.push(SimTime(far), ProcId(3), EventKind::Timer { token: 0 });
        // Only the overflow heap holds events: not bucketed yet.
        assert!(q.front_tick().is_none());
        q.push(SimTime(9), ProcId(1), EventKind::Timer { token: 1 });
        q.push(SimTime(5), ProcId(2), EventKind::Timer { token: 2 });
        q.push(SimTime(5), ProcId(0), EventKind::Timer { token: 3 });
        let front: Vec<(u64, ProcId)> = q
            .front_tick()
            .expect("tick 5 is bucketed")
            .map(|e| (e.seq, e.to))
            .collect();
        assert_eq!(front, vec![(2, ProcId(2)), (3, ProcId(0))]);
        let popped: Vec<(u64, ProcId)> = (0..2)
            .map(|_| q.pop().expect("queued"))
            .map(|e| (e.seq, e.to))
            .collect();
        assert_eq!(popped, front);
        assert_eq!(q.front_tick().map(|f| f.len()), Some(1));
    }

    #[test]
    fn far_events_overflow_and_migrate_in_order() {
        // Events beyond the wheel window live in the overflow heap and
        // must come back in exact (at, seq) order when the window reaches
        // them — including same-tick seq ties split across the boundary.
        let mut q: EventQueue<u32> = EventQueue::new();
        let far = SPAN as u64 * 3 + 17;
        q.push(SimTime(far), ProcId(0), EventKind::Timer { token: 0 }); // seq 0
        q.push(SimTime(2), ProcId(0), EventKind::Timer { token: 1 }); // seq 1
        q.push(SimTime(far + 1), ProcId(0), EventKind::Timer { token: 2 }); // seq 2
        q.push(SimTime(far), ProcId(0), EventKind::Timer { token: 3 }); // seq 3
        assert_eq!(q.next_at(), Some(SimTime(2)));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.at.ticks(), e.seq))
            .collect();
        assert_eq!(order, vec![(2, 1), (far, 0), (far, 3), (far + 1, 2)]);
        // The window re-anchored; near pushes still work afterwards.
        q.push(SimTime(far + 2), ProcId(0), EventKind::Timer { token: 9 });
        assert_eq!(q.pop().unwrap().at, SimTime(far + 2));
        assert!(q.is_empty());
    }

    #[test]
    fn window_advance_catches_overflow_residents() {
        // An event can be pushed beyond the window (→ overflow heap) and
        // then have the window slide over it as nearer events pop. It must
        // migrate into the wheel when that happens, and still order
        // correctly against wheel residents pushed after it.
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(SimTime(4000), ProcId(0), EventKind::Timer { token: 0 });
        // Beyond base(0) + SPAN → overflow heap.
        q.push(SimTime(5000), ProcId(0), EventKind::Timer { token: 1 });
        assert_eq!(q.pop().unwrap().at, SimTime(4000));
        // base is now 4000; 5000 sits inside the new window. A fresh wheel
        // push at 6000 must not overtake it.
        q.push(SimTime(6000), ProcId(0), EventKind::Timer { token: 2 });
        assert_eq!(q.next_at(), Some(SimTime(5000)));
        assert_eq!(q.pop().unwrap().at, SimTime(5000));
        assert_eq!(q.pop().unwrap().at, SimTime(6000));
        assert!(q.is_empty());
    }

    #[test]
    fn requeue_preserves_original_seq_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(SimTime(5), ProcId(0), EventKind::Timer { token: 0 }); // seq 0
        q.push(SimTime(5), ProcId(0), EventKind::Timer { token: 1 }); // seq 1
        q.push(SimTime(9), ProcId(0), EventKind::Timer { token: 2 }); // seq 2
        let first = q.pop().unwrap();
        assert_eq!(first.seq, 0);
        // Requeue the popped event at tick 9: its old seq (0) must fire
        // before seq 2 at the same tick, exercising the sorted bucket
        // insert.
        q.requeue(SimTime(9), first);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![1, 0, 2]);
    }

    #[test]
    fn choices_expose_one_head_per_class() {
        let mut q: EventQueue<u32> = EventQueue::new();
        // Two messages on channel 1->0, one on 2->0, a timer on 0, and a
        // crash+restart pair on 1.
        let deliver = |from: u32, msg| EventKind::Deliver {
            from: ProcId(from),
            msg,
            span: None,
        };
        q.push(SimTime(10), ProcId(0), deliver(1, 7)); // seq 0
        q.push(SimTime(5), ProcId(0), deliver(1, 8)); // seq 1 — same channel
        q.push(SimTime(20), ProcId(0), deliver(2, 9)); // seq 2
        q.push(SimTime(1), ProcId(0), EventKind::Timer { token: 3 }); // seq 3
        q.push(SimTime(2), ProcId(1), EventKind::Crash); // seq 4
        q.push(SimTime(9), ProcId(1), EventKind::Restart); // seq 5 — masked
        let choices = q.choices();
        let seqs: Vec<u64> = choices.iter().map(|c| c.seq).collect();
        // Channel 1->0 exposes only seq 0 (its oldest), and the restart is
        // masked by the crash that precedes it.
        assert_eq!(seqs, vec![0, 2, 3, 4]);
        assert_eq!(choices[0].from, Some(ProcId(1)));
        assert_eq!(choices[2].kind, ChoiceKind::Timer);
        assert_eq!(choices[3].kind, ChoiceKind::Control);
        // Popping the crash unmasks the restart.
        assert!(q.pop_seq(4).is_some());
        assert!(q.choices().iter().any(|c| c.seq == 5));
        // pop_seq leaves the rest of the queue intact and ordered.
        assert!(q.pop_seq(99).is_none());
        assert_eq!(q.len(), 5);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![3, 1, 5, 0, 2]);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime(1), ProcId(0), EventKind::Timer { token: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    impl crate::Payload for u32 {}

    #[test]
    fn cancel_tombstones_deliveries_and_timers_but_not_controls() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let deliver = |from: u32, msg| EventKind::Deliver {
            from: ProcId(from),
            msg,
            span: Some(41),
        };
        q.push(SimTime(10), ProcId(1), deliver(0, 7)); // seq 0 — victim
        q.push(SimTime(12), ProcId(1), EventKind::Timer { token: 9 }); // seq 1 — victim
        q.push(SimTime(15), ProcId(2), deliver(0, 8)); // seq 2 — other target
        q.push(SimTime(20), ProcId(1), EventKind::Restart); // seq 3 — control survives
        q.cancel_for(ProcId(1));
        assert_eq!(q.len(), 4, "cancellation never removes events");

        let e0 = q.pop().unwrap();
        assert_eq!((e0.at, e0.seq, e0.wait), (SimTime(10), 0, 0));
        match e0.kind {
            EventKind::Tombstone {
                from,
                kind,
                redelivery,
                span,
                is_timer,
            } => {
                assert_eq!(from, ProcId(0));
                assert_eq!(kind, "msg");
                assert!(!redelivery);
                assert_eq!(span, Some(41));
                assert!(!is_timer);
            }
            other => panic!("expected deliver tombstone, got {other:?}"),
        }
        let e1 = q.pop().unwrap();
        assert!(
            matches!(e1.kind, EventKind::Tombstone { is_timer: true, .. }),
            "timer becomes a timer tombstone"
        );
        assert!(
            matches!(q.pop().unwrap().kind, EventKind::Deliver { .. }),
            "other targets untouched"
        );
        assert!(
            matches!(q.pop().unwrap().kind, EventKind::Restart),
            "controls survive cancellation"
        );
    }

    #[test]
    fn tombstones_keep_their_class_for_the_explorer() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let deliver = |from: u32, msg| EventKind::Deliver {
            from: ProcId(from),
            msg,
            span: None,
        };
        q.push(SimTime(10), ProcId(1), deliver(0, 7)); // seq 0
        q.push(SimTime(11), ProcId(1), deliver(0, 8)); // seq 1 — same channel
                                                       // Build the incremental index before canceling, then verify the
                                                       // cancellation is class-invisible.
        let before: Vec<u64> = q.choices().iter().map(|c| c.seq).collect();
        q.cancel_for(ProcId(1));
        let after = q.choices();
        assert_eq!(before, vec![0]);
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].seq, 0);
        assert_eq!(after[0].kind, ChoiceKind::Deliver);
        assert_eq!(after[0].from, Some(ProcId(0)));
    }

    #[test]
    fn pop_seq_is_indexed_and_structures_stay_compact() {
        let mut q: EventQueue<u32> = EventQueue::new();
        // Near events (wheel residents) are deleted from their bucket
        // outright by pop_seq.
        for i in 0..500u64 {
            q.push(SimTime(i), ProcId(0), EventKind::Timer { token: i });
        }
        for seq in 0..400u64 {
            assert!(q.pop_seq(seq).is_some());
        }
        assert_eq!(q.len(), 100);
        assert_eq!(q.wheel_count, 100, "wheel removals leave nothing stale");
        assert_eq!(q.next_at(), Some(SimTime(400)));

        // Far events (overflow residents) leave stale heap entries behind;
        // those must be compacted away, not accumulate.
        let far = SPAN as u64 * 10;
        for i in 0..500u64 {
            q.push(SimTime(far + i), ProcId(0), EventKind::Timer { token: i });
        }
        for seq in 500..900u64 {
            assert!(q.pop_seq(seq).is_some());
        }
        assert_eq!(q.len(), 200);
        assert!(
            q.heap.len() <= 100 + COMPACT_SLACK + 1,
            "stale heap entries must be compacted (heap holds {})",
            q.heap.len()
        );
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        let expected: Vec<u64> = (400..500).chain(900..1000).collect();
        assert_eq!(order, expected);
    }

    /// Entries the wheel's bucket buffers can hold, pooled ones included.
    fn bucket_capacity<M>(q: &EventQueue<M>) -> usize {
        let pooled = q.pool.iter().map(VecDeque::capacity).sum::<usize>();
        q.wheel.iter().map(VecDeque::capacity).sum::<usize>() + pooled
    }

    /// A steady window of pushes and pops, 1–24 ticks ahead, sweeps the
    /// wheel three times over. What the buckets retain must follow the
    /// events in flight, not every tick the window has passed.
    #[test]
    fn bucket_buffers_follow_the_live_window() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut x = 0x9E37_79B9_u64;
        let mut peak_live = 0;
        for now in 0..3 * SPAN as u64 + 100 {
            for _ in 0..3 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let at = SimTime(now + 1 + (x >> 59) % 24);
                q.push(at, ProcId(0), EventKind::Timer { token: now });
            }
            peak_live = peak_live.max(q.len());
            while q.next_at().is_some_and(|t| t.ticks() <= now) {
                q.pop();
            }
        }
        let retained = bucket_capacity(&q);
        assert!(
            retained <= 8 * peak_live,
            "buckets retain {retained} entries for at most {peak_live} live events"
        );
    }

    #[test]
    fn slots_are_reused_after_pop() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..100u64 {
                q.push(
                    SimTime(round * 1000 + i),
                    ProcId(0),
                    EventKind::Timer { token: i },
                );
            }
            for _ in 0..100 {
                q.pop().unwrap();
            }
        }
        assert!(q.is_empty());
        assert!(
            q.slots.len() <= 100,
            "slab must reuse freed slots (grew to {})",
            q.slots.len()
        );
    }
}

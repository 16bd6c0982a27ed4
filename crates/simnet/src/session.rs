//! Reliable-delivery session layer.
//!
//! The dB-tree protocols assume the network delivers every message exactly
//! once and in FIFO order per channel (§4 of the paper). A [`FaultPlan`]
//! (drops, duplicates, partitions, crashes) breaks that assumption at the
//! physical layer; [`SessionProc`] restores it end-to-end, so every protocol
//! runs unchanged over a lossy network.
//!
//! **What is ordered.** Exactly-once is owed to every payload; order only to
//! those whose type asks for it ([`Payload::delivery`], a property of the
//! message type — nothing configures it). [`Delivery::Ordered`] payloads
//! (the default) reach the inner process in their channel's send order. A
//! [`Delivery::Unordered`] payload commutes with everything else on its
//! channel, so one that arrives past a hole is handed over at once instead
//! of waiting for a retransmission that has nothing to do with it; its
//! sequence is remembered as arrived — reported held in acks, stepped over
//! when the hole fills — so it is never delivered again. The sender half and
//! the wire format do not know the difference.
//!
//! The mechanism is selective-repeat ARQ whose acknowledgements are lazy
//! updates — monotone, idempotent, max-merged, so they may be late, repeated
//! or ride on anything:
//!
//! * each remote message gets a per-`(src, dst)` sequence number and is held
//!   in an outbox until acknowledged; receivers deliver `Ordered` payloads in
//!   sequence order, buffer those that arrive early and suppress duplicates;
//! * **a timer on the oldest unacked message.** Every outbox entry carries
//!   its own deadline and back-off count; the per-channel timer follows the
//!   oldest entry, and when that one is overdue it alone is resent, as a
//!   probe — whichever of the payload or its ack was lost, the answer covers
//!   everything behind it. `BASE_RTO` exceeds the worst round trip plus the
//!   ack delay, so nothing is retransmitted on a loss-free network.
//!   Back-off is for a peer that says nothing: once a peer whose probe timed
//!   out is heard from, the oldest entry goes again as soon as it is a base
//!   timeout old;
//! * **selective repeat, on evidence.** Every frame says how far the stream
//!   had got when it was sent (`seq + 1 + ahead`), and an
//!   [`SessionMsg::Ack`] reports, beside `upto`, what the receiver lacks
//!   below the furthest point it has word of: the run of sequences missing
//!   at `upto`, and a bitmap of the newest 64. Channels are FIFO, so an
//!   entry the receiver lacks although it has seen a frame sent *after* that
//!   entry's latest transmission is lost — not late, whatever the delays —
//!   and is resent at once: every hole a report names is repaired in the
//!   same round trip, a probe that gets through is answered with everything
//!   lost behind it, and nothing is ever resent on a guess. What a report
//!   says is *held* changes nothing at the sender: the receiver's buffer is
//!   volatile, and only `upto` releases an entry;
//! * **lazy acks.** An arrival owes an ack, it does not send one: the owed
//!   `upto` rides in every `Data` frame to that peer, and one per-processor
//!   flush timer sends what is still owed `ACK_DELAY` ticks later. An ack
//!   goes out at once only when it tells the sender something to act on: a
//!   hole it has not heard of, or a retransmission that was not needed.
//!
//! **Stability model.** The paper's §1.1 architecture gives every processor a
//! *stable* queue manager (backed by recoverable storage) in front of
//! volatile node copies. We model crash/restart the same way: the process
//! object survives a crash, everything in flight (deliveries, timers) is
//! lost. Of the session's state exactly four things are *stable* — the
//! outbox, `next_seq`, and the receiver's record of what it has delivered:
//! `next_expected` and the sequences past it delivered early, which is what
//! makes a redelivered payload recognizable as a duplicate. Everything else
//! is a *hint* that a restart forgets and the protocol re-learns: the reorder
//! buffer and how far the peer's stream is known to have got, owed acks,
//! each entry's deadline, back-off count and place in the stream, and armed
//! timers. On restart the session re-acks every peer it had heard from (what
//! it owed died with it), retransmits its outbox and re-arms, so
//! exactly-once delivery holds across crashes too.
//!
//! With `enabled == false` (the default) every message passes through as
//! [`SessionMsg::Raw`], whose `kind`/`size_hint` delegate to the inner
//! payload — message statistics are byte-identical to running the inner
//! process directly.
//!
//! **Failure detection.** The session layer optionally runs a heartbeat
//! failure detector (see [`DetectorConfig`]). Every peer this processor has
//! exchanged traffic with is monitored: a periodic detector round pings each
//! monitored peer, and a peer silent for more than `suspect_after` rounds is
//! marked *suspect* — surfaced as a [`TraceEvent::Suspect`] annotation, a
//! counter, and an advisory [`Process::on_peer_change`] callback on the inner
//! process. The first arrival from a suspected peer clears the suspicion
//! ([`TraceEvent::Alive`] + `on_peer_change(peer, true)`). Detection is
//! purely advisory: safety never depends on it, only reaction latency does.
//! The detector goes *dormant* (stops re-arming its timer) after
//! `IDLE_ROUNDS` rounds with no inner traffic and nothing unacknowledged, so
//! quiescence detection still terminates; the next inner send or arrival
//! re-arms it. Disabled (the default), it adds zero timers, messages, and
//! RNG draws — runs are byte-identical to builds without it.
//!
//! [`FaultPlan`]: crate::FaultPlan

use std::collections::{BTreeMap, VecDeque};
use std::ops::{Deref, DerefMut};

use crate::context::{Context, Effect};
use crate::trace::TraceEvent;
use crate::{Delivery, Payload, ProcId, Process, SimTime};

/// High bit of the timer-token space, reserved for session timers. Inner
/// processes must keep their own tokens below this bit.
pub const SESSION_TIMER_BIT: u64 = 1 << 63;

/// Timer token of the failure detector's periodic round. Lives in the
/// session-reserved token space; distinguishable from per-channel
/// retransmission tokens, which only use the low 32 bits.
pub const DETECTOR_TIMER: u64 = SESSION_TIMER_BIT | (1 << 62);

/// Timer token of the per-processor ack flush.
const FLUSH_TIMER: u64 = SESSION_TIMER_BIT | (1 << 61);

#[inline]
fn session_token(dst: ProcId) -> u64 {
    SESSION_TIMER_BIT | dst.0 as u64
}

/// Consecutive rounds with no inner traffic (and empty outboxes) before the
/// detector goes dormant. Dormancy is what lets quiescence detection
/// terminate; the next inner send or arrival re-arms the round timer.
const IDLE_ROUNDS: u32 = 2;
/// Ticks an owed ack waits for a `Data` frame to ride on before the flush
/// timer sends it on its own. Sized with `BASE_RTO` on the ledger's
/// `sim-lossy` workload (CHANGES, PR 20).
const ACK_DELAY: u64 = 8;
/// Initial retransmission timeout, in ticks: more than the worst round trip
/// under every latency model in use (2 × 25) plus `ACK_DELAY`, so an ack
/// that was sent always beats the timer.
const BASE_RTO: u64 = 60;
/// Backoff ceiling for the retransmission timeout.
const MAX_RTO: u64 = 2000;
/// Sequences one ack's `held` bitmap describes.
const WINDOW: u64 = u64::BITS as u64;

/// Timeout of an entry's next transmission after `tries` fruitless ones.
#[inline]
fn rto(tries: u32) -> u64 {
    (BASE_RTO << tries.min(16)).min(MAX_RTO)
}

/// What an ack's `held` bitmap describes, as `(bit, sequence)` pairs: the
/// [`WINDOW`] sequences below `seen`, newest first, none below `floor`.
fn window(seen: u64, floor: u64) -> impl Iterator<Item = (u64, u64)> {
    (0..WINDOW.min(seen.saturating_sub(floor))).map(move |bit| (bit, seen - 1 - bit))
}

/// Ticks between failure-detector rounds (each round pings every monitored
/// peer).
pub const PING_INTERVAL: u64 = 100;

/// Tuning knobs for the heartbeat failure detector.
///
/// A peer is suspected when it has been silent (no arrival of any kind) for
/// longer than [`PING_INTERVAL`]` * suspect_after` ticks at a round boundary,
/// so detection latency is between `suspect_after` and `suspect_after + 1`
/// rounds.
#[derive(Clone, Copy, Debug)]
pub struct DetectorConfig {
    /// Master switch. Off (the default) = no timers, no pings, no RNG draws:
    /// runs are byte-identical to a detector-free build.
    pub enabled: bool,
    /// Rounds of silence before a peer becomes suspect.
    pub suspect_after: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            enabled: false,
            suspect_after: 3,
        }
    }
}

impl DetectorConfig {
    /// An enabled detector with default timing.
    pub fn on() -> Self {
        DetectorConfig {
            enabled: true,
            ..DetectorConfig::default()
        }
    }
}

/// Tuning knobs for the session layer.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Master switch. Off = every message passes through untouched.
    pub enabled: bool,
    /// Give up on a channel after this many consecutive fruitless
    /// retransmission rounds (e.g. the peer is partitioned away for good).
    pub max_retries: u32,
    /// Heartbeat failure detector (independent of the reliability switch).
    pub detector: DetectorConfig,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            enabled: false,
            max_retries: 64,
            detector: DetectorConfig::default(),
        }
    }
}

impl SessionConfig {
    /// A reliable-delivery configuration with default timing.
    pub fn reliable() -> Self {
        SessionConfig {
            enabled: true,
            ..SessionConfig::default()
        }
    }

    /// Same configuration with the given failure detector.
    pub fn with_detector(mut self, detector: DetectorConfig) -> Self {
        self.detector = detector;
        self
    }
}

/// Wire format of a sessioned channel.
#[derive(Clone, Debug)]
pub enum SessionMsg<M> {
    /// Pass-through (session disabled, local hand-off, or external client
    /// traffic). Carries no session state.
    Raw(M),
    /// Sequenced payload on a reliable channel.
    Data {
        /// Position in the per-`(src, dst)` sequence, starting at 0.
        seq: u64,
        /// Piggybacked cumulative ack for the reverse channel: the low 32
        /// bits of the sender's `upto` (the receiver knows its own
        /// `next_seq`, which the true value trails by far less than 2³²).
        /// Narrow so that it, `ahead` and `retx` share one word and the
        /// frame is no larger than it was without them.
        ack: u32,
        /// How many sequences past `seq` had been sent when this frame was
        /// (saturating): 0 on a first transmission; a retransmission tells
        /// the receiver how far the stream has got.
        ahead: u16,
        /// `true` on retransmissions (timeouts, repairs and post-restart
        /// replays); surfaces in traces as `redelivery` so repaired
        /// deliveries are distinguishable from first transmissions.
        retx: bool,
        /// The inner payload.
        msg: M,
    },
    /// Acknowledgement on its own: every `seq < upto` has been delivered —
    /// and, when `known > 0`, a report of what is missing below
    /// `seen = upto + known`, the first sequence the receiver has no word
    /// of: everything in `upto .. upto + run`, and every clear bit of `held`.
    Ack {
        /// One past the highest in-order sequence delivered.
        upto: u64,
        /// Length of the run of missing sequences that starts at `upto`.
        run: u32,
        /// `seen - upto`: how far past `upto` the receiver knows the stream
        /// to have got, from the frames that reached it.
        known: u32,
        /// The newest `WINDOW` sequences below `seen`: bit `i` is set when
        /// `seen - 1 - i` sits in the reorder buffer, clear when it is
        /// missing (bits that would fall below `upto + run` are unused).
        held: u64,
    },
    /// Failure-detector heartbeat probe. Unsequenced (loss is tolerated; the
    /// next round probes again) and answered immediately with [`Self::Pong`].
    Ping,
    /// Reply to a [`Self::Ping`]; its arrival refreshes the peer's liveness.
    Pong,
}

impl<M: Payload> Payload for SessionMsg<M> {
    fn kind(&self) -> &'static str {
        match self {
            // Data keeps the inner kind so per-kind message counts remain
            // comparable with and without the session layer.
            SessionMsg::Raw(m) => m.kind(),
            SessionMsg::Data { msg, .. } => msg.kind(),
            SessionMsg::Ack { .. } => "session.ack",
            SessionMsg::Ping => "detector.ping",
            SessionMsg::Pong => "detector.pong",
        }
    }

    fn size_hint(&self) -> usize {
        match self {
            SessionMsg::Raw(m) => m.size_hint(),
            SessionMsg::Data { msg, .. } => msg.size_hint() + 14,
            SessionMsg::Ack { .. } => 24,
            SessionMsg::Ping | SessionMsg::Pong => 4,
        }
    }

    fn span(&self) -> Option<u64> {
        match self {
            SessionMsg::Raw(m) => m.span(),
            SessionMsg::Data { msg, .. } => msg.span(),
            SessionMsg::Ack { .. } | SessionMsg::Ping | SessionMsg::Pong => None,
        }
    }

    fn redelivery(&self) -> bool {
        match self {
            SessionMsg::Raw(_) | SessionMsg::Ack { .. } | SessionMsg::Ping | SessionMsg::Pong => {
                false
            }
            SessionMsg::Data { retx, .. } => *retx,
        }
    }

    fn fingerprint_into<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        std::mem::discriminant(self).hash(h);
        match self {
            SessionMsg::Raw(m) => m.fingerprint_into(h),
            SessionMsg::Data {
                seq,
                ack,
                ahead,
                retx,
                msg,
            } => {
                (seq, ack, ahead, retx).hash(h);
                msg.fingerprint_into(h);
            }
            SessionMsg::Ack {
                upto,
                run,
                known,
                held,
            } => (upto, run, known, held).hash(h),
            SessionMsg::Ping | SessionMsg::Pong => {}
        }
    }
}

/// One sent-but-unacknowledged payload. The payload is stable; the rest is
/// a hint, reset when the sender restarts.
#[derive(Clone, Debug)]
struct Unacked<M> {
    msg: M,
    /// When this entry, once it is the oldest, counts as overdue.
    deadline: u64,
    /// Fruitless timer-driven transmissions so far.
    tries: u32,
    /// The latest transmission's place in the stream: `next_seq` at the
    /// time — less one for the first transmission, which is what moved
    /// `next_seq` there and so precedes every repeat sent at the same value.
    /// A frame sent while `next_seq` was larger was sent later, so (FIFO) a
    /// receiver that has seen such a frame and lacks this entry never got
    /// that transmission.
    barrier: u64,
}

/// A set of sequences past a receiver's `next_expected`: a bitmap over a
/// window that slides with the counter, a bit per sequence where the
/// reorder buffer has a payload-sized slot.
#[derive(Clone, Debug, Default)]
struct SeqSet {
    /// Sequence of bit 0 of `words[0]`; a multiple of 64.
    base: u64,
    words: VecDeque<u64>,
}

impl SeqSet {
    /// Is `seq` (at or past `next_expected`, so at or past `base`) in the set?
    fn contains(&self, seq: u64) -> bool {
        let word = ((seq - self.base) / WINDOW) as usize;
        self.words
            .get(word)
            .is_some_and(|w| w >> (seq % WINDOW) & 1 == 1)
    }

    /// Add `seq`, which lies past `next_expected`.
    fn insert(&mut self, seq: u64, next_expected: u64) {
        if self.words.is_empty() {
            self.base = next_expected & !(WINDOW - 1);
        }
        let word = ((seq - self.base) / WINDOW) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (seq % WINDOW);
    }

    /// Take `seq` (at or past `next_expected`) out; `true` if it was in.
    fn remove(&mut self, seq: u64) -> bool {
        let bit = 1 << (seq % WINDOW);
        match self.words.get_mut(((seq - self.base) / WINDOW) as usize) {
            Some(word) if *word & bit != 0 => {
                *word &= !bit;
                true
            }
            _ => false,
        }
    }

    /// Drop the words `next_expected` has left behind (all clear by then).
    fn trim(&mut self, next_expected: u64) {
        while !self.words.is_empty() && self.base + WINDOW <= next_expected {
            self.words.pop_front();
            self.base += WINDOW;
        }
    }
}

/// Both halves of the channel pair to one peer, side by side: a `Data`
/// arrival reads the receive half and (for its piggybacked ack) the send
/// half, a send writes the send half and reads the owed `upto`.
#[derive(Clone, Debug)]
struct Peer<M> {
    /// Sender, stable: next sequence to assign. The outbox holds sequences
    /// `next_seq - outbox.len() .. next_seq`, oldest first.
    next_seq: u64,
    outbox: VecDeque<Unacked<M>>,
    /// A retransmission timer for this channel is outstanding.
    timer_armed: bool,
    /// The oldest entry has timed out and nothing has been acknowledged
    /// since: the peer is, as far as this channel knows, silent (hint).
    silent: bool,
    /// Receiver, stable: every sequence below this has been delivered.
    next_expected: u64,
    /// Receiver: the sequences past `next_expected` that have arrived, which
    /// is what a duplicate is recognized by and what an ack reports held.
    /// An [`Delivery::Ordered`] one waits in `buffer`, and its bit is as
    /// volatile as its slot; an [`Delivery::Unordered`] one was delivered on
    /// arrival, and its bit is as **stable** as the counter and for the
    /// same reason: a retransmission after a crash must still read as a
    /// duplicate.
    arrived: SeqSet,
    /// Receiver, volatile: slot `i` is sequence `next_expected + 1 + i`
    /// (`next_expected` itself is by definition missing), `Some` for a
    /// payload waiting its turn. Empty, or its last slot is occupied.
    buffer: VecDeque<Option<M>>,
    /// Receiver, hint: the peer's `next_seq` as of the latest-sent frame to
    /// arrive (a floor: after a restart `next_expected` is past it).
    seen: u64,
    /// An arrival since the last ack sent to this peer (hint).
    ack_owed: bool,
}

impl<M> Default for Peer<M> {
    fn default() -> Self {
        Peer {
            next_seq: 0,
            outbox: VecDeque::new(),
            timer_armed: false,
            silent: false,
            next_expected: 0,
            arrived: SeqSet::default(),
            buffer: VecDeque::new(),
            seen: 0,
            ack_owed: false,
        }
    }
}

impl<M: Clone> Peer<M> {
    /// Sequence of the oldest outbox entry.
    #[inline]
    fn first_unacked(&self) -> u64 {
        self.next_seq - self.outbox.len() as u64
    }

    /// Transmit outbox entry `seq` now — its first transmission or a
    /// repeat — carrying the ack owed to the peer. That settles the debt
    /// unless there is something to report that a bare `upto` cannot say.
    fn transmit(
        &mut self,
        ctx: &mut Context<'_, SessionMsg<M>>,
        to: ProcId,
        seq: u64,
        retx: bool,
        stats: &mut SessionStats,
    ) {
        if self.ack_owed && self.seen <= self.next_expected {
            self.ack_owed = false;
            stats.acks_piggybacked += 1;
        }
        let (first, sent) = (self.first_unacked(), self.next_seq);
        let entry = &mut self.outbox[(seq - first) as usize];
        entry.deadline = ctx.now().0 + rto(entry.tries);
        entry.barrier = sent - !retx as u64;
        stats.retransmissions += retx as u64;
        let frame = SessionMsg::Data {
            seq,
            ack: self.next_expected as u32,
            ahead: (sent - seq - 1).min(u16::MAX as u64) as u16,
            retx,
            msg: entry.msg.clone(),
        };
        ctx.send(to, frame);
    }

    /// A report named `seq` missing, and the receiver had by then seen a
    /// frame sent when `next_seq` was `seen`. If this entry's latest
    /// transmission was sent before that frame, it is lost: resend it.
    fn repair(
        &mut self,
        ctx: &mut Context<'_, SessionMsg<M>>,
        to: ProcId,
        seq: u64,
        seen: u64,
        stats: &mut SessionStats,
    ) {
        let first = self.first_unacked();
        if seq >= first && seq < self.next_seq && self.outbox[(seq - first) as usize].barrier < seen
        {
            stats.fast_retransmits += 1;
            self.transmit(ctx, to, seq, true, stats);
        }
    }

    /// The standalone ack this receiver would send now.
    fn ack(&self) -> SessionMsg<M> {
        let upto = self.next_expected;
        let known = self.seen.saturating_sub(upto).min(u32::MAX as u64);
        // The missing run at `upto` ends at the first sequence that has
        // arrived, or (none has) at the edge of what is known to have been
        // sent.
        let run = (1..known)
            .find(|i| self.arrived.contains(upto + i))
            .unwrap_or(known);
        let held = window(upto + known, upto + run).fold(0, |bits, (bit, seq)| {
            bits | (self.arrived.contains(seq) as u64) << bit
        });
        SessionMsg::Ack {
            upto,
            run: run as u32,
            known: known as u32,
            held,
        }
    }
}

/// Channel state for `id` in a table indexed by `ProcId`, created on first
/// contact.
#[inline]
fn peer_of<M>(peers: &mut Vec<Peer<M>>, id: ProcId) -> &mut Peer<M> {
    let i = id.index();
    if i >= peers.len() {
        peers.resize_with(i + 1, Peer::default);
    }
    &mut peers[i]
}

/// Failure-detector bookkeeping for one monitored peer.
#[derive(Clone, Copy, Debug)]
struct PeerState {
    /// Time of the last arrival of any kind from this peer.
    last_heard: SimTime,
    /// Currently suspected down.
    suspected: bool,
}

/// Counters kept by one processor's session layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// First transmissions of sequenced payloads.
    pub data_sent: u64,
    /// Retransmitted payloads (timeouts, repairs and post-restart replays).
    pub retransmissions: u64,
    /// Of those, holes a report named, resent without waiting for a timer.
    pub fast_retransmits: u64,
    /// Acks sent as messages of their own.
    pub acks_sent: u64,
    /// Owed acks a `Data` frame carried instead.
    pub acks_piggybacked: u64,
    /// Arrivals discarded as duplicates.
    pub dup_suppressed: u64,
    /// [`Delivery::Ordered`] arrivals that overtook a gap and waited in the
    /// reorder buffer for it to fill.
    pub held: u64,
    /// [`Delivery::Unordered`] arrivals that overtook a gap and were
    /// delivered at once.
    pub early_delivered: u64,
    /// Payloads abandoned after `max_retries` fruitless rounds.
    pub aborted: u64,
    /// Detector transitions into suspicion (peer went silent).
    pub suspects: u64,
    /// Detector transitions out of suspicion (suspected peer heard again).
    pub alives: u64,
}

impl SessionStats {
    /// Accumulate another processor's counters (cluster-wide totals).
    pub fn merge(&mut self, other: &SessionStats) {
        // Exhaustive, so a counter added to the struct cannot be left out.
        let SessionStats {
            data_sent,
            retransmissions,
            fast_retransmits,
            acks_sent,
            acks_piggybacked,
            dup_suppressed,
            held,
            early_delivered,
            aborted,
            suspects,
            alives,
        } = *other;
        self.data_sent += data_sent;
        self.retransmissions += retransmissions;
        self.fast_retransmits += fast_retransmits;
        self.acks_sent += acks_sent;
        self.acks_piggybacked += acks_piggybacked;
        self.dup_suppressed += dup_suppressed;
        self.held += held;
        self.early_delivered += early_delivered;
        self.aborted += aborted;
        self.suspects += suspects;
        self.alives += alives;
    }
}

/// Wraps any [`Process`], giving it exactly-once channels over a lossy
/// network, FIFO for every payload that asks for order. Derefs to the inner
/// process so existing inspection code (checkers, metrics readers) works
/// unchanged.
pub struct SessionProc<P: Process> {
    inner: P,
    cfg: SessionConfig,
    /// Channel state per peer, indexed by `ProcId`; grows to the highest
    /// peer talked to. Untouched while the session is disabled.
    peers: Vec<Peer<P::Msg>>,
    /// Payloads awaiting acknowledgement, over every peer.
    unacked: usize,
    /// Peers that came to owe an ack since the last flush (a peer whose debt
    /// a frame has since carried may still be listed; the flag decides).
    owed: Vec<ProcId>,
    /// The flush timer is outstanding.
    flush_armed: bool,
    stats: SessionStats,
    /// Peers the failure detector monitors (everyone this processor has
    /// exchanged traffic with). Empty while the detector is disabled.
    det_peers: BTreeMap<ProcId, PeerState>,
    /// A detector round timer is outstanding.
    det_armed: bool,
    /// Consecutive detector rounds with no inner traffic and nothing
    /// unacknowledged; reaching [`IDLE_ROUNDS`] makes the detector dormant.
    det_idle: u32,
    /// Inner traffic (data sent or delivered) since the last detector round.
    det_activity: bool,
    /// Reusable buffer for the inner action's effects, so the per-action
    /// re-dispatch in [`SessionProc::with_inner`] does not allocate. Taken
    /// (`mem::take`) for the duration of an action; a re-entrant action
    /// (e.g. `on_peer_change` fired from within a round) simply starts from
    /// a fresh empty vector and the outermost restore wins.
    effects_scratch: Vec<Effect<P::Msg>>,
}

impl<P: Process> SessionProc<P> {
    /// Wrap `inner` with the given session configuration.
    pub fn new(inner: P, cfg: SessionConfig) -> Self {
        SessionProc {
            inner,
            cfg,
            peers: Vec::new(),
            unacked: 0,
            owed: Vec::new(),
            flush_armed: false,
            stats: SessionStats::default(),
            det_peers: BTreeMap::new(),
            det_armed: false,
            det_idle: 0,
            det_activity: false,
            effects_scratch: Vec::new(),
        }
    }

    /// Wrap `inner` with the session layer switched off (pure pass-through).
    pub fn passthrough(inner: P) -> Self {
        SessionProc::new(inner, SessionConfig::default())
    }

    /// The wrapped process.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// This processor's session counters.
    pub fn session_stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Total payloads currently awaiting acknowledgement.
    pub fn unacked(&self) -> usize {
        self.unacked
    }

    /// Peers this processor's failure detector currently suspects.
    pub fn suspected_peers(&self) -> Vec<ProcId> {
        self.det_peers
            .iter()
            .filter(|(_, st)| st.suspected)
            .map(|(p, _)| *p)
            .collect()
    }

    /// Run `f` against the inner process, then translate its effects:
    /// sends go through the session send path, timers pass through (their
    /// tokens must stay below [`SESSION_TIMER_BIT`]).
    fn with_inner(
        &mut self,
        ctx: &mut Context<'_, SessionMsg<P::Msg>>,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>),
    ) {
        let mut inner_effects = std::mem::take(&mut self.effects_scratch);
        debug_assert!(inner_effects.is_empty());
        {
            let mut inner_ctx = Context {
                me: ctx.me,
                now: ctx.now,
                effects: &mut inner_effects,
                rng: &mut *ctx.rng,
                // The inner action runs on behalf of the same operation.
                span: ctx.span,
            };
            f(&mut self.inner, &mut inner_ctx);
        }
        for effect in inner_effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => self.send_out(ctx, to, msg),
                Effect::Timer { delay, token } => {
                    debug_assert!(
                        token & SESSION_TIMER_BIT == 0,
                        "inner timer token collides with the session bit"
                    );
                    ctx.set_timer(delay, token);
                }
                Effect::Mark {
                    event,
                    kind,
                    detail,
                } => ctx.mark(event, kind, detail),
            }
        }
        self.effects_scratch = inner_effects;
    }

    /// Record traffic with a remote peer: start monitoring it, refresh its
    /// liveness on arrivals, clear suspicion if it was suspected, and (for
    /// inner traffic) wake a dormant detector.
    ///
    /// `arrival` — the peer was *heard from* (refreshes `last_heard`);
    /// `inner` — the traffic is application traffic rather than detector
    /// heartbeats (counts against dormancy and re-arms the round timer).
    fn det_note(
        &mut self,
        ctx: &mut Context<'_, SessionMsg<P::Msg>>,
        peer: ProcId,
        arrival: bool,
        inner: bool,
    ) {
        if !self.cfg.detector.enabled || peer.is_external() || peer == ctx.me() {
            return;
        }
        let now = ctx.now();
        let st = self.det_peers.entry(peer).or_insert(PeerState {
            last_heard: now,
            suspected: false,
        });
        if arrival {
            st.last_heard = now;
            if st.suspected {
                st.suspected = false;
                self.stats.alives += 1;
                ctx.mark(
                    TraceEvent::Alive,
                    "detector.transition",
                    format!("{peer} heard from again"),
                );
                self.with_inner(ctx, |p, c| p.on_peer_change(c, peer, true));
            }
        }
        if inner {
            self.det_activity = true;
            self.det_arm(ctx);
        }
    }

    /// Arm the detector round timer if it is not already outstanding.
    fn det_arm(&mut self, ctx: &mut Context<'_, SessionMsg<P::Msg>>) {
        if !self.det_armed {
            self.det_armed = true;
            self.det_idle = 0;
            ctx.set_timer(PING_INTERVAL, DETECTOR_TIMER);
        }
    }

    /// One detector round: suspect peers that have gone silent, ping every
    /// monitored peer, then re-arm — or go dormant after [`IDLE_ROUNDS`]
    /// rounds with no inner traffic and empty outboxes.
    fn det_round(&mut self, ctx: &mut Context<'_, SessionMsg<P::Msg>>) {
        let det = self.cfg.detector;
        let now = ctx.now();
        let threshold = PING_INTERVAL * det.suspect_after as u64;
        let mut newly_suspect = Vec::new();
        for (&p, st) in self.det_peers.iter_mut() {
            if !st.suspected && now.0.saturating_sub(st.last_heard.0) > threshold {
                st.suspected = true;
                newly_suspect.push(p);
            }
        }
        for p in newly_suspect {
            self.stats.suspects += 1;
            ctx.mark(
                TraceEvent::Suspect,
                "detector.transition",
                format!("{p} silent past threshold"),
            );
            self.with_inner(ctx, |pr, c| pr.on_peer_change(c, p, false));
        }
        for &p in self.det_peers.keys() {
            ctx.send(p, SessionMsg::Ping);
        }
        let idle = !self.det_activity && self.unacked == 0;
        self.det_idle = if idle { self.det_idle + 1 } else { 0 };
        self.det_activity = false;
        if self.det_idle >= IDLE_ROUNDS {
            // Dormant: quiescence can now drain. The next inner send or
            // arrival re-arms the round timer. (Nothing nested can have
            // armed one meanwhile — activity would have made `idle` false.)
            self.det_armed = false;
        } else {
            self.det_armed = true;
            ctx.set_timer(PING_INTERVAL, DETECTOR_TIMER);
        }
    }

    fn send_out(&mut self, ctx: &mut Context<'_, SessionMsg<P::Msg>>, to: ProcId, msg: P::Msg) {
        // Outbound application traffic: monitor the peer and keep the
        // detector awake (no liveness refresh — we only *hear* arrivals).
        self.det_note(ctx, to, false, true);
        // Local hand-offs never cross the network and client replies leave
        // the system; neither needs (or gets) session framing.
        if !self.cfg.enabled || to.is_external() || to == ctx.me() {
            ctx.send(to, SessionMsg::Raw(msg));
            return;
        }
        let peer = peer_of(&mut self.peers, to);
        let seq = peer.next_seq;
        peer.next_seq += 1;
        peer.outbox.push_back(Unacked {
            msg,
            deadline: 0,
            tries: 0,
            barrier: 0,
        });
        peer.transmit(ctx, to, seq, false, &mut self.stats);
        if !peer.timer_armed {
            peer.timer_armed = true;
            ctx.set_timer(BASE_RTO, session_token(to));
        }
        self.unacked += 1;
        self.stats.data_sent += 1;
    }

    /// Send `to` its ack now, settling whatever was owed.
    fn send_ack(&mut self, ctx: &mut Context<'_, SessionMsg<P::Msg>>, to: ProcId) {
        let peer = &mut self.peers[to.index()];
        peer.ack_owed = false;
        self.stats.acks_sent += 1;
        ctx.send(to, peer.ack());
    }

    /// Note that `to` is owed an ack; the flush timer (armed here if it is
    /// not running) sends it unless a `Data` frame carries it first.
    fn owe_ack(&mut self, ctx: &mut Context<'_, SessionMsg<P::Msg>>, to: ProcId) {
        let peer = &mut self.peers[to.index()];
        if peer.ack_owed {
            return;
        }
        peer.ack_owed = true;
        self.owed.push(to);
        if !self.flush_armed {
            self.flush_armed = true;
            ctx.set_timer(ACK_DELAY, FLUSH_TIMER);
        }
    }

    fn on_data(
        &mut self,
        ctx: &mut Context<'_, SessionMsg<P::Msg>>,
        from: ProcId,
        seq: u64,
        ahead: u16,
        retx: bool,
        msg: P::Msg,
    ) {
        let peer = &mut self.peers[from.index()];
        // What this frame says has been sent, and what was known before it.
        let (known, known_before) = (seq + 1 + ahead as u64, peer.seen);
        peer.seen = known.max(known_before);
        if seq == peer.next_expected {
            // Owed before the inner process runs, so that its reply to
            // `from` carries the ack. Each delivery ends the channel borrow
            // before the inner process (which may send on it) runs.
            peer.next_expected += 1;
            self.owe_ack(ctx, from);
            let mut next = Some(msg);
            loop {
                if let Some(m) = next {
                    self.with_inner(ctx, |p, c| p.on_message(c, from, m));
                }
                let peer = &mut self.peers[from.index()];
                // The front slot is the new `next_expected`: pop it either
                // way — a payload to deliver, one delivered early (step
                // over it), or the next hole.
                next = peer.buffer.pop_front().flatten();
                if !peer.arrived.remove(peer.next_expected) {
                    peer.arrived.trim(peer.next_expected);
                    break;
                }
                peer.next_expected += 1;
            }
        } else {
            if seq < peer.next_expected || peer.arrived.contains(seq) {
                self.stats.dup_suppressed += 1;
                // A retransmission we did not need: the sender is missing an
                // ack. (A copy the network made tells it nothing.)
                if retx {
                    self.send_ack(ctx, from);
                }
                return;
            }
            peer.arrived.insert(seq, peer.next_expected);
            match msg.delivery() {
                Delivery::Ordered => {
                    self.stats.held += 1;
                    let slot = (seq - peer.next_expected - 1) as usize;
                    if slot >= peer.buffer.len() {
                        peer.buffer.resize_with(slot + 1, || None);
                    }
                    peer.buffer[slot] = Some(msg);
                    self.owe_ack(ctx, from);
                }
                // Nothing sent before it on this channel matters to it: the
                // inner process has it now.
                Delivery::Unordered => {
                    self.stats.early_delivered += 1;
                    self.owe_ack(ctx, from);
                    self.with_inner(ctx, |p, c| p.on_message(c, from, msg));
                }
            }
        }
        // Sequences this frame is the first word of, other than its own,
        // and not delivered by now: a hole the sender must hear of at once.
        let peer = &self.peers[from.index()];
        let news = known_before.max(peer.next_expected);
        if known > news + (seq >= news) as u64 {
            self.send_ack(ctx, from);
        }
    }

    /// An ack from `from`, standalone or piggybacked (`known == 0`). Stale
    /// and repeated acks are no-ops: `upto` only ever pops, and a missing
    /// entry is resent only on evidence newer than its latest transmission.
    /// What a report says is held is not recorded at all, let alone taken
    /// as delivered: the peer's buffer is volatile.
    fn on_ack(
        &mut self,
        ctx: &mut Context<'_, SessionMsg<P::Msg>>,
        from: ProcId,
        upto: u64,
        run: u32,
        known: u32,
        held: u64,
    ) {
        let peer = &mut self.peers[from.index()];
        let acked = (upto.saturating_sub(peer.first_unacked()) as usize).min(peer.outbox.len());
        peer.outbox.drain(..acked);
        self.unacked -= acked;
        if peer.silent {
            // Back-off is for a peer that says nothing. This one has just
            // spoken, so the oldest entry — still the one that timed out, or
            // whatever this ack uncovered behind it — goes again as soon as
            // it is a base timeout old, not when the backed-off timer wakes.
            peer.silent = acked == 0;
            let now = ctx.now().0;
            if let Some(front) = peer.outbox.front() {
                if now + rto(front.tries) >= front.deadline + BASE_RTO {
                    let seq = peer.first_unacked();
                    peer.transmit(ctx, from, seq, true, &mut self.stats);
                }
            }
        }
        if known == 0 {
            return;
        }
        let (seen, run_end) = (upto + known as u64, upto + run as u64);
        let in_window = window(seen, run_end).filter(|(bit, _)| (held >> bit) & 1 == 0);
        for seq in (upto..run_end).chain(in_window.map(|(_, seq)| seq)) {
            peer.repair(ctx, from, seq, seen, &mut self.stats);
        }
    }

    /// The channel timer fired. It follows the oldest unacked entry: if that
    /// is overdue, resend it — alone — and back off; then sleep until the
    /// (possibly new) front's deadline.
    fn on_channel_timer(&mut self, ctx: &mut Context<'_, SessionMsg<P::Msg>>, dst: ProcId) {
        let now = ctx.now().0;
        let max_retries = self.cfg.max_retries;
        let peer = &mut self.peers[dst.index()];
        let Some(front) = peer.outbox.front_mut() else {
            // Everything acked since the timer was armed; stand down (there
            // is no cancel API — timers self-disarm by firing into an empty
            // outbox).
            peer.timer_armed = false;
            return;
        };
        if front.deadline <= now {
            front.tries += 1;
            if front.tries > max_retries {
                self.stats.aborted += peer.outbox.len() as u64;
                self.unacked -= peer.outbox.len();
                peer.outbox.clear();
                peer.timer_armed = false;
                peer.silent = false;
                return;
            }
            peer.silent = true;
            let seq = peer.first_unacked();
            peer.transmit(ctx, dst, seq, true, &mut self.stats);
        }
        let wake = peer.outbox[0].deadline;
        ctx.set_timer(wake - now, session_token(dst));
    }

    /// The flush timer fired: send every ack still owed.
    fn flush_acks(&mut self, ctx: &mut Context<'_, SessionMsg<P::Msg>>) {
        self.flush_armed = false;
        let mut owed = std::mem::take(&mut self.owed);
        for to in owed.drain(..) {
            if self.peers[to.index()].ack_owed {
                self.send_ack(ctx, to);
            }
        }
        self.owed = owed;
    }

    /// The session's and detector's counters, appended after the inner
    /// process's (only the enabled layers report, so a pass-through wrapper
    /// is invisible in the metrics too).
    fn own_metrics(&self, m: &mut Vec<(&'static str, u64)>) {
        if self.cfg.enabled {
            m.push(("session.data_sent", self.stats.data_sent));
            m.push(("session.retransmissions", self.stats.retransmissions));
            m.push(("session.fast_retransmits", self.stats.fast_retransmits));
            m.push(("session.acks_sent", self.stats.acks_sent));
            m.push(("session.acks_piggybacked", self.stats.acks_piggybacked));
            m.push(("session.dup_suppressed", self.stats.dup_suppressed));
            m.push(("session.held", self.stats.held));
            m.push(("session.early", self.stats.early_delivered));
            m.push(("session.aborted", self.stats.aborted));
        }
        if self.cfg.detector.enabled {
            m.push(("detector.suspects", self.stats.suspects));
            m.push(("detector.alives", self.stats.alives));
        }
    }
}

impl<P: Process> Deref for SessionProc<P> {
    type Target = P;
    fn deref(&self) -> &P {
        &self.inner
    }
}

impl<P: Process> DerefMut for SessionProc<P> {
    fn deref_mut(&mut self) -> &mut P {
        &mut self.inner
    }
}

impl<P: Process> Process for SessionProc<P> {
    type Msg = SessionMsg<P::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.with_inner(ctx, |p, c| p.on_start(c));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: ProcId, msg: Self::Msg) {
        // Any arrival proves the peer alive; only application traffic keeps
        // the detector out of dormancy (heartbeats must not feed themselves).
        let inner = !matches!(msg, SessionMsg::Ping | SessionMsg::Pong);
        self.det_note(ctx, from, true, inner);
        match msg {
            SessionMsg::Raw(m) => self.with_inner(ctx, |p, c| p.on_message(c, from, m)),
            SessionMsg::Data {
                seq,
                ack,
                ahead,
                retx,
                msg,
            } => {
                let sent = peer_of(&mut self.peers, from).next_seq;
                let upto = sent - (sent as u32).wrapping_sub(ack) as u64;
                self.on_ack(ctx, from, upto, 0, 0, 0);
                self.on_data(ctx, from, seq, ahead, retx, msg);
            }
            SessionMsg::Ack {
                upto,
                run,
                known,
                held,
            } => self.on_ack(ctx, from, upto, run, known, held),
            SessionMsg::Ping => ctx.send(from, SessionMsg::Pong),
            SessionMsg::Pong => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, token: u64) {
        if token & SESSION_TIMER_BIT == 0 {
            self.with_inner(ctx, |p, c| p.on_timer(c, token));
        } else if token == DETECTOR_TIMER {
            // `det_armed` stays true for the duration of the round so that
            // sends made by `on_peer_change` handlers inside it cannot arm a
            // second round timer; the round itself decides at the end
            // whether to re-arm or go dormant.
            self.det_round(ctx);
        } else if token == FLUSH_TIMER {
            self.flush_acks(ctx);
        } else {
            self.on_channel_timer(ctx, ProcId((token & !SESSION_TIMER_BIT) as u32));
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        // The crash destroyed any outstanding detector round timer. Restart
        // monitoring from a clean slate: liveness opinions formed before the
        // crash are stale (and peers will re-prove themselves as the
        // retransmitted traffic below flows).
        if self.cfg.detector.enabled {
            self.det_armed = false;
            self.det_idle = 0;
            self.det_activity = false;
            let now = ctx.now();
            for st in self.det_peers.values_mut() {
                st.last_heard = now;
                st.suspected = false;
            }
            if !self.det_peers.is_empty() {
                self.det_arm(ctx);
            }
        }
        // Hints go. The delivery counters are stable — which is what makes
        // a payload the peer already consumed recognizable as a duplicate —
        // so say where they stand to every peer heard from: the acks owed
        // died with the crash, and a peer that has backed off its probes
        // learns that it is worth trying again. The crash also destroyed
        // every armed timer: retransmit anything outstanding and re-arm.
        self.owed.clear();
        self.flush_armed = false;
        for (i, peer) in self.peers.iter_mut().enumerate() {
            let dst = ProcId(i as u32);
            // What was buffered has not arrived after all; what was
            // delivered early stays delivered.
            for (slot, held) in peer.buffer.drain(..).enumerate() {
                if held.is_some() {
                    peer.arrived.remove(peer.next_expected + 1 + slot as u64);
                }
            }
            peer.seen = 0;
            peer.ack_owed = false;
            peer.silent = false;
            if peer.next_expected > 0 {
                self.stats.acks_sent += 1;
                ctx.send(dst, peer.ack());
            }
            peer.timer_armed = !peer.outbox.is_empty();
            if peer.timer_armed {
                peer.outbox.iter_mut().for_each(|e| e.tries = 0);
                for seq in peer.first_unacked()..peer.next_seq {
                    peer.transmit(ctx, dst, seq, true, &mut self.stats);
                }
                ctx.set_timer(BASE_RTO, session_token(dst));
            }
        }
        self.with_inner(ctx, |p, c| p.on_restart(c));
    }

    fn on_peer_change(&mut self, ctx: &mut Context<'_, Self::Msg>, peer: ProcId, up: bool) {
        // Forward externally-sourced hints (e.g. when this session layer is
        // itself wrapped); the built-in detector calls the inner process
        // directly through `det_note`/`det_round`.
        self.with_inner(ctx, |p, c| p.on_peer_change(c, peer, up));
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        let mut m = self.inner.metrics();
        self.own_metrics(&mut m);
        m
    }

    fn metrics_into(&self, out: &mut Vec<(&'static str, u64)>) {
        self.inner.metrics_into(out);
        self.own_metrics(out);
    }

    /// The inner process's answer while this layer shows no counters of its
    /// own; with them on, the trace diffs snapshots instead.
    fn take_moved(&mut self, out: Option<&mut Vec<(&'static str, u64)>>) -> bool {
        if self.cfg.enabled || self.cfg.detector.enabled {
            return false;
        }
        self.inner.take_moved(out)
    }

    fn gauges(&self, now: crate::SimTime) -> Vec<(&'static str, u64)> {
        let mut g = self.inner.gauges(now);
        if self.cfg.enabled {
            // Retransmit-window occupancy: payloads sent but not yet acked
            // across every peer channel. A sustained climb means a peer is
            // unreachable (or the storm rule is about to fire).
            g.push(("session.unacked", self.unacked() as u64));
        }
        g
    }

    fn fingerprint(&self) -> Option<u64> {
        // With the session layer (or its detector) active, retransmission
        // state is clock-driven (RTOs, heartbeat deadlines) and cannot be
        // digested faithfully without hashing time; opt out. The disabled
        // wrapper is a pure pass-through, so the inner digest stands.
        if self.cfg.enabled || self.cfg.detector.enabled {
            return None;
        }
        self.inner.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrashEvent, FaultPlan, SimConfig, SimTime, Simulation};

    #[derive(Clone, Debug)]
    enum Msg {
        Num(u32),
    }

    impl Payload for Msg {
        fn kind(&self) -> &'static str {
            "num"
        }
    }

    /// P0 streams `count` numbered messages to P1; P1 records arrivals.
    struct Streamer {
        count: u32,
        seen: Vec<u32>,
    }

    impl Process for Streamer {
        type Msg = Msg;
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if ctx.me() == ProcId(0) {
                for n in 0..self.count {
                    ctx.send(ProcId(1), Msg::Num(n));
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: ProcId, msg: Msg) {
            let Msg::Num(n) = msg;
            self.seen.push(n);
        }
    }

    fn streamers(count: u32) -> Vec<SessionProc<Streamer>> {
        (0..2)
            .map(|_| {
                SessionProc::new(
                    Streamer {
                        count,
                        seen: vec![],
                    },
                    SessionConfig::reliable(),
                )
            })
            .collect()
    }

    #[test]
    fn exactly_once_in_order_over_drops() {
        for seed in 0..8 {
            let mut cfg = SimConfig::jittery(seed, 2, 25);
            cfg.faults = FaultPlan::lossy(0.25);
            let mut sim = Simulation::new(cfg, streamers(100));
            sim.run();
            let p1 = sim.proc(ProcId(1)).inner();
            assert_eq!(p1.seen, (0..100).collect::<Vec<_>>(), "seed {seed}");
            assert!(
                sim.stats().faults().dropped > 0,
                "seed {seed}: faults were injected"
            );
            assert!(
                sim.proc(ProcId(0)).session_stats().retransmissions > 0,
                "seed {seed}: losses were repaired by retransmission"
            );
        }
    }

    /// P0 sends P1 one payload per tick; P1 records arrivals.
    struct Ticker {
        count: u32,
        sent: u32,
        seen: Vec<u32>,
    }

    impl Process for Ticker {
        type Msg = Msg;
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if ctx.me() == ProcId(0) {
                ctx.set_timer(1, 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _token: u64) {
            ctx.send(ProcId(1), Msg::Num(self.sent));
            self.sent += 1;
            if self.sent < self.count {
                ctx.set_timer(1, 0);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: ProcId, msg: Msg) {
            let Msg::Num(n) = msg;
            self.seen.push(n);
        }
    }

    /// The bug this layer had: with the retransmission timer armed at the
    /// channel's first send and an ack per payload, a steady stream over a
    /// perfect network cost 2.8 messages per payload (414 retransmissions
    /// and 1 414 acks for these 1 000). A reliable network owes nothing but
    /// the occasional ack.
    #[test]
    fn a_loss_free_stream_is_never_retransmitted() {
        let procs = (0..2)
            .map(|_| {
                let ticker = Ticker {
                    count: 1000,
                    sent: 0,
                    seen: vec![],
                };
                SessionProc::new(ticker, SessionConfig::reliable())
            })
            .collect();
        let mut sim = Simulation::new(SimConfig::jittery(1, 2, 25), procs);
        sim.run();
        assert_eq!(
            sim.proc(ProcId(1)).inner().seen,
            (0..1000).collect::<Vec<_>>()
        );
        assert_eq!(sim.proc(ProcId(0)).session_stats().retransmissions, 0);
        assert_eq!(sim.proc(ProcId(0)).unacked(), 0);
        let total = sim.stats().total_messages();
        assert!(total <= 1150, "{total} messages for 1000 payloads");
    }

    #[test]
    fn exactly_once_over_duplication() {
        for seed in 0..8 {
            let mut cfg = SimConfig::jittery(seed, 2, 25);
            cfg.faults = FaultPlan::none().with_dup(0.3);
            let mut sim = Simulation::new(cfg, streamers(100));
            sim.run();
            let p1 = sim.proc(ProcId(1)).inner();
            assert_eq!(p1.seen, (0..100).collect::<Vec<_>>(), "seed {seed}");
            assert!(sim.stats().faults().duplicated > 0, "seed {seed}");
            assert!(
                sim.proc(ProcId(1)).session_stats().dup_suppressed > 0,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn exactly_once_over_drops_and_dups() {
        for seed in 0..8 {
            let mut cfg = SimConfig::jittery(seed, 2, 25);
            cfg.faults = FaultPlan::lossy(0.15).with_dup(0.15);
            let mut sim = Simulation::new(cfg, streamers(100));
            sim.run();
            let p1 = sim.proc(ProcId(1)).inner();
            assert_eq!(p1.seen, (0..100).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn receiver_crash_does_not_double_deliver() {
        // P1 crashes mid-stream and restarts. Its delivery counter is
        // stable, so retransmitted payloads it already consumed must be
        // suppressed, and payloads lost in flight must be redelivered:
        // exactly-once end to end.
        for seed in 0..8 {
            let mut cfg = SimConfig::jittery(seed, 2, 25);
            cfg.faults = FaultPlan::none().with_crash(CrashEvent {
                proc: ProcId(1),
                at: SimTime(40),
                restart_at: Some(SimTime(400)),
            });
            let mut sim = Simulation::new(cfg, streamers(50));
            sim.run();
            assert!(sim.stats().faults().crashes == 1, "seed {seed}");
            let p1 = sim.proc(ProcId(1)).inner();
            assert_eq!(p1.seen, (0..50).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn passthrough_preserves_message_stats() {
        // Session off, no faults: per-kind counts equal an unwrapped run.
        let raw = {
            let procs = (0..2)
                .map(|_| Streamer {
                    count: 40,
                    seen: vec![],
                })
                .collect();
            let mut sim = Simulation::new(SimConfig::seeded(9), procs);
            sim.run();
            sim.stats().kind("num")
        };
        let wrapped = {
            let procs = (0..2)
                .map(|_| {
                    SessionProc::passthrough(Streamer {
                        count: 40,
                        seen: vec![],
                    })
                })
                .collect();
            let mut sim = Simulation::new(SimConfig::seeded(9), procs);
            sim.run();
            sim.stats().kind("num")
        };
        assert_eq!(raw, wrapped);
    }

    #[test]
    fn retry_exhaustion_gives_up() {
        // A permanent partition: the sender must eventually abort rather
        // than retransmit forever.
        let mut cfg = SimConfig::seeded(3);
        cfg.faults = FaultPlan::none().with_partition(crate::Partition {
            start: SimTime(0),
            end: SimTime(u64::MAX),
            side_a: vec![ProcId(0)],
            side_b: vec![ProcId(1)],
        });
        let mut sim = Simulation::new(
            cfg,
            (0..2)
                .map(|_| {
                    SessionProc::new(
                        Streamer {
                            count: 5,
                            seen: vec![],
                        },
                        SessionConfig {
                            max_retries: 6,
                            ..SessionConfig::reliable()
                        },
                    )
                })
                .collect(),
        );
        sim.run();
        assert_eq!(sim.proc(ProcId(0)).session_stats().aborted, 5);
        assert_eq!(sim.proc(ProcId(0)).unacked(), 0);
        assert!(sim.proc(ProcId(1)).inner().seen.is_empty());
        // The backoff is bounded: only the oldest entry is probed while
        // nothing answers, `max_retries` times, and no entry is ever resent
        // more often than that before the channel gives up.
        let retx = sim.proc(ProcId(0)).session_stats().retransmissions;
        assert!(retx > 0, "partition forced retransmissions");
        assert!(
            retx <= 6 * 5,
            "retransmissions bounded by max_retries: {retx}"
        );
    }

    /// An inner process that records detector hints.
    struct PeerWatcher {
        count: u32,
        seen: Vec<u32>,
        transitions: Vec<(ProcId, bool)>,
    }

    impl Process for PeerWatcher {
        type Msg = Msg;
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if ctx.me() == ProcId(0) {
                for n in 0..self.count {
                    ctx.send(ProcId(1), Msg::Num(n));
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: ProcId, msg: Msg) {
            let Msg::Num(n) = msg;
            self.seen.push(n);
        }
        fn on_peer_change(&mut self, _ctx: &mut Context<'_, Msg>, peer: ProcId, up: bool) {
            self.transitions.push((peer, up));
        }
    }

    fn watchers(count: u32, det: DetectorConfig) -> Vec<SessionProc<PeerWatcher>> {
        (0..2)
            .map(|_| {
                SessionProc::new(
                    PeerWatcher {
                        count,
                        seen: vec![],
                        transitions: vec![],
                    },
                    SessionConfig::reliable().with_detector(det),
                )
            })
            .collect()
    }

    #[test]
    fn detector_suspects_crashed_peer_and_clears_on_restart() {
        let det = DetectorConfig::on();
        // P1 goes down with part of the stream still in flight: the unacked
        // outbox is what keeps P0's detector from going dormant (it would,
        // after `IDLE_ROUNDS` quiet rounds) before the suspicion threshold —
        // which the outage outlasts three times over.
        let mut cfg = SimConfig::jittery(11, 2, 5);
        let threshold = PING_INTERVAL * u64::from(det.suspect_after);
        cfg.faults = FaultPlan::none().with_crash(CrashEvent {
            proc: ProcId(1),
            at: SimTime(3),
            restart_at: Some(SimTime(3 * threshold)),
        });
        let mut sim = Simulation::new(cfg, watchers(40, det));
        sim.run();
        let p0 = sim.proc(ProcId(0));
        // All data eventually delivered despite the crash…
        assert_eq!(
            sim.proc(ProcId(1)).inner().seen,
            (0..40).collect::<Vec<_>>()
        );
        // …and the detector saw the outage: suspect while down, alive after
        // the restarted peer was heard from again.
        assert!(p0.session_stats().suspects >= 1, "P1 was suspected");
        assert!(p0.session_stats().alives >= 1, "P1 was rehabilitated");
        let t = &p0.inner().transitions;
        assert!(
            t.contains(&(ProcId(1), false)),
            "down hint delivered: {t:?}"
        );
        assert!(t.contains(&(ProcId(1), true)), "up hint delivered: {t:?}");
        assert!(p0.suspected_peers().is_empty(), "no residual suspicion");
    }

    #[test]
    fn detector_goes_dormant_so_quiescence_terminates() {
        // A clean run with the detector on must still quiesce (bounded
        // events), and must end with no peer suspected.
        let mut sim = Simulation::new(
            SimConfig::jittery(5, 2, 10),
            watchers(30, DetectorConfig::on()),
        );
        sim.run();
        assert_eq!(
            sim.proc(ProcId(1)).inner().seen,
            (0..30).collect::<Vec<_>>()
        );
        for p in [ProcId(0), ProcId(1)] {
            assert!(sim.proc(p).suspected_peers().is_empty());
            assert!(sim.proc(p).inner().transitions.is_empty());
        }
    }

    #[test]
    fn detector_off_is_byte_identical() {
        // Same workload, detector off vs. a detector-free SessionConfig:
        // identical per-kind message statistics and virtual end times.
        let run = |cfg: SessionConfig| {
            let procs = (0..2)
                .map(|_| {
                    SessionProc::new(
                        Streamer {
                            count: 60,
                            seen: vec![],
                        },
                        cfg,
                    )
                })
                .collect();
            let mut sim = Simulation::new(SimConfig::jittery(21, 2, 25), procs);
            sim.run();
            (sim.now(), sim.stats().total_messages())
        };
        assert_eq!(run(SessionConfig::reliable()), {
            let mut cfg = SessionConfig::reliable();
            cfg.detector = DetectorConfig {
                enabled: false,
                suspect_after: 1,
            };
            run(cfg)
        });
    }
}

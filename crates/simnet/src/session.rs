//! Reliable-delivery session layer.
//!
//! The dB-tree protocols assume the network delivers every message exactly
//! once and in FIFO order per channel (§4 of the paper). A [`FaultPlan`]
//! (drops, duplicates, partitions, crashes) breaks that assumption at the
//! physical layer; [`SessionProc`] restores it end-to-end, so every protocol
//! runs unchanged over a lossy network.
//!
//! The mechanism is classic go-back-N ARQ:
//!
//! * each remote message gets a per-`(src, dst)` sequence number and is held
//!   in an outbox until acknowledged;
//! * receivers deliver in sequence order, buffer out-of-order arrivals,
//!   suppress duplicates, and answer every data message with a cumulative
//!   ack;
//! * senders retransmit the whole outbox on a retransmission timeout, with
//!   exponential backoff.
//!
//! **Stability model.** The paper's §1.1 architecture gives every processor a
//! *stable* queue manager (backed by recoverable storage) in front of
//! volatile node copies. We model crash/restart the same way: the process
//! object — including the session outbox and the receiver's delivery
//! counters — survives a crash, while everything in flight (deliveries,
//! armed timers, out-of-order buffers) is lost. On restart the session
//! retransmits its outbox and re-arms its timers, so exactly-once delivery
//! holds across crashes too.
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
use crate::{Payload, ProcId, Process, SimTime};

/// High bit of the timer-token space, reserved for session retransmission
/// timers. Inner processes must keep their own tokens below this bit.
pub const SESSION_TIMER_BIT: u64 = 1 << 63;

/// Timer token of the failure detector's periodic round. Lives in the
/// session-reserved token space; distinguishable from per-channel
/// retransmission tokens, which only use the low 32 bits.
pub const DETECTOR_TIMER: u64 = SESSION_TIMER_BIT | (1 << 62);

#[inline]
fn session_token(dst: ProcId) -> u64 {
    SESSION_TIMER_BIT | dst.0 as u64
}

/// Consecutive rounds with no inner traffic (and empty outboxes) before the
/// detector goes dormant. Dormancy is what lets quiescence detection
/// terminate; the next inner send or arrival re-arms the round timer.
const IDLE_ROUNDS: u32 = 2;
/// Initial retransmission timeout, in ticks: comfortably more than one
/// round trip under every latency model in use.
const BASE_RTO: u64 = 50;
/// Backoff ceiling for the retransmission timeout.
const MAX_RTO: u64 = 2000;

/// Tuning knobs for the heartbeat failure detector.
///
/// Thresholds are in ticks / detector rounds. A peer is suspected when it has
/// been silent (no arrival of any kind) for longer than
/// `ping_interval * suspect_after` ticks at a round boundary, so detection
/// latency is between `suspect_after` and `suspect_after + 1` rounds.
#[derive(Clone, Copy, Debug)]
pub struct DetectorConfig {
    /// Master switch. Off (the default) = no timers, no pings, no RNG draws:
    /// runs are byte-identical to a detector-free build.
    pub enabled: bool,
    /// Ticks between detector rounds (each round pings every monitored peer).
    pub ping_interval: u64,
    /// Rounds of silence before a peer becomes suspect.
    pub suspect_after: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            enabled: false,
            ping_interval: 100,
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
        /// `true` on retransmissions (timeouts and post-restart replays);
        /// surfaces in traces as `redelivery` so repaired deliveries are
        /// distinguishable from first transmissions.
        retx: bool,
        /// The inner payload.
        msg: M,
    },
    /// Cumulative acknowledgement: every `seq < upto` has been delivered.
    Ack {
        /// One past the highest in-order sequence delivered.
        upto: u64,
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
            SessionMsg::Data { msg, .. } => msg.size_hint() + 8,
            SessionMsg::Ack { .. } => 8,
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
            SessionMsg::Data { seq, retx, msg } => {
                (seq, retx).hash(h);
                msg.fingerprint_into(h);
            }
            SessionMsg::Ack { upto } => upto.hash(h),
            SessionMsg::Ping | SessionMsg::Pong => {}
        }
    }
}

/// Sender half of one directed channel (stable across crashes).
#[derive(Clone, Debug)]
struct SendState<M> {
    next_seq: u64,
    /// Sent but unacknowledged, in sequence order.
    outbox: VecDeque<(u64, M)>,
    rto: u64,
    retries: u32,
    timer_armed: bool,
}

impl<M> SendState<M> {
    fn new() -> Self {
        SendState {
            next_seq: 0,
            outbox: VecDeque::new(),
            rto: BASE_RTO,
            retries: 0,
            timer_armed: false,
        }
    }
}

/// Receiver half of one directed channel. `next_expected` is stable (it is
/// what makes redelivered messages recognizable as duplicates after a
/// crash); the out-of-order buffer is volatile and cleared on restart.
#[derive(Clone, Debug)]
struct RecvState<M> {
    next_expected: u64,
    buffer: BTreeMap<u64, M>,
}

impl<M> Default for RecvState<M> {
    fn default() -> Self {
        RecvState {
            next_expected: 0,
            buffer: BTreeMap::new(),
        }
    }
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
    /// Retransmitted payloads (timeouts and post-restart replays).
    pub retransmissions: u64,
    /// Cumulative acks sent.
    pub acks_sent: u64,
    /// Arrivals discarded as duplicates.
    pub dup_suppressed: u64,
    /// Arrivals buffered because they overtook a gap.
    pub out_of_order: u64,
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
        self.data_sent += other.data_sent;
        self.retransmissions += other.retransmissions;
        self.acks_sent += other.acks_sent;
        self.dup_suppressed += other.dup_suppressed;
        self.out_of_order += other.out_of_order;
        self.aborted += other.aborted;
        self.suspects += other.suspects;
        self.alives += other.alives;
    }
}

/// Wraps any [`Process`], giving it exactly-once FIFO channels over a lossy
/// network. Derefs to the inner process so existing inspection code
/// (checkers, metrics readers) works unchanged.
pub struct SessionProc<P: Process> {
    inner: P,
    cfg: SessionConfig,
    send: BTreeMap<ProcId, SendState<P::Msg>>,
    recv: BTreeMap<ProcId, RecvState<P::Msg>>,
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
            send: BTreeMap::new(),
            recv: BTreeMap::new(),
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
        self.send.values().map(|s| s.outbox.len()).sum()
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
            ctx.set_timer(self.cfg.detector.ping_interval, DETECTOR_TIMER);
        }
    }

    /// One detector round: suspect peers that have gone silent, ping every
    /// monitored peer, then re-arm — or go dormant after [`IDLE_ROUNDS`]
    /// rounds with no inner traffic and empty outboxes.
    fn det_round(&mut self, ctx: &mut Context<'_, SessionMsg<P::Msg>>) {
        let det = self.cfg.detector;
        let now = ctx.now();
        let threshold = det.ping_interval.saturating_mul(det.suspect_after as u64);
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
        let idle = !self.det_activity && self.send.values().all(|s| s.outbox.is_empty());
        self.det_idle = if idle { self.det_idle + 1 } else { 0 };
        self.det_activity = false;
        if self.det_idle >= IDLE_ROUNDS {
            // Dormant: quiescence can now drain. The next inner send or
            // arrival re-arms the round timer. (Nothing nested can have
            // armed one meanwhile — activity would have made `idle` false.)
            self.det_armed = false;
        } else {
            self.det_armed = true;
            ctx.set_timer(det.ping_interval, DETECTOR_TIMER);
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
        let st = self.send.entry(to).or_insert_with(SendState::new);
        let seq = st.next_seq;
        st.next_seq += 1;
        st.outbox.push_back((seq, msg.clone()));
        self.stats.data_sent += 1;
        ctx.send(
            to,
            SessionMsg::Data {
                seq,
                retx: false,
                msg,
            },
        );
        if !st.timer_armed {
            st.timer_armed = true;
            ctx.set_timer(st.rto, session_token(to));
        }
    }

    fn on_data(
        &mut self,
        ctx: &mut Context<'_, SessionMsg<P::Msg>>,
        from: ProcId,
        seq: u64,
        msg: P::Msg,
    ) {
        let st = self.recv.entry(from).or_default();
        // Collect deliverable messages first so the channel borrow ends
        // before the inner process runs (it may itself send on this channel).
        let mut deliver = Vec::new();
        if seq < st.next_expected {
            self.stats.dup_suppressed += 1;
        } else if seq == st.next_expected {
            st.next_expected += 1;
            deliver.push(msg);
            while let Some(m) = st.buffer.remove(&st.next_expected) {
                st.next_expected += 1;
                deliver.push(m);
            }
        } else if st.buffer.insert(seq, msg).is_some() {
            self.stats.dup_suppressed += 1;
        } else {
            self.stats.out_of_order += 1;
        }
        let upto = st.next_expected;
        self.stats.acks_sent += 1;
        ctx.send(from, SessionMsg::Ack { upto });
        for m in deliver {
            self.with_inner(ctx, |p, c| p.on_message(c, from, m));
        }
    }

    fn on_ack(&mut self, from: ProcId, upto: u64) {
        let Some(st) = self.send.get_mut(&from) else {
            return;
        };
        let mut progressed = false;
        while st.outbox.front().is_some_and(|(s, _)| *s < upto) {
            st.outbox.pop_front();
            progressed = true;
        }
        if progressed {
            // The channel is alive: restart the backoff schedule.
            st.rto = BASE_RTO;
            st.retries = 0;
        }
    }

    /// Retransmit everything outstanding to `dst` (go-back-N).
    fn retransmit(&mut self, ctx: &mut Context<'_, SessionMsg<P::Msg>>, dst: ProcId) {
        let Some(st) = self.send.get_mut(&dst) else {
            return;
        };
        for (seq, msg) in st.outbox.iter() {
            ctx.send(
                dst,
                SessionMsg::Data {
                    seq: *seq,
                    retx: true,
                    msg: msg.clone(),
                },
            );
        }
        self.stats.retransmissions += st.outbox.len() as u64;
    }

    /// The session's and detector's counters, appended after the inner
    /// process's (only the enabled layers report, so a pass-through wrapper
    /// is invisible in the metrics too).
    fn own_metrics(&self, m: &mut Vec<(&'static str, u64)>) {
        if self.cfg.enabled {
            m.push(("session.data_sent", self.stats.data_sent));
            m.push(("session.retransmissions", self.stats.retransmissions));
            m.push(("session.acks_sent", self.stats.acks_sent));
            m.push(("session.dup_suppressed", self.stats.dup_suppressed));
            m.push(("session.out_of_order", self.stats.out_of_order));
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
            SessionMsg::Data { seq, msg, .. } => self.on_data(ctx, from, seq, msg),
            SessionMsg::Ack { upto } => self.on_ack(from, upto),
            SessionMsg::Ping => ctx.send(from, SessionMsg::Pong),
            SessionMsg::Pong => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, token: u64) {
        if token & SESSION_TIMER_BIT == 0 {
            self.with_inner(ctx, |p, c| p.on_timer(c, token));
            return;
        }
        if token == DETECTOR_TIMER {
            // `det_armed` stays true for the duration of the round so that
            // sends made by `on_peer_change` handlers inside it cannot arm a
            // second round timer; the round itself decides at the end
            // whether to re-arm or go dormant.
            self.det_round(ctx);
            return;
        }
        let dst = ProcId((token & !SESSION_TIMER_BIT) as u32);
        let Some(st) = self.send.get_mut(&dst) else {
            return;
        };
        if st.outbox.is_empty() {
            // Everything acked since the timer was armed; stand down (there
            // is no cancel API — timers self-disarm by firing into an empty
            // outbox).
            st.timer_armed = false;
            return;
        }
        st.retries += 1;
        if st.retries > self.cfg.max_retries {
            self.stats.aborted += st.outbox.len() as u64;
            st.outbox.clear();
            st.timer_armed = false;
            return;
        }
        st.rto = (st.rto * 2).min(MAX_RTO);
        let rto = st.rto;
        self.retransmit(ctx, dst);
        ctx.set_timer(rto, token);
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
        if self.cfg.enabled {
            // Out-of-order buffers are volatile; the delivery counters are
            // part of the stable queue manager and survive, which is what
            // makes redelivered payloads recognizable as duplicates.
            for st in self.recv.values_mut() {
                st.buffer.clear();
            }
            // The crash destroyed every armed timer: retransmit anything
            // outstanding and re-arm from scratch.
            let dsts: Vec<ProcId> = self.send.keys().copied().collect();
            for dst in dsts {
                let st = self.send.get_mut(&dst).expect("key just listed");
                st.rto = BASE_RTO;
                st.retries = 0;
                if st.outbox.is_empty() {
                    st.timer_armed = false;
                } else {
                    st.timer_armed = true;
                    let rto = st.rto;
                    self.retransmit(ctx, dst);
                    ctx.set_timer(rto, session_token(dst));
                }
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
        // The backoff is bounded: go-back-N retransmits the whole 5-message
        // outbox at most `max_retries` times before giving up, never more.
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
        let det = DetectorConfig {
            ping_interval: 50,
            ..DetectorConfig::on()
        };
        // P1 goes down with part of the stream still in flight: the unacked
        // outbox is what keeps P0's detector from going dormant (it would,
        // after `IDLE_ROUNDS` quiet rounds) before the suspicion threshold.
        let mut cfg = SimConfig::jittery(11, 2, 5);
        cfg.faults = FaultPlan::none().with_crash(CrashEvent {
            proc: ProcId(1),
            at: SimTime(3),
            restart_at: Some(SimTime(900)),
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
                ping_interval: 1,
                suspect_after: 1,
            };
            run(cfg)
        });
    }
}

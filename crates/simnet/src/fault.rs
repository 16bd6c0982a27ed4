//! Deterministic fault injection.
//!
//! The paper assumes a reliable exactly-once FIFO network and reliable
//! processors (§4). A [`FaultPlan`] deliberately breaks those assumptions —
//! per-message drops, duplication, timed partitions, and processor
//! crash/restart — so the robustness machinery layered on top (the
//! [`session`](crate::session) protocol and the protocols' crash recovery)
//! can be exercised and measured.
//!
//! Fault decisions draw from a *dedicated* RNG stream seeded from the run
//! seed, so an inactive plan ([`FaultPlan::none`], the default) leaves the
//! main simulation RNG untouched: runs without faults are bit-identical to
//! runs on a simulator without this module.

use crate::{ProcId, SimTime};

/// A timed network partition: messages crossing between `side_a` and
/// `side_b` (either direction) during `[start, end)` are dropped.
///
/// Processors listed on neither side are unaffected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// First tick at which the partition is in force.
    pub start: SimTime,
    /// First tick at which the partition has healed (exclusive end).
    pub end: SimTime,
    /// One side of the cut.
    pub side_a: Vec<ProcId>,
    /// The other side of the cut.
    pub side_b: Vec<ProcId>,
}

impl Partition {
    /// Is a message sent from `src` to `dst` at `now` severed by this cut?
    pub fn severs(&self, src: ProcId, dst: ProcId, now: SimTime) -> bool {
        if now < self.start || now >= self.end {
            return false;
        }
        (self.side_a.contains(&src) && self.side_b.contains(&dst))
            || (self.side_b.contains(&src) && self.side_a.contains(&dst))
    }
}

/// A scheduled processor crash (and optional restart).
///
/// At `at` the processor goes down, losing what
/// [`Process::on_restart`](crate::Process::on_restart) says a crash
/// destroys. At `restart_at` (if given) it comes back and that hook runs
/// as the first action of its new incarnation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// The processor to crash.
    pub proc: ProcId,
    /// Crash time.
    pub at: SimTime,
    /// Restart time (must be after `at`); `None` = down forever.
    pub restart_at: Option<SimTime>,
}

/// A deterministic schedule of network and processor faults for one run.
///
/// All probabilities are evaluated against a dedicated fault RNG seeded
/// from the run seed, so two runs with the same `SimConfig` inject the
/// same faults at the same points.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that a remote message is silently dropped.
    /// Local hand-offs (a processor sending to itself) and the external
    /// client channel are never dropped.
    pub drop_prob: f64,
    /// Probability in `[0, 1]` that a remote message is delivered twice
    /// (the duplicate takes its own latency draw, after the original).
    pub dup_prob: f64,
    /// Timed partitions.
    pub partitions: Vec<Partition>,
    /// Scheduled crashes/restarts.
    pub crashes: Vec<CrashEvent>,
}

impl FaultPlan {
    /// The empty plan: a perfectly reliable network (the paper's model).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan that only drops messages, with the given probability.
    pub fn lossy(drop_prob: f64) -> Self {
        FaultPlan {
            drop_prob,
            ..FaultPlan::default()
        }
    }

    /// Builder: set the duplication probability.
    pub fn with_dup(mut self, dup_prob: f64) -> Self {
        self.dup_prob = dup_prob;
        self
    }

    /// Builder: add a partition.
    pub fn with_partition(mut self, p: Partition) -> Self {
        self.partitions.push(p);
        self
    }

    /// Builder: add a crash event.
    pub fn with_crash(mut self, c: CrashEvent) -> Self {
        if let Some(r) = c.restart_at {
            assert!(r > c.at, "restart must come after the crash");
        }
        self.crashes.push(c);
        self
    }

    /// Does this plan inject anything at all? When `false`, the simulator
    /// takes the zero-overhead path (no extra RNG draws, no extra events).
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || !self.partitions.is_empty()
            || !self.crashes.is_empty()
    }

    /// Is a message from `src` to `dst` at `now` cut by any partition?
    pub(crate) fn severed(&self, src: ProcId, dst: ProcId, now: SimTime) -> bool {
        self.partitions.iter().any(|p| p.severs(src, dst, now))
    }
}

/// Counters for injected faults, kept inside [`NetStats`](crate::NetStats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped by `drop_prob`.
    pub dropped: u64,
    /// Duplicate deliveries injected by `dup_prob`.
    pub duplicated: u64,
    /// Messages dropped because a partition severed their channel.
    pub partition_dropped: u64,
    /// Deliveries lost to a crash (in flight at crash time, or addressed
    /// to a processor that was down).
    pub crash_dropped: u64,
    /// Timers invalidated by a crash.
    pub timer_dropped: u64,
    /// Crash events executed.
    pub crashes: u64,
    /// Restart events executed.
    pub restarts: u64,
}

impl FaultStats {
    /// Any fault injected at all?
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }

    /// Total messages lost to any cause.
    pub fn total_lost(&self) -> u64 {
        self.dropped + self.partition_dropped + self.crash_dropped
    }

    pub(crate) fn saturating_sub(&self, other: &FaultStats) -> FaultStats {
        FaultStats {
            dropped: self.dropped.saturating_sub(other.dropped),
            duplicated: self.duplicated.saturating_sub(other.duplicated),
            partition_dropped: self
                .partition_dropped
                .saturating_sub(other.partition_dropped),
            crash_dropped: self.crash_dropped.saturating_sub(other.crash_dropped),
            timer_dropped: self.timer_dropped.saturating_sub(other.timer_dropped),
            crashes: self.crashes.saturating_sub(other.crashes),
            restarts: self.restarts.saturating_sub(other.restarts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive() {
        assert!(!FaultPlan::none().is_active());
        assert!(FaultPlan::lossy(0.1).is_active());
        assert!(FaultPlan::none().with_dup(0.5).is_active());
    }

    #[test]
    fn partition_severs_both_directions_within_window() {
        let p = Partition {
            start: SimTime(10),
            end: SimTime(20),
            side_a: vec![ProcId(0)],
            side_b: vec![ProcId(1), ProcId(2)],
        };
        assert!(p.severs(ProcId(0), ProcId(1), SimTime(10)));
        assert!(p.severs(ProcId(2), ProcId(0), SimTime(19)));
        assert!(!p.severs(ProcId(0), ProcId(1), SimTime(9)), "before start");
        assert!(!p.severs(ProcId(0), ProcId(1), SimTime(20)), "healed");
        assert!(!p.severs(ProcId(1), ProcId(2), SimTime(15)), "same side");
        assert!(!p.severs(ProcId(3), ProcId(0), SimTime(15)), "bystander");
    }

    #[test]
    #[should_panic(expected = "restart must come after the crash")]
    fn restart_before_crash_rejected() {
        let _ = FaultPlan::none().with_crash(CrashEvent {
            proc: ProcId(0),
            at: SimTime(10),
            restart_at: Some(SimTime(5)),
        });
    }

    #[test]
    fn fault_stats_any() {
        let mut s = FaultStats::default();
        assert!(!s.any());
        s.dropped = 1;
        assert!(s.any());
        assert_eq!(s.total_lost(), 1);
    }
}

//! Per-processor protocol counters, aggregated by the experiment harness.

/// Declares the counters once: the public `u64` fields of [`ProcMetrics`],
/// the [`Ctr`] variant each is raised through, and the name it exports
/// under (in declaration order, which is the order of
/// [`ProcMetrics::named`] and of a trace entry's deltas).
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident, $ctr:ident, $name:literal;)*) => {
        /// Counters one processor accumulates while executing protocol
        /// actions.
        ///
        /// Every counter is raised through `bump`, which also sets the
        /// counter's bit in a *touched* mask, and the struct keeps the
        /// value each counter had when the trace last asked. A traced
        /// action's deltas ([`simnet::Process::take_moved`]) then read one
        /// word plus the counters the action raised, not all of them.
        #[derive(Clone, Copy, Default)]
        pub struct ProcMetrics {
            $($(#[$doc])* pub $field: u64,)*
            /// Bit `Ctr as u32` is set while that counter may differ from
            /// its entry in `reported`.
            touched: u32,
            /// Each counter's value when the trace last asked, in
            /// declaration order.
            reported: [u64; N_COUNTERS],
        }

        /// A counter of [`ProcMetrics`], to raise with
        /// [`ProcMetrics::bump`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub(crate) enum Ctr {
            $(#[doc = concat!("`", $name, "`")] $ctr,)*
        }

        const ALL: [Ctr; N_COUNTERS] = [$(Ctr::$ctr,)*];
        const NAMES: [&str; N_COUNTERS] = [$($name,)*];

        impl ProcMetrics {
            #[inline]
            fn get(&self, c: Ctr) -> u64 {
                match c {
                    $(Ctr::$ctr => self.$field,)*
                }
            }

            #[inline]
            fn get_mut(&mut self, c: Ctr) -> &mut u64 {
                match c {
                    $(Ctr::$ctr => &mut self.$field,)*
                }
            }

            /// Append [`ProcMetrics::named`] to `out` (the trace's fallback
            /// snapshot and the sampler read counters into a buffer they
            /// reuse: [`simnet::Process::metrics_into`]).
            pub fn named_into(&self, out: &mut Vec<(&'static str, u64)>) {
                out.extend_from_slice(&[$(($name, self.$field),)*]);
            }

            /// Element-wise sum, for cluster-level aggregation.
            pub fn merge(&mut self, other: &ProcMetrics) {
                $(self.$field += other.$field;)*
            }
        }

        /// The counters alone, as a derive would print them: the trace's
        /// bookkeeping is no part of what a processor counted.
        impl std::fmt::Debug for ProcMetrics {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct("ProcMetrics")
                    $(.field(stringify!($field), &self.$field))*
                    .finish()
            }
        }

        /// Equal counts are equal metrics, whatever the trace last asked.
        impl PartialEq for ProcMetrics {
            fn eq(&self, other: &Self) -> bool {
                true $(&& self.$field == other.$field)*
            }
        }

        impl Eq for ProcMetrics {}
    };
}

/// How many counters [`ProcMetrics`] has (one bit each in its mask).
const N_COUNTERS: usize = 30;

counters! {
    /// Initial inserts blocked by a split AAS (§4.1.1) or an
    /// available-copies lock.
    blocked_initial, BlockedInitial, "blocked_initial";
    /// Total virtual ticks blocked actions spent waiting.
    blocked_ticks, BlockedTicks, "blocked_ticks";
    /// Search/insert actions queued behind an available-copies lock.
    lock_queued, LockQueued, "lock_queued";
    /// Link chases by client-plane actions (`Descend`, `Scan`):
    /// misnavigation recoveries of the B-link kind.
    link_chases, LinkChases, "link_chases";
    /// Link chases by update-plane actions (`InsertAt`, `Absorb`,
    /// `MergeReq`, `ChildHomeChange`): the walk from a stale parent hint or
    /// neighbour link to the node the update belongs to.
    update_chases, UpdateChases, "update_chases";
    /// Missing-node recoveries (§4.2): action arrived for a node this
    /// processor doesn't store.
    missing_node_recoveries, MissingNodeRecoveries, "missing_node_recoveries";
    /// Missing-node messages saved by a forwarding address.
    forwards_followed, ForwardsFollowed, "forwards_followed";
    /// Relayed updates applied.
    relays_applied, RelaysApplied, "relays_applied";
    /// Piggyback buffers flushed because the flush-interval timer fired
    /// (as opposed to the batch filling up).
    piggyback_timer_flushes, PiggybackTimerFlushes, "piggyback_timer_flushes";
    /// Relayed updates discarded as out-of-range.
    relays_discarded, RelaysDiscarded, "relays_discarded";
    /// Out-of-range relayed updates the PC re-issued toward their proper
    /// home (the semisync history rewrite).
    relays_forwarded, RelaysForwarded, "relays_forwarded";
    /// Splits this processor initiated as a PC.
    splits_initiated, SplitsInitiated, "splits_initiated";
    /// Node migrations sent.
    migrations_out, MigrationsOut, "migrations_out";
    /// Node migrations received.
    migrations_in, MigrationsIn, "migrations_in";
    /// Replications joined (§4.3).
    joins, Joins, "joins";
    /// Replications unjoined (§4.3).
    unjoins, Unjoins, "unjoins";
    /// Crash restarts this processor went through (fault plans only).
    recoveries, Recoveries, "recoveries";
    /// Interior copies dropped at restart and re-acquired via the §4.3
    /// join protocol.
    recovery_rejoins, RecoveryRejoins, "recovery_rejoins";
    /// Peers quarantined on a failure-detector suspicion.
    quarantines, Quarantines, "quarantines";
    /// Relays withheld from quarantined peers (recorded for catch-up
    /// instead of being sent into the void).
    relays_suppressed, RelaysSuppressed, "relays_suppressed";
    /// Anti-entropy state snapshots sent (quarantine catch-up pushes and
    /// `SyncReq` replies).
    sync_pushes, SyncPushes, "sync_pushes";
    /// Anti-entropy pulls requested at restart for retained copies.
    sync_pulls, SyncPulls, "sync_pulls";
    /// Anti-entropy snapshots merged that actually changed the local copy.
    sync_merges, SyncMerges, "sync_merges";
    /// Merge-at-empty requests sent to a parent's PC.
    merges_requested, MergesRequested, "merges_requested";
    /// Merge requests declined (no grant, or the grant-commit re-verify
    /// found the leaf no longer empty).
    merges_declined, MergesDeclined, "merges_declined";
    /// Merges committed: the emptied leaf was retired and its range handed
    /// to the left sibling.
    merges_completed, MergesCompleted, "merges_completed";
    /// Retirement notices applied: a local copy of a merged-away node was
    /// dropped and replaced by a forwarding address.
    retires_applied, RetiresApplied, "retires_applied";
    /// Absorb actions applied (initial at the left sibling's PC, or relayed
    /// at its other copies).
    absorbs_applied, AbsorbsApplied, "absorbs_applied";
    /// Relayed updates addressed to a retired node that were re-issued as
    /// initial inserts toward the absorbing sibling (never dropped: the
    /// client already saw the ack).
    relays_rerouted, RelaysRerouted, "relays_rerouted";
    /// Node visits made in-process: steps of a navigable action whose next
    /// node was resident, so the step ran inside the delivering action
    /// instead of as a message to self. A trace entry's delta is the number
    /// of extra nodes that delivery visited.
    local_steps, LocalSteps, "nav.local_steps";
}

impl ProcMetrics {
    /// Raise counter `c` by `n`, marking it touched.
    #[inline]
    pub(crate) fn bump(&mut self, c: Ctr, n: u64) {
        *self.get_mut(c) += n;
        self.touched |= 1 << c as u32;
    }

    /// Every counter as a `(name, value)` pair, in declaration order: what
    /// [`simnet::Process::metrics`] reports and the sampler snapshots.
    pub fn named(&self) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        self.named_into(&mut out);
        out
    }

    /// The trace's per-action step ([`simnet::Process::take_moved`]): with
    /// `out`, append `(name, increase)` for every counter that rose since
    /// the last call, in declaration order, reading only the touched ones;
    /// with `None`, forget every movement so far (the counters may have
    /// been written from outside an action, so all are re-read). Either way
    /// the next call counts afresh.
    pub(crate) fn take_moved(&mut self, out: Option<&mut Vec<(&'static str, u64)>>) {
        let Some(out) = out else {
            for c in ALL {
                self.reported[c as usize] = self.get(c);
            }
            self.touched = 0;
            return;
        };
        debug_assert!(
            ALL.iter().all(|&c| self.touched & (1 << c as u32) != 0
                || self.get(c) == self.reported[c as usize]),
            "a counter moved without `ProcMetrics::bump`"
        );
        let mut bits = std::mem::take(&mut self.touched);
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let now = self.get(ALL[i]);
            let was = std::mem::replace(&mut self.reported[i], now);
            if now > was {
                out.push((NAMES[i], now - was));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums() {
        let mut a = ProcMetrics {
            link_chases: 2,
            joins: 1,
            ..Default::default()
        };
        let b = ProcMetrics {
            link_chases: 3,
            unjoins: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.link_chases, 5);
        assert_eq!(a.joins, 1);
        assert_eq!(a.unjoins, 4);
    }
}

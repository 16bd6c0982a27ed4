//! Per-processor protocol counters, aggregated by the experiment harness.

/// Counters one processor accumulates while executing protocol actions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcMetrics {
    /// Initial inserts blocked by a split AAS (§4.1.1) or an
    /// available-copies lock.
    pub blocked_initial: u64,
    /// Total virtual ticks blocked actions spent waiting.
    pub blocked_ticks: u64,
    /// Search/insert actions queued behind an available-copies lock.
    pub lock_queued: u64,
    /// Link chases by client-plane actions (`Descend`, `Scan`):
    /// misnavigation recoveries of the B-link kind.
    pub link_chases: u64,
    /// Link chases by update-plane actions (`InsertAt`, `Absorb`,
    /// `MergeReq`, `ChildHomeChange`): the walk from a stale parent hint or
    /// neighbour link to the node the update belongs to.
    pub update_chases: u64,
    /// Missing-node recoveries (§4.2): action arrived for a node this
    /// processor doesn't store.
    pub missing_node_recoveries: u64,
    /// Missing-node messages saved by a forwarding address.
    pub forwards_followed: u64,
    /// Relayed updates applied.
    pub relays_applied: u64,
    /// Piggyback buffers flushed because the flush-interval timer fired
    /// (as opposed to the batch filling up).
    pub piggyback_timer_flushes: u64,
    /// Relayed updates discarded as out-of-range.
    pub relays_discarded: u64,
    /// Out-of-range relayed updates the PC re-issued toward their proper
    /// home (the semisync history rewrite).
    pub relays_forwarded: u64,
    /// Splits this processor initiated as a PC.
    pub splits_initiated: u64,
    /// Node migrations sent.
    pub migrations_out: u64,
    /// Node migrations received.
    pub migrations_in: u64,
    /// Replications joined (§4.3).
    pub joins: u64,
    /// Replications unjoined (§4.3).
    pub unjoins: u64,
    /// Crash restarts this processor went through (fault plans only).
    pub recoveries: u64,
    /// Interior copies dropped at restart and re-acquired via the §4.3
    /// join protocol.
    pub recovery_rejoins: u64,
    /// Peers quarantined on a failure-detector suspicion.
    pub quarantines: u64,
    /// Relays withheld from quarantined peers (recorded for catch-up
    /// instead of being sent into the void).
    pub relays_suppressed: u64,
    /// Anti-entropy state snapshots sent (quarantine catch-up pushes and
    /// `SyncReq` replies).
    pub sync_pushes: u64,
    /// Anti-entropy pulls requested at restart for retained copies.
    pub sync_pulls: u64,
    /// Anti-entropy snapshots merged that actually changed the local copy.
    pub sync_merges: u64,
    /// Merge-at-empty requests sent to a parent's PC.
    pub merges_requested: u64,
    /// Merge requests declined (no grant, or the grant-commit re-verify
    /// found the leaf no longer empty).
    pub merges_declined: u64,
    /// Merges committed: the emptied leaf was retired and its range handed
    /// to the left sibling.
    pub merges_completed: u64,
    /// Retirement notices applied: a local copy of a merged-away node was
    /// dropped and replaced by a forwarding address.
    pub retires_applied: u64,
    /// Absorb actions applied (initial at the left sibling's PC, or relayed
    /// at its other copies).
    pub absorbs_applied: u64,
    /// Relayed updates addressed to a retired node that were re-issued as
    /// initial inserts toward the absorbing sibling (never dropped: the
    /// client already saw the ack).
    pub relays_rerouted: u64,
    /// Node visits made in-process: steps of a navigable action whose next
    /// node was resident, so the step ran inside the delivering action
    /// instead of as a message to self. A trace entry's delta is the number
    /// of extra nodes that delivery visited.
    pub local_steps: u64,
}

impl ProcMetrics {
    /// Every counter as a `(name, value)` pair, in declaration order. This
    /// is what the trace layer diffs to attribute counter movement to a
    /// single action ([`simnet::Process::metrics`]).
    pub fn named(&self) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        self.named_into(&mut out);
        out
    }

    /// Append [`ProcMetrics::named`] to `out` (the trace snapshots once per
    /// action into a buffer it reuses: [`simnet::Process::metrics_into`]).
    pub fn named_into(&self, out: &mut Vec<(&'static str, u64)>) {
        out.extend_from_slice(&[
            ("blocked_initial", self.blocked_initial),
            ("blocked_ticks", self.blocked_ticks),
            ("lock_queued", self.lock_queued),
            ("link_chases", self.link_chases),
            ("update_chases", self.update_chases),
            ("missing_node_recoveries", self.missing_node_recoveries),
            ("forwards_followed", self.forwards_followed),
            ("relays_applied", self.relays_applied),
            ("piggyback_timer_flushes", self.piggyback_timer_flushes),
            ("relays_discarded", self.relays_discarded),
            ("relays_forwarded", self.relays_forwarded),
            ("splits_initiated", self.splits_initiated),
            ("migrations_out", self.migrations_out),
            ("migrations_in", self.migrations_in),
            ("joins", self.joins),
            ("unjoins", self.unjoins),
            ("recoveries", self.recoveries),
            ("recovery_rejoins", self.recovery_rejoins),
            ("quarantines", self.quarantines),
            ("relays_suppressed", self.relays_suppressed),
            ("sync_pushes", self.sync_pushes),
            ("sync_pulls", self.sync_pulls),
            ("sync_merges", self.sync_merges),
            ("merges_requested", self.merges_requested),
            ("merges_declined", self.merges_declined),
            ("merges_completed", self.merges_completed),
            ("retires_applied", self.retires_applied),
            ("absorbs_applied", self.absorbs_applied),
            ("relays_rerouted", self.relays_rerouted),
            ("nav.local_steps", self.local_steps),
        ]);
    }

    /// Element-wise sum, for cluster-level aggregation.
    pub fn merge(&mut self, other: &ProcMetrics) {
        self.blocked_initial += other.blocked_initial;
        self.blocked_ticks += other.blocked_ticks;
        self.lock_queued += other.lock_queued;
        self.link_chases += other.link_chases;
        self.update_chases += other.update_chases;
        self.missing_node_recoveries += other.missing_node_recoveries;
        self.forwards_followed += other.forwards_followed;
        self.relays_applied += other.relays_applied;
        self.piggyback_timer_flushes += other.piggyback_timer_flushes;
        self.relays_discarded += other.relays_discarded;
        self.relays_forwarded += other.relays_forwarded;
        self.splits_initiated += other.splits_initiated;
        self.migrations_out += other.migrations_out;
        self.migrations_in += other.migrations_in;
        self.joins += other.joins;
        self.unjoins += other.unjoins;
        self.recoveries += other.recoveries;
        self.recovery_rejoins += other.recovery_rejoins;
        self.quarantines += other.quarantines;
        self.relays_suppressed += other.relays_suppressed;
        self.sync_pushes += other.sync_pushes;
        self.sync_pulls += other.sync_pulls;
        self.sync_merges += other.sync_merges;
        self.merges_requested += other.merges_requested;
        self.merges_declined += other.merges_declined;
        self.merges_completed += other.merges_completed;
        self.retires_applied += other.retires_applied;
        self.absorbs_applied += other.absorbs_applied;
        self.relays_rerouted += other.relays_rerouted;
        self.local_steps += other.local_steps;
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

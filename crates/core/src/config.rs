//! Tree configuration: protocol, placement, and feature toggles.

/// Which replica-maintenance protocol maintains interior-node copies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolKind {
    /// §4.1.1 — synchronous splits: an AAS blocks initial inserts at every
    /// copy while the PC performs the split. `3·|copies|` messages per split.
    Sync,
    /// §4.1.2 — semi-synchronous splits: the PC splits immediately and
    /// *rewrites history* when a relayed insert arrives out of range
    /// (re-issuing it toward the sibling). Never blocks inserts;
    /// `|copies|` messages per split (optimal).
    SemiSync,
    /// The vigorous baseline the paper argues against (\[2\]): every update to
    /// a replicated node locks all copies (write-all), blocking reads and
    /// other writes at every copy for the duration.
    AvailableCopies,
}

impl ProtocolKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Sync => "sync",
            ProtocolKind::SemiSync => "semisync",
            ProtocolKind::AvailableCopies => "avail-copies",
        }
    }
}

/// Where copies of nodes are placed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// The dB-tree policy (Fig 2): leaves on a single processor; an interior
    /// node is replicated on every processor that owns a leaf below it; the
    /// root is everywhere.
    PathReplication,
    /// Every node on exactly `copies` processors (the §4.1 fixed-copies
    /// setting; `copies = 1` gives the fully-unreplicated tree used by the
    /// root-bottleneck and mobile-node experiments).
    Uniform {
        /// Replication factor.
        copies: usize,
    },
}

impl Placement {
    /// Short label for reports.
    pub fn label(self) -> String {
        match self {
            Placement::PathReplication => "path".to_string(),
            Placement::Uniform { copies } => format!("uniform{copies}"),
        }
    }
}

/// Relay piggybacking (§1.1: lazy updates "can be piggybacked onto messages
/// used for other purposes, greatly reducing the cost of replication
/// management"). Modelled as per-destination batching of relayed updates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PiggybackCfg {
    /// Flush a destination's buffer when it holds this many relays.
    pub max_batch: usize,
    /// Flush all buffers at most this many ticks after the first buffered
    /// relay (bounds staleness; guarantees quiescence).
    pub flush_interval: u64,
}

impl Default for PiggybackCfg {
    fn default() -> Self {
        PiggybackCfg {
            max_batch: 8,
            flush_interval: 50,
        }
    }
}

/// A deliberately broken variant of the protocol, seeded so that a checker
/// can be *seen* to fail: the paper's own (Fig 4, Fig 6) and the repo's
/// later ones. At most one per run
/// ([`TreeConfig::seeded`]); the node manager consults it through the one
/// seam `DbProc::seeded`. Never set it outside the experiment that catches
/// it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SeededBug {
    /// Fig 4's lost insert, the paper's strawman lazy protocol: under
    /// [`ProtocolKind::SemiSync`], the PC **discards** an out-of-range
    /// relayed insert instead of re-routing it toward the sibling, so the
    /// update is lost. Caught by the history checker.
    DiscardOutOfRange,
    /// Fig 6's incomplete history: the PC does **not** re-relay an update to
    /// copies that joined after the update's version (§4.3's rule, off), so
    /// a late joiner misses it. Caught by the history checker.
    NoJoinVersionRelay,
    /// The `DiscardOutOfRange` analogue for the merge family: the grant-commit skips
    /// the re-verification that the leaf is still empty of live values, so
    /// an insert that raced the grant is silently dropped with the retired
    /// node. Caught (and shrunk) by the explorer.
    MergeNoReverify,
    /// A *liveness* bug, the counterpart of `MergeNoReverify`'s safety bug:
    /// the parent's PC silently drops every `MergeReq`, so a quiescent
    /// all-tombstone leaf keeps its merge pending forever, and leaf writes
    /// that arrive while the merge is pending are parked awaiting a grant
    /// that never comes. Caught by the model checker's liveness oracle.
    MergeWedgeGrants,
    /// E21's injected incident: this processor keeps *buffering* relayed
    /// updates per destination but never batch-sends them and never arms
    /// the piggyback flush timer, so its relay backlog depth and
    /// oldest-entry age grow for the rest of the run. Buffered relays are
    /// plain state, so quiescence is unaffected; the health watchdogs are
    /// expected to raise `backlog_growth` on exactly this processor.
    RelaySuppress(u32),
}

/// Full configuration of a dB-tree deployment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TreeConfig {
    /// Maximum entries per node before it must split.
    pub fanout: usize,
    /// Replica-maintenance protocol.
    pub protocol: ProtocolKind,
    /// Copy placement policy.
    pub placement: Placement,
    /// Batch relayed updates instead of sending each immediately.
    pub piggyback: Option<PiggybackCfg>,
    /// On migration, leave a forwarding address behind (§4.2's eager aid);
    /// `false` exercises pure lazy misnavigation recovery.
    pub forwarding: bool,
    /// §4.3 variable copies: processors join/unjoin interior replication as
    /// leaves migrate to/from them.
    pub variable_copies: bool,
    /// Record a [`history::HistoryLog`] for end-of-run verification.
    pub record_history: bool,
    /// Lazy merge-at-empty: when tombstones leave a leaf with no live
    /// values, its PC asks the parent's PC for a merge grant, retires the
    /// leaf (forwarding address + parent-edge tombstone) and has the left
    /// sibling *absorb* its range through the half-split link invariants in
    /// reverse. `false` preserves the paper's never-merge policy (\[11\]).
    pub merge_at_empty: bool,
    /// The one seeded bug this run carries, if any (`None` everywhere but
    /// in the experiments and tests that must catch it).
    pub seeded: Option<SeededBug>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            fanout: 8,
            protocol: ProtocolKind::SemiSync,
            placement: Placement::PathReplication,
            piggyback: None,
            forwarding: false,
            variable_copies: false,
            record_history: true,
            merge_at_empty: false,
            seeded: None,
        }
    }
}

impl TreeConfig {
    /// Default config with the given protocol.
    pub fn with_protocol(protocol: ProtocolKind) -> Self {
        TreeConfig {
            protocol,
            ..Default::default()
        }
    }

    /// The §4.1 fixed-copies testbed: every node (leaves included) on
    /// `copies` processors.
    pub fn fixed_copies(protocol: ProtocolKind, copies: usize) -> Self {
        TreeConfig {
            protocol,
            placement: Placement::Uniform { copies },
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(ProtocolKind::SemiSync.label(), "semisync");
        assert_eq!(Placement::PathReplication.label(), "path");
        assert_eq!(Placement::Uniform { copies: 3 }.label(), "uniform3");
    }

    #[test]
    fn defaults_are_the_paper_protocol() {
        let c = TreeConfig::default();
        assert_eq!(c.protocol, ProtocolKind::SemiSync);
        assert_eq!(c.placement, Placement::PathReplication);
        assert_eq!(c.seeded, None);
    }
}

//! Core identifier and entry types.

use std::fmt;

use simnet::ProcId;

pub use blink::{Key, KeyRange};

/// Values stored at the leaves.
pub type Value = u64;

/// Identifier of a *logical* node (every copy of the node shares it).
///
/// Encodes the allocating processor in the high bits so processors can mint
/// ids without coordination: `NodeId = proc << 40 | counter`.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(pub u64);

impl NodeId {
    /// Mint the `counter`-th node id of `proc`.
    pub fn mint(proc: ProcId, counter: u64) -> Self {
        debug_assert!(counter < (1 << 40), "node counter overflow");
        NodeId(((proc.0 as u64) << 40) | counter)
    }

    /// The processor that allocated this id.
    pub fn minted_by(self) -> ProcId {
        ProcId((self.0 >> 40) as u32)
    }

    /// Raw value (used as the history log's node key).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}.{}", self.0 >> 40, self.0 & ((1 << 40) - 1))
    }
}

/// Identifier of a client operation. Minted by the driver.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, serde::Serialize, serde::Deserialize,
)]
pub struct OpId(pub u64);

/// A routable reference to another node: its id plus a processor known to
/// hold a copy (the copy's primary, kept fresh by link-change actions).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub struct Link {
    /// The target node.
    pub node: NodeId,
    /// A processor holding a copy (normally the PC / owner).
    pub home: ProcId,
}

impl Link {
    /// Construct a link.
    pub fn new(node: NodeId, home: ProcId) -> Self {
        Link { node, home }
    }
}

/// A copy's *advisory* link to its parent (§4.2: kept lazily, never forwarded
/// to; whoever misnavigates by one recovers through the right link). The
/// hints a copy is offered form a register ordered by [`Self::rank`]: the
/// parent furthest right wins, and between two reports of one node the
/// higher §4.2 version. Only a holder of an edge to the copy offers itself,
/// so every offer has `low` ≤ the copy's own low key: the greatest is the
/// closest safe place to start an upward action from, and anything smaller
/// only lengthens the walk along the parent level's right links.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub struct ParentHint {
    /// The parent node and its primary copy — joins are registered at the PC
    /// whichever copy did the routing.
    pub link: Link,
    /// The parent's low key (a node's low never moves).
    pub low: Key,
    /// The parent's version as the reporting copy knew it.
    pub version: u64,
}

impl ParentHint {
    /// Position in the register's total order: low key, then version, with
    /// the link as a tie-break so the maximum is defined on any pair.
    pub fn rank(&self) -> (Key, u64, NodeId, ProcId) {
        (self.low, self.version, self.link.node, self.link.home)
    }

    /// The ordered part of [`Self::rank`], packed for the history log's
    /// ordered-class check (`"link-parent"`).
    pub fn order(&self) -> u128 {
        (self.low as u128) << 64 | self.version as u128
    }

    /// Would offering `self` change a register holding `held`?
    pub fn outranks(&self, held: Option<ParentHint>) -> bool {
        held.is_none_or(|held| self.rank() > held.rank())
    }

    /// The register's join, compare-first: offer `self` to `slot` and write
    /// only when it outranks what is there. Commutative, associative and
    /// idempotent (a maximum in a total order), so offers may arrive in any
    /// order, any number of times. Returns `true` when the slot changed.
    pub fn join_into(self, slot: &mut Option<ParentHint>) -> bool {
        let wins = self.outranks(*slot);
        if wins {
            *slot = Some(self);
        }
        wins
    }
}

/// An interior node's routing entry for one child.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub struct ChildRef {
    /// The child node.
    pub node: NodeId,
    /// Processor holding the child (owner for leaves, PC for interior).
    pub home: ProcId,
    /// The child's version when this reference was last refreshed. Child
    /// home changes (migrations) are an *ordered* action class: an update is
    /// applied only if its version exceeds this (§4.2 link-change rule).
    pub version: u64,
}

/// One entry in a node: a stamped value or tombstone (leaves), or a child
/// reference (interior).
///
/// Leaf entries carry a *stamp* — a totally-ordered update identifier — so
/// that concurrent writes to the same key commute: every copy keeps the
/// entry with the greatest stamp, whatever order the relays arrive in
/// (a last-writer-wins register, the natural way to extend the paper's
/// "inserts commute" rule to overwrites and deletes). Deletes are stamped
/// tombstones that shadow the key until overwritten. By default nodes they
/// empty persist (the \[11\] never-merge policy the paper adopts); with
/// [`TreeConfig::merge_at_empty`](crate::TreeConfig::merge_at_empty) an
/// all-tombstone leaf is lazily retired and its range absorbed by the left
/// sibling (the `protocol::merge` action family).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub enum Entry {
    /// Leaf payload with its update stamp.
    Val {
        /// The stored value.
        value: Value,
        /// Total-order position of the write (see [`Stamp`]).
        stamp: u64,
    },
    /// A deleted key (lazy delete; shadows earlier writes).
    Tomb {
        /// Total-order position of the delete.
        stamp: u64,
    },
    /// Interior routing entry.
    Child(ChildRef),
}

/// Helpers for update stamps: `(per-processor counter << 32) | proc`, giving
/// a deterministic total order over all leaf updates in a run (the whole
/// `ProcId` is packed, so stamps are unique at any cluster size).
pub struct Stamp;

impl Stamp {
    /// Compose a stamp.
    #[allow(clippy::new_ret_no_self)] // Stamp is a namespace for u64 stamps
    pub fn new(counter: u64, proc: ProcId) -> u64 {
        debug_assert!(counter < (1 << 32), "stamp counter overflow");
        (counter << 32) | proc.0 as u64
    }

    /// The counter a stamp was composed from.
    pub fn counter(stamp: u64) -> u64 {
        stamp >> 32
    }
}

impl Entry {
    /// The child reference, if this is an interior entry.
    pub fn child(&self) -> Option<ChildRef> {
        match self {
            Entry::Child(c) => Some(*c),
            _ => None,
        }
    }

    /// The live value, if this is a (non-deleted) leaf entry.
    pub fn value(&self) -> Option<Value> {
        match self {
            Entry::Val { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// The stamp of a leaf entry (values and tombstones).
    pub fn stamp(&self) -> Option<u64> {
        match self {
            Entry::Val { stamp, .. } | Entry::Tomb { stamp } => Some(*stamp),
            Entry::Child(_) => None,
        }
    }

    /// Words contributing to the copy digest.
    pub(crate) fn digest_words(&self) -> [u64; 2] {
        match self {
            Entry::Val { value, .. } => [1, *value],
            Entry::Tomb { .. } => [3, 0],
            // Home hints and versions are routing metadata, not node value:
            // copies may transiently disagree on them without being
            // incompatible (the paper's value is the key set + links).
            Entry::Child(c) => [2, c.node.raw()],
        }
    }
}

/// The purpose of a descent through the index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub enum Intent {
    /// Point lookup; report the value found.
    Search,
    /// Insert `value` at the key's leaf.
    Insert(Value),
    /// Delete the key (a lazy tombstone write; nodes merge away only under
    /// the opt-in `merge_at_empty` policy, else \[11\]'s never-merge).
    Delete,
}

/// Outcome of a completed client operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub struct Outcome {
    /// The operation.
    pub op: OpId,
    /// For searches: the value found. For inserts: the previous value.
    pub found: Option<Value>,
    /// Nodes visited during the descent.
    pub hops: u32,
    /// Right-link chases performed (misnavigation recoveries).
    pub chases: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::mint(ProcId(7), 42);
        assert_eq!(id.minted_by(), ProcId(7));
        assert_eq!(format!("{id:?}"), "n7.42");
        assert_ne!(NodeId::mint(ProcId(0), 1), NodeId::mint(ProcId(1), 1));
    }

    #[test]
    fn entry_accessors() {
        let v = Entry::Val { value: 9, stamp: 1 };
        assert_eq!(v.value(), Some(9));
        assert_eq!(v.child(), None);
        assert_eq!(v.stamp(), Some(1));
        let t = Entry::Tomb { stamp: 2 };
        assert_eq!(t.value(), None, "tombstones shadow the key");
        assert_eq!(t.stamp(), Some(2));
        let c = Entry::Child(ChildRef {
            node: NodeId(3),
            home: ProcId(1),
            version: 0,
        });
        assert!(c.child().is_some());
        assert_eq!(c.value(), None);
        assert_eq!(c.stamp(), None);
    }

    #[test]
    fn stamps_totally_ordered_and_unique() {
        let a = Stamp::new(1, ProcId(0));
        let b = Stamp::new(1, ProcId(1));
        let c = Stamp::new(2, ProcId(0));
        assert!(a < b && b < c);
    }

    /// E19 and CI's scale job run P = 1024: two writers one counter apart in
    /// nothing but their processor id must still mint distinct stamps, or
    /// `upsert` keeps whichever of the tied writes a copy saw first.
    #[test]
    fn stamps_stay_unique_past_256_processors() {
        assert_ne!(Stamp::new(5, ProcId(1)), Stamp::new(5, ProcId(257)));
        assert!(Stamp::new(5, ProcId(1023)) < Stamp::new(6, ProcId(0)));
        assert_eq!(Stamp::counter(Stamp::new(5, ProcId(1023))), 5);
    }

    #[test]
    fn digest_ignores_home_hint() {
        let a = Entry::Child(ChildRef {
            node: NodeId(3),
            home: ProcId(1),
            version: 0,
        });
        let b = Entry::Child(ChildRef {
            node: NodeId(3),
            home: ProcId(2),
            version: 5,
        });
        assert_eq!(a.digest_words(), b.digest_words());
    }
}

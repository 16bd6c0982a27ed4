//! The replica-maintenance protocols.
//!
//! * [`split`] — the half-split engine shared by every protocol (sibling
//!   construction, split completion at the parent, root growth).
//! * [`sync`] — §4.1.1 synchronous splits (AAS).
//! * [`semisync`] — §4.1.2 semi-synchronous splits (also run by Fig 4's
//!   seeded lost-insert bug, `SeededBug::DiscardOutOfRange`).
//! * [`mobile`] — §4.2 single-copy mobile nodes: migration, link-changes,
//!   forwarding addresses.
//! * [`variable`] — §4.3 variable copies: join/unjoin with version-numbered
//!   membership.
//! * [`avail`] — the vigorous available-copies baseline ([2]).
//! * [`merge`] — lazy merge-at-empty: grant-then-commit retirement of
//!   emptied leaves, with the absorb/retire relay family (beyond the paper,
//!   which leaves merging as future work).

pub mod avail;
pub mod merge;
pub mod mobile;
pub mod semisync;
pub mod split;
pub mod sync;
pub mod variable;

//! # blink — the sequential B-link tree
//!
//! The dB-tree (the paper's distributed search structure) is "the B-link tree
//! algorithm as a distributed protocol". This crate implements the
//! shared-memory ancestor faithfully: [`BLinkTree`] is a Lehman–Yao / Sagiv
//! B-link tree. Every node carries a key range and a right-sibling link;
//! inserts split nodes with the *half-split* of Fig 1 and complete the split
//! at the parent afterwards. Operations that misnavigate into a half-split
//! node recover by chasing the right link; the tree is navigable at all
//! times.
//!
//! Key and range vocabulary ([`Key`], [`KeyRange`]) is shared with the
//! distributed `dbtree` crate.

#![warn(missing_docs)]

mod check;
mod key;
mod node;
mod tree;

pub use check::{check_blink, CheckError};
pub use key::{Key, KeyRange};
pub use node::{Node, NodeRef, MIN_FANOUT};
pub use tree::{BLinkTree, TreeStats};

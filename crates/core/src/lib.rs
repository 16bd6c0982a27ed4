//! # dbtree — lazy updates for a distributed B-link tree
//!
//! A from-scratch implementation of the dB-tree of Johnson & Krishna,
//! *Lazy Updates for Distributed Search Structures* (1992/93): a distributed
//! B-link tree whose interior nodes are replicated — the root everywhere,
//! leaves on one processor — and maintained with **lazy updates**, protocols
//! that exploit action commutativity to keep copies coherent without
//! synchronization.
//!
//! ## What's here
//!
//! * The dB-tree itself ([`DbCluster`]), running over the deterministic
//!   message-passing simulator in the `simnet` crate.
//! * The full protocol family:
//!   [`ProtocolKind::Sync`] (§4.1.1 AAS splits),
//!   [`ProtocolKind::SemiSync`] (§4.1.2 history-rewriting splits — the
//!   paper's headline protocol),
//!   [`ProtocolKind::AvailableCopies`] (the vigorous baseline), plus
//!   §4.2 single-copy mobile nodes (migration, forwarding addresses,
//!   misnavigation recovery) and §4.3 variable copies (join/unjoin with
//!   version numbers).
//! * Seeded bugs ([`SeededBug`], one per run through
//!   [`TreeConfig::seeded`]) that the checkers must catch, Fig 4's lost
//!   insert ([`SeededBug::DiscardOutOfRange`]) among them.
//! * End-of-run checkers ([`checker`]) and a bridge to the `history` crate's
//!   executable correctness theory.
//!
//! ## Quickstart
//!
//! ```
//! use dbtree::{BuildSpec, ClientOp, DbCluster, Intent, TreeConfig};
//! use simnet::{ProcId, SimConfig};
//!
//! // 4 processors, path-replicated dB-tree preloaded with 100 keys.
//! let spec = BuildSpec::new((0..100).map(|k| k * 2).collect(), 4, TreeConfig::default());
//! let mut cluster = DbCluster::build(&spec, SimConfig::seeded(42));
//!
//! // Insert a key from processor 3...
//! cluster.submit(ClientOp { origin: ProcId(3), key: 33, intent: Intent::Insert(330) });
//! cluster.try_run_to_quiescence().unwrap();
//! // ...then search it from processor 0.
//! cluster.submit(ClientOp { origin: ProcId(0), key: 33, intent: Intent::Search });
//! let records = cluster.try_run_to_quiescence().unwrap();
//! assert_eq!(records[0].outcome.found, Some(330));
//! ```

#![warn(missing_docs)]

pub mod balance;
mod build;
pub mod checker;
mod config;
mod entries;
mod metrics;
mod msg;
mod nav;
mod node;
mod proc;
mod protocol;
mod recovery;
mod relay;
mod store;
mod tree;
mod types;

pub use build::{build_procs, BuildSpec};
pub use checker::{check_history_sequences, db_class_conflicts, GlobalView, TreeViolation};
pub use config::{PiggybackCfg, Placement, ProtocolKind, SeededBug, TreeConfig};
pub use entries::Entries;
pub use metrics::ProcMetrics;
pub use msg::{InstallReason, LinkDir, Msg, SplitInfo};
pub use node::{Edge, Members, NodeCopy, NodeSnapshot, Primary};
pub use proc::{DbProc, LOCAL_STEP_CAP};
pub use simnet::{OpenLoopCfg, QuiesceError, Runtime};
pub use store::NodeStore;
pub use tree::{
    record_final_digests_from, ClientOp, DbCluster, DbProtocol, DbSim, DbSubmission, DriverStats,
    OpRecord, ScanRecord, ScanResult, ScanSpec, ThreadedDbCluster, ThreadedDbRuntime,
};
pub use types::{
    ChildRef, Entry, Intent, Key, KeyRange, Link, NodeId, OpId, Outcome, ParentHint, Stamp, Value,
};

//! # dhash — lazy updates for a distributed extendible hash table
//!
//! The paper's concluding section promises to "apply lazy updates to other
//! distributed data structures, such as hash tables" (citing Ellis's
//! distributed extendible hashing). This crate is that application, built
//! on the same substrate (`simnet`) and validated by the same correctness
//! theory (`history`):
//!
//! * The **directory** (the hash table's root, mapping the low bits of a
//!   key's hash to a bucket) is replicated on *every* processor — the
//!   analogue of the dB-tree's fully replicated root.
//! * **Buckets** live on a single processor each — the analogue of leaves.
//! * When a bucket overflows it **splits**, deepening its local depth and
//!   handing half its entries to a new *split image*; the directory update
//!   is a **lazy update**: a patch relayed to all processors with no
//!   acknowledgement, no blocking, no synchronization. Patches for
//!   different buckets commute; patches for the same bucket are an ordered
//!   class (by the split's bit index), applied only if newer — stale ones
//!   are skipped, the "rewriting history" move.
//! * A processor with a **stale directory** misroutes operations to a
//!   bucket that has since split; the bucket recovers by forwarding along
//!   its split-image links — the hash-table analogue of the B-link tree's
//!   right-link recovery. The structure is navigable at all times.
//!
//! Protocol variants mirror the dB-tree crate's: [`DirProtocol::Lazy`] (the
//! contribution), [`DirProtocol::Sync`] (patch broadcast with a full ack
//! barrier while the bucket blocks), and [`DirProtocol::NaiveNoLinks`] (no
//! split-image links: misrouted operations are dropped — the lost-insert
//! failure, reproduced here to show the theory transfers).

#![warn(missing_docs)]

mod bucket;
mod cluster;
mod dir;
mod hashfn;
mod msg;
mod proc;

pub use bucket::{Bucket, BucketId, BucketRef};
pub use cluster::{
    check_hash_cluster, check_hash_procs, record_final_digests_from, HashCluster, HashOp,
    HashProtocol, HashSim, HashSpec, HashStats, HashViolation, ThreadedHashCluster,
    ThreadedHashRuntime,
};
pub use dir::{DirPatch, Directory, PatchOutcome};
pub use hashfn::{hash_of, matches_pattern, HashBits};
pub use msg::{HKind, HMsg, HOutcome};
pub use proc::{DirProtocol, HashConfig, HashProc};

//! The per-processor hash-table engine.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use history::{HistoryLog, ObserveKind};
use parking_lot::Mutex;
use simnet::{Context, ProcId, Process};

use crate::bucket::{Bucket, BucketId, BucketRef};
use crate::dir::{DirPatch, Directory, PatchOutcome};
use crate::hashfn::hash_of;
use crate::msg::{BucketSnapshot, HKind, HMsg, HOutcome};

/// History-log "node" id for the directory (each processor's directory is a
/// copy of this one logical node).
pub(crate) const DIR_NODE: u64 = u64::MAX;

/// How directory copies are maintained after a bucket split.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DirProtocol {
    /// The lazy protocol: broadcast the patch, nobody waits, stale copies
    /// recover through split-image links.
    Lazy,
    /// The vigorous baseline: broadcast and wait for every processor's
    /// acknowledgement while the split bucket blocks its operations.
    Sync,
    /// The broken lazy protocol: no split-image links — misrouted
    /// operations are dropped (the hash-table rendition of Fig 4).
    NaiveNoLinks,
}

impl DirProtocol {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            DirProtocol::Lazy => "lazy",
            DirProtocol::Sync => "sync",
            DirProtocol::NaiveNoLinks => "naive",
        }
    }
}

/// Hash-table configuration.
#[derive(Clone, Debug)]
pub struct HashConfig {
    /// Entries per bucket before it splits.
    pub capacity: usize,
    /// Directory maintenance protocol.
    pub protocol: DirProtocol,
    /// Record the history log.
    pub record_history: bool,
}

impl Default for HashConfig {
    fn default() -> Self {
        HashConfig {
            capacity: 8,
            protocol: DirProtocol::Lazy,
            record_history: true,
        }
    }
}

/// Counters a hash processor accumulates.
#[derive(Clone, Copy, Debug, Default)]
pub struct HashMetrics {
    /// Bucket splits initiated.
    pub splits: u64,
    /// Patches applied to the local directory.
    pub patches_applied: u64,
    /// Stale patches skipped.
    pub patches_stale: u64,
    /// Misnavigations recovered via split-image links.
    pub recoveries: u64,
    /// Operations dropped (NaiveNoLinks only).
    pub dropped: u64,
    /// Operations blocked behind a synchronous split.
    pub blocked: u64,
}

struct SyncSplit {
    acks_pending: usize,
}

/// One simulated hash-table processor: a directory copy plus the buckets it
/// owns.
pub struct HashProc {
    /// This processor.
    pub me: ProcId,
    /// Cluster size.
    pub n_procs: u32,
    /// Configuration.
    pub cfg: HashConfig,
    /// The local directory copy.
    pub dir: Directory,
    /// Locally owned buckets.
    pub buckets: BTreeMap<BucketId, Bucket>,
    /// Shared history log.
    pub log: Arc<Mutex<HistoryLog>>,
    /// Counters.
    pub metrics: HashMetrics,
    next_bucket: u64,
    /// Ops that arrived before their bucket's install.
    stash: HashMap<BucketId, Vec<HMsg>>,
    /// Patches whose parent bucket this directory copy has not heard of
    /// yet (their introducing patch is in flight on another channel), with
    /// the processor to acknowledge once applied (sync protocol only).
    pending_patches: Vec<(DirPatch, Option<ProcId>)>,
    /// In-flight synchronous splits, keyed by (bucket, bit).
    sync_splits: HashMap<(BucketId, u8), SyncSplit>,
    /// Buckets currently blocked by a synchronous split.
    blocked_buckets: HashSet<BucketId>,
}

impl HashProc {
    /// A processor with the given initial directory and buckets.
    pub fn new(
        me: ProcId,
        n_procs: u32,
        cfg: HashConfig,
        dir: Directory,
        buckets: BTreeMap<BucketId, Bucket>,
        log: Arc<Mutex<HistoryLog>>,
    ) -> Self {
        // Bootstrap ids are minted with dense per-processor counters, so
        // continuing from the local count is collision-free.
        let next_bucket = buckets.len() as u64;
        HashProc {
            me,
            n_procs,
            cfg,
            dir,
            buckets,
            log,
            metrics: HashMetrics::default(),
            next_bucket,
            stash: HashMap::new(),
            pending_patches: Vec::new(),
            sync_splits: HashMap::new(),
            blocked_buckets: HashSet::new(),
        }
    }

    fn mint_bucket(&mut self) -> BucketId {
        let id = BucketId::mint(self.me, self.next_bucket);
        self.next_bucket += 1;
        id
    }

    /// Pending stash sizes (quiescence checker).
    pub fn stash_sizes(&self) -> BTreeMap<BucketId, usize> {
        self.stash.iter().map(|(k, v)| (*k, v.len())).collect()
    }

    fn handle_client(&mut self, ctx: &mut Context<'_, HMsg>, op: u64, key: u64, kind: HKind) {
        let h = hash_of(key);
        let target = self.dir.route(h);
        let msg = HMsg::AtBucket {
            op,
            key,
            h,
            kind,
            bucket: target.id,
            hops: 0,
            recoveries: 0,
        };
        if self.buckets.contains_key(&target.id) {
            ctx.send(self.me, msg);
        } else {
            ctx.send(target.home, msg);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_at_bucket(
        &mut self,
        ctx: &mut Context<'_, HMsg>,
        op: u64,
        key: u64,
        h: u64,
        kind: HKind,
        bucket: BucketId,
        hops: u32,
        recoveries: u32,
    ) {
        let remake = || HMsg::AtBucket {
            op,
            key,
            h,
            kind,
            bucket,
            hops,
            recoveries,
        };
        let Some(b) = self.buckets.get(&bucket) else {
            // Install in flight (a patch outran the image placement): stash.
            self.stash.entry(bucket).or_default().push(remake());
            return;
        };
        if self.blocked_buckets.contains(&bucket) {
            self.metrics.blocked += 1;
            self.stash.entry(bucket).or_default().push(remake());
            return;
        }
        if !b.owns(h) {
            // Misnavigated: the directory copy that routed us was stale.
            match b.image_for(h) {
                Some(image) => {
                    self.metrics.recoveries += 1;
                    let msg = HMsg::AtBucket {
                        op,
                        key,
                        h,
                        kind,
                        bucket: image.id,
                        hops: hops + 1,
                        recoveries: recoveries + 1,
                    };
                    if self.buckets.contains_key(&image.id) {
                        ctx.send(self.me, msg);
                    } else {
                        ctx.send(image.home, msg);
                    }
                }
                None => {
                    // NaiveNoLinks (or a genuine routing hole): the
                    // operation cannot proceed — report it lost.
                    self.metrics.dropped += 1;
                    ctx.send(
                        ProcId::EXTERNAL,
                        HMsg::Done(HOutcome {
                            op,
                            found: None,
                            hops: hops + 1,
                            recoveries,
                            lost: true,
                        }),
                    );
                }
            }
            return;
        }

        // The owning bucket: perform the operation.
        let b = self.buckets.get_mut(&bucket).expect("checked");
        let found = match kind {
            HKind::Search => b.entries.get(&h).map(|&(_, v)| v),
            HKind::Insert(v) => b.entries.insert(h, (key, v)).map(|(_, old)| old),
            HKind::Delete => b.entries.remove(&h).map(|(_, v)| v),
        };
        ctx.send(
            ProcId::EXTERNAL,
            HMsg::Done(HOutcome {
                op,
                found,
                hops: hops + 1,
                recoveries,
                lost: false,
            }),
        );
        if matches!(kind, HKind::Insert(_)) {
            self.maybe_split(ctx, bucket);
        }
    }

    /// Split `bucket` while it exceeds capacity (several rounds if the
    /// entries skew to one side).
    fn maybe_split(&mut self, ctx: &mut Context<'_, HMsg>, bucket: BucketId) {
        loop {
            let needs = self
                .buckets
                .get(&bucket)
                .map(|b| b.entries.len() > self.cfg.capacity && b.local_depth < 48)
                .unwrap_or(false);
            if !needs || self.blocked_buckets.contains(&bucket) {
                return;
            }
            self.split_once(ctx, bucket);
            if self.cfg.protocol == DirProtocol::Sync {
                // The sync protocol blocks the bucket until all acks; any
                // further split resumes after the barrier.
                return;
            }
        }
    }

    fn split_once(&mut self, ctx: &mut Context<'_, HMsg>, bucket: BucketId) {
        let image_id = self.mint_bucket();
        let me = self.me;
        // Split images go round-robin over the other processors, spreading
        // the load (on a single processor, back to itself).
        let image_home = ProcId(
            (me.0 + 1 + (image_id.raw() % (self.n_procs as u64 - 1).max(1)) as u32) % self.n_procs,
        );
        let tag = self.log.lock().issue("dir-patch");

        let (bit, patch, snapshot) = {
            let b = self
                .buckets
                .get_mut(&bucket)
                .expect("splitting a local bucket");
            let (bit, sib_pattern, moved) = b.split();
            let new_depth = b.local_depth;
            let image_ref = BucketRef {
                id: image_id,
                home: image_home,
                local_depth: new_depth,
            };
            if self.cfg.protocol != DirProtocol::NaiveNoLinks {
                b.record_image(bit, image_ref);
            }
            let snapshot = BucketSnapshot {
                id: image_id,
                pattern: sib_pattern,
                local_depth: new_depth,
                entries: moved.into_iter().collect(),
            };
            let patch = DirPatch {
                parent: bucket,
                new_depth,
                bit,
                image: image_ref,
                tag,
            };
            (bit, patch, snapshot)
        };
        self.metrics.splits += 1;

        // Place the image.
        if image_home == me {
            self.install_bucket(ctx, snapshot, tag);
        } else {
            ctx.send(image_home, HMsg::InstallBucket { snapshot, tag });
        }

        // Publish the directory update.
        {
            let mut log = self.log.lock();
            log.observe_initial(DIR_NODE, me.0, tag);
        }
        self.apply_patch_local(ctx, &patch, None);
        match self.cfg.protocol {
            DirProtocol::Lazy | DirProtocol::NaiveNoLinks => {
                for p in 0..self.n_procs {
                    let p = ProcId(p);
                    if p != me {
                        ctx.send(p, HMsg::Patch(patch));
                    }
                }
            }
            DirProtocol::Sync => {
                let peers = self.n_procs as usize - 1;
                if peers == 0 {
                    return;
                }
                self.blocked_buckets.insert(bucket);
                self.sync_splits.insert(
                    (bucket, bit),
                    SyncSplit {
                        acks_pending: peers,
                    },
                );
                for p in 0..self.n_procs {
                    let p = ProcId(p);
                    if p != me {
                        ctx.send(p, HMsg::PatchSync { patch, from: me });
                    }
                }
            }
        }
    }

    /// Apply a patch; `ack` is the processor to acknowledge (sync protocol)
    /// once the patch has actually been incorporated — a `ParentUnknown`
    /// patch defers its acknowledgement along with itself, otherwise the
    /// splitter's barrier would release while this copy is stale.
    fn apply_patch_local(
        &mut self,
        ctx: &mut Context<'_, HMsg>,
        patch: &DirPatch,
        ack: Option<ProcId>,
    ) {
        match self.dir.apply(patch) {
            PatchOutcome::Applied => {
                self.metrics.patches_applied += 1;
                self.log
                    .lock()
                    .observe(DIR_NODE, self.me.0, patch.tag, ObserveKind::Applied);
                self.send_ack(ctx, patch, ack);
                self.drain_pending_patches(ctx);
            }
            PatchOutcome::Stale => {
                self.metrics.patches_stale += 1;
                self.log
                    .lock()
                    .observe(DIR_NODE, self.me.0, patch.tag, ObserveKind::Applied);
                self.send_ack(ctx, patch, ack);
            }
            PatchOutcome::ParentUnknown => {
                // Hold it (and its acknowledgement) until the parent's own
                // introduction lands.
                self.pending_patches.push((*patch, ack));
            }
        }
    }

    fn send_ack(&self, ctx: &mut Context<'_, HMsg>, patch: &DirPatch, ack: Option<ProcId>) {
        if let Some(to) = ack {
            ctx.send(
                to,
                HMsg::PatchAck {
                    parent: patch.parent,
                    bit: patch.bit,
                },
            );
        }
    }

    /// Retry held patches: each successful apply can unlock others (split
    /// chains), so iterate to a fixpoint.
    fn drain_pending_patches(&mut self, ctx: &mut Context<'_, HMsg>) {
        loop {
            let mut progressed = false;
            let pending = std::mem::take(&mut self.pending_patches);
            for (patch, ack) in pending {
                match self.dir.apply(&patch) {
                    PatchOutcome::Applied => {
                        progressed = true;
                        self.metrics.patches_applied += 1;
                        self.log.lock().observe(
                            DIR_NODE,
                            self.me.0,
                            patch.tag,
                            ObserveKind::Applied,
                        );
                        self.send_ack(ctx, &patch, ack);
                    }
                    PatchOutcome::Stale => {
                        self.metrics.patches_stale += 1;
                        self.log.lock().observe(
                            DIR_NODE,
                            self.me.0,
                            patch.tag,
                            ObserveKind::Applied,
                        );
                        self.send_ack(ctx, &patch, ack);
                    }
                    PatchOutcome::ParentUnknown => self.pending_patches.push((patch, ack)),
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// Count of patches still waiting for their parent (quiescence check).
    pub fn pending_patch_count(&self) -> usize {
        self.pending_patches.len()
    }

    fn handle_patch_ack(&mut self, ctx: &mut Context<'_, HMsg>, parent: BucketId, bit: u8) {
        let done = {
            let Some(s) = self.sync_splits.get_mut(&(parent, bit)) else {
                return;
            };
            s.acks_pending -= 1;
            s.acks_pending == 0
        };
        if done {
            self.sync_splits.remove(&(parent, bit));
            self.blocked_buckets.remove(&parent);
            // Replay operations that queued behind the barrier.
            if let Some(msgs) = self.stash.remove(&parent) {
                for m in msgs {
                    ctx.send(self.me, m);
                }
            }
            // The bucket may still be overfull.
            self.maybe_split(ctx, parent);
        }
    }

    fn install_bucket(&mut self, ctx: &mut Context<'_, HMsg>, snapshot: BucketSnapshot, tag: u64) {
        let mut b = Bucket::new(snapshot.id, snapshot.pattern, snapshot.local_depth);
        b.entries = snapshot.entries.into_iter().collect();
        let id = b.id;
        self.buckets.insert(id, b);
        self.log.lock().copy_created(id.raw(), self.me.0, [tag]);
        if let Some(msgs) = self.stash.remove(&id) {
            for m in msgs {
                ctx.send(self.me, m);
            }
        }
        // The new bucket may itself be overfull (skewed split).
        self.maybe_split(ctx, id);
    }
}

impl Process for HashProc {
    type Msg = HMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, HMsg>, from: ProcId, msg: HMsg) {
        match msg {
            HMsg::Client { op, key, kind } => self.handle_client(ctx, op, key, kind),
            HMsg::AtBucket {
                op,
                key,
                h,
                kind,
                bucket,
                hops,
                recoveries,
            } => self.handle_at_bucket(ctx, op, key, h, kind, bucket, hops, recoveries),
            HMsg::Patch(patch) => self.apply_patch_local(ctx, &patch, None),
            HMsg::PatchSync { patch, from } => self.apply_patch_local(ctx, &patch, Some(from)),
            HMsg::PatchAck { parent, bit } => self.handle_patch_ack(ctx, parent, bit),
            HMsg::InstallBucket { snapshot, tag } => self.install_bucket(ctx, snapshot, tag),
            HMsg::Done(_) => debug_assert!(false, "Done delivered to a processor"),
        }
        let _ = from;
    }
}

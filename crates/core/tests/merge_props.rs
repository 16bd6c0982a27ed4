//! Property tests for the anti-entropy state merge
//! ([`NodeCopy::merge_from`]): the recovery layer may deliver snapshots
//! duplicated, reordered, or crossed with one another and with ordinary
//! relayed updates, so the merge must be a join-semilattice on copy state —
//! **commutative**, **associative**, and **idempotent** — and a merge must
//! subsume any prefix/subset of the update stream it summarizes
//! (op-replay and state-merge land every copy on the same digest).

use dbtree::{ChildRef, Entry, Key, KeyRange, Link, NodeCopy, NodeId, ParentHint};
use proptest::prelude::*;
use simnet::ProcId;

/// The node identity every generated copy shares (the merge is only
/// defined between copies of the same logical node).
const NODE: NodeId = NodeId(7);

/// Everything [`NodeCopy::merge_from`] claims to join, order-normalized:
/// membership is position-insensitive on the wire (each member's join
/// version is what matters), so it canonicalizes to a sorted map.
type Canon = (
    KeyRange,
    (u64, u64),
    Vec<(Key, Entry)>,
    (Option<Link>, u64),
    Option<ParentHint>,
    ProcId,
    Vec<(ProcId, u64)>,
);

fn canon(c: &NodeCopy) -> Canon {
    let mut members: Vec<(ProcId, u64)> = c
        .copies
        .iter()
        .copied()
        .zip(c.join_versions.iter().copied())
        .collect();
    members.sort_unstable_by_key(|(p, _)| *p);
    (
        c.range,
        (c.version, c.absorb_count),
        c.entries.iter().map(|(k, e)| (*k, *e)).collect(),
        (c.right, c.right_link_version),
        c.parent,
        c.pc,
        members,
    )
}

fn merged(a: &NodeCopy, b: &NodeCopy) -> NodeCopy {
    let mut out = a.clone();
    out.merge_from(&b.snapshot());
    out
}

fn arb_entry() -> impl Strategy<Value = Entry> {
    prop_oneof![
        (0u64..1_000, 1u64..40).prop_map(|(value, stamp)| Entry::Val { value, stamp }),
        (1u64..40).prop_map(|stamp| Entry::Tomb { stamp }),
        (0u64..12, 0u32..4, 0u64..15).prop_map(|(node, home, version)| Entry::Child(ChildRef {
            node: NodeId(node),
            home: ProcId(home),
            version,
        })),
    ]
}

fn arb_link() -> impl Strategy<Value = Option<Link>> {
    prop_oneof![
        Just(None::<Link>),
        (1u64..12, 0u32..4).prop_map(|(node, home)| Some(Link::new(NodeId(node), ProcId(home)))),
    ]
}

/// An arbitrary offer to a parent register. The node determines the low key
/// (a node's low never moves) unless `skew` says otherwise — the join is a
/// maximum in a total order and must hold its laws on any input, but what
/// the version-ordered link changes relied on is only claimed for honest
/// ones.
fn arb_hint() -> impl Strategy<Value = ParentHint> {
    (1u64..8, 0u32..4, 0u64..6, prop_oneof![Just(0u64), 0u64..3]).prop_map(
        |(node, home, version, skew)| ParentHint {
            link: Link::new(NodeId(node), ProcId(home)),
            low: node * 10 + skew,
            version,
        },
    )
}

/// A register's content: empty, or some earlier offer.
fn arb_held() -> impl Strategy<Value = Option<ParentHint>> {
    prop_oneof![Just(None::<ParentHint>), arb_hint().prop_map(Some)]
}

fn joined(a: Option<ParentHint>, b: ParentHint) -> Option<ParentHint> {
    let mut slot = a;
    b.join_into(&mut slot);
    slot
}

/// An arbitrary copy of `NODE`: a range narrowed to some high bound (splits
/// only ever shrink the high side), entries inside it, arbitrary version,
/// links (each with its change version), PC, and membership.
fn arb_copy() -> impl Strategy<Value = NodeCopy> {
    (
        (
            prop_oneof![Just(None::<u64>), (10u64..120).prop_map(Some)],
            proptest::collection::vec((0u64..120, arb_entry()), 0..12),
            0u64..15,
            arb_link(),
        ),
        (
            arb_held(),
            0u32..4,
            proptest::collection::vec((0u32..6, 0u64..15), 1..5),
        ),
        0u64..6,
    )
        .prop_map(
            |((high, entries, version, right), (parent, pc, members), rlv)| {
                let range = KeyRange::new(0, high);
                let mut c = NodeCopy::new(NODE, 0, range, ProcId(pc));
                c.entries = entries
                    .into_iter()
                    .filter(|(k, _)| range.contains(*k))
                    .collect();
                c.version = version;
                c.right = right;
                c.parent = parent;
                c.right_link_version = rlv;
                // Dedup members (later join version wins) via a sorted map, the
                // same shape `canon` reduces to.
                let members: std::collections::BTreeMap<u32, u64> = members.into_iter().collect();
                c.copies = members.keys().map(|&p| ProcId(p)).collect();
                c.join_versions = members.values().copied().collect();
                c
            },
        )
}

/// Copies drawn from one *structural timeline* with merge-at-empty in play:
///
/// ```text
/// stage 0  [0, ∞)    epoch 0   pre-split
/// stage 1  [0, 60)   epoch 0   split at 60
/// stage 2  [0, 90)   epoch 1   absorbed the emptied [60, 90) sibling
/// stage 3  [0, ∞)    epoch 2   absorbed the emptied [90, ∞) sibling
/// ```
///
/// The coupling the free generator above cannot express: a copy whose range
/// *re-admits* a region (epoch ≥ 1) carries the retirement's tombstones —
/// with stamps dominating every value any staler copy holds there — because
/// a leaf only retires once fully tombed and the absorb ships those tombs.
/// Without that, "range widened" + "no dominating entry" lets a stale value
/// resurrect in one merge order but not another, and the lattice laws fail.
fn arb_epoch_copies() -> impl Strategy<Value = Vec<NodeCopy>> {
    (
        proptest::collection::vec((0u64..120, 1u64..40, 0u64..1_000), 1..14),
        proptest::collection::vec((0usize..4, any::<u32>()), 3..4),
    )
        .prop_map(|(pool, picks)| {
            // One write per key (first wins): the pool is the set of leaf
            // writes the structure ever saw, each relayed to some copies.
            let mut writes: Vec<(Key, u64, u64)> = Vec::new();
            for (k, stamp, value) in pool {
                if !writes.iter().any(|(wk, ..)| *wk == k) {
                    writes.push((k, stamp, value));
                }
            }
            picks
                .into_iter()
                .map(|(stage, mask)| {
                    let (high, epoch) = match stage {
                        0 => (None, 0),
                        1 => (Some(60), 0),
                        2 => (Some(90), 1),
                        _ => (None, 2),
                    };
                    let range = KeyRange::new(0, high);
                    let mut c = NodeCopy::new(NODE, 0, range, ProcId(0));
                    c.absorb_count = epoch;
                    for (i, &(k, stamp, value)) in writes.iter().enumerate() {
                        if mask >> (i % 32) & 1 == 1 && range.contains(k) {
                            c.upsert(k, Entry::Val { value, stamp });
                        }
                    }
                    // The carried tombstones of each absorb this stage saw.
                    for &(k, ..) in &writes {
                        let readmitted =
                            (epoch >= 1 && (60..90).contains(&k)) || (epoch >= 2 && k >= 90);
                        if readmitted {
                            c.upsert(k, Entry::Tomb { stamp: 49 });
                        }
                    }
                    c
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// x ⊔ x = x, and merging anything twice changes nothing the second
    /// time (`merge_from` reports no change).
    #[test]
    fn merge_is_idempotent(a in arb_copy(), b in arb_copy()) {
        let mut self_merge = a.clone();
        self_merge.merge_from(&a.snapshot());
        prop_assert_eq!(canon(&self_merge), canon(&a));

        let mut once = a.clone();
        once.merge_from(&b.snapshot());
        let again = once.merge_from(&b.snapshot());
        prop_assert!(!again, "second identical merge reported a change");
    }

    /// x ⊔ y = y ⊔ x (on the canonical projection — membership vectors may
    /// list members in a different order, which the wire format permits).
    #[test]
    fn merge_is_commutative(a in arb_copy(), b in arb_copy()) {
        prop_assert_eq!(canon(&merged(&a, &b)), canon(&merged(&b, &a)));
    }

    /// (x ⊔ y) ⊔ z = x ⊔ (y ⊔ z).
    #[test]
    fn merge_is_associative(a in arb_copy(), b in arb_copy(), c in arb_copy()) {
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert_eq!(canon(&left), canon(&right));
    }

    /// The parent register's join on its own — the one function descents,
    /// `LinkChange { Parent }`, `merge_from` and root growth all write
    /// through: a semilattice that never lowers `low`, reports a change
    /// exactly when it made one, and between two reports of one node is the
    /// `(version, link)` join the version-ordered link changes used.
    #[test]
    fn parent_hint_join_is_a_monotone_semilattice(
        a in arb_hint(), b in arb_hint(), c in arb_hint(),
        held in arb_held(),
    ) {
        prop_assert_eq!(joined(Some(a), a), Some(a));
        prop_assert_eq!(joined(Some(a), b), joined(Some(b), a));
        prop_assert_eq!(
            joined(joined(Some(a), b), c),
            joined(Some(a), joined(Some(b), c).expect("a join of two hints"))
        );

        let mut slot = held;
        let changed = a.join_into(&mut slot);
        prop_assert_eq!(changed, slot != held);
        prop_assert_eq!(changed, a.outranks(held));
        let after = slot.expect("an offer leaves the register full");
        prop_assert!(held.is_none_or(|h| after.low >= h.low), "low went down");
        prop_assert!(after.low >= a.low);
        prop_assert!(!a.join_into(&mut slot), "the second identical offer wrote");

        if a.link.node == b.link.node && a.low == b.low {
            let key = |h: ParentHint| (h.version, h.link.node, h.link.home);
            let want = if key(a) >= key(b) { a } else { b };
            prop_assert_eq!(joined(Some(a), b), Some(want));
        }
    }

    /// The lattice laws extended over merge-at-empty epochs: copies drawn
    /// from an absorb-bearing structural timeline (with the tombstone
    /// coupling retirement guarantees) still join commutatively,
    /// associatively, and idempotently — the epoch counter orders the
    /// structural part wholesale and the carried tombs make the re-admitted
    /// regions converge by rank.
    #[test]
    fn merge_laws_hold_across_absorb_epochs(fam in arb_epoch_copies()) {
        let (a, b, c) = (&fam[0], &fam[1], &fam[2]);

        let mut self_merge = a.clone();
        self_merge.merge_from(&a.snapshot());
        prop_assert_eq!(canon(&self_merge), canon(a));

        prop_assert_eq!(canon(&merged(a, b)), canon(&merged(b, a)));

        let left = merged(&merged(a, b), c);
        let right = merged(a, &merged(b, c));
        prop_assert_eq!(canon(&left), canon(&right));
        prop_assert_eq!(left.digest(), right.digest());
    }

    /// Op-replay and state-merge converge: one replica applies the full
    /// update stream (and possibly a split) action by action; a second
    /// replica applies only an arbitrary subset, in reverse order — then a
    /// single state merge from the first must land the second on exactly
    /// the first's state and digest, the way a rehabilitation push or a
    /// restart pull catches a copy up without replaying what it missed.
    #[test]
    fn state_merge_subsumes_op_replay(
        ops in proptest::collection::vec((0u64..100, 0u64..1_000), 1..24),
        applied in proptest::collection::vec(any::<bool>(), 24..25),
        split_at in prop_oneof![Just(None::<usize>), (0usize..24).prop_map(Some)],
    ) {
        let base = {
            let mut c = NodeCopy::new(NODE, 0, KeyRange::new(0, None), ProcId(0));
            for k in [10u64, 40, 70] {
                c.upsert(k, Entry::Val { value: k, stamp: 1 });
            }
            c
        };

        // Replica A: the full stream, stamps unique and increasing (the
        // driver's stamps are globally unique), split applied mid-stream.
        let mut a = base.clone();
        for (i, &(key, value)) in ops.iter().enumerate() {
            if Some(i) == split_at && a.entries.len() >= 2 {
                let (_sep, _sib_range, _moved) = a.half_split();
                a.right = Some(Link::new(NodeId(99), ProcId(3)));
                a.right_link_version = a.version + 1;
                a.version += 1;
            }
            if a.range.contains(key) {
                a.upsert(key, Entry::Val { value, stamp: 2 + i as u64 });
            }
        }

        // Replica B: an arbitrary subset, applied in reverse order (relays
        // to different copies arrive in different interleavings).
        let mut b = base.clone();
        for (i, &(key, value)) in ops.iter().enumerate().rev() {
            if applied.get(i).copied().unwrap_or(false) && b.range.contains(key) {
                b.upsert(key, Entry::Val { value, stamp: 2 + i as u64 });
            }
        }

        b.merge_from(&a.snapshot());
        prop_assert_eq!(canon(&b), canon(&a));
        prop_assert_eq!(b.digest(), a.digest());
    }
}

/// The crash-catch-up race the schedule explorer found (blink-crash,
/// fault-align): a restarted PC splits a leaf, then a §4.3 pull response a
/// peer computed *before* applying the split relay arrives — a stale
/// pre-split snapshot whose right link still names the old neighbour. The
/// merge must keep the split's right link: the node's §4.3 version cannot
/// order links (splits leave it alone), so the join runs on the range's
/// high bound, which the split narrowed in the same atomic action.
#[test]
fn stale_presplit_snapshot_cannot_undo_a_split() {
    // Post-split copy: [20,30), right = the new sibling n11.
    let mut post = NodeCopy::new(NODE, 0, KeyRange::new(20, Some(30)), ProcId(1));
    post.right = Some(Link::new(NodeId(11), ProcId(1)));
    post.right_link_version = 1;
    // Stale pre-split snapshot: [20,40), right = the old neighbour n20 —
    // whose arbitrary tie-break rank happens to beat the sibling's.
    let mut stale = NodeCopy::new(NODE, 0, KeyRange::new(20, Some(40)), ProcId(1));
    stale.right = Some(Link::new(NodeId(20), ProcId(2)));

    let mut healed = post.clone();
    healed.merge_from(&stale.snapshot());
    assert_eq!(healed.right, post.right, "stale snapshot undid the split");
    assert_eq!(healed.range, post.range);

    // And the merge converges from the other side too.
    stale.merge_from(&post.snapshot());
    assert_eq!(stale.right, post.right);
    assert_eq!(stale.digest(), healed.digest());
}

/// The merge-at-empty mirror of the stale-presplit case: an absorber that
/// applied an absorb (epoch bumped, range widened, right link adopted) must
/// not be dragged back by a stale pre-absorb snapshot — the epoch counter
/// orders the join wholesale, because unlike splits the range's high bound
/// *grew*, so the narrower-range-wins tie-break alone would pick the wrong
/// side.
#[test]
fn stale_preabsorb_snapshot_cannot_undo_an_absorb() {
    // Post-absorb copy: widened to [20,40), adopted right = n9, epoch 1.
    let mut post = NodeCopy::new(NODE, 0, KeyRange::new(20, Some(40)), ProcId(1));
    post.right = Some(Link::new(NodeId(9), ProcId(2)));
    post.right_link_version = 2;
    post.absorb_count = 1;
    // Stale pre-absorb snapshot: [20,30), right = the retired neighbour.
    let mut stale = NodeCopy::new(NODE, 0, KeyRange::new(20, Some(30)), ProcId(1));
    stale.right = Some(Link::new(NodeId(11), ProcId(1)));
    stale.right_link_version = 1;

    let mut healed = post.clone();
    healed.merge_from(&stale.snapshot());
    assert_eq!(healed.range, post.range, "stale snapshot undid the absorb");
    assert_eq!(healed.right, post.right);
    assert_eq!(healed.absorb_count, 1);

    stale.merge_from(&post.snapshot());
    assert_eq!(stale.range, post.range);
    assert_eq!(stale.right, post.right);
    assert_eq!(stale.digest(), healed.digest());
}

/// Delete → re-insert overwrite stamps survive the state merge: a replica
/// that saw only the tombstone joins with one that saw the later re-insert,
/// and the re-insert wins in both merge orders (stamps totally order the
/// Val/Tomb lattice); symmetrically a later tombstone beats an earlier Val.
#[test]
fn overwrite_stamps_survive_merge() {
    let base = NodeCopy::new(NODE, 0, KeyRange::new(0, None), ProcId(0));

    // A: delete (stamp 5) then re-insert (stamp 9). B: only the delete.
    let mut a = base.clone();
    a.upsert(10, Entry::Tomb { stamp: 5 });
    a.upsert(
        10,
        Entry::Val {
            value: 77,
            stamp: 9,
        },
    );
    let mut b = base.clone();
    b.upsert(10, Entry::Tomb { stamp: 5 });

    let mut ba = b.clone();
    ba.merge_from(&a.snapshot());
    assert_eq!(
        ba.entries.get(&10),
        Some(&Entry::Val {
            value: 77,
            stamp: 9
        }),
        "re-insert after delete lost to the tombstone"
    );
    let mut ab = a.clone();
    ab.merge_from(&b.snapshot());
    assert_eq!(ab.digest(), ba.digest());

    // And the dual: a later tombstone shadows an earlier value.
    let mut c = base.clone();
    c.upsert(10, Entry::Val { value: 3, stamp: 2 });
    let mut d = base.clone();
    d.upsert(10, Entry::Val { value: 3, stamp: 2 });
    d.upsert(10, Entry::Tomb { stamp: 6 });
    c.merge_from(&d.snapshot());
    assert_eq!(c.entries.get(&10), Some(&Entry::Tomb { stamp: 6 }));
}

/// The reverse-order replay above silently skips out-of-range keys; this
/// pins that entries B holds *beyond* A's split point are dropped by the
/// merge exactly as [`NodeCopy::apply_split`] would have dropped them.
#[test]
fn merge_drops_entries_the_split_moved_away() {
    let mut a = NodeCopy::new(NODE, 0, KeyRange::new(0, Some(50)), ProcId(0));
    a.upsert(10, Entry::Val { value: 1, stamp: 5 });

    let mut b = NodeCopy::new(NODE, 0, KeyRange::new(0, None), ProcId(0));
    b.upsert(10, Entry::Val { value: 1, stamp: 5 });
    b.upsert(80, Entry::Val { value: 8, stamp: 6 });

    b.merge_from(&a.snapshot());
    assert_eq!(b.range, KeyRange::new(0, Some(50)));
    let keys: Vec<Key> = b.entries.keys().copied().collect();
    assert_eq!(keys, vec![10]);
    assert_eq!(b.digest(), a.digest());
}

//! Model test for [`Entries`], the sorted inline array that replaced the
//! per-node `BTreeMap<Key, Entry>`: random sequences of every method it
//! offers, run side by side against the map it replaced.
//!
//! Sizes are driven across the inline ↔ spilled boundary (10 entries) in both
//! directions — inserts up to ~40, `split_off` / `retain` back down to 0 —
//! and after every step the two must agree on content. Identity is checked
//! where it is used: the state fingerprint of a copy
//! (`NodeCopy::fingerprint_into`, what every explorer pin depends on) must
//! follow the content and nothing else.

use std::collections::BTreeMap;
use std::hash::Hasher;
use std::ops::Bound;

use dbtree::{ChildRef, Entries, Entry, Key, KeyRange, NodeCopy, NodeId};
use proptest::prelude::*;
use simnet::ProcId;

/// Keys are inserted in `LOW..HIGH`; probes and range bounds also fall
/// outside it, at and beyond both ends.
const LOW: Key = 5;
const HIGH: Key = 45;
const BEYOND: Key = 50;

#[derive(Clone, Debug)]
enum Op {
    Insert(Key, Entry),
    Get(Key),
    /// Overwrite through `get_mut`.
    GetMut(Key, Entry),
    Range(Bound<Key>, Bound<Key>, bool),
    /// Split at the key; carry on with the tail (`true`) or the head.
    SplitOff(Key, bool),
    /// Drop keys with `k % m == r`; restamp the survivors through `&mut`.
    Retain(u64, u64),
    /// Rebuild from a list with duplicate keys, in list order.
    FromIter(Vec<(Key, Entry)>),
    /// Round-trip through the owning iterator.
    IntoIter,
}

fn arb_entry() -> impl Strategy<Value = Entry> {
    prop_oneof![
        (0u64..1_000, 0u64..99).prop_map(|(value, stamp)| Entry::Val { value, stamp }),
        (0u64..99).prop_map(|stamp| Entry::Tomb { stamp }),
        (0u64..64, 0u32..4, 0u64..9).prop_map(|(node, home, version)| {
            Entry::Child(ChildRef {
                node: NodeId(node),
                home: ProcId(home),
                version,
            })
        }),
    ]
}

fn arb_bound() -> impl Strategy<Value = Bound<Key>> {
    prop_oneof![
        Just(Bound::Unbounded),
        (0..BEYOND).prop_map(Bound::Included),
        (0..BEYOND).prop_map(Bound::Excluded),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    let insert = || (LOW..HIGH, arb_entry()).prop_map(|(k, e)| Op::Insert(k, e));
    prop_oneof![
        // Inserts outweigh the shrinking ops so runs climb past the inline
        // capacity before something cuts them back down.
        insert(),
        insert(),
        insert(),
        insert(),
        insert(),
        insert(),
        (0..BEYOND).prop_map(Op::Get),
        (0..BEYOND, arb_entry()).prop_map(|(k, e)| Op::GetMut(k, e)),
        (arb_bound(), arb_bound(), any::<bool>()).prop_map(|(lo, hi, rev)| Op::Range(lo, hi, rev)),
        (0..BEYOND, any::<bool>()).prop_map(|(k, tail)| Op::SplitOff(k, tail)),
        (1u64..5, 0u64..5).prop_map(|(m, r)| Op::Retain(m, r)),
        proptest::collection::vec((LOW..HIGH, arb_entry()), 0..40).prop_map(Op::FromIter),
        Just(Op::IntoIter),
    ]
}

/// The map's `range` panics on inverted bounds; the model only asks for
/// ranges the node manager could.
fn well_formed(lo: Bound<Key>, hi: Bound<Key>) -> bool {
    match (lo, hi) {
        (Bound::Excluded(a), Bound::Excluded(b)) => a < b,
        (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => {
            a <= b
        }
        _ => true,
    }
}

fn pairs<'a>(it: impl Iterator<Item = (&'a Key, &'a Entry)>) -> Vec<(Key, Entry)> {
    it.map(|(k, e)| (*k, *e)).collect()
}

/// Everything observable without a key: content through each iterator, and
/// the length.
fn assert_same(e: &Entries, m: &BTreeMap<Key, Entry>) {
    assert_eq!(e.len(), m.len());
    assert_eq!(e.is_empty(), m.is_empty());
    assert_eq!(pairs(e.iter()), pairs(m.iter()));
    assert_eq!(pairs(e.into_iter()), pairs(m.iter()));
    assert_eq!(e.as_slice(), pairs(m.iter()).as_slice());
    assert!(e.keys().eq(m.keys()));
    assert!(e.values().eq(m.values()));
    assert!(e.keys().rev().eq(m.keys().rev()));
}

/// The three range shapes the node manager runs, at every key: `..=k`
/// reversed (`child_for`), `..k` reversed (the merge's left-edge lookup)
/// and `k..` (a scan's harvest).
fn assert_same_ranges(e: &Entries, m: &BTreeMap<Key, Entry>) {
    for k in 0..BEYOND {
        assert_eq!(pairs(e.range(..=k).rev()), pairs(m.range(..=k).rev()));
        assert_eq!(pairs(e.range(..k).rev()), pairs(m.range(..k).rev()));
        assert_eq!(pairs(e.range(k..)), pairs(m.range(k..)));
    }
}

fn apply(op: Op, e: &mut Entries, m: &mut BTreeMap<Key, Entry>) {
    match op {
        Op::Insert(k, v) => assert_eq!(e.insert(k, v), m.insert(k, v)),
        Op::Get(k) => assert_eq!(e.get(&k), m.get(&k)),
        Op::GetMut(k, v) => {
            let (mine, theirs) = (e.get_mut(&k), m.get_mut(&k));
            assert_eq!(mine, theirs);
            if let (Some(mine), Some(theirs)) = (mine, theirs) {
                *mine = v;
                *theirs = v;
            }
        }
        Op::Range(lo, hi, rev) => {
            if !well_formed(lo, hi) {
                return;
            }
            let (mine, theirs) = (e.range((lo, hi)), m.range((lo, hi)));
            assert_eq!(mine.len(), theirs.clone().count());
            if rev {
                assert_eq!(pairs(mine.rev()), pairs(theirs.rev()));
            } else {
                assert_eq!(pairs(mine), pairs(theirs));
            }
        }
        Op::SplitOff(k, keep_tail) => {
            let (mine, theirs) = (e.split_off(&k), m.split_off(&k));
            assert_same(&mine, &theirs);
            if keep_tail {
                assert_same(e, m);
                (*e, *m) = (mine, theirs);
            }
        }
        Op::Retain(modulus, residue) => {
            let keep = |k: &Key, v: &mut Entry| {
                if let Entry::Val { stamp, .. } | Entry::Tomb { stamp } = v {
                    *stamp += 100;
                }
                k % modulus != residue
            };
            e.retain(keep);
            m.retain(keep);
        }
        Op::FromIter(list) => {
            *e = list.iter().copied().collect();
            *m = list.into_iter().collect();
        }
        Op::IntoIter => {
            let owned: Vec<(Key, Entry)> = e.clone().into_iter().collect();
            assert_eq!(owned, pairs(m.iter()));
            *e = owned.into_iter().collect();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    #[test]
    fn entries_behave_as_the_map_they_replaced(
        ops in proptest::collection::vec(arb_op(), 1..160),
    ) {
        let mut e = Entries::new();
        let mut m = BTreeMap::new();
        for op in ops {
            apply(op, &mut e, &mut m);
            assert_same(&e, &m);
        }
        assert_same_ranges(&e, &m);
    }
}

/// A leaf whose entries were inserted in the order given.
fn leaf_of(entries: impl IntoIterator<Item = (Key, Entry)>) -> NodeCopy {
    let mut c = NodeCopy::new(NodeId(1), 0, KeyRange::ALL, ProcId(0));
    for (k, e) in entries {
        c.entries.insert(k, e);
    }
    c
}

fn fingerprint(c: &NodeCopy) -> u64 {
    let mut h = simnet::FxHasher::default();
    c.fingerprint_into(&mut h);
    h.finish()
}

proptest! {
    /// A copy's state fingerprint is its content: the same entries hash
    /// equal whatever order they arrived in and whether or not the array
    /// spilled to the heap and shrank back on the way (a shrink leaves stale
    /// slots behind the length); one differing entry — another stamp, a
    /// tombstone for a value, anything else — hashes different.
    #[test]
    fn fingerprint_follows_the_content_not_the_route(
        list in proptest::collection::vec((LOW..HIGH, arb_entry()), 1..40),
        rotate in 0usize..40,
        victim in 0usize..40,
        other in arb_entry(),
    ) {
        let content: Vec<(Key, Entry)> =
            list.into_iter().collect::<BTreeMap<_, _>>().into_iter().collect();
        let want = fingerprint(&leaf_of(content.iter().copied()));

        let mut rotated = content.clone();
        rotated.rotate_left(rotate % content.len());
        prop_assert_eq!(fingerprint(&leaf_of(rotated)), want);
        prop_assert_eq!(fingerprint(&leaf_of(content.iter().rev().copied())), want);

        // Grow well past the inline capacity, then shrink back by each route.
        let filler = (BEYOND..BEYOND + 20).map(|k| (k, Entry::Tomb { stamp: k }));
        let mut split = leaf_of(content.iter().copied().chain(filler.clone()));
        split.entries.split_off(&BEYOND);
        prop_assert_eq!(fingerprint(&split), want);
        let mut retained = leaf_of(filler.chain(content.iter().copied()));
        retained.entries.retain(|k, _| *k < BEYOND);
        prop_assert_eq!(fingerprint(&retained), want);

        let (key, entry) = content[victim % content.len()];
        let restamped = match entry {
            Entry::Val { value, stamp } => Entry::Val { value, stamp: stamp + 1 },
            Entry::Tomb { stamp } => Entry::Tomb { stamp: stamp + 1 },
            Entry::Child(c) => Entry::Child(ChildRef { version: c.version + 1, ..c }),
        };
        let tombstoned = Entry::Tomb { stamp: entry.stamp().unwrap_or(0) };
        for changed in [restamped, tombstoned, other] {
            if changed != entry {
                let mut c = leaf_of(content.iter().copied());
                c.entries.insert(key, changed);
                prop_assert_ne!(fingerprint(&c), want, "{:?} -> {:?}", entry, changed);
            }
        }
    }
}

/// The boundary itself, deterministically: 0 → 40 entries one insert at a
/// time (descending, ascending and interleaved keys), then back to 0 by
/// `split_off` from the top and by `retain`, compared at every size.
#[test]
fn every_size_across_the_spill_boundary_both_ways() {
    let val = |k: Key| Entry::Val { value: k, stamp: k };
    let orders: [Vec<Key>; 3] = [
        (0..40).collect(),
        (0..40).rev().collect(),
        (0..20).flat_map(|i| [i, 39 - i]).collect(),
    ];
    for order in orders {
        let mut e = Entries::new();
        let mut m = BTreeMap::new();
        for k in order {
            apply(Op::Insert(k, val(k)), &mut e, &mut m);
            assert_same(&e, &m);
            assert_same_ranges(&e, &m);
        }
        let (mut e2, mut m2) = (e.clone(), m.clone());
        for k in (0..40).rev() {
            apply(Op::SplitOff(k, false), &mut e, &mut m);
            assert_same(&e, &m);
            assert_same_ranges(&e, &m);
        }
        assert!(e.is_empty());
        for cut in 1..=40 {
            let keep = |k: &Key, _: &mut Entry| *k >= cut;
            e2.retain(keep);
            m2.retain(keep);
            assert_same(&e2, &m2);
        }
        assert!(e2.is_empty());
    }
}

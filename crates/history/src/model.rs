//! The formal model of §3, executable.
//!
//! A *node value* is the state of one search-structure node: a key range, a
//! set of keys, and a right-sibling name. An *action* maps a value to a new
//! value plus a set of *subsequent actions* (here reduced to the observable
//! side effects that matter for commutativity: entries forwarded to a
//! sibling, siblings created). A *history* is an initial value plus a
//! sequence of actions; two histories are **compatible** when they are valid,
//! reach the same final value, and have the same uniform update actions.

use std::collections::BTreeSet;
use std::fmt;

/// A toy search-structure node value: the concrete domain over which the §3
/// definitions are exercised.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NodeValue {
    /// Inclusive lower bound of the node's responsibility.
    pub low: u64,
    /// Exclusive upper bound (`None` = +∞).
    pub high: Option<u64>,
    /// Keys currently stored.
    pub keys: BTreeSet<u64>,
    /// Name of the right sibling (0 = none). Half-splits change this, which
    /// is exactly why they do not commute with each other.
    pub right: u64,
}

impl NodeValue {
    /// A node covering `[low, high)` with no keys.
    pub fn new(low: u64, high: Option<u64>) -> Self {
        NodeValue {
            low,
            high,
            keys: BTreeSet::new(),
            right: 0,
        }
    }

    /// Range membership.
    pub fn in_range(&self, key: u64) -> bool {
        key >= self.low && self.high.is_none_or(|h| key < h)
    }
}

/// An update action on a copy, in the paper's notation `a^t(p, c)`.
///
/// The superscript `t ∈ {i, r}` (initial vs relayed) is the `initial` flag;
/// the parameter `p` is the key (or split point); the tag identifies the
/// logical update so that an initial action and its relays count as the same
/// *uniform* action.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// `I(key)` / `i(key)` — insert a key.
    Insert {
        /// Uniform identity of this update.
        tag: u64,
        /// The key inserted.
        key: u64,
        /// Initial (capital-I) or relayed (lowercase-i) form.
        initial: bool,
    },
    /// `S(at, sib)` / `s(at, sib)` — half-split: shrink the range to
    /// `[low, at)`, point `right` at `sib`; keys ≥ `at` leave the node.
    HalfSplit {
        /// Uniform identity of this update.
        tag: u64,
        /// Split point.
        at: u64,
        /// Name of the new sibling.
        sib: u64,
        /// Initial or relayed form.
        initial: bool,
    },
    /// `R(fwd)` / `r(fwd)` — retire: collapse the range to empty and point
    /// `right` at the forwarding target `fwd` (the left absorber).
    ///
    /// The *initial* form models the grant-then-commit re-verify: it is a
    /// no-op unless the node is empty (a live key at commit time declines
    /// the merge). The *relayed* form applies unconditionally — by the time
    /// a peer sees it the primary has already committed — and any keys a
    /// stale copy still holds are discarded (the stamps that emptied the
    /// node dominate them).
    Retire {
        /// Uniform identity of this update.
        tag: u64,
        /// Name of the left absorber the right link forwards to.
        fwd: u64,
        /// Initial or relayed form.
        initial: bool,
    },
    /// `A(to, right)` / `a(to, right)` — absorb: widen the range upward to
    /// `to` (the retired neighbour's high bound) and adopt its right
    /// sibling `right`. The mirror image of a half-split: where `S` shrinks
    /// `[low, high)` to `[low, at)`, `A` grows it to `[low, to)`.
    Absorb {
        /// Uniform identity of this update.
        tag: u64,
        /// New (exclusive) high bound — the retired node's high.
        to: u64,
        /// The retired node's right sibling (0 = none).
        right: u64,
        /// Initial or relayed form.
        initial: bool,
    },
}

impl Action {
    /// The uniform identity (initial/relayed distinction erased — `U(H)` in
    /// the paper).
    pub fn tag(&self) -> u64 {
        match *self {
            Action::Insert { tag, .. }
            | Action::HalfSplit { tag, .. }
            | Action::Retire { tag, .. }
            | Action::Absorb { tag, .. } => tag,
        }
    }

    /// Observable side effects of applying an action: the subsequent-action
    /// set reduced to what affects compatibility.
    ///
    /// * `Insert` out of range (initial): the key is routed right — the
    ///   action is *valid* but its effect lands elsewhere.
    /// * `Insert` out of range (relayed): discarded.
    /// * `HalfSplit`: keys at or beyond the split point move to the sibling.
    pub fn apply(&self, value: &NodeValue) -> (NodeValue, Effects) {
        let mut v = value.clone();
        let mut fx = Effects::default();
        match *self {
            Action::Insert { key, initial, .. } => {
                if v.in_range(key) {
                    v.keys.insert(key);
                } else if initial {
                    fx.routed_right.insert(key);
                } else {
                    fx.discarded.insert(key);
                }
            }
            Action::HalfSplit {
                at, sib, initial, ..
            } => {
                let moved: BTreeSet<u64> = v.keys.split_off(&at);
                if initial {
                    // The initial split's subsequent action ships these to
                    // the new sibling.
                    fx.moved_to_sibling.extend(moved);
                } else {
                    // A relayed split just drops them: the initial split at
                    // the primary already moved the authoritative copies.
                    fx.discarded.extend(moved);
                }
                v.high = Some(at.min(v.high.unwrap_or(u64::MAX)));
                v.right = sib;
            }
            Action::Retire { fwd, initial, .. } => {
                if initial && !v.keys.is_empty() {
                    // Commit-time re-verify: a live key declines the merge.
                } else {
                    fx.discarded.extend(std::mem::take(&mut v.keys));
                    v.high = Some(v.low);
                    v.right = fwd;
                }
            }
            Action::Absorb { to, right, .. } => {
                // Widening only: an unbounded range stays unbounded, a
                // bounded one never shrinks (absorbs arrive ordered by
                // epoch, so a late absorb with a smaller bound is stale).
                v.high = v.high.map(|h| h.max(to));
                if right != 0 {
                    v.right = right;
                }
            }
        }
        (v, fx)
    }
}

/// Side effects of applying an action.
///
/// `routed_right` and `moved_to_sibling` are *subsequent actions* in the
/// paper's sense — other nodes observe them, so commutativity must preserve
/// them. `discarded` is purely diagnostic: a discard has no subsequent
/// action and does not participate in the §4.1 commutativity relation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Effects {
    /// Keys an initial insert forwarded through the right link
    /// (a subsequent action).
    pub routed_right: BTreeSet<u64>,
    /// Keys dropped with no subsequent action: relayed inserts that arrived
    /// out of range, and entries a *relayed* split removed (the initial
    /// split already shipped the authoritative copies).
    pub discarded: BTreeSet<u64>,
    /// Keys an *initial* half-split transferred to the new sibling
    /// (a subsequent action).
    pub moved_to_sibling: BTreeSet<u64>,
}

/// A copy history `H_c = I_c · a_1 … a_m` (§3.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct History {
    /// The copy's original value `I_c`.
    pub initial: NodeValue,
    /// Update actions in execution order.
    pub actions: Vec<Action>,
}

/// Why two histories are not compatible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompatibleError {
    /// Final values differ.
    FinalValue {
        /// Final value of the left history.
        left: NodeValue,
        /// Final value of the right history.
        right: NodeValue,
    },
    /// Uniform update multisets differ (tags present in one but not the
    /// other).
    UniformActions {
        /// Tags only in the left history.
        only_left: Vec<u64>,
        /// Tags only in the right history.
        only_right: Vec<u64>,
    },
}

impl fmt::Display for CompatibleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompatibleError::FinalValue { left, right } => {
                write!(f, "final values differ: {left:?} vs {right:?}")
            }
            CompatibleError::UniformActions {
                only_left,
                only_right,
            } => write!(
                f,
                "uniform actions differ: only-left {only_left:?}, only-right {only_right:?}"
            ),
        }
    }
}

impl History {
    /// A history starting from `initial` with no actions yet.
    pub fn new(initial: NodeValue) -> Self {
        History {
            initial,
            actions: Vec::new(),
        }
    }

    /// Append an action.
    pub fn push(&mut self, a: Action) {
        self.actions.push(a);
    }

    /// Replay to the final value, accumulating effects.
    pub fn final_value(&self) -> (NodeValue, Effects) {
        let mut v = self.initial.clone();
        let mut total = Effects::default();
        for a in &self.actions {
            let (nv, fx) = a.apply(&v);
            v = nv;
            total.routed_right.extend(fx.routed_right);
            total.discarded.extend(fx.discarded);
            total.moved_to_sibling.extend(fx.moved_to_sibling);
        }
        (v, total)
    }

    /// The uniform history `U(H)`: update tags with the initial/relayed
    /// distinction removed, order preserved.
    pub fn uniform(&self) -> Vec<u64> {
        self.actions.iter().map(Action::tag).collect()
    }

    /// Backwards extension (§3.1): prepend `prefix`'s actions, replacing this
    /// history's initial value with the prefix's. The result has the same
    /// final value as `self` when `prefix` replays to `self.initial`.
    pub fn backwards_extend(&self, prefix: &History) -> History {
        let mut actions = prefix.actions.clone();
        actions.extend(self.actions.iter().copied());
        History {
            initial: prefix.initial.clone(),
            actions,
        }
    }

    /// The compatibility relation `H_1 ≡ H_2` (§3.1): same final value and
    /// same uniform update actions (as multisets — the rearrangement the
    /// paper allows means order is not compared).
    pub fn compatible(&self, other: &History) -> Result<(), CompatibleError> {
        let (lv, _) = self.final_value();
        let (rv, _) = other.final_value();
        if lv != rv {
            return Err(CompatibleError::FinalValue {
                left: lv,
                right: rv,
            });
        }
        let mut l = self.uniform();
        let mut r = other.uniform();
        l.sort_unstable();
        r.sort_unstable();
        if l != r {
            let only_left: Vec<u64> = l.iter().filter(|t| !r.contains(t)).copied().collect();
            let only_right: Vec<u64> = r.iter().filter(|t| !l.contains(t)).copied().collect();
            return Err(CompatibleError::UniformActions {
                only_left,
                only_right,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ins(tag: u64, key: u64, initial: bool) -> Action {
        Action::Insert { tag, key, initial }
    }
    fn split(tag: u64, at: u64, sib: u64, initial: bool) -> Action {
        Action::HalfSplit {
            tag,
            at,
            sib,
            initial,
        }
    }
    fn retire(tag: u64, fwd: u64, initial: bool) -> Action {
        Action::Retire { tag, fwd, initial }
    }
    fn absorb(tag: u64, to: u64, right: u64, initial: bool) -> Action {
        Action::Absorb {
            tag,
            to,
            right,
            initial,
        }
    }

    /// Fig 3: two copies of a parent receive inserts for new siblings A' and
    /// B' in opposite orders; the copies converge.
    #[test]
    fn fig3_lazy_inserts_commute() {
        let parent = NodeValue::new(0, None);
        let mut h1 = History::new(parent.clone());
        let mut h2 = History::new(parent);
        // Copy 1 sees I(A') then i(B'); copy 2 sees I(B') then i(A').
        h1.push(ins(1, 10, true));
        h1.push(ins(2, 20, false));
        h2.push(ins(2, 20, true));
        h2.push(ins(1, 10, false));
        h1.compatible(&h2).expect("Fig 3: inserts commute");
    }

    /// Relayed half-splits commute with relayed inserts (§4.1 rule 3): the
    /// final value is order-independent.
    #[test]
    fn relayed_split_commutes_with_relayed_insert() {
        let mut base = NodeValue::new(0, None);
        base.keys.insert(5);
        let mut h1 = History::new(base.clone());
        let mut h2 = History::new(base);
        // h1: insert 3 then split at 10; h2: split at 10 then insert 3.
        h1.push(ins(1, 3, false));
        h1.push(split(2, 10, 99, false));
        h2.push(split(2, 10, 99, false));
        h2.push(ins(1, 3, false));
        h1.compatible(&h2).expect("commute when key stays in range");
    }

    /// §4.1 rule 2: half-splits do NOT commute — the right-sibling pointer
    /// depends on order.
    #[test]
    fn half_splits_do_not_commute() {
        let base = NodeValue::new(0, None);
        let mut h1 = History::new(base.clone());
        let mut h2 = History::new(base);
        h1.push(split(1, 10, 100, true));
        h1.push(split(2, 5, 101, false));
        h2.push(split(2, 5, 101, true));
        h2.push(split(1, 10, 100, false));
        let err = h1.compatible(&h2).unwrap_err();
        assert!(matches!(err, CompatibleError::FinalValue { .. }));
    }

    /// Fig 4, replayed in the model: if a relayed insert for a key that a
    /// split moved away is *discarded* instead of re-routed, the copies end
    /// with different key sets → incompatible final values.
    #[test]
    fn fig4_lost_insert_breaks_compatibility() {
        let base = NodeValue::new(0, None);
        // Copy c performs I4 (key 15) then relayed split s1 at 10 — the key
        // moves to the sibling; locally fine.
        let mut hc = History::new(base.clone());
        hc.push(ins(4, 15, true));
        hc.push(split(1, 10, 100, false));
        // PC performs S1 first, then receives i4: out of range → discarded
        // (the naive protocol). The final values happen to agree here (both
        // lost key 15 from this node) — which is exactly the insidious part:
        // the *node* histories agree while the key vanished from the
        // structure. The model records it in the effects.
        let mut hpc = History::new(base);
        hpc.push(split(1, 10, 100, true));
        hpc.push(ins(4, 15, false));
        hc.compatible(&hpc).expect("node-local histories agree");
        let (_, fx_c) = hc.final_value();
        let (_, fx_pc) = hpc.final_value();
        // The key is dropped everywhere: copy c's *relayed* split removes
        // it with no subsequent action (the PC's initial split never saw
        // it), and the PC discards the late relay. Nothing ships the key to
        // the sibling — the lost insert of Fig 4.
        assert!(fx_c.discarded.contains(&15));
        assert!(fx_c.moved_to_sibling.is_empty());
        assert!(fx_pc.discarded.contains(&15));
    }

    /// The semisync fix: the PC *re-routes* the out-of-range relayed insert
    /// (rewriting history so i precedes S). Modelled as the insert arriving
    /// as an initial action, whose effect is routed right, not dropped.
    #[test]
    fn fig5_semisync_rewrite_preserves_the_key() {
        let base = NodeValue::new(0, None);
        let mut hpc = History::new(base);
        hpc.push(split(1, 10, 100, true));
        hpc.push(ins(4, 15, true)); // PC turns the relay into an initial insert
        let (_, fx) = hpc.final_value();
        assert!(fx.routed_right.contains(&15), "key forwarded, not lost");
        assert!(fx.discarded.is_empty());
    }

    #[test]
    fn backwards_extension_preserves_final_value() {
        let mut prefix = History::new(NodeValue::new(0, None));
        prefix.push(ins(1, 1, true));
        prefix.push(ins(2, 2, true));
        let (mid, _) = prefix.final_value();
        let mut h = History::new(mid);
        h.push(ins(3, 3, true));
        let ext = h.backwards_extend(&prefix);
        assert_eq!(ext.final_value().0, h.final_value().0);
        assert_eq!(ext.uniform(), vec![1, 2, 3]);
    }

    #[test]
    fn uniform_erases_initial_flag() {
        let mut h1 = History::new(NodeValue::new(0, None));
        let mut h2 = History::new(NodeValue::new(0, None));
        h1.push(ins(7, 3, true));
        h2.push(ins(7, 3, false));
        assert_eq!(h1.uniform(), h2.uniform());
    }

    /// Grant-then-commit, in the model: an initial retire against a node
    /// that regained a key is a no-op — the commit re-verify declines.
    #[test]
    fn initial_retire_declines_on_live_keys() {
        let mut v = NodeValue::new(10, Some(20));
        v.keys.insert(15);
        let (after, fx) = retire(1, 7, true).apply(&v);
        assert_eq!(after, v, "re-verify must refuse to drop a live key");
        assert_eq!(fx, Effects::default());
    }

    /// A committed retire collapses the range and forwards right; a relayed
    /// retire at a stale copy additionally discards whatever the copy still
    /// held (tombstone stamps dominate those entries).
    #[test]
    fn retire_collapses_range_and_forwards() {
        let v = NodeValue::new(10, Some(20));
        let (after, _) = retire(1, 7, true).apply(&v);
        assert_eq!(after.high, Some(10));
        assert_eq!(after.right, 7);

        let mut stale = NodeValue::new(10, Some(20));
        stale.keys.insert(12);
        let (after, fx) = retire(1, 7, false).apply(&stale);
        assert!(after.keys.is_empty());
        assert!(fx.discarded.contains(&12));
    }

    /// The merge pair in sequence: the absorber's range grows to exactly
    /// cover what the retired neighbour gave up, and it adopts the retired
    /// node's right sibling — the leaf chain stays a tiling.
    #[test]
    fn retire_then_absorb_tiles_the_chain() {
        let mut left = NodeValue::new(0, Some(10));
        left.right = 5; // the neighbour about to retire
        let neighbour = NodeValue::new(10, Some(20));
        let (n_after, _) = retire(1, /* fwd = left */ 4, true).apply(&neighbour);
        assert_eq!(n_after.high, Some(n_after.low), "retired range is empty");
        let (l_after, _) = absorb(2, 20, /* neighbour.right */ 9, true).apply(&left);
        assert_eq!(l_after.high, Some(20), "absorber covers the gap");
        assert_eq!(l_after.right, 9, "absorber adopts the retired right link");
    }

    /// Relayed retires commute with relayed inserts — both orders leave an
    /// empty, forwarded node — which is why retirement can ride the lazy
    /// relay stream without an AAS.
    #[test]
    fn relayed_retire_commutes_with_relayed_insert() {
        let base = NodeValue::new(0, Some(100));
        let mut h1 = History::new(base.clone());
        let mut h2 = History::new(base);
        h1.push(ins(1, 3, false));
        h1.push(retire(2, 7, false));
        h2.push(retire(2, 7, false));
        h2.push(ins(1, 3, false));
        h1.compatible(&h2).expect("r and i commute");
    }

    /// Absorbs do not commute with each other: like half-splits, the final
    /// right pointer depends on order. This is why relayed absorbs carry an
    /// epoch counter and apply in sequence.
    #[test]
    fn absorbs_do_not_commute() {
        let base = NodeValue::new(0, Some(10));
        let mut h1 = History::new(base.clone());
        let mut h2 = History::new(base);
        h1.push(absorb(1, 20, 100, true));
        h1.push(absorb(2, 30, 200, false));
        h2.push(absorb(2, 30, 200, true));
        h2.push(absorb(1, 20, 100, false));
        let err = h1.compatible(&h2).unwrap_err();
        assert!(matches!(err, CompatibleError::FinalValue { .. }));
    }

    /// Absorb commutes with in-range inserts: it only ever *widens* the
    /// range, so no insert's routing decision can change across it. This is
    /// the model-level form of "retirement commutes with leaf writes".
    #[test]
    fn absorb_commutes_with_inserts() {
        let mut base = NodeValue::new(0, Some(10));
        base.keys.insert(3);
        for initial in [true, false] {
            let mut h1 = History::new(base.clone());
            let mut h2 = History::new(base.clone());
            h1.push(ins(1, 5, initial));
            h1.push(absorb(2, 20, 100, false));
            h2.push(absorb(2, 20, 100, false));
            h2.push(ins(1, 5, initial));
            h1.compatible(&h2).expect("absorb is range-widening only");
        }
    }

    #[test]
    fn incompatible_when_tags_differ() {
        let mut h1 = History::new(NodeValue::new(0, None));
        let mut h2 = History::new(NodeValue::new(0, None));
        h1.push(ins(1, 3, true));
        h2.push(ins(1, 3, true));
        h2.push(ins(2, 3, false)); // same key, extra tag: same value, diff tags
        let err = h1.compatible(&h2).unwrap_err();
        assert!(matches!(err, CompatibleError::UniformActions { .. }));
    }
}

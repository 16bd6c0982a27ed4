//! Property-based tests for the sequential tree: model-checked against
//! `BTreeMap` and structurally validated after arbitrary workloads.

use std::collections::BTreeMap;

use blink::{check_blink, BLinkTree};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The B-link tree behaves exactly like a `BTreeMap` and stays
    /// structurally valid, for any insert sequence and fanout.
    #[test]
    fn blink_matches_btreemap(
        fanout in 4usize..32,
        ops in proptest::collection::vec((0u64..5_000, 0u64..1_000), 1..400),
    ) {
        let mut tree = BLinkTree::new(fanout);
        let mut model = BTreeMap::new();
        for &(k, v) in &ops {
            let was_new = tree.insert(k, v);
            let model_new = model.insert(k, v).is_none();
            prop_assert_eq!(was_new, model_new, "newness agrees for key {}", k);
        }
        prop_assert_eq!(tree.len(), model.len() as u64);
        check_blink(&tree).map_err(|e| TestCaseError::fail(e.to_string()))?;
        for (&k, &v) in &model {
            prop_assert_eq!(tree.get(k), Some(v));
        }
        // Absent keys are absent.
        for probe in [5_001u64, 9_999, u64::MAX] {
            prop_assert_eq!(tree.get(probe), model.get(&probe).copied());
        }
    }

    /// Range scans return exactly the model's range, in order.
    #[test]
    fn blink_scans_match_btreemap(
        fanout in 4usize..16,
        keys in proptest::collection::vec(0u64..2_000, 1..300),
        from in 0u64..2_000,
        width in 1u64..500,
    ) {
        let mut tree = BLinkTree::new(fanout);
        let mut model = BTreeMap::new();
        for &k in &keys {
            tree.insert(k, k * 3);
            model.insert(k, k * 3);
        }
        let to = from.saturating_add(width);
        let got = tree.range_scan(from, Some(to));
        let want: Vec<(u64, u64)> = model.range(from..to).map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got, want);
    }
}

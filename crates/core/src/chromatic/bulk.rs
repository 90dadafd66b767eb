//! Batch updates: each element is a point update, in input order.
//!
//! [`ChromaticTree::insert_bulk`] and [`ChromaticTree::remove_bulk`] are
//! loops over [`insert`](ChromaticTree::insert) and
//! [`remove`](ChromaticTree::remove). Every element is the paper's one
//! localized update followed by its rebalancing steps (§5), under that
//! update's own cached-guard pin, so a batch adds no code path of its own
//! and a concurrent reader sees it take effect in input order.

use super::ChromaticTree;

impl<K, V> ChromaticTree<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Inserts a whole batch, returning the displaced value per element
    /// in input order. Each element is an [`insert`](Self::insert), so a
    /// batch is not a transaction and the last duplicate wins.
    ///
    /// ```
    /// let tree = nbtree::ChromaticTree::new();
    /// tree.insert(20, "old");
    /// let displaced = tree.insert_bulk(&[(10, "a"), (20, "b"), (10, "c")]);
    /// // Input-order results: 10 was absent, 20 held "old", 10 then held "a".
    /// assert_eq!(displaced, vec![None, Some("old"), Some("a")]);
    /// assert_eq!(tree.get(&10), Some("c"), "last duplicate wins");
    /// ```
    pub fn insert_bulk(&self, pairs: &[(K, V)]) -> Vec<Option<V>> {
        pairs
            .iter()
            .map(|(k, v)| self.insert(k.clone(), v.clone()))
            .collect()
    }

    /// Removes a whole batch of keys, returning the removed value per key
    /// in input order. Each key is a [`remove`](Self::remove), so the
    /// first duplicate wins and the rest observe the key absent.
    ///
    /// ```
    /// let tree = nbtree::ChromaticTree::new();
    /// tree.insert_bulk(&[(1, "a"), (2, "b"), (3, "c")]);
    /// let removed = tree.remove_bulk(&[2, 9, 2, 1]);
    /// assert_eq!(removed, vec![Some("b"), None, None, Some("a")]);
    /// assert_eq!(tree.collect(), vec![(3, "c")]);
    /// ```
    pub fn remove_bulk(&self, keys: &[K]) -> Vec<Option<V>> {
        keys.iter().map(|k| self.remove(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bulk_is_a_noop() {
        let t = ChromaticTree::<u64, u64>::new();
        assert_eq!(t.insert_bulk(&[]), Vec::<Option<u64>>::new());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn bulk_matches_sequential_application() {
        let t = ChromaticTree::new();
        t.insert(5u64, 50u64);
        let batch = vec![(3, 30), (5, 51), (9, 90), (3, 31), (7, 70)];
        let got = t.insert_bulk(&batch);
        // Sequential input-order application over {5: 50}.
        assert_eq!(got, vec![None, Some(50), None, Some(30), None]);
        assert_eq!(
            t.collect(),
            vec![(3, 31), (5, 51), (7, 70), (9, 90)],
            "last duplicate wins, all keys present"
        );
        let report = t.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn descending_and_random_input_orders_agree() {
        // Distinct keys: input order must not change the final contents.
        let asc = ChromaticTree::new();
        let desc = ChromaticTree::new();
        let keys: Vec<(u64, u64)> = (0..500u64).map(|k| (k * 7 % 501, k)).collect();
        let mut rev = keys.clone();
        rev.reverse();
        asc.insert_bulk(&keys);
        desc.insert_bulk(&rev);
        assert_eq!(asc.collect(), desc.collect());
        assert!(asc.audit().is_valid());
    }

    #[test]
    fn bulk_into_chromatic6_defers_rebalancing_but_stays_valid() {
        let t = ChromaticTree::with_allowed_violations(6);
        let batch: Vec<(u64, u64)> = (0..2000u64).map(|k| (k, k)).collect();
        t.insert_bulk(&batch);
        assert_eq!(t.len(), 2000);
        let report = t.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn whole_batch_into_empty_tree_with_deferred_cleanup_stays_valid() {
        // Large allowance: cleanup never runs, so every red-red the batch
        // creates stays in place, and the audit still holds.
        let t = ChromaticTree::with_allowed_violations(1000);
        let batch: Vec<(u64, u64)> = (0..64u64).map(|k| (k, 2 * k)).collect();
        let got = t.insert_bulk(&batch);
        assert!(got.iter().all(Option::is_none));
        assert_eq!(t.len(), 64);
        let report = t.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
        assert!(report.weighted_path_sum.is_some());
    }

    #[test]
    fn eager_policy_leaves_no_red_red_after_a_batch() {
        let t = ChromaticTree::new(); // allowed_violations = 0
        let batch: Vec<(u64, u64)> = (0..256u64).map(|k| (k, k)).collect();
        t.insert_bulk(&batch);
        let report = t.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
        assert_eq!(
            report.red_red_violations, 0,
            "eager cleanup leaves no red-red behind"
        );
        assert!(report.weighted_path_sum.is_some());
    }

    #[test]
    fn clustered_batch_into_a_sparse_tree_lands_every_key() {
        let t = ChromaticTree::new();
        // Spread-out keys, then a clustered run inside one leaf's window.
        for k in (0..1000u64).step_by(100) {
            t.insert(k, k);
        }
        let batch: Vec<(u64, u64)> = (250..290u64).map(|k| (k, k)).collect();
        let got = t.insert_bulk(&batch);
        assert!(got.iter().all(Option::is_none));
        let report = t.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
        assert_eq!(t.len(), 10 + 40);
    }

    #[test]
    fn empty_remove_bulk_is_a_noop() {
        let t = ChromaticTree::<u64, u64>::new();
        assert_eq!(t.remove_bulk(&[]), Vec::<Option<u64>>::new());
        t.insert(1, 1);
        assert_eq!(t.remove_bulk(&[]), Vec::<Option<u64>>::new());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_bulk_matches_sequential_application() {
        let t = ChromaticTree::new();
        t.insert_bulk(&(0..10u64).map(|k| (k, 10 * k)).collect::<Vec<_>>());
        // Duplicates: the first removal wins, the second sees the key gone.
        let got = t.remove_bulk(&[7, 3, 99, 7, 0]);
        assert_eq!(got, vec![Some(70), Some(30), None, None, Some(0)]);
        assert_eq!(t.len(), 7);
        let report = t.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn remove_bulk_of_every_key_restores_the_empty_shape() {
        let t = ChromaticTree::new();
        t.insert_bulk(&(0..64u64).map(|k| (k, k)).collect::<Vec<_>>());
        let got = t.remove_bulk(&(0..64u64).collect::<Vec<_>>());
        assert!(got.iter().all(Option::is_some));
        assert_eq!(t.len(), 0);
        let report = t.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
        assert_eq!(report.weighted_path_sum, None, "tree drained to Fig. 10(a)");
    }

    #[test]
    fn remove_bulk_descending_and_random_orders_agree() {
        // 13 is invertible mod 301, so the keys are distinct.
        let keys: Vec<u64> = (0..300u64).map(|k| k * 13 % 301).collect();
        let asc = ChromaticTree::new();
        let desc = ChromaticTree::new();
        for t in [&asc, &desc] {
            t.insert_bulk(&keys.iter().map(|&k| (k, k)).collect::<Vec<_>>());
        }
        let victims: Vec<u64> = keys.iter().copied().step_by(2).collect();
        let mut rev = victims.clone();
        rev.reverse();
        let a = asc.remove_bulk(&victims);
        let mut d = desc.remove_bulk(&rev);
        d.reverse();
        // All victims distinct, so order must not matter.
        assert_eq!(a, d);
        assert_eq!(asc.collect(), desc.collect());
        assert!(asc.audit().is_valid());
        assert!(desc.audit().is_valid());
    }

    #[test]
    fn interleaved_bulk_insert_and_remove_keep_the_tree_valid() {
        let t = ChromaticTree::with_allowed_violations(6);
        for round in 0..8u64 {
            let base = round * 97;
            let batch: Vec<(u64, u64)> = (base..base + 200).map(|k| (k, k)).collect();
            t.insert_bulk(&batch);
            let victims: Vec<u64> = (base..base + 200).step_by(3).collect();
            let removed = t.remove_bulk(&victims);
            assert!(removed.iter().all(Option::is_some));
            let report = t.audit();
            assert!(report.is_valid(), "round {round}: {:?}", report.errors);
        }
    }
}

//! # Non-blocking unbalanced leaf-oriented BST
//!
//! The tree of Ellen, Fatourou, Ruppert and van Breugel (PODC 2010),
//! rebuilt with the PPoPP 2014 *tree update template*: this is the paper's
//! demonstration that the template makes such structures nearly mechanical
//! to produce. The whole tree is the shared [`LeafTree`] skeleton of
//! [`nbtree::template`] — sentinels, search, queries — plus Fig. 11's
//! Insert1/Insert2/Delete under the trivial weight rule [`UnitWeights`]
//! (every node weighs 1); nothing here is the tree's own. There is no
//! rebalancing, so the height can be Θ(n) for adversarial key orders —
//! which is exactly why it serves as an experimental baseline against the
//! chromatic tree.
//!
//! ```
//! let t = nbbst::NbBst::new();
//! t.insert(1, "one");
//! assert_eq!(t.get(&1), Some("one"));
//! assert_eq!(t.remove(&1), Some("one"));
//! ```

#![warn(missing_docs)]

use nbtree::template::{LeafTree, UnitWeights};

/// A lock-free unbalanced leaf-oriented BST (ordered map).
///
/// Same sentinel layout as the chromatic tree (paper Fig. 10), same
/// leaf-oriented updates (Insert1/Insert2/Delete of Fig. 11), but no
/// weights are maintained and no rebalancing is performed.
pub struct NbBst<K: Send + Sync + 'static, V: Send + Sync + 'static>(LeafTree<K, V>);

impl<K, V> NbBst<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// An empty tree.
    pub fn new() -> Self {
        NbBst(LeafTree::new())
    }

    /// Value associated with `key`, using only plain reads.
    pub fn get(&self, key: &K) -> Option<V> {
        self.0.get(key)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.0.contains_key(key)
    }

    /// Inserts `key → value`; returns the previous value, if any.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.0.insert::<UnitWeights>(&key, &value).old
    }

    /// Removes `key`; returns its value, if it was present.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.0.remove::<UnitWeights>(key).old
    }

    /// All pairs with keys in `bounds`, sorted — an atomic snapshot,
    /// VLX-validated by the shared scan of [`nbtree::range`].
    pub fn range<B: std::ops::RangeBounds<K>>(&self, bounds: B) -> Vec<(K, V)> {
        self.0.range(bounds)
    }

    /// Number of keys (O(n) traversal snapshot).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map is empty (O(1)).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sorted snapshot of the contents.
    pub fn collect(&self) -> Vec<(K, V)> {
        self.0.collect()
    }
}

impl<K, V> Default for NbBst<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn basics() {
        let t = NbBst::new();
        assert_eq!(t.get(&1), None);
        assert_eq!(t.insert(1, 10), None);
        assert_eq!(t.insert(1, 11), Some(10));
        assert_eq!(t.get(&1), Some(11));
        assert_eq!(t.remove(&1), Some(11));
        assert_eq!(t.remove(&1), None);
        assert!(t.is_empty());
    }

    #[test]
    fn random_against_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let t = NbBst::new();
        let mut model = BTreeMap::new();
        for step in 0..5000u64 {
            let k = rng.gen_range(0..300u64);
            match rng.gen_range(0..3) {
                0 => assert_eq!(t.insert(k, step), model.insert(k, step)),
                1 => assert_eq!(t.remove(&k), model.remove(&k)),
                _ => assert_eq!(t.get(&k), model.get(&k).copied()),
            }
        }
        assert_eq!(t.collect(), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn range_matches_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let t = NbBst::new();
        let mut model = BTreeMap::new();
        for step in 0..2000u64 {
            let k = rng.gen_range(0..256u64);
            if rng.gen_bool(0.7) {
                t.insert(k, step);
                model.insert(k, step);
            } else {
                t.remove(&k);
                model.remove(&k);
            }
            let lo = rng.gen_range(0..256u64);
            let hi = lo + rng.gen_range(0..64u64);
            let expect: Vec<_> = model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(t.range(lo..=hi), expect, "[{lo}, {hi}]");
        }
        assert_eq!(t.range(..), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_stripes() {
        use std::sync::Arc;
        let t = Arc::new(NbBst::new());
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    let base = tid * 1000;
                    for i in 0..1000 {
                        t.insert(base + i, i);
                    }
                    for i in (0..1000).step_by(2) {
                        assert_eq!(t.remove(&(base + i)), Some(i));
                    }
                });
            }
        });
        assert_eq!(t.len(), 4 * 500);
    }
}

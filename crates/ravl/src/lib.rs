//! # Relaxed AVL tree via the tree update template (paper §7)
//!
//! The paper reports that a first-year undergraduate produced a
//! non-blocking relaxed AVL tree (Larsen, *AVL trees with relaxed balance*)
//! from the template in under a week, performing on par with the chromatic
//! tree. This crate reproduces that exercise with a **simplified
//! rank-relaxation**: every node carries an immutable *rank*; updates leave
//! ancestor ranks stale (the relaxation), and localized template updates —
//! rank refreshes and single/double rotations — repair staleness and
//! imbalance afterwards, interleaving freely with other operations.
//!
//! The dictionary itself is the shared [`LeafTree`] skeleton of
//! [`nbtree::template`] with Fig. 11's Insert1/Insert2/Delete under the
//! weight rule [`RankWeights`] (leaf rank 0, fresh internal rank 1, a
//! contracted sibling keeps its rank). What is this crate's own is the
//! repair walk and its rotations, written with the same template helpers.
//!
//! Differences from Larsen's calculus (documented in DESIGN.md): rebalancing
//! here is *best-effort with a bounded number of repair passes per update*
//! rather than amortized O(log n) steps with a proven convergence bound.
//! Dictionary semantics are exact regardless — they come from the template,
//! which guarantees linearizability and lock-freedom independently of any
//! balancing decisions; ranks only steer rotations.

#![warn(missing_docs)]

use llxscx::epoch::{Guard, Shared};
use llxscx::guard_cache::with_guard;
use nbtree::node::Node;
use nbtree::template::{commit, llx_ok, mk_internal, side_of, LeafTree, RankWeights};

/// A lock-free ordered map: leaf-oriented BST with relaxed AVL-style
/// rebalancing. The node type is shared with the chromatic tree; its
/// `weight` field stores the *rank* here (the sentinels' ranks are never
/// consulted).
pub struct RelaxedAvl<K: Send + Sync + 'static, V: Send + Sync + 'static> {
    tree: LeafTree<K, V>,
}

/// Repair passes per update: enough to fix the whole path in quiescence
/// (ranks only need one pass per level), bounded so no interleaving can
/// capture an updater indefinitely.
const MAX_REPAIR_PASSES: usize = 64;

fn rank<K: Send + Sync + 'static, V: Send + Sync + 'static>(n: Shared<'_, Node<K, V>>) -> u32 {
    if n.is_null() {
        0
    } else {
        // SAFETY: caller holds a guard; ranks (weights) immutable.
        unsafe { n.deref() }.weight()
    }
}

impl<K, V> RelaxedAvl<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// An empty map.
    pub fn new() -> Self {
        RelaxedAvl {
            tree: LeafTree::new(),
        }
    }

    /// Lookup with plain reads.
    pub fn get(&self, key: &K) -> Option<V> {
        self.tree.get(key)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.tree.contains_key(key)
    }

    /// Inserts `key → value`; returns the displaced value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        let applied = self.tree.insert::<RankWeights>(&key, &value);
        self.repair(&key);
        applied.old
    }

    /// Removes `key`; returns its value.
    pub fn remove(&self, key: &K) -> Option<V> {
        let applied = self.tree.remove::<RankWeights>(key);
        if applied.reshaped.is_some() {
            self.repair(key);
        }
        applied.old
    }

    /// Bounded repair: walk the search path, fix the first stale-rank or
    /// imbalanced node with one localized template update, restart; stop
    /// after a clean walk or `MAX_REPAIR_PASSES`.
    fn repair(&self, key: &K) {
        for _ in 0..MAX_REPAIR_PASSES {
            let fixed = with_guard(|guard| {
                let mut p = self.tree.entry(guard);
                // SAFETY: the entry sentinel is never reclaimed.
                let mut n = unsafe { p.deref() }.read_child(0, guard);
                loop {
                    // SAFETY: children of internal nodes are non-null and
                    // reached under `guard`.
                    let n_ref = unsafe { n.deref() };
                    if n_ref.is_leaf(guard) {
                        return false;
                    }
                    let (rl, rr) = (
                        rank(n_ref.read_child(0, guard)),
                        rank(n_ref.read_child(1, guard)),
                    );
                    let stale = n_ref.weight() != 1 + rl.max(rr) || rl.abs_diff(rr) >= 2;
                    if !n_ref.is_sentinel_key() && stale {
                        return self.fix_at(p, n, guard).is_some();
                    }
                    p = n;
                    let dir = if n_ref.route_left(key) { 0 } else { 1 };
                    n = n_ref.read_child(dir, guard);
                }
            });
            if !fixed {
                return; // clean walk (or unfixable this pass: bounded retry)
            }
        }
    }

    /// One localized fix at `n` (child of `p`): rank refresh if balanced,
    /// otherwise an AVL single/double rotation — each a template instance.
    /// `Some(())` iff the fix committed.
    fn fix_at<'g>(
        &self,
        p: Shared<'g, Node<K, V>>,
        n: Shared<'g, Node<K, V>>,
        guard: &'g Guard,
    ) -> Option<()> {
        let hp = llx_ok(p, guard)?;
        let dir = side_of(&hp, n)?;
        let hn = llx_ok(n, guard)?;
        let n_key = hn.node_ref().key();
        let (rl, rr) = (rank(hn.left()), rank(hn.right()));
        if rl.abs_diff(rr) < 2 {
            // Rank refresh: replace by a copy with the recomputed rank.
            let new = mk_internal(n_key, 1 + rl.max(rr), 0, hn.left(), hn.right(), guard);
            // SAFETY: `new` was just allocated and is referenced by nothing.
            return unsafe { commit(&[hp, hn], 0b10, dir, new, &[new], guard) }.then_some(());
        }
        // Rotation toward the short side. `heavy` = taller child index.
        let heavy = if rl > rr { 0 } else { 1 };
        let light = 1 - heavy;
        let hc = llx_ok(hn.child(heavy), guard)?;
        if hc.node_ref().is_leaf(guard) {
            return None; // stale ranks below; refresh will happen there
        }
        let (inner, outer) = (hc.child(light), hc.child(heavy));
        // A fresh internal node whose rank is recomputed from its children.
        let mk = |key, child_heavy, child_light| {
            let r = 1 + rank(child_heavy).max(rank(child_light));
            mk_internal(key, r, heavy, child_heavy, child_light, guard)
        };
        if rank(outer) >= rank(inner) {
            // Single rotation: c rises.
            let nn = mk(n_key, inner, hn.child(light));
            let top = mk(hc.node_ref().key(), outer, nn);
            // SAFETY: both nodes were just allocated; `nn` is referenced
            // only by `top`, and `top` by nothing.
            unsafe { commit(&[hp, hn, hc], 0b110, dir, top, &[nn, top], guard) }.then_some(())
        } else {
            // Double rotation: c's inner child rises.
            let hi = llx_ok(inner, guard)?;
            if hi.node_ref().is_leaf(guard) {
                return None;
            }
            let nc = mk(hc.node_ref().key(), outer, hi.child(heavy));
            let nn = mk(n_key, hi.child(light), hn.child(light));
            let top = mk(hi.node_ref().key(), nc, nn);
            // SAFETY: all three nodes were just allocated; `nc` and `nn`
            // are referenced only by `top`, and `top` by nothing.
            unsafe { commit(&[hp, hn, hc, hi], 0b1110, dir, top, &[nc, nn, top], guard) }
                .then_some(())
        }
    }

    /// All pairs with keys in `bounds`, sorted — an atomic snapshot via the
    /// shared VLX-validated scan of [`nbtree::range`] (ranks are irrelevant
    /// to the scan, which only follows routing keys).
    pub fn range<B: std::ops::RangeBounds<K>>(&self, bounds: B) -> Vec<(K, V)> {
        self.tree.range(bounds)
    }

    /// Number of keys (O(n) snapshot).
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the map is empty (O(1)).
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Sorted snapshot of the contents.
    pub fn collect(&self) -> Vec<(K, V)> {
        self.tree.collect()
    }

    /// Longest root-to-leaf path (diagnostics).
    pub fn height(&self) -> usize {
        fn rec<K: Send + Sync + 'static, V: Send + Sync + 'static>(
            x: Shared<'_, Node<K, V>>,
            guard: &Guard,
        ) -> usize {
            if x.is_null() {
                return 0;
            }
            // SAFETY: `x` is non-null (checked above) and reached under `guard`.
            let node = unsafe { x.deref() };
            if node.is_leaf(guard) {
                return 1;
            }
            1 + rec(node.read_child(0, guard), guard).max(rec(node.read_child(1, guard), guard))
        }
        with_guard(|guard| rec(self.tree.entry(guard), guard).saturating_sub(2))
    }
}

impl<K, V> Default for RelaxedAvl<K, V>
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
        let t = RelaxedAvl::new();
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
        let mut rng = StdRng::seed_from_u64(17);
        let t = RelaxedAvl::new();
        let mut model = BTreeMap::new();
        for step in 0..6000u64 {
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
        let mut rng = StdRng::seed_from_u64(23);
        let t = RelaxedAvl::new();
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
    fn rotations_keep_ascending_input_shallow() {
        let t = RelaxedAvl::new();
        let n = 4096u64;
        for i in 0..n {
            t.insert(i, i);
        }
        let h = t.height();
        // Without rebalancing the height would be n; with best-effort
        // relaxed rotations it must stay within a small factor of log2(n).
        assert!(h <= 40, "height {h} suggests rebalancing is not working");
        for i in 0..n {
            assert_eq!(t.get(&i), Some(i));
        }
    }

    #[test]
    fn concurrent_stripes() {
        use std::sync::Arc;
        let t = Arc::new(RelaxedAvl::new());
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    let base = tid * 1500;
                    for i in 0..1500 {
                        assert_eq!(t.insert(base + i, i), None);
                    }
                    for i in (0..1500).step_by(2) {
                        assert_eq!(t.remove(&(base + i)), Some(i));
                    }
                });
            }
        });
        assert_eq!(t.len(), 4 * 750);
    }
}

//! # Lock-based AVL tree with non-blocking searches
//!
//! Stand-in for the lock-based relaxed-AVL baselines of the paper (AVL-B of
//! Bronson et al., AVL-D of Drachsler et al.): *searches never block* while
//! *updates serialize on a lock*. The implementation is a persistent
//! (path-copying) AVL tree: an updater takes the single writer lock, builds
//! the new root-to-leaf path with rotations, and publishes it with one
//! atomic root store; readers traverse the immutable structure under an
//! epoch guard, completely wait-free.
//!
//! This preserves the performance *shape* the paper observes for AVL-B/D:
//! query-heavy workloads scale with threads, update-heavy workloads flatten
//! or regress as writers queue on the lock — without reproducing Bronson's
//! intricate optimistic hand-over-hand validation, which is itself a
//! paper-sized artifact. Substitution documented in DESIGN.md.

#![warn(missing_docs)]

use std::sync::atomic::Ordering;
use std::sync::{Mutex, PoisonError};

use llxscx::epoch::with_guard;
use llxscx::epoch::{Atomic, Guard, Owned, Shared};

struct AvlNode<K, V> {
    key: K,
    value: V,
    height: u32,
    left: Atomic<AvlNode<K, V>>,
    right: Atomic<AvlNode<K, V>>,
}

// SAFETY: all fields immutable after publication (children are `Atomic` only to be
// loadable under a guard; they are never stored to after publication).
unsafe impl<K: Send + Sync, V: Send + Sync> Send for AvlNode<K, V> {}
// SAFETY: same argument as `Send`.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for AvlNode<K, V> {}

/// A concurrent ordered map: wait-free readers over a persistent AVL tree,
/// updates serialized by a global writer lock.
pub struct LockAvl<K, V> {
    root: Atomic<AvlNode<K, V>>,
    writer: Mutex<()>,
}

// SAFETY: updates are serialized by the writer mutex; readers only follow
// epoch-managed `Atomic` links, so cross-thread sharing is sound.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for LockAvl<K, V> {}
// SAFETY: same argument as `Send`.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for LockAvl<K, V> {}

fn height<K, V>(n: Shared<'_, AvlNode<K, V>>) -> u32 {
    if n.is_null() {
        0
    } else {
        // SAFETY: caller holds a guard; heights immutable.
        unsafe { n.deref() }.height
    }
}

impl<K, V> LockAvl<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// An empty map.
    pub fn new() -> Self {
        LockAvl {
            root: Atomic::null(),
            writer: Mutex::new(()),
        }
    }

    fn mk<'g>(
        key: K,
        value: V,
        left: Shared<'g, AvlNode<K, V>>,
        right: Shared<'g, AvlNode<K, V>>,
        guard: &'g Guard,
    ) -> Shared<'g, AvlNode<K, V>> {
        let h = 1 + height(left).max(height(right));
        let node = AvlNode {
            key,
            value,
            height: h,
            left: Atomic::null(),
            right: Atomic::null(),
        };
        // RELAXED: node construction before publication; the writer's Release store publishes
        node.left.store(left, Ordering::Relaxed);
        // RELAXED: node construction before publication; the writer's Release store publishes
        node.right.store(right, Ordering::Relaxed);
        Owned::new(node).into_shared(guard)
    }

    /// Wait-free lookup.
    pub fn get(&self, key: &K) -> Option<V> {
        with_guard(|guard| {
            // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
            // paths
            let mut cur = self.root.load(Ordering::Acquire, guard);
            while !cur.is_null() {
                // SAFETY: nodes reachable from a published root stay allocated
                // for the guard's lifetime (retirements are epoch-deferred).
                let n = unsafe { cur.deref() };
                cur = match key.cmp(&n.key) {
                    // ACQUIRE: reader snapshot: pairs with the writer's Release publication of
                    // rebuilt paths
                    std::cmp::Ordering::Less => n.left.load(Ordering::Acquire, guard),
                    // ACQUIRE: reader snapshot: pairs with the writer's Release publication of
                    // rebuilt paths
                    std::cmp::Ordering::Greater => n.right.load(Ordering::Acquire, guard),
                    std::cmp::Ordering::Equal => return Some(n.value.clone()),
                };
            }
            None
        })
    }

    /// Whether `key` is present (wait-free).
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Smallest key strictly greater than `key` (wait-free snapshot walk).
    pub fn successor(&self, key: &K) -> Option<(K, V)> {
        with_guard(|guard| {
            // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
            // paths
            let mut cur = self.root.load(Ordering::Acquire, guard);
            let mut best: Option<(K, V)> = None;
            while !cur.is_null() {
                // SAFETY: `cur` is non-null (loop condition); path-copied nodes are
                // epoch-retired, so it stays allocated under `guard`.
                let n = unsafe { cur.deref() };
                if &n.key > key {
                    best = Some((n.key.clone(), n.value.clone()));
                    // ACQUIRE: reader snapshot: pairs with the writer's Release publication of
                    // rebuilt paths
                    cur = n.left.load(Ordering::Acquire, guard);
                } else {
                    // ACQUIRE: reader snapshot: pairs with the writer's Release publication of
                    // rebuilt paths
                    cur = n.right.load(Ordering::Acquire, guard);
                }
            }
            best
        })
    }

    /// Largest key strictly smaller than `key`.
    pub fn predecessor(&self, key: &K) -> Option<(K, V)> {
        with_guard(|guard| {
            // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
            // paths
            let mut cur = self.root.load(Ordering::Acquire, guard);
            let mut best: Option<(K, V)> = None;
            while !cur.is_null() {
                // SAFETY: `cur` is non-null (loop condition) and alive under `guard`.
                let n = unsafe { cur.deref() };
                if &n.key < key {
                    best = Some((n.key.clone(), n.value.clone()));
                    // ACQUIRE: reader snapshot: pairs with the writer's Release publication of
                    // rebuilt paths
                    cur = n.right.load(Ordering::Acquire, guard);
                } else {
                    // ACQUIRE: reader snapshot: pairs with the writer's Release publication of
                    // rebuilt paths
                    cur = n.left.load(Ordering::Acquire, guard);
                }
            }
            best
        })
    }

    /// All pairs with keys in `bounds`, sorted. Wait-free and an **atomic
    /// snapshot** for free: updates are path-copying (persistent tree), so
    /// the root pointer loaded once below is an immutable version of the
    /// whole map — the scan linearizes at that single load. Recursion depth
    /// is the AVL height, O(log n).
    pub fn range<B: std::ops::RangeBounds<K>>(&self, bounds: B) -> Vec<(K, V)> {
        use std::ops::Bound;
        fn rec<K: Ord + Clone, V: Clone, B: std::ops::RangeBounds<K>>(
            n: Shared<'_, AvlNode<K, V>>,
            bounds: &B,
            out: &mut Vec<(K, V)>,
            guard: &Guard,
        ) {
            if n.is_null() {
                return;
            }
            // SAFETY: snapshot nodes stay allocated for the guard's lifetime.
            let node = unsafe { n.deref() };
            let descend_left = match bounds.start_bound() {
                Bound::Unbounded => true,
                Bound::Included(lo) | Bound::Excluded(lo) => lo < &node.key,
            };
            let descend_right = match bounds.end_bound() {
                Bound::Unbounded => true,
                Bound::Included(hi) | Bound::Excluded(hi) => hi > &node.key,
            };
            if descend_left {
                // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
                // paths
                rec(node.left.load(Ordering::Acquire, guard), bounds, out, guard);
            }
            if bounds.contains(&node.key) {
                out.push((node.key.clone(), node.value.clone()));
            }
            if descend_right {
                rec(
                    // ACQUIRE: reader snapshot: pairs with the writer's Release publication of
                    // rebuilt paths
                    node.right.load(Ordering::Acquire, guard),
                    bounds,
                    out,
                    guard,
                );
            }
        }
        with_guard(|guard| {
            let mut out = Vec::new();
            rec(
                // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
                // paths
                self.root.load(Ordering::Acquire, guard),
                &bounds,
                &mut out,
                guard,
            );
            out
        })
    }

    /// Rebuilds `(key,value,left,right)` with an AVL rotation if unbalanced.
    /// All nodes created here are fresh; `retired` is untouched (only nodes
    /// from the *old* tree are ever retired).
    fn balance<'g>(
        key: K,
        value: V,
        left: Shared<'g, AvlNode<K, V>>,
        right: Shared<'g, AvlNode<K, V>>,
        guard: &'g Guard,
    ) -> Shared<'g, AvlNode<K, V>> {
        let (hl, hr) = (height(left), height(right));
        if hl > hr + 1 {
            // SAFETY: height ≥ 2 ⇒ non-null.
            let l = unsafe { left.deref() };
            let (ll, lr) = (
                // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
                // paths
                l.left.load(Ordering::Acquire, guard),
                // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
                // paths
                l.right.load(Ordering::Acquire, guard),
            );
            if height(ll) >= height(lr) {
                // Single right rotation.
                let new_right = Self::mk(key, value, lr, right, guard);
                return Self::mk(l.key.clone(), l.value.clone(), ll, new_right, guard);
            }
            // Double rotation (left-right).
            // SAFETY: `hl > hr + 1` forces a non-leaf left-right grandchild; loaded
            // under `guard`.
            let lrn = unsafe { lr.deref() };
            let (lrl, lrr) = (
                // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
                // paths
                lrn.left.load(Ordering::Acquire, guard),
                // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
                // paths
                lrn.right.load(Ordering::Acquire, guard),
            );
            let new_left = Self::mk(l.key.clone(), l.value.clone(), ll, lrl, guard);
            let new_right = Self::mk(key, value, lrr, right, guard);
            return Self::mk(
                lrn.key.clone(),
                lrn.value.clone(),
                new_left,
                new_right,
                guard,
            );
        }
        if hr > hl + 1 {
            // SAFETY: `hr > hl + 1` forces a non-null right child; loaded under `guard`.
            let r = unsafe { right.deref() };
            let (rl, rr) = (
                // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
                // paths
                r.left.load(Ordering::Acquire, guard),
                // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
                // paths
                r.right.load(Ordering::Acquire, guard),
            );
            if height(rr) >= height(rl) {
                let new_left = Self::mk(key, value, left, rl, guard);
                return Self::mk(r.key.clone(), r.value.clone(), new_left, rr, guard);
            }
            // SAFETY: the rebalance case requires a non-null right-left grandchild.
            let rln = unsafe { rl.deref() };
            let (rll, rlr) = (
                // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
                // paths
                rln.left.load(Ordering::Acquire, guard),
                // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
                // paths
                rln.right.load(Ordering::Acquire, guard),
            );
            let new_left = Self::mk(key, value, left, rll, guard);
            let new_right = Self::mk(r.key.clone(), r.value.clone(), rlr, rr, guard);
            return Self::mk(
                rln.key.clone(),
                rln.value.clone(),
                new_left,
                new_right,
                guard,
            );
        }
        Self::mk(key, value, left, right, guard)
    }

    /// Persistent insert: returns the new subtree root; pushes every node of
    /// the old tree that is superseded onto `retired`.
    fn insert_rec<'g>(
        node: Shared<'g, AvlNode<K, V>>,
        key: &K,
        value: &V,
        retired: &mut Vec<Shared<'g, AvlNode<K, V>>>,
        old: &mut Option<V>,
        guard: &'g Guard,
    ) -> Shared<'g, AvlNode<K, V>> {
        if node.is_null() {
            return Self::mk(
                key.clone(),
                value.clone(),
                Shared::null(),
                Shared::null(),
                guard,
            );
        }
        // SAFETY: old tree node under guard.
        let n = unsafe { node.deref() };
        retired.push(node);
        let (l, r) = (
            // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
            // paths
            n.left.load(Ordering::Acquire, guard),
            // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
            // paths
            n.right.load(Ordering::Acquire, guard),
        );
        match key.cmp(&n.key) {
            std::cmp::Ordering::Equal => {
                *old = Some(n.value.clone());
                Self::mk(key.clone(), value.clone(), l, r, guard)
            }
            std::cmp::Ordering::Less => {
                let nl = Self::insert_rec(l, key, value, retired, old, guard);
                Self::balance(n.key.clone(), n.value.clone(), nl, r, guard)
            }
            std::cmp::Ordering::Greater => {
                let nr = Self::insert_rec(r, key, value, retired, old, guard);
                Self::balance(n.key.clone(), n.value.clone(), l, nr, guard)
            }
        }
    }

    /// Removes and returns the minimum of a non-null subtree (persistently).
    fn take_min<'g>(
        node: Shared<'g, AvlNode<K, V>>,
        retired: &mut Vec<Shared<'g, AvlNode<K, V>>>,
        guard: &'g Guard,
    ) -> (Shared<'g, AvlNode<K, V>>, (K, V)) {
        // SAFETY: non-null by caller contract.
        let n = unsafe { node.deref() };
        retired.push(node);
        let (l, r) = (
            // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
            // paths
            n.left.load(Ordering::Acquire, guard),
            // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
            // paths
            n.right.load(Ordering::Acquire, guard),
        );
        if l.is_null() {
            return (r, (n.key.clone(), n.value.clone()));
        }
        let (nl, min) = Self::take_min(l, retired, guard);
        (
            Self::balance(n.key.clone(), n.value.clone(), nl, r, guard),
            min,
        )
    }

    fn remove_rec<'g>(
        node: Shared<'g, AvlNode<K, V>>,
        key: &K,
        retired: &mut Vec<Shared<'g, AvlNode<K, V>>>,
        old: &mut Option<V>,
        guard: &'g Guard,
    ) -> Shared<'g, AvlNode<K, V>> {
        if node.is_null() {
            return node; // key absent: nothing replaced
        }
        // SAFETY: `node` is non-null (checked by the recursion's base case).
        let n = unsafe { node.deref() };
        let (l, r) = (
            // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
            // paths
            n.left.load(Ordering::Acquire, guard),
            // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
            // paths
            n.right.load(Ordering::Acquire, guard),
        );
        match key.cmp(&n.key) {
            std::cmp::Ordering::Equal => {
                retired.push(node);
                *old = Some(n.value.clone());
                if r.is_null() {
                    return l;
                }
                if l.is_null() {
                    return r;
                }
                let (nr, (mk, mv)) = Self::take_min(r, retired, guard);
                Self::balance(mk, mv, l, nr, guard)
            }
            std::cmp::Ordering::Less => {
                let nl = Self::remove_rec(l, key, retired, old, guard);
                if old.is_none() {
                    return node; // untouched subtree
                }
                retired.push(node);
                Self::balance(n.key.clone(), n.value.clone(), nl, r, guard)
            }
            std::cmp::Ordering::Greater => {
                let nr = Self::remove_rec(r, key, retired, old, guard);
                if old.is_none() {
                    return node;
                }
                retired.push(node);
                Self::balance(n.key.clone(), n.value.clone(), l, nr, guard)
            }
        }
    }

    /// Inserts `key → value` (serialized with other updates); returns the
    /// previous value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        with_guard(|guard| {
            let _w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
            // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
            // paths
            let root = self.root.load(Ordering::Acquire, guard);
            let mut retired = Vec::new();
            let mut old = None;
            let new_root = Self::insert_rec(root, &key, &value, &mut retired, &mut old, guard);
            // RELEASE: publishes the rebuilt path under the writer mutex to wait-free readers
            self.root.store(new_root, Ordering::Release);
            for n in retired {
                // SAFETY: superseded old-path nodes, unreachable from the new
                // root; readers may still hold them → epoch-deferred.
                unsafe { guard.defer_destroy(n) };
            }
            old
        })
    }

    /// Removes `key` (serialized with other updates); returns its value.
    pub fn remove(&self, key: &K) -> Option<V> {
        with_guard(|guard| {
            let _w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
            // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
            // paths
            let root = self.root.load(Ordering::Acquire, guard);
            let mut retired = Vec::new();
            let mut old = None;
            let new_root = Self::remove_rec(root, key, &mut retired, &mut old, guard);
            if old.is_some() {
                // RELEASE: publishes the rebuilt path under the writer mutex to wait-free readers
                self.root.store(new_root, Ordering::Release);
                for n in retired {
                    // SAFETY: as in insert.
                    unsafe { guard.defer_destroy(n) };
                }
            }
            old
        })
    }

    /// Number of keys (O(n) snapshot).
    pub fn len(&self) -> usize {
        with_guard(|guard| {
            let mut count = 0;
            // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
            // paths
            let mut stack = vec![self.root.load(Ordering::Acquire, guard)];
            while let Some(n) = stack.pop() {
                if n.is_null() {
                    continue;
                }
                // SAFETY: `n` is non-null (checked above) and alive under `guard`.
                let node = unsafe { n.deref() };
                count += 1;
                // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
                // paths
                stack.push(node.left.load(Ordering::Acquire, guard));
                // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
                // paths
                stack.push(node.right.load(Ordering::Acquire, guard));
            }
            count
        })
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt paths
        with_guard(|guard| self.root.load(Ordering::Acquire, guard).is_null())
    }

    /// Sorted snapshot of the contents.
    pub fn collect(&self) -> Vec<(K, V)> {
        fn rec<K: Clone, V: Clone>(
            n: Shared<'_, AvlNode<K, V>>,
            out: &mut Vec<(K, V)>,
            guard: &Guard,
        ) {
            if n.is_null() {
                return;
            }
            // SAFETY: `n` is non-null (checked above) and alive under `guard`.
            let node = unsafe { n.deref() };
            // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
            // paths
            rec(node.left.load(Ordering::Acquire, guard), out, guard);
            out.push((node.key.clone(), node.value.clone()));
            // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
            // paths
            rec(node.right.load(Ordering::Acquire, guard), out, guard);
        }
        with_guard(|guard| {
            let mut out = Vec::new();
            // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
            // paths
            rec(self.root.load(Ordering::Acquire, guard), &mut out, guard);
            out
        })
    }

    /// Checks AVL balance and BST order; returns the height.
    /// Test/diagnostic helper.
    pub fn check_invariants(&self) -> Result<u32, String> {
        fn rec<K: Ord, V>(
            n: Shared<'_, AvlNode<K, V>>,
            lo: Option<&K>,
            hi: Option<&K>,
            guard: &Guard,
        ) -> Result<u32, String> {
            if n.is_null() {
                return Ok(0);
            }
            // SAFETY: `n` is non-null (checked above) and alive under `guard`.
            let node = unsafe { n.deref() };
            if let Some(lo) = lo {
                if &node.key <= lo {
                    return Err("BST order (low)".into());
                }
            }
            if let Some(hi) = hi {
                if &node.key >= hi {
                    return Err("BST order (high)".into());
                }
            }
            let hl = rec(
                // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
                // paths
                node.left.load(Ordering::Acquire, guard),
                lo,
                Some(&node.key),
                guard,
            )?;
            let hr = rec(
                // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
                // paths
                node.right.load(Ordering::Acquire, guard),
                Some(&node.key),
                hi,
                guard,
            )?;
            if hl.abs_diff(hr) > 1 {
                return Err(format!("unbalanced: {hl} vs {hr}"));
            }
            let h = 1 + hl.max(hr);
            if h != node.height {
                return Err(format!("stale height: stored {} real {h}", node.height));
            }
            Ok(h)
        }
        // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt paths
        with_guard(|guard| rec(self.root.load(Ordering::Acquire, guard), None, None, guard))
    }
}

impl<K, V> Default for LockAvl<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Drop for LockAvl<K, V> {
    fn drop(&mut self) {
        // SAFETY: exclusive `&mut self` in Drop — no concurrent readers, so the
        // unprotected guard is sound.
        let guard = unsafe { llxscx::epoch::unprotected() };
        // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt paths
        let mut stack = vec![self.root.load(Ordering::Acquire, guard)];
        while let Some(n) = stack.pop() {
            if n.is_null() {
                continue;
            }
            // SAFETY: exclusive access; persistent tree nodes are uniquely
            // reachable from the current root (old versions were retired
            // through the epoch collector at update time).
            unsafe {
                let node = n.deref();
                // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
                // paths
                stack.push(node.left.load(Ordering::Acquire, guard));
                // ACQUIRE: reader snapshot: pairs with the writer's Release publication of rebuilt
                // paths
                stack.push(node.right.load(Ordering::Acquire, guard));
                drop(n.into_owned());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn basics() {
        let t = LockAvl::new();
        assert_eq!(t.insert(1, 10), None);
        assert_eq!(t.insert(1, 11), Some(10));
        assert_eq!(t.get(&1), Some(11));
        assert_eq!(t.remove(&1), Some(11));
        assert!(t.is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn random_against_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let t = LockAvl::new();
        let mut model = BTreeMap::new();
        for step in 0..8000u64 {
            let k = rng.gen_range(0..300u64);
            match rng.gen_range(0..3) {
                0 => assert_eq!(t.insert(k, step), model.insert(k, step)),
                1 => assert_eq!(t.remove(&k), model.remove(&k)),
                _ => assert_eq!(t.get(&k), model.get(&k).copied()),
            }
            if step % 1024 == 0 {
                t.check_invariants().unwrap();
            }
        }
        t.check_invariants().unwrap();
        assert_eq!(t.collect(), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn successor_predecessor() {
        let t = LockAvl::new();
        for k in [10u64, 20, 30] {
            t.insert(k, k);
        }
        assert_eq!(t.successor(&10), Some((20, 20)));
        assert_eq!(t.successor(&30), None);
        assert_eq!(t.predecessor(&10), None);
        assert_eq!(t.predecessor(&35), Some((30, 30)));
    }

    #[test]
    fn ascending_balance() {
        let t = LockAvl::new();
        for i in 0..10_000u64 {
            t.insert(i, i);
        }
        let h = t.check_invariants().unwrap();
        assert!(h <= 20, "AVL height {h} too large for 10k keys");
    }

    #[test]
    fn range_matches_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::BTreeMap;
        let mut rng = StdRng::seed_from_u64(41);
        let t = LockAvl::new();
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
    fn concurrent_readers_and_writers() {
        let t = Arc::new(LockAvl::new());
        for i in 0..1000u64 {
            t.insert(i * 2, i);
        }
        std::thread::scope(|s| {
            for tid in 0..2u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    let base = 10_000 + tid * 1000;
                    for i in 0..1000 {
                        t.insert(base + i, i);
                    }
                    for i in (0..1000).step_by(2) {
                        assert_eq!(t.remove(&(base + i)), Some(i));
                    }
                });
            }
            for _ in 0..2 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for _ in 0..50_000 {
                        let _ = t.get(&500);
                        let _ = t.successor(&123);
                    }
                });
            }
        });
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 1000 + 2 * 500);
    }

    /// A value whose `clone` panics when armed.
    #[derive(Debug, PartialEq)]
    struct Bomb(bool);

    impl Clone for Bomb {
        fn clone(&self) -> Self {
            assert!(!self.0, "armed value cloned");
            Bomb(false)
        }
    }

    #[test]
    fn panicked_writer_does_not_wedge_updates() {
        let t = Arc::new(LockAvl::new());
        for k in 0..8u64 {
            t.insert(k, Bomb(false));
        }
        let writer = Arc::clone(&t);
        // The new leaf clones its value under the writer lock, before the
        // root is swung, so this panics holding the lock and changes nothing.
        assert!(std::thread::spawn(move || writer.insert(100, Bomb(true)))
            .join()
            .is_err());
        assert!(t.writer.is_poisoned());

        assert_eq!(t.get(&100), None);
        assert_eq!(t.insert(8, Bomb(false)), None);
        assert_eq!(t.remove(&0), Some(Bomb(false)));
        assert_eq!(t.len(), 8);
        t.check_invariants().unwrap();
    }
}

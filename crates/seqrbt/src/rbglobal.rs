//! `RBGlobal`: the paper's coarse-grained baseline — the highly optimized
//! sequential red-black tree with every operation under one global lock.

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::RbTree;

/// A thread-safe ordered map obtained by wrapping [`RbTree`] in a single
/// global mutex. Every operation — including queries — serializes, so
/// throughput is flat (or worse) in the number of threads; it exists as the
/// coarse-grained end of the experimental spectrum.
pub struct RbGlobal<K, V> {
    inner: Mutex<RbTree<K, V>>,
}

impl<K: Ord + Clone, V: Clone> Default for RbGlobal<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V: Clone> RbGlobal<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        RbGlobal {
            inner: Mutex::new(RbTree::new()),
        }
    }

    /// The tree, under the global lock. Poisoning is ignored, so a
    /// panicked holder does not wedge the map.
    fn tree(&self) -> MutexGuard<'_, RbTree<K, V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key` (serialized on the global lock).
    pub fn get(&self, key: &K) -> Option<V> {
        self.tree().get(key).cloned()
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.tree().contains_key(key)
    }

    /// Inserts `key → value`; returns the previous value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.tree().insert(key, value)
    }

    /// Removes `key`; returns its value.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.tree().remove(key)
    }

    /// Smallest key strictly greater than `key`.
    pub fn successor(&self, key: &K) -> Option<(K, V)> {
        self.tree()
            .successor(key)
            .map(|(k, v)| (k.clone(), v.clone()))
    }

    /// Largest key strictly smaller than `key`.
    pub fn predecessor(&self, key: &K) -> Option<(K, V)> {
        self.tree()
            .predecessor(key)
            .map(|(k, v)| (k.clone(), v.clone()))
    }

    /// All pairs with keys in `bounds`, sorted. Atomic by construction:
    /// the global lock is held for the whole walk (which is exactly why
    /// coarse-grained range scans don't scale).
    pub fn range<B: std::ops::RangeBounds<K>>(&self, bounds: B) -> Vec<(K, V)> {
        self.tree().range(bounds)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.tree().len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.tree().is_empty()
    }

    /// Sorted snapshot of the contents.
    pub fn collect(&self) -> Vec<(K, V)> {
        self.tree().collect()
    }

    /// Checks the tree's red-black invariants under the global lock
    /// ([`RbTree::check_invariants`]).
    pub fn check_invariants(&self) -> Result<usize, String> {
        self.tree().check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn concurrent_smoke() {
        let m = Arc::new(RbGlobal::new());
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    let base = tid * 500;
                    for i in 0..500 {
                        assert_eq!(m.insert(base + i, i), None);
                    }
                    for i in (0..500).step_by(2) {
                        assert_eq!(m.remove(&(base + i)), Some(i));
                    }
                });
            }
        });
        assert_eq!(m.len(), 4 * 250);
        m.check_invariants().unwrap();
    }

    #[test]
    fn removed_entries_are_dropped() {
        let value = Arc::new(7u64);
        let m = RbGlobal::new();
        m.insert(1u64, Arc::clone(&value));
        m.insert(2, Arc::new(8));
        drop(m.remove(&1));
        assert_eq!(Arc::strong_count(&value), 1);
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
    fn panicked_holder_does_not_wedge_the_map() {
        let m = Arc::new(RbGlobal::new());
        m.insert(1u64, Bomb(true));
        m.insert(2, Bomb(false));
        let holder = Arc::clone(&m);
        // `get` clones the value under the global lock, so this panics
        // while holding it.
        assert!(std::thread::spawn(move || holder.get(&1)).join().is_err());
        assert!(m.inner.is_poisoned());

        assert_eq!(m.get(&2), Some(Bomb(false)));
        assert_eq!(m.insert(3, Bomb(false)), None);
        assert_eq!(m.remove(&2), Some(Bomb(false)));
        assert!(m.contains_key(&1));
        assert_eq!(m.len(), 2);
        m.check_invariants().unwrap();
    }
}

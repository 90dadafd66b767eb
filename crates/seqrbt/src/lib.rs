//! # Sequential red-black tree and the global-lock baseline
//!
//! A classic node-oriented red-black tree ([`RbTree`]) — the stand-in for
//! `java.util.TreeMap` in the paper's Figure 9 — plus [`RbGlobal`], the
//! paper's "RBGlobal" baseline: the same tree behind a single global lock.
//!
//! The algorithms live in [`clrs`], written once over a node [`Store`]:
//! [`RbTree`] runs them over a `Vec` arena with `u32` links (no unsafe, no
//! recursion limits, good cache behaviour), and `tinystm::RbStm` runs the
//! same code over transactional cells.

#![warn(missing_docs)]

use std::convert::Infallible;

pub mod clrs;
pub mod rbglobal;

use clrs::{Links, Node, Store, NIL};
pub use rbglobal::RbGlobal;

/// Nodes in a `Vec`; a removed node's slot is emptied and reused.
struct Arena<K, V> {
    nodes: Vec<Option<Node<K, V>>>,
    free: Vec<u32>,
    root: u32,
}

impl<K, V> Arena<K, V> {
    fn at(&self, i: u32) -> &Node<K, V> {
        self.nodes[i as usize]
            .as_ref()
            .expect("link to a free slot")
    }

    fn at_mut(&mut self, i: u32) -> &mut Node<K, V> {
        self.nodes[i as usize]
            .as_mut()
            .expect("link to a free slot")
    }
}

impl<K: Ord + Clone, V: Clone> Store for Arena<K, V> {
    type Key = K;
    type Value = V;
    type Stop = Infallible;

    fn root(&self) -> Result<u32, Infallible> {
        Ok(self.root)
    }

    fn node<R>(&self, i: u32, f: impl FnOnce(&K, Links) -> R) -> Result<R, Infallible> {
        let n = self.at(i);
        Ok(f(&n.key, n.links))
    }

    fn pair(&self, i: u32) -> Result<(K, V), Infallible> {
        let n = self.at(i);
        Ok((n.key.clone(), n.value.clone()))
    }

    fn set_root(&mut self, i: u32) {
        self.root = i;
    }

    fn update<R>(&mut self, i: u32, f: impl FnOnce(&mut Links) -> R) -> Result<R, Infallible> {
        Ok(f(&mut self.at_mut(i).links))
    }

    fn replace(&mut self, i: u32, value: V) -> Result<V, Infallible> {
        Ok(std::mem::replace(&mut self.at_mut(i).value, value))
    }

    fn alloc(&mut self, node: Node<K, V>) -> u32 {
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = Some(node);
            i
        } else {
            self.nodes.push(Some(node));
            (self.nodes.len() - 1) as u32
        }
    }

    fn free(&mut self, i: u32) -> Result<V, Infallible> {
        let node = self.nodes[i as usize].take().expect("freeing a free slot");
        self.free.push(i);
        Ok(node.value)
    }
}

/// A sequential ordered map: red-black tree with the standard CLRS
/// insert/delete fixups.
///
/// ```
/// let mut t = seqrbt::RbTree::new();
/// t.insert(2, "b");
/// t.insert(1, "a");
/// assert_eq!(t.get(&1), Some(&"a"));
/// assert_eq!(t.remove(&2), Some("b"));
/// ```
pub struct RbTree<K, V> {
    arena: Arena<K, V>,
    len: usize,
}

impl<K: Ord + Clone, V: Clone> Default for RbTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V: Clone> RbTree<K, V> {
    /// An empty tree.
    pub fn new() -> Self {
        RbTree {
            arena: Arena {
                nodes: Vec::new(),
                free: Vec::new(),
                root: NIL,
            },
            len: 0,
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn entry(&self, i: u32) -> (&K, &V) {
        let n = self.arena.at(i);
        (&n.key, &n.value)
    }

    /// Looks up `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let Ok(found) = clrs::find(&self.arena, key);
        found.map(|i| self.entry(i).1)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Smallest key strictly greater than `key`.
    pub fn successor(&self, key: &K) -> Option<(&K, &V)> {
        let Ok(found) = clrs::neighbour(&self.arena, key, std::cmp::Ordering::Greater);
        found.map(|i| self.entry(i))
    }

    /// Largest key strictly smaller than `key`.
    pub fn predecessor(&self, key: &K) -> Option<(&K, &V)> {
        let Ok(found) = clrs::neighbour(&self.arena, key, std::cmp::Ordering::Less);
        found.map(|i| self.entry(i))
    }

    /// Inserts `key → value`; returns the previous value if present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let Ok(old) = clrs::insert(&mut self.arena, key, value);
        self.len += old.is_none() as usize;
        old
    }

    /// Removes `key`; returns its value if it was present. The node, key
    /// and value included, is dropped here.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let Ok(old) = clrs::remove(&mut self.arena, key);
        self.len -= old.is_some() as usize;
        old
    }

    /// Sorted snapshot of the contents.
    pub fn collect(&self) -> Vec<(K, V)> {
        self.range(..)
    }

    /// All pairs with keys in `bounds`, sorted ([`clrs::range`]).
    pub fn range<B: std::ops::RangeBounds<K>>(&self, bounds: B) -> Vec<(K, V)> {
        let Ok(out) = clrs::range(&self.arena, &bounds);
        out
    }

    /// Checks the red-black invariants ([`clrs::check`]); returns the
    /// black height or an error description. Test/diagnostic helper.
    pub fn check_invariants(&self) -> Result<usize, String> {
        let Ok(verdict) = clrs::check(&self.arena);
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn basic_ops() {
        let mut t = RbTree::new();
        assert_eq!(t.insert(1, 10), None);
        assert_eq!(t.insert(1, 11), Some(10));
        assert_eq!(t.get(&1), Some(&11));
        assert_eq!(t.remove(&1), Some(11));
        assert!(t.is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn random_against_model_with_invariants() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut t = RbTree::new();
        let mut model = BTreeMap::new();
        for step in 0..20_000u64 {
            let k = rng.gen_range(0..500u64);
            match rng.gen_range(0..3) {
                0 => assert_eq!(t.insert(k, step), model.insert(k, step)),
                1 => assert_eq!(t.remove(&k), model.remove(&k)),
                _ => assert_eq!(t.get(&k), model.get(&k)),
            }
            if step % 512 == 0 {
                t.check_invariants().unwrap();
            }
        }
        t.check_invariants().unwrap();
        assert_eq!(t.collect(), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn successor_predecessor() {
        let mut t = RbTree::new();
        for k in [10u64, 20, 30] {
            t.insert(k, k);
        }
        assert_eq!(t.successor(&10), Some((&20, &20)));
        assert_eq!(t.successor(&30), None);
        assert_eq!(t.predecessor(&10), None);
        assert_eq!(t.predecessor(&25), Some((&20, &20)));
    }

    #[test]
    fn range_matches_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::BTreeMap;
        let mut rng = StdRng::seed_from_u64(43);
        let mut t = RbTree::new();
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
            let expect_ex: Vec<_> = model.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(t.range(lo..hi), expect_ex);
        }
        assert_eq!(t.range(..), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn ascending_descending_balance() {
        let mut t = RbTree::new();
        for i in 0..10_000u64 {
            t.insert(i, i);
        }
        t.check_invariants().unwrap();
        for i in (0..10_000u64).rev() {
            assert_eq!(t.remove(&i), Some(i));
        }
        t.check_invariants().unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn removed_entries_are_dropped() {
        use std::sync::Arc;
        let value = Arc::new(7u64);
        let mut t = RbTree::new();
        t.insert(1u64, Arc::clone(&value));
        t.insert(2, Arc::new(8));
        drop(t.remove(&1));
        assert_eq!(Arc::strong_count(&value), 1);
    }

    #[test]
    fn a_free_slot_costs_no_space() {
        assert_eq!(std::mem::size_of::<Option<Node<u64, u64>>>(), 32);
    }
}

//! Ordered queries: `Successor`, `Predecessor` (paper §5.5) and the
//! VLX-validated range scan built on the same idea.
//!
//! These walk to the target leaf performing LLXs, then (when the answer is
//! in an *adjacent* leaf) walk to that leaf and validate the connecting path
//! with a VLX, which linearizes the query at the VLX. [`ChromaticTree::range`]
//! extends the scheme from a path to a whole subtree; the scan itself lives
//! in [`crate::range`] so the other template trees can reuse it.

use std::ops::RangeBounds;

use llxscx::epoch::Guard;
use llxscx::{vlx, with_guard};

use super::ChromaticTree;
use crate::template::{llx_ok, Handle};

/// The answer of an adjacent-leaf query: the key/value pair found, if any.
/// One *attempt* returns `Option<Found<..>>`, where the outer `None` means
/// a concurrent update interfered and the query retries from scratch.
type Found<K, V> = Option<(K, V)>;

impl<K, V> ChromaticTree<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// The smallest key strictly greater than `key` (and its value), or
    /// `None` if no such key exists. Linearizable (§5.5).
    pub fn successor(&self, key: &K) -> Option<(K, V)> {
        loop {
            // One attempt per cached-guard entry (see `ChromaticTree::insert`).
            if let Some(r) = with_guard(|guard| self.try_adjacent(key, 0, guard)) {
                return r;
            }
        }
    }

    /// The largest key strictly smaller than `key` (and its value), or
    /// `None` if no such key exists. Linearizable (mirror of `successor`).
    pub fn predecessor(&self, key: &K) -> Option<(K, V)> {
        loop {
            if let Some(r) = with_guard(|guard| self.try_adjacent(key, 1, guard)) {
                return r;
            }
        }
    }

    /// One attempt at an adjacent-leaf query. `d = 0` finds the successor
    /// (remember the last *left* turn, then take the leftmost leaf of its
    /// right subtree); `d = 1` the predecessor (mirror).
    fn try_adjacent<'g>(&self, key: &K, d: usize, guard: &'g Guard) -> Option<Found<K, V>> {
        let o = 1 - d;
        let entry = self.tree.entry(guard);
        // Path of handles from the last `d`-side turn down to the current
        // node; the final VLX validates exactly the region connecting the
        // two adjacent leaves.
        let mut path: Vec<Handle<'g, K, V>> = Vec::with_capacity(32);
        let mut last_turn: Option<Handle<'g, K, V>> = None;

        let mut h = llx_ok(entry, guard)?;
        loop {
            let node = h.node_ref();
            if node.is_leaf(guard) {
                break;
            }
            let go_left = node.route_left(key);
            let turn_matches = (d == 0 && go_left) || (d == 1 && !go_left);
            let next = if go_left { h.left() } else { h.right() };
            if turn_matches {
                last_turn = Some(h);
                path.clear();
                path.push(h);
            }
            h = llx_ok(next, guard)?;
            path.push(h);
        }

        let leaf = h.node_ref();
        if d == 0 {
            // Successor: the dictionary is empty iff the only left turn was
            // at `entry` itself.
            if let Some(t) = &last_turn {
                if t.node == entry {
                    return Some(None);
                }
            }
            // The leaf on the search path already answers the query.
            if let Some(k) = leaf.key() {
                if key < k {
                    return Some(Some((k.clone(), leaf.value().cloned().unwrap())));
                }
            }
        } else {
            // Predecessor: the leaf on the search path already answers the
            // query when its key is smaller than the probe (this includes
            // paths with no right turn that end at a small leaf).
            if let Some(k) = leaf.key() {
                if k < key {
                    return Some(Some((k.clone(), leaf.value().cloned().unwrap())));
                }
            }
            // Otherwise: never having turned right means key ≤ every key,
            // which the generic fall-through below reports as None.
        }
        let Some(turn) = last_turn else {
            return Some(None);
        };
        if turn.node == entry {
            return Some(None);
        }

        // The answer is the adjacent leaf: the `d`-most leaf of the turn
        // node's `o`-side subtree (e.g. for successor: leftmost leaf of the
        // right subtree of the last left turn).
        let mut cur = turn.child(o);
        let adj = loop {
            let h = llx_ok(cur, guard)?;
            path.push(h);
            if h.node_ref().is_leaf(guard) {
                break h;
            }
            cur = h.child(d);
        };
        let result = adj
            .node_ref()
            .key()
            .map(|k| (k.clone(), adj.node_ref().value().cloned().unwrap()));
        vlx(&path, guard).then_some(result)
    }

    /// All key/value pairs whose key lies in `bounds`, sorted by key — an
    /// **atomic snapshot** of the interval, linearized at the successful
    /// VLX of the final attempt (see [`crate::range`] for the argument).
    ///
    /// Lock-free: an attempt only fails because a concurrent SCX committed
    /// (or was helped to a terminal state), and each failed attempt falls
    /// back to a full re-traversal from the entry point. Retries are
    /// tallied in [`stats`](ChromaticTree::stats). Use
    /// [`range_attempts`](Self::range_attempts) for a bounded retry budget.
    ///
    /// ```
    /// let t = nbtree::ChromaticTree::new();
    /// for k in [1u64, 5, 9] {
    ///     t.insert(k, k * 10);
    /// }
    /// assert_eq!(t.range(2..=9), vec![(5, 50), (9, 90)]);
    /// assert_eq!(t.range(..), vec![(1, 10), (5, 50), (9, 90)]);
    /// ```
    pub fn range<B: RangeBounds<K>>(&self, bounds: B) -> Vec<(K, V)> {
        self.stats.bump_range_queries();
        loop {
            // One attempt per cached-guard entry, like the update paths: a
            // retry storm still lets the epoch advance at repin intervals.
            if let Some(out) = self.tree.try_range(&bounds) {
                return out;
            }
            self.stats.bump_range_retries();
        }
    }

    /// Like [`range`](Self::range) but gives up after `attempts` failed
    /// validations instead of waiting out a write-heavy phase, returning
    /// `None`. `range` is `range_attempts` with an unbounded budget.
    ///
    /// ```
    /// let t = nbtree::ChromaticTree::new();
    /// for k in 0u64..100 {
    ///     t.insert(k, k);
    /// }
    /// // Quiescent tree: the first attempt validates.
    /// assert_eq!(t.range_attempts(10..=19, 1).unwrap().len(), 10);
    /// // A zero budget never scans at all.
    /// assert_eq!(t.range_attempts(10..=19, 0), None);
    /// ```
    pub fn range_attempts<B: RangeBounds<K>>(
        &self,
        bounds: B,
        attempts: usize,
    ) -> Option<Vec<(K, V)>> {
        self.stats.bump_range_queries();
        for _ in 0..attempts {
            if let Some(out) = self.tree.try_range(&bounds) {
                return Some(out);
            }
            self.stats.bump_range_retries();
        }
        None
    }

    /// The smallest key (and value), or `None` when empty. Implemented as
    /// an adjacent-leaf walk validated by VLX.
    pub fn first(&self) -> Option<(K, V)> {
        loop {
            if let Some(r) = with_guard(|guard| self.try_extreme(0, guard)) {
                return r;
            }
        }
    }

    /// The largest key (and value), or `None` when empty.
    pub fn last(&self) -> Option<(K, V)> {
        loop {
            if let Some(r) = with_guard(|guard| self.try_extreme(1, guard)) {
                return r;
            }
        }
    }

    fn try_extreme<'g>(&self, d: usize, guard: &'g Guard) -> Option<Found<K, V>> {
        // Descend always to side `d` inside the chromatic tree; sentinels
        // force the first two hops left.
        let mut path: Vec<Handle<'g, K, V>> = Vec::with_capacity(32);
        let mut cur = self.tree.entry(guard);
        let leaf = loop {
            let h = llx_ok(cur, guard)?;
            path.push(h);
            let node = h.node_ref();
            if node.is_leaf(guard) {
                break h;
            }
            // Sentinel-keyed internal nodes route to the left (the whole
            // chromatic tree hangs off their left child); inside the tree
            // take side `d`. In the empty tree this ends at the ∞ leaf,
            // whose `None` key maps to a `None` result.
            cur = if node.is_sentinel_key() {
                h.left()
            } else {
                h.child(d)
            };
        };
        let result = leaf
            .node_ref()
            .key()
            .map(|k| (k.clone(), leaf.node_ref().value().cloned().unwrap()));
        vlx(&path, guard).then_some(result)
    }
}

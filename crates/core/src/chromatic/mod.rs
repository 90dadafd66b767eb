//! The non-blocking chromatic tree (paper §5).
//!
//! A chromatic tree is a relaxed-balance red-black tree: colours are
//! generalized to non-negative integer *weights* (0 = red, 1 = black,
//! `w > 1` = `w − 1` *overweight violations*), and the balance conditions
//! may be violated transiently. Insertions and deletions perform one
//! localized update each (following the tree update template) and then
//! restore balance with a sequence of localized rebalancing steps that can
//! be freely interleaved with other operations.

mod audit;
mod bulk;
mod query;
mod rebalance;
pub mod stats;

pub use audit::AuditReport;
pub use stats::Stats;

use llxscx::epoch::Guard;
use llxscx::with_guard;

use crate::node::Node;
use crate::template::{try_delete, try_insert, ChromaticWeights, LeafTree, SearchPath};

/// A concurrent, non-blocking ordered dictionary backed by a chromatic tree.
///
/// All operations are linearizable and the implementation is lock-free:
/// some operation always completes in a finite number of steps, regardless
/// of the delays or failures of other threads.
///
/// The tree is *leaf-oriented*: dictionary keys live in the leaves and
/// internal nodes only route searches. At all times the height is
/// `O(k + c + log n)` where `n` is the number of keys, `c` the number of
/// in-progress insertions/deletions, and `k` the configured
/// [`allowed_violations`](Self::with_allowed_violations) threshold.
///
/// # Examples
///
/// ```
/// let tree = nbtree::ChromaticTree::new();
/// assert_eq!(tree.insert(3, "three"), None);
/// assert_eq!(tree.get(&3), Some("three"));
/// assert_eq!(tree.remove(&3), Some("three"));
/// assert_eq!(tree.get(&3), None);
/// ```
pub struct ChromaticTree<K: Send + Sync + 'static, V: Send + Sync + 'static> {
    /// The shared template skeleton: sentinels, search, plain queries and
    /// teardown. What follows is what is genuinely the chromatic tree's.
    tree: LeafTree<K, V>,
    /// Invoke `Cleanup` only when the number of violations seen on the
    /// update's search path (plus the one it created) exceeds this bound
    /// (§5.6). `0` is the paper's plain "Chromatic"; `6` is "Chromatic6".
    pub(crate) allowed_violations: u32,
    pub(crate) stats: Stats,
}

/// Violations on the edge `parent → child`: the child's units of overweight,
/// or one red-red violation when both ends are red.
#[inline]
pub(crate) fn edge_violations<K, V>(parent: &Node<K, V>, child: &Node<K, V>) -> u32
where
    K: Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    if child.weight() > 1 {
        child.weight() - 1
    } else {
        u32::from(child.weight() == 0 && parent.weight() == 0)
    }
}

impl<K, V> ChromaticTree<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// An empty tree with the paper's eager rebalancing policy (an update
    /// that creates a violation cleans it up before returning).
    pub fn new() -> Self {
        Self::with_allowed_violations(0)
    }

    /// An empty tree that tolerates up to `k` violations on a search path
    /// before an update triggers `Cleanup` (§5.6). The paper's
    /// "Chromatic6" is `k = 6`; larger `k` trades search depth for fewer
    /// rebalancing steps, giving height `O(k + c + log n)`.
    pub fn with_allowed_violations(k: u32) -> Self {
        ChromaticTree {
            tree: LeafTree::new(),
            allowed_violations: k,
            stats: Stats::new(),
        }
    }

    /// Operation counters (rebalancing steps, retries, ...). Cheap,
    /// always-on relaxed atomics; used by the benchmark harness.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The template's `Search(key)` with the chromatic hook: also tallies
    /// the violations (red-red and units of overweight) on the path, for
    /// the `allowed_violations` policy.
    #[inline]
    pub(crate) fn search<'g>(&self, key: &K, guard: &'g Guard) -> (SearchPath<'g, K, V>, u32) {
        let mut violations = 0u32;
        let path = self
            .tree
            .search_with(key, guard, |p, c| violations += edge_violations(p, c));
        (path, violations)
    }

    /// Bookkeeping for an update that created a violation after seeing
    /// `seen` others on its search path: runs `Cleanup(key)` when the
    /// `allowed_violations` budget is exceeded, and says whether it did.
    pub(crate) fn violation_created(&self, seen: u32, key: &K) -> bool {
        self.stats.bump_violations_created();
        let over_budget = seen + 1 > self.allowed_violations;
        if over_budget {
            self.cleanup(key);
        }
        over_budget
    }

    /// Returns the value associated with `key`, if present.
    ///
    /// Uses only plain reads (no LLX), exactly like a sequential BST search;
    /// see [`LeafTree::get`].
    pub fn get(&self, key: &K) -> Option<V> {
        self.tree.get(key)
    }

    /// Whether the dictionary contains `key`.
    pub fn contains_key(&self, key: &K) -> bool {
        self.tree.contains_key(key)
    }

    /// Associates `value` with `key`; returns the previously associated
    /// value, or `None` if `key` was absent. Lock-free; linearizes at the
    /// SCX of the successful attempt.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        loop {
            // One attempt per cached-guard entry: retries cross a
            // `with_guard` boundary, so a long retry storm still lets the
            // epoch advance at the repin interval.
            let attempt = with_guard(|guard| {
                let (path, seen) = self.search(&key, guard);
                try_insert::<ChromaticWeights, K, V>(&path, &key, &value, guard).map(|a| (a, seen))
            });
            match attempt {
                Some((applied, seen)) => {
                    // Insert1 under a red parent with a red new node.
                    if applied.reshaped == Some((0, 0)) {
                        self.violation_created(seen, &key);
                    }
                    return applied.old;
                }
                None => self.stats.bump_insert_retries(),
            }
        }
    }

    /// Removes `key`; returns the value that was associated with it, or
    /// `None` if it was absent. Lock-free; linearizes at the SCX of the
    /// successful attempt (or, when the key is absent, like a query).
    pub fn remove(&self, key: &K) -> Option<V> {
        loop {
            let attempt = with_guard(|guard| {
                let (path, seen) = self.search(key, guard);
                try_delete::<ChromaticWeights, K, V>(&path, key, guard).map(|a| (a, seen))
            });
            match attempt {
                Some((applied, seen)) => {
                    // The contracted sibling came out overweight.
                    if applied.reshaped.is_some_and(|(_, w)| w > 1) {
                        self.violation_created(seen, key);
                    }
                    return applied.old;
                }
                None => self.stats.bump_delete_retries(),
            }
        }
    }

    /// Number of keys. Takes a traversal snapshot (O(n)); not linearizable
    /// with respect to concurrent updates, like size in most concurrent maps.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the dictionary is empty (same caveats as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// A sorted snapshot of all key/value pairs, by in-order traversal.
    /// Not atomic with respect to concurrent updates (each key's presence
    /// is individually linearizable; use [`successor`](Self::successor) for
    /// atomic adjacent-pair queries).
    pub fn collect(&self) -> Vec<(K, V)> {
        self.tree.collect()
    }
}

impl<K, V> Default for ChromaticTree<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

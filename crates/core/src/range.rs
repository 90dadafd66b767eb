//! VLX-validated range scans over leaf-oriented template trees.
//!
//! The scan generalizes the adjacent-leaf queries of §5.5 from "the next
//! leaf" to "every leaf in a key interval": one attempt LLXes every internal
//! node whose key interval intersects the query, reads the in-range leaves
//! through those snapshots, and then issues a single [`vlx`] over all the
//! handles. A successful VLX proves no visited node changed since its LLX,
//! so the collected leaves are exactly the dictionary's contents in the
//! interval at the VLX's linearization point — an atomic snapshot obtained
//! without freezing a single record or slowing any writer down.
//!
//! On interference (an LLX that fails or finds a finalized node, or a failed
//! final VLX) the attempt reports failure and the caller falls back to a
//! full re-traversal from the entry point; there is no partial revalidation.
//! The retry loop is lock-free by the usual helping argument: every failure
//! is caused by a concurrent SCX that committed or is being helped to a
//! terminal state, so system-wide progress is preserved.
//!
//! Why leaves are not LLXed: leaf keys and values are immutable, and any
//! update that inserts, removes or replaces a leaf must swing a child
//! pointer of a *visited internal node* — which requires freezing that node
//! and therefore changes its `info` word, failing the VLX. Validating the
//! internal nodes alone certifies the leaves for free and halves the handle
//! count of a scan.
//!
//! # Visit order: level by level, with prefetch
//!
//! The traversal visits the nodes in level order, through a first-in
//! first-out queue: each level's nodes in key order, then the next
//! level's. It LLXes each internal node and queues its children that may
//! hold query keys, left then right. Every child is prefetched as it is
//! queued, so the cache misses of a whole level are in flight together; a
//! depth-first walk dereferences one popped node at a time and queues its
//! misses one behind another, which on a tree larger than the cache is
//! most of a scan's time.
//!
//! Only the order of the visits differs from a depth-first walk. Whether
//! a node is visited depends on its parent's snapshot and on the parent's
//! immutable routing key, never on when it is visited, so an attempt that
//! meets no interference LLXes exactly the nodes a depth-first attempt
//! would, validates them with the same single VLX, and linearizes at that
//! VLX; an attempt that meets interference fails and retries from the
//! entry either way.
//!
//! Leaves at different depths are reached in different levels, so the
//! visit order is not key order. The frontier keeps key order instead: it
//! is a list linked through a slot vector, an expanded node hands its slot
//! to its left kept child and links a fresh one after it for the right,
//! and a finished leaf keeps its slot untouched. One walk of the list at
//! the end emits the pairs sorted, with no key comparison. (Sorting the
//! pairs instead made a 100-key scan 17-26 % slower, and carrying
//! finished leaves from level to level costs Θ(n²) on a chain; see
//! `docs/PERFORMANCE.md`.) Each visited node costs O(1) and no recursion,
//! so an NbBST chain of depth Θ(n) costs Θ(n) and no stack.

use std::ops::{Bound, RangeBounds};

use llxscx::epoch::Guard;
use llxscx::vlx;

use crate::node::Reached;
use crate::template::{llx_ok, Handle};

/// Whether the query interval can contain a key strictly below `k` — i.e.
/// whether a scan must descend into a left subtree (all keys `< k`).
#[inline]
fn may_contain_below<K: Ord, B: RangeBounds<K>>(bounds: &B, k: &K) -> bool {
    match bounds.start_bound() {
        Bound::Unbounded => true,
        Bound::Included(lo) | Bound::Excluded(lo) => lo < k,
    }
}

/// Whether the query interval can contain a key at or above `k` — i.e.
/// whether a scan must descend into a right subtree (all keys `>= k`).
#[inline]
fn may_contain_at_or_above<K: Ord, B: RangeBounds<K>>(bounds: &B, k: &K) -> bool {
    match bounds.end_bound() {
        Bound::Unbounded => true,
        Bound::Included(hi) => hi >= k,
        Bound::Excluded(hi) => hi > k,
    }
}

/// One attempt at an atomic range scan from `entry` (the never-removed
/// sentinel of a leaf-oriented template tree — chromatic, NbBST or relaxed
/// AVL, which share [`Node`](crate::node::Node) and its sentinel layout).
///
/// Returns `None` when a concurrent update interfered; the caller should
/// re-traverse. `Some(pairs)` is sorted by key, duplicate-free, and is the
/// exact interval content at the final VLX (the query's linearization
/// point).
///
/// # Example
///
/// One attempt over a template tree holding two keys. At quiescence the
/// attempt must validate on the first try:
///
/// ```
/// use nbtree::template::{LeafTree, UnitWeights};
/// use nbtree::try_range_scan;
///
/// let tree = LeafTree::new();
/// tree.insert::<UnitWeights>(&10u64, &"a");
/// tree.insert::<UnitWeights>(&20, &"b");
/// llxscx::with_guard(|guard| {
///     let entry = tree.entry(guard);
///     let snap = try_range_scan(entry, &(5u64..=25), guard)
///         .expect("no concurrent updates: the VLX must validate");
///     assert_eq!(snap, vec![(10, "a"), (20, "b")]);
///     // Pruning on the routing key keeps out-of-interval leaves unvisited.
///     assert_eq!(try_range_scan(entry, &(..10u64), guard).unwrap(), vec![]);
/// });
/// ```
///
/// (`LeafTree::range` and `ChromaticTree::range` wrap this in the retry
/// loop.)
pub fn try_range_scan<'g, K, V, B>(
    entry: Reached<'g, K, V>,
    bounds: &B,
    guard: &'g Guard,
) -> Option<Vec<(K, V)>>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: RangeBounds<K>,
{
    let mut handles: Vec<Handle<'g, K, V>> = Vec::with_capacity(64);
    let out = collect_level_order(entry, bounds, guard, &mut handles)?;
    vlx(&handles, guard).then_some(out)
}

/// The traversal of one [`try_range_scan`] attempt, without its VLX: the
/// in-range pairs in key order, with every LLX handle taken appended to
/// `handles`; `None` as soon as an LLX fails.
fn collect_level_order<'g, K, V, B>(
    entry: Reached<'g, K, V>,
    bounds: &B,
    guard: &'g Guard,
    handles: &mut Vec<Handle<'g, K, V>>,
) -> Option<Vec<(K, V)>>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: RangeBounds<K>,
{
    // The frontier as a list in key order, linked through `slots`: each
    // slot is a node (`None` once dropped) and the index of the slot after
    // it (see "Visit order" in the module docs). `queue` holds the nodes
    // still to visit with their slots, first in first out, which is level
    // order. The capacities fit a 100-key scan; growing these vectors from
    // empty made such a scan 23-50 % slower.
    let mut slots: Vec<(Option<Reached<'g, K, V>>, usize)> = Vec::with_capacity(64);
    slots.push((Some(entry), END));
    let mut queue: Vec<(Reached<'g, K, V>, usize)> = Vec::with_capacity(128);
    queue.push((entry, 0));
    let mut found = 0;
    let mut visited = 0;
    while let Some(&(n, at)) = queue.get(visited) {
        visited += 1;
        if n.is_leaf(guard) {
            // Read through the parent's validated snapshot: leaf contents
            // are immutable, so no LLX is needed (see module docs).
            if n.key().is_some_and(|k| bounds.contains(k)) {
                found += 1;
            } else {
                slots[at].0 = None;
            }
            continue;
        }
        // Frozen or already removed: this attempt cannot linearize.
        let h = llx_ok(n, guard)?;
        handles.push(h);
        let child = |dir| Reached::in_snapshot(&h, dir);
        // The kept children, in key order.
        let (first, second) = match h.node_ref().key() {
            // Sentinel ∞ internal node (entry or second sentinel): the
            // dictionary hangs off the left child; the right child is the
            // ∞ leaf (or null at entry) and can never hold a query key.
            None => (child(0), None),
            // Prune on the node's immutable routing key. A pruned
            // subtree can only hold keys outside the query (left: all
            // `< k`, right: all `>= k`), and the pruning node itself is
            // VLX-validated, so pruning stays sound at linearization.
            Some(k) => match (
                may_contain_below(bounds, k),
                may_contain_at_or_above(bounds, k),
            ) {
                (true, true) => (child(0), child(1)),
                (true, false) => (child(0), None),
                (false, true) => (child(1), None),
                // Only an empty interval prunes both sides.
                (false, false) => (None, None),
            },
        };
        slots[at].0 = first;
        if let Some(first) = first {
            first.prefetch();
            queue.push((first, at));
        }
        if let Some(second) = second {
            second.prefetch();
            let fresh = slots.len();
            slots.push((Some(second), slots[at].1));
            slots[at].1 = fresh;
            queue.push((second, fresh));
        }
    }
    // Every slot left holding a node holds an in-range leaf.
    let mut out = Vec::with_capacity(found);
    let mut at = 0;
    while at != END {
        let (leaf, after) = slots[at];
        if let Some(leaf) = leaf {
            if let (Some(k), Some(v)) = (leaf.key(), leaf.value()) {
                out.push((k.clone(), v.clone()));
            }
        }
        at = after;
    }
    Some(out)
}

/// The `next` index of the frontier's last slot.
const END: usize = usize::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{LeafTree, UnitWeights};
    use crate::ChromaticTree;
    use llxscx::with_guard;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn bound_helpers() {
        assert!(may_contain_below(&(..), &5));
        assert!(may_contain_below(&(3..), &5));
        assert!(!may_contain_below(&(5..), &5));
        assert!(!may_contain_below(&(7..), &5));
        assert!(may_contain_at_or_above(&(..), &5));
        assert!(may_contain_at_or_above(&(..=5), &5));
        assert!(!may_contain_at_or_above(&(..5), &5));
        assert!(may_contain_at_or_above(&(..9), &5));
    }

    #[test]
    fn range_matches_collect_filter() {
        let t = ChromaticTree::new();
        for k in 0..200u64 {
            t.insert(k * 3 % 199, k);
        }
        let all = t.collect();
        for (lo, hi) in [(0u64, 0u64), (10, 50), (0, 198), (150, 10_000)] {
            let expect: Vec<_> = all
                .iter()
                .filter(|(k, _)| (lo..=hi).contains(k))
                .cloned()
                .collect();
            assert_eq!(t.range(lo..=hi), expect, "[{lo}, {hi}]");
        }
        // Half-open, exclusive and unbounded flavors.
        assert_eq!(
            t.range(10..20),
            all.iter()
                .filter(|(k, _)| (10..20).contains(k))
                .cloned()
                .collect::<Vec<_>>()
        );
        assert_eq!(t.range(..), all);
        use std::ops::Bound;
        assert_eq!(
            t.range((Bound::Excluded(10), Bound::Unbounded)),
            all.iter()
                .filter(|(k, _)| *k > 10)
                .cloned()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn range_on_empty_tree() {
        let t = ChromaticTree::<u64, u64>::new();
        assert!(t.range(..).is_empty());
        assert!(t.range(5..=100).is_empty());
    }

    /// The depth-first traversal the level-order one replaced, kept as the
    /// reference it is checked against: an explicit stack, right child
    /// pushed first, so leaves come out in key order.
    fn collect_depth_first<'g, K, V, B>(
        entry: Reached<'g, K, V>,
        bounds: &B,
        guard: &'g Guard,
        handles: &mut Vec<Handle<'g, K, V>>,
    ) -> Option<Vec<(K, V)>>
    where
        K: Ord + Clone + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
        B: RangeBounds<K>,
    {
        let mut out = Vec::new();
        let mut stack = vec![entry];
        while let Some(n) = stack.pop() {
            if n.is_leaf(guard) {
                if let (Some(k), Some(v)) = (n.key(), n.value()) {
                    if bounds.contains(k) {
                        out.push((k.clone(), v.clone()));
                    }
                }
                continue;
            }
            let h = llx_ok(n, guard)?;
            handles.push(h);
            let child = |dir| Reached::in_snapshot(&h, dir).expect("internal");
            match h.node_ref().key() {
                None => stack.push(child(0)),
                Some(k) => {
                    if may_contain_at_or_above(bounds, k) {
                        stack.push(child(1));
                    }
                    if may_contain_below(bounds, k) {
                        stack.push(child(0));
                    }
                }
            }
        }
        Some(out)
    }

    /// A random end of a query interval over keys `0..span`, just outside
    /// it included.
    fn random_bound(rng: &mut StdRng, span: u64) -> Bound<u64> {
        let k = rng.gen_range(0..span + 2);
        match rng.gen_range(0..5) {
            0 => Bound::Unbounded,
            1 | 2 => Bound::Included(k),
            _ => Bound::Excluded(k),
        }
    }

    /// Runs both traversals over `tree` for `queries` random intervals
    /// (inverted, empty, unbounded and excluded ends among them) and checks
    /// that they return the same pairs and LLX the same nodes.
    fn assert_level_order_matches_depth_first(
        tree: &LeafTree<u64, u64>,
        span: u64,
        queries: usize,
        rng: &mut StdRng,
    ) {
        let all = tree.collect();
        for _ in 0..queries {
            let bounds = (random_bound(rng, span), random_bound(rng, span));
            with_guard(|guard| {
                let entry = tree.entry(guard);
                let (mut h_level, mut h_depth) = (Vec::new(), Vec::new());
                let level = collect_level_order(entry, &bounds, guard, &mut h_level)
                    .expect("quiescent tree: every LLX succeeds");
                let depth = collect_depth_first(entry, &bounds, guard, &mut h_depth)
                    .expect("quiescent tree: every LLX succeeds");
                assert_eq!(level, depth, "{bounds:?}");
                let expect = all.iter().filter(|(k, _)| bounds.contains(k));
                assert_eq!(level, expect.copied().collect::<Vec<_>>(), "{bounds:?}");
                let nodes = |hs: &[Handle<'_, u64, u64>]| {
                    let mut v: Vec<_> = hs.iter().map(|h| h.node.as_raw()).collect();
                    v.sort_unstable();
                    v
                };
                assert_eq!(h_level.len(), h_depth.len(), "{bounds:?}");
                assert_eq!(nodes(&h_level), nodes(&h_depth), "{bounds:?}");
            });
        }
    }

    /// Random inserts and removes over keys `0..span` through `apply`.
    fn churn(span: u64, steps: u64, rng: &mut StdRng, mut apply: impl FnMut(bool, u64, u64)) {
        for step in 0..steps {
            apply(rng.gen_bool(0.7), rng.gen_range(0..span), step);
        }
    }

    #[test]
    fn level_order_matches_depth_first() {
        let mut rng = StdRng::seed_from_u64(45);
        // Miri runs a tenth of the keys and of the queries.
        const SPAN: u64 = if cfg!(miri) { 60 } else { 600 };
        const STEPS: u64 = SPAN * 3 / 2;
        const QUERIES: usize = if cfg!(miri) { 6 } else { 60 };
        // Balanced, unbalanced chromatic (leaves at many depths), NbBST.
        for k in [0, 1000] {
            for _ in 0..4 {
                let t = ChromaticTree::with_allowed_violations(k);
                churn(SPAN, STEPS, &mut rng, |ins, key, v| {
                    if ins {
                        t.insert(key, v);
                    } else {
                        t.remove(&key);
                    }
                });
                assert_level_order_matches_depth_first(&t.tree, SPAN, QUERIES, &mut rng);
            }
        }
        for _ in 0..4 {
            let t = LeafTree::new();
            churn(SPAN, STEPS, &mut rng, |ins, key, v| {
                if ins {
                    t.insert::<UnitWeights>(&key, &v);
                } else {
                    t.remove::<UnitWeights>(&key);
                }
            });
            assert_level_order_matches_depth_first(&t, SPAN, QUERIES, &mut rng);
        }
    }
}

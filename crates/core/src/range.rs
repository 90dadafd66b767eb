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
//! terminal state, so system-wide progress is preserved. A bounded variant
//! ([`ChromaticTree::range_attempts`](crate::ChromaticTree::range_attempts))
//! surfaces the retry budget to callers that prefer `None` over waiting out
//! a write-heavy phase.
//!
//! Why leaves are not LLXed: leaf keys and values are immutable, and any
//! update that inserts, removes or replaces a leaf must swing a child
//! pointer of a *visited internal node* — which requires freezing that node
//! and therefore changes its `info` word, failing the VLX. Validating the
//! internal nodes alone certifies the leaves for free and halves the handle
//! count of a scan.

use std::ops::{Bound, RangeBounds};

use llxscx::epoch::{Guard, Shared};
use llxscx::vlx;

use crate::node::Node;
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
/// AVL, which share [`Node`] and its sentinel layout).
///
/// Returns `None` when a concurrent update interfered; the caller should
/// re-traverse. `Some(pairs)` is sorted by key, duplicate-free, and is the
/// exact interval content at the final VLX (the query's linearization
/// point).
///
/// # Example
///
/// One attempt over a hand-built leaf-oriented tree (entry sentinel →
/// second `∞` sentinel → one routing node over two leaves — the shape of
/// paper Fig. 10 after two inserts). At quiescence the attempt must
/// validate on the first try:
///
/// ```
/// use nbtree::node::Node;
/// use nbtree::try_range_scan;
/// use llxscx::{with_guard, Shared};
///
/// with_guard(|guard| {
///     let l10 = Node::leaf(Some(10u64), Some("a"), 1).into_shared(guard);
///     let l20 = Node::leaf(Some(20u64), Some("b"), 1).into_shared(guard);
///     let inner = Node::internal(Some(20), 1, l10, l20).into_shared(guard);
///     let inf = Node::leaf(None, None, 1).into_shared(guard);
///     let sentinel = Node::internal(None, 1, inner, inf).into_shared(guard);
///     let entry = Node::internal(None, 1, sentinel, Shared::null()).into_shared(guard);
///
///     let snap = try_range_scan(entry, &(5u64..=25), guard)
///         .expect("no concurrent updates: the VLX must validate");
///     assert_eq!(snap, vec![(10, "a"), (20, "b")]);
///     // Pruning on the routing key keeps out-of-interval leaves unvisited.
///     assert_eq!(try_range_scan(entry, &(..10u64), guard).unwrap(), vec![]);
/// });
/// ```
///
/// (`ChromaticTree::range` wraps this in the retry loop; the example
/// leaks its six nodes, which is fine for a doctest process.)
pub fn try_range_scan<'g, K, V, B>(
    entry: Shared<'g, Node<K, V>>,
    bounds: &B,
    guard: &'g Guard,
) -> Option<Vec<(K, V)>>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: RangeBounds<K>,
{
    let mut handles: Vec<Handle<'g, K, V>> = Vec::with_capacity(32);
    let mut out: Vec<(K, V)> = Vec::new();
    // Explicit DFS stack (right pushed first so leaves emit in key order);
    // iterative to stay safe on degenerate NbBST shapes of depth Θ(n).
    let mut stack: Vec<Shared<'g, Node<K, V>>> = vec![entry];
    while let Some(n) = stack.pop() {
        if n.is_null() {
            // The entry sentinel's unused right child.
            continue;
        }
        // SAFETY: reached from `entry` under `guard` (property C3); nodes
        // stay allocated for the guard's lifetime.
        let n_ref = unsafe { n.deref() };
        if n_ref.is_leaf(guard) {
            // Read through the parent's validated snapshot: leaf contents
            // are immutable, so no LLX is needed (see module docs).
            if let (Some(k), Some(v)) = (n_ref.key(), n_ref.value()) {
                if bounds.contains(k) {
                    out.push((k.clone(), v.clone()));
                }
            }
            continue;
        }
        // Frozen or already removed: this attempt cannot linearize.
        let h = llx_ok(n, guard)?;
        handles.push(h);
        match h.node_ref().key() {
            // Sentinel ∞ internal node (entry or second sentinel): the
            // dictionary hangs off the left child; the right child is the
            // ∞ leaf (or null at entry) and can never hold a query key.
            None => stack.push(h.left()),
            Some(k) => {
                // Prune on the node's immutable routing key. A pruned
                // subtree can only hold keys outside the query (left: all
                // `< k`, right: all `>= k`), and the pruning node itself is
                // VLX-validated, so pruning stays sound at linearization.
                if may_contain_at_or_above(bounds, k) {
                    stack.push(h.right());
                }
                if may_contain_below(bounds, k) {
                    stack.push(h.left());
                }
            }
        }
    }
    vlx(&handles, guard).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChromaticTree;

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
}

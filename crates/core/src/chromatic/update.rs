//! The chromatic tree's *merged* updates: a whole same-leaf run of a
//! sorted batch installed by one SCX, and two sibling leaves removed by
//! one SCX. The point updates (`TryInsert`/`TryDelete`, paper Figs. 6, 12,
//! 13) are the shared [`crate::template`] instances under
//! [`ChromaticWeights`]; these two reuse its helpers and its weight rule.

use llxscx::epoch::{Guard, Shared};

use super::ChromaticTree;
use crate::node::Node;
use crate::template::{
    bfs2, commit, copy_with_weight, dispose_subtree, llx_ok, side_of, ChromaticWeights, SearchPath,
    WeightRule,
};

/// Builds a balanced subtree over `items` (distinct, ascending) entirely
/// from fresh nodes: weight-0 internal routing nodes over weight-1 leaves.
/// Internal keys follow the leaf-oriented convention (the key is the
/// smallest key of the right subtree, `probe < key` routes left).
///
/// `parent_red` is whether the node this subtree hangs off has weight 0;
/// every red-red edge the construction introduces is tallied into
/// `red_reds` so the caller can apply the `allowed_violations` policy.
fn build_run_subtree<'g, K, V>(
    items: &[(&K, &V)],
    parent_red: bool,
    red_reds: &mut u32,
    guard: &'g Guard,
) -> Shared<'g, Node<K, V>>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    if let [(k, v)] = items {
        return Node::leaf(Some((*k).clone()), Some((*v).clone()), 1).into_shared(guard);
    }
    // This internal node is red (weight 0): a red parent makes the edge to
    // it a red-red violation.
    if parent_red {
        *red_reds += 1;
    }
    let mid = items.len() / 2;
    let left = build_run_subtree(&items[..mid], true, red_reds, guard);
    let right = build_run_subtree(&items[mid..], true, red_reds, guard);
    Node::internal(Some(items[mid].0.clone()), 0, left, right).into_shared(guard)
}

/// The top of a merged-run install: like [`build_run_subtree`] but the root
/// carries `root_weight` (the weight the replaced leaf's slot demands so
/// that every weighted path sum through the new section equals the old
/// leaf's path sum: `root_weight + 0·(internals) + 1·(leaf) = old w`).
fn build_run_root<'g, K, V>(
    items: &[(&K, &V)],
    root_weight: u32,
    parent_red: bool,
    red_reds: &mut u32,
    guard: &'g Guard,
) -> Shared<'g, Node<K, V>>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    if let [(k, v)] = items {
        // Degenerate run: a single distinct key. Only reached below the
        // sentinels, where the forced root weight is 1 — a plain leaf.
        return Node::leaf(Some((*k).clone()), Some((*v).clone()), root_weight.max(1))
            .into_shared(guard);
    }
    let root_red = root_weight == 0;
    if root_red && parent_red {
        *red_reds += 1;
    }
    let mid = items.len() / 2;
    let left = build_run_subtree(&items[..mid], root_red, red_reds, guard);
    let right = build_run_subtree(&items[mid..], root_red, red_reds, guard);
    Node::internal(Some(items[mid].0.clone()), root_weight, left, right).into_shared(guard)
}

impl<K, V> ChromaticTree<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// One attempt to install a whole same-leaf **run** of a sorted batch
    /// with a single SCX: the template instance behind `insert_bulk`'s run
    /// merging. `run` holds the run's distinct keys in ascending order,
    /// each with its last-duplicate-wins value; every key must have been
    /// routed to `path.leaf` by the descent (the caller's window argument).
    ///
    /// The replaced leaf's payload is merged in (unless a run key
    /// overwrites it) and the whole set is rebuilt as a balanced
    /// mini-subtree: root weight `w − 1` (weight 1 below the sentinels,
    /// exactly the Insert1 rule), weight-0 internals, fresh weight-1
    /// leaves. Every root-to-leaf path through the new section then sums
    /// to the replaced leaf's weight regardless of depth, so the equal
    ///-path-sums invariant holds by construction and the Fig. 11
    /// rebalancing steps need no new cases — the only violations the
    /// install can create are red-red edges among the fresh weight-0
    /// internals, which are tallied and returned for the
    /// `allowed_violations` policy. `V = ⟨p, l⟩`, `R = ⟨l⟩`: the very same
    /// section a point Insert1 freezes, so the merged install wins or
    /// loses against concurrent updates exactly like a point insert.
    ///
    /// Returns the number of red-red violations created; `None` means a
    /// concurrent update interfered and the caller should fall back to
    /// per-element inserts.
    pub(crate) fn try_insert_run<'g>(
        &self,
        path: &SearchPath<'g, K, V>,
        run: &[(&K, &V)],
        guard: &'g Guard,
    ) -> Option<u32> {
        debug_assert!(!run.is_empty());
        debug_assert!(run.windows(2).all(|w| w[0].0 < w[1].0), "run not deduped");
        let hp = llx_ok(path.p, guard)?;
        let dir = side_of(&hp, path.leaf)?;
        let hl = llx_ok(path.leaf, guard)?;
        let l = hl.node_ref();
        let p_ref = hp.node_ref();

        // Merge the replaced leaf's payload into the run (key/value are
        // immutable, so reading them before the SCX is safe; the SCX's
        // LLX validation certifies the leaf was still in place).
        let mut merged: Vec<(&K, &V)> = Vec::with_capacity(run.len() + 1);
        if l.is_sentinel_key() {
            merged.extend_from_slice(run);
        } else {
            let lk = l.key().expect("non-sentinel leaf has a key");
            let pos = run.partition_point(|&(k, _)| k < lk);
            if pos < run.len() && run[pos].0 == lk {
                // A run key overwrites the leaf: last duplicate wins.
                merged.extend_from_slice(run);
            } else {
                let lv = l.value().expect("non-sentinel leaf has a value");
                merged.extend_from_slice(&run[..pos]);
                merged.push((lk, lv));
                merged.extend_from_slice(&run[pos..]);
            }
        }

        let mut red_reds = 0u32;
        let new = if l.is_sentinel_key() {
            // Empty tree (the ∞ leaf is only reachable when it is the
            // entry's direct child, Fig. 10(a)): install the Fig. 10(b)
            // shape in one shot — a fresh second sentinel whose left child
            // is the built run (black root) and whose right child is a
            // fresh ∞ leaf.
            let root = build_run_root(&merged, 1, false, &mut red_reds, guard);
            let inf = Node::leaf(None, None, 1).into_shared(guard);
            Node::internal(None, 1, root, inf).into_shared(guard)
        } else if merged.len() == 1 {
            // Every run key collapsed onto the existing leaf's key: a pure
            // value replacement, exactly Insert2 (same weight).
            debug_assert!(l.key_eq(merged[0].0));
            let (k, v) = merged[0];
            let weight = ChromaticWeights::replacement_leaf(l.weight());
            Node::leaf(Some(k.clone()), Some(v.clone()), weight).into_shared(guard)
        } else {
            // Insert1's weight rule, applied once for the whole run: the
            // mini-subtree root takes `l.w − 1` (1 when it becomes the
            // chromatic tree root — `p` carries the sentinel key).
            let (root_weight, _) = ChromaticWeights::split(p_ref.is_sentinel_key(), l.weight());
            let parent_red = p_ref.weight() == 0;
            build_run_root(&merged, root_weight, parent_red, &mut red_reds, guard)
        };
        // R = ⟨l⟩, as in Insert1/Insert2. The created set is a whole subtree
        // of run-dependent size, so it is released by a walk, not a list.
        // SAFETY: an empty created set satisfies `commit`'s contract.
        if unsafe { commit(&[hp, hl], 0b10, dir, new, &[], guard) } {
            Some(red_reds)
        } else {
            // SAFETY: nothing under `new` was published; the fresh subtree
            // is still exclusively ours.
            unsafe { dispose_subtree(new, guard) };
            None
        }
    }

    /// One attempt to remove two keys held by **sibling leaves** with a
    /// single SCX: the merged step behind `remove_bulk`. The caller has
    /// observed (by plain reads) that `leaf` — `p`'s left child — holds
    /// the current key and that `p`'s right child is a leaf holding
    /// `key2`, the next key of the sorted batch; this attempt re-validates
    /// the section under LLX and collapses both deletions at once:
    /// removing both of `p`'s leaves erases `p`'s entire subtree, so `gp`
    /// contracts to its other child `c`, whose fresh copy replaces `gp` at
    /// `ggp` with weight `gp.w + c.w` (1 when `ggp` or `gp` carries the
    /// sentinel key) — exactly the weight the second of two sequential
    /// Fig. 6 deletes would produce, because the intermediate sibling copy
    /// is itself deleted and its weight never surfaces.
    ///
    /// `V = ⟨ggp, gp, {p, c}, l, s⟩` in breadth-first order,
    /// `R = ⟨gp, p, c, l, s⟩`. On success returns the two removed values
    /// (in batch order) and whether the contraction created an overweight
    /// violation.
    pub(crate) fn try_delete_pair<'g>(
        &self,
        ggp: Shared<'g, Node<K, V>>,
        gp: Shared<'g, Node<K, V>>,
        p: Shared<'g, Node<K, V>>,
        leaf: Shared<'g, Node<K, V>>,
        key2: &K,
        guard: &'g Guard,
    ) -> Option<(Option<V>, Option<V>, bool)> {
        let hggp = llx_ok(ggp, guard)?;
        let dir_ggp = side_of(&hggp, gp)?;
        let hgp = llx_ok(gp, guard)?;
        let p_side = side_of(&hgp, p)?;
        let hp = llx_ok(p, guard)?;
        // The batch is sorted, so the pair's first key lives in the left
        // leaf; if the section shifted under us, fall back.
        if hp.left() != leaf {
            return None;
        }
        let hc = llx_ok(hgp.child(1 - p_side), guard)?;
        let hl = llx_ok(leaf, guard)?;
        let hs = llx_ok(hp.right(), guard)?;
        let s_ref = hs.node_ref();
        if !s_ref.is_leaf(guard) || !s_ref.key_eq(key2) {
            return None;
        }

        let (ggp_ref, gp_ref) = (hggp.node_ref(), hgp.node_ref());
        let below_sentinel = ggp_ref.is_sentinel_key() || gp_ref.is_sentinel_key();
        let new_weight = ChromaticWeights::contracted_sibling(
            below_sentinel,
            gp_ref.weight(),
            hc.node_ref().weight(),
        );
        // Fresh copy of `c`, like the sibling copy of a point delete. When
        // the pair empties the whole dictionary, `gp` is the second
        // sentinel and `c` its ∞ leaf: the copy is a weight-1 ∞ leaf and
        // the install restores the Fig. 10(a) empty shape at the entry.
        let new = copy_with_weight(&hc, new_weight, guard);

        // V in breadth-first order (PC8): gp's children left-to-right,
        // then p's. R = {gp, p, c, l, s}: everything below ggp.
        let [c0, c1] = bfs2(hp, hc, p_side);
        let v = [hggp, hgp, c0, c1, hl, hs];
        // SAFETY: `new` was just allocated and is referenced by nothing.
        unsafe { commit(&v, 0b111110, dir_ggp, new, &[new], guard) }.then(|| {
            let old1 = hl.node_ref().value().cloned();
            (old1, s_ref.value().cloned(), new_weight > 1)
        })
    }
}

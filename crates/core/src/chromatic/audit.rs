//! Invariant checking and structural introspection.
//!
//! Used by the test suite (after every property-test run and concurrent
//! stress test) and by the height-bound experiment (§5.3): at quiescence the
//! tree must satisfy every chromatic-tree invariant, and at any time the
//! height must be `O(k + c + log n)`.

use llxscx::epoch::{Guard, Shared};
use llxscx::guard_cache::with_guard;

use super::ChromaticTree;
use crate::node::Node;

/// Snapshot of the tree's structural health. Produced by
/// [`ChromaticTree::audit`]; all checks refer to the *chromatic tree proper*
/// (the subtree below the sentinels, Fig. 10).
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Total nodes (internal + leaves), excluding entry/sentinels.
    pub nodes: usize,
    /// Number of dictionary keys (non-sentinel leaves).
    pub keys: usize,
    /// Longest root-to-leaf path, in nodes.
    pub height: usize,
    /// Red-red violations (red node with red parent).
    pub red_red_violations: usize,
    /// Overweight violation units (`Σ max(w − 1, 0)`).
    pub overweight_violations: usize,
    /// Weight-0 (red) internal nodes. Merged-run installs create these in
    /// bursts (a mini-subtree is all-red below its root); their *placement*
    /// is checked structurally — a weight-0 node must be internal (a
    /// weight-0 leaf is an error) and sit below the sentinels, so every
    /// red node contributes 0 to its paths' weight sums.
    pub zero_weight_internals: usize,
    /// The common weighted root-to-leaf path sum of the chromatic tree
    /// (`None` when the dictionary is empty). All paths must agree — any
    /// mismatch is an error — so after a merged-run install this equals
    /// the replaced leaf's old path sum: the mini-subtree root's `w − 1`
    /// plus its weight-0 internals plus a weight-1 leaf.
    pub weighted_path_sum: Option<u64>,
    /// Invariant breaches found; empty means the structure is a valid
    /// chromatic tree.
    pub errors: Vec<String>,
}

impl AuditReport {
    /// Total violations (the `c` bound of §5.3 applies to this).
    pub fn violations(&self) -> usize {
        self.red_red_violations + self.overweight_violations
    }

    /// Whether the structure is a valid chromatic tree (zero violations
    /// additionally make it a red-black tree).
    pub fn is_valid(&self) -> bool {
        self.errors.is_empty()
    }
}

impl<K, V> ChromaticTree<K, V>
where
    K: Ord + Clone + Send + Sync + 'static + std::fmt::Debug,
    V: Clone + Send + Sync + 'static,
{
    /// Verifies every chromatic-tree invariant and reports violation counts
    /// and the height. Intended for quiescent moments (tests, experiment
    /// checkpoints); concurrent updates may produce transient reports.
    pub fn audit(&self) -> AuditReport {
        with_guard(|guard| {
            let mut report = AuditReport::default();
            let entry = self.tree.entry(guard);
            // SAFETY: entry is never removed.
            let entry_ref = unsafe { entry.deref() };
            if entry_ref.weight() != 1 || !entry_ref.is_sentinel_key() {
                report
                    .errors
                    .push("entry must be a weight-1 sentinel".into());
            }
            let below = entry_ref.read_child(0, guard);
            if below.is_null() {
                report.errors.push("entry has no left child".into());
                return report;
            }
            // SAFETY: `below` is non-null (checked above) and reached under `guard`.
            let below_ref = unsafe { below.deref() };
            if below_ref.is_leaf(guard) {
                // Empty dictionary: Fig. 10(a).
                if !below_ref.is_sentinel_key() || below_ref.weight() != 1 {
                    report
                        .errors
                        .push("empty-tree sentinel leaf must be (∞, w=1)".into());
                }
                return report;
            }
            // Fig. 10(b): second sentinel with the chromatic root as left child.
            if !below_ref.is_sentinel_key() || below_ref.weight() != 1 {
                report
                    .errors
                    .push("second sentinel must be (∞, w=1)".into());
            }
            let inf_leaf = below_ref.read_child(1, guard);
            // SAFETY: children of a live internal node are non-null (C2), reached
            // under `guard`.
            let inf_ref = unsafe { inf_leaf.deref() };
            if !inf_ref.is_leaf(guard) || !inf_ref.is_sentinel_key() {
                report
                    .errors
                    .push("second sentinel's right child must be the ∞ leaf".into());
            }
            let root = below_ref.read_child(0, guard);
            // Note: the chromatic root may transiently be red (weight 0): an
            // insertion below the sentinel creates it with `l.w − 1`. That is
            // not a violation (its parent, the sentinel, is black), so nothing
            // rebalances it; rebalancing steps and deletions at the root force
            // weight 1 (Lemma 28), so it can never be overweight from them.
            let mut path_weight = None;
            self.audit_rec(
                root,
                None,
                None,
                u32::MAX, // parent weight "not red" marker for the root
                0,
                1,
                &mut path_weight,
                &mut report,
                guard,
            );
            report.weighted_path_sum = path_weight;
            report
        })
    }

    /// Recursive checker: BST key ranges, leaf-orientation, weight rules,
    /// equal weighted path sums, violation tally.
    #[allow(clippy::too_many_arguments)] // ALLOW: recursion carries the full per-subtree invariant context; a bag struct would obscure which bound each check uses
    fn audit_rec<'g>(
        &self,
        n: Shared<'g, Node<K, V>>,
        lo: Option<&K>,
        hi: Option<&K>, // exclusive upper bound; None = +∞
        parent_weight: u32,
        depth: usize,
        weight_sum: u64,
        path_weight: &mut Option<u64>,
        report: &mut AuditReport,
        guard: &'g Guard,
    ) {
        if n.is_null() {
            report.errors.push("null child of internal node".into());
            return;
        }
        // SAFETY: reached from entry under `guard`.
        let node = unsafe { n.deref() };
        report.nodes += 1;
        report.height = report.height.max(depth + 1);
        let w = node.weight();
        if w == 0 && parent_weight == 0 {
            report.red_red_violations += 1;
        }
        if w > 1 {
            report.overweight_violations += (w - 1) as usize;
        }
        let sum = weight_sum + w as u64;

        if node.is_leaf(guard) {
            if node.is_sentinel_key() {
                report
                    .errors
                    .push("sentinel leaf inside the chromatic tree".into());
                return;
            }
            report.keys += 1;
            if w == 0 {
                report.errors.push("leaf with weight 0".into());
            }
            let k = node.key().expect("non-sentinel leaf has a key");
            if let Some(lo) = lo {
                if k < lo {
                    report.errors.push(format!("leaf {k:?} below range"));
                }
            }
            if let Some(hi) = hi {
                if k >= hi {
                    report.errors.push(format!("leaf {k:?} above range"));
                }
            }
            match path_weight {
                None => *path_weight = Some(sum),
                Some(expect) => {
                    if sum != *expect {
                        report
                            .errors
                            .push(format!("unequal weighted path sums: {sum} vs {expect}"));
                    }
                }
            }
        } else {
            if w == 0 {
                report.zero_weight_internals += 1;
            }
            let Some(key) = node.key() else {
                report
                    .errors
                    .push("sentinel key on internal node inside the tree".into());
                return;
            };
            if let Some(lo) = lo {
                if key < lo {
                    report
                        .errors
                        .push(format!("internal key {key:?} below range"));
                }
            }
            if let Some(hi) = hi {
                if key > hi {
                    report
                        .errors
                        .push(format!("internal key {key:?} above range"));
                }
            }
            self.audit_rec(
                node.read_child(0, guard),
                lo,
                Some(key),
                w,
                depth + 1,
                sum,
                path_weight,
                report,
                guard,
            );
            self.audit_rec(
                node.read_child(1, guard),
                Some(key),
                hi,
                w,
                depth + 1,
                sum,
                path_weight,
                report,
                guard,
            );
        }
    }

    /// Longest root-to-leaf path of the chromatic tree (0 when empty).
    pub fn height(&self) -> usize {
        self.audit().height
    }

    /// Sequential oracle check for [`range`](ChromaticTree::range): compares
    /// the VLX-validated scan of `[lo, hi]` against the plain in-order
    /// traversal restricted to the interval. Intended for quiescent moments
    /// (tests and experiment checkpoints, like [`audit`](ChromaticTree::audit));
    /// under concurrent updates the two snapshots may legitimately differ.
    /// Returns the number of keys in the interval.
    pub fn audit_range(&self, lo: &K, hi: &K) -> Result<usize, String>
    where
        V: PartialEq + std::fmt::Debug,
    {
        let scanned = self.range(lo.clone()..=hi.clone());
        let oracle: Vec<(K, V)> = self
            .collect()
            .into_iter()
            .filter(|(k, _)| k >= lo && k <= hi)
            .collect();
        if scanned.len() != oracle.len() {
            return Err(format!(
                "range [{lo:?}, {hi:?}] returned {} keys, oracle has {}",
                scanned.len(),
                oracle.len()
            ));
        }
        // Element-wise (key, value) equality with the in-order oracle also
        // certifies sortedness and duplicate-freedom (the oracle is
        // strictly sorted) — and that no key was paired with another
        // leaf's or a stale value.
        for ((ks, vs), (ko, vo)) in scanned.iter().zip(oracle.iter()) {
            if ks != ko {
                return Err(format!(
                    "range [{lo:?}, {hi:?}] diverges from oracle at key {ks:?} (oracle {ko:?})"
                ));
            }
            if vs != vo {
                return Err(format!(
                    "range [{lo:?}, {hi:?}] value for key {ks:?} is {vs:?}, oracle has {vo:?}"
                ));
            }
        }
        Ok(scanned.len())
    }
}

impl<K, V> ChromaticTree<K, V>
where
    K: Ord + Clone + Send + Sync + 'static + std::fmt::Debug,
    V: Clone + Send + Sync + 'static,
{
    /// Prints the tree structure (keys and weights) to stderr, down to
    /// `max_depth`. Diagnostic helper for tests and debugging.
    pub fn debug_dump(&self, max_depth: usize) {
        with_guard(|guard| {
            fn rec<
                K: Ord + Clone + Send + Sync + 'static + std::fmt::Debug,
                V: Clone + Send + Sync + 'static,
            >(
                n: Shared<'_, Node<K, V>>,
                depth: usize,
                max_depth: usize,
                guard: &llxscx::epoch::Guard,
            ) {
                if n.is_null() || depth > max_depth {
                    return;
                }
                // SAFETY: reached from entry under `guard`.
                let node = unsafe { n.deref() };
                let pad = "  ".repeat(depth);
                let kind = if node.is_leaf(guard) { "leaf" } else { "int " };
                eprintln!("{pad}{kind} k={:?} w={}", node.key(), node.weight());
                if !node.is_leaf(guard) {
                    rec(node.read_child(0, guard), depth + 1, max_depth, guard);
                    rec(node.read_child(1, guard), depth + 1, max_depth, guard);
                }
            }
            rec(self.tree.entry(guard), 0, max_depth, guard);
        })
    }
}

//! The tree update template (paper §4, Fig. 3) for binary leaf-oriented
//! trees — the single implementation every template tree in the suite is
//! built from.
//!
//! An update that follows the template performs LLXs on a sequence of
//! records chosen on the fly (`NextNode`/`Condition` in the paper), then a
//! single SCX computed from the snapshots (`SCX-Arguments`), returning a
//! locally computed result. The paper proves (§4.1) that *any* data
//! structure whose updates follow this discipline — with `SCX-Arguments`
//! satisfying postconditions PC1–PC9 — is linearizable and non-blocking,
//! and that each successful update atomically replaces the connected
//! subgraph `R ∪ F_N` by `N ∪ F_N`.
//!
//! The module has three layers, and no tree in the suite re-implements any
//! of them:
//!
//! 1. **Attempt helpers** — [`llx_ok`] (LLX or bail), [`side_of`] (which
//!    child of a snapshot a node is, else bail) and [`commit`] (one SCX
//!    over a breadth-first `V` whose first record holds the modified field;
//!    a failed SCX releases every node the attempt allocated). They
//!    allocate nothing: `V` and the created set are caller-side arrays, and
//!    `?` on the `Option`s is the template's "a concurrent update
//!    interfered, start over".
//! 2. **[`LeafTree`]** — the skeleton every tree owns: the `entry` sentinel
//!    of Fig. 10, the read-only search of Fig. 5 (with a per-edge hook, so
//!    the chromatic tree tallies violations in the same loop), the plain
//!    and VLX-validated queries, and teardown.
//! 3. **Insert1 / Insert2 / Delete** of Fig. 11, written once
//!    ([`try_insert`], [`try_delete`]) and generic over a compile-time
//!    [`WeightRule`]. The chromatic tree ([`ChromaticWeights`]), the
//!    unbalanced EFRB-style BST ([`UnitWeights`]) and the relaxed AVL tree
//!    ([`RankWeights`]) differ only in that rule and in what they do
//!    *after* a committed update (rebalance, nothing, repair ranks).

use std::ops::RangeBounds;
use std::sync::atomic::Ordering;

use llxscx::epoch::{Atomic, Guard, Shared};
use llxscx::{llx, scx, with_guard, Llx, LlxHandle, ScxArgs};

use crate::node::Node;
use crate::range::try_range_scan;

/// A linked LLX snapshot of a tree node.
pub type Handle<'g, K, V> = LlxHandle<'g, Node<K, V>>;

// ---------------------------------------------------------------------------
// Layer 1: attempt helpers.
// ---------------------------------------------------------------------------

/// LLX, or bail: `None` when the record is frozen by a concurrent SCX or
/// already finalized — in both cases the attempt cannot linearize and the
/// caller starts over from its search.
#[inline]
pub fn llx_ok<'g, K, V>(n: Shared<'g, Node<K, V>>, guard: &'g Guard) -> Option<Handle<'g, K, V>>
where
    K: Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    match llx(n, guard) {
        Llx::Snapshot(h) => Some(h),
        _ => None,
    }
}

/// Which child (`0` = left, `1` = right) of the snapshot `h` the node `x`
/// is; `None` when `x` moved away since the caller's search (bail).
#[inline]
pub fn side_of<'g, K, V>(h: &Handle<'g, K, V>, x: Shared<'g, Node<K, V>>) -> Option<usize>
where
    K: Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    if h.left() == x {
        Some(0)
    } else if h.right() == x {
        Some(1)
    } else {
        None
    }
}

/// Orders the handles of two siblings breadth-first (left, right) given
/// the side `d` of the first (PC8).
#[inline]
pub fn bfs2<T>(a: T, b: T, d: usize) -> [T; 2] {
    if d == 0 {
        [a, b]
    } else {
        [b, a]
    }
}

/// The template's one SCX: `v` is the `V` sequence in breadth-first order
/// whose **first** record holds the modified field `fld_idx`, `finalize`
/// the bitmask over `v` selecting `R`, `new` the root of the freshly
/// allocated subgraph `N`. Returns whether the SCX took effect; when it did
/// not, every node in `created` is released exactly once (they were never
/// published).
///
/// # Safety
/// Every node in `created` must have been allocated by the caller for this
/// attempt through the record slab ([`Node::leaf`] / [`Node::internal`]),
/// be listed once, and be reachable only through `new` — i.e. still
/// unpublished and exclusively the caller's.
#[inline]
pub unsafe fn commit<'g, K, V>(
    v: &[Handle<'g, K, V>],
    finalize: u8,
    fld_idx: usize,
    new: Shared<'g, Node<K, V>>,
    created: &[Shared<'g, Node<K, V>>],
    guard: &'g Guard,
) -> bool
where
    K: Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    let args = ScxArgs {
        v,
        finalize,
        fld_record: 0,
        fld_idx,
        new,
    };
    let ok = scx(&args, guard);
    if !ok {
        for n in created {
            // SAFETY: per this function's contract the node is unpublished
            // and listed once; the failed SCX never stored `new`.
            unsafe { llxscx::reclaim::dispose_record(n.as_raw()) };
        }
    }
    ok
}

/// Frees every node reachable from `n`. Children are pushed before the
/// parent is disposed, so every node is visited exactly once.
///
/// # Safety
/// The caller must own every node reachable from `n` exclusively (a whole
/// tree in `Drop`, or an unpublished subtree whose SCX failed), each must be
/// reachable exactly once (down-tree, indegree 1) and slab-allocated.
pub(crate) unsafe fn dispose_subtree<K, V>(n: Shared<'_, Node<K, V>>, guard: &Guard)
where
    K: Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    let mut stack = vec![n];
    while let Some(s) = stack.pop() {
        if s.is_null() {
            continue;
        }
        // SAFETY: exclusive ownership per this function's contract.
        unsafe {
            let node = s.deref();
            stack.push(node.read_child(0, guard));
            stack.push(node.read_child(1, guard));
            llxscx::reclaim::dispose_record(s.as_raw());
        }
    }
}

/// Fresh copy of the node behind `h` with a new weight: key and value are
/// immutable (read from the node), the children — the mutable fields —
/// come from the LLX snapshot.
pub fn copy_with_weight<'g, K, V>(
    h: &Handle<'g, K, V>,
    weight: u32,
    guard: &'g Guard,
) -> Shared<'g, Node<K, V>>
where
    K: Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    let n = h.node_ref();
    if h.left().is_null() {
        Node::leaf(n.key().cloned(), n.value().cloned(), weight)
    } else {
        Node::internal(n.key().cloned(), weight, h.left(), h.right())
    }
    .into_shared(guard)
}

/// Fresh internal node with its children given per *side*: `child_d` goes
/// to side `d`, `child_o` to the other. Lets a rotation and its mirror
/// image share one body.
pub fn mk_internal<'g, K, V>(
    key: Option<&K>,
    weight: u32,
    d: usize,
    child_d: Shared<'g, Node<K, V>>,
    child_o: Shared<'g, Node<K, V>>,
    guard: &'g Guard,
) -> Shared<'g, Node<K, V>>
where
    K: Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    let [l, r] = bfs2(child_d, child_o, d);
    Node::internal(key.cloned(), weight, l, r).into_shared(guard)
}

// ---------------------------------------------------------------------------
// Layer 2: the leaf-oriented tree skeleton.
// ---------------------------------------------------------------------------

/// The last three nodes of a search path (Fig. 5): grandparent, parent and
/// leaf. The grandparent is null when the dictionary is empty — the leaf's
/// parent is then `entry` itself.
pub struct SearchPath<'g, K, V> {
    /// The parent's parent (null in the empty tree of Fig. 10(a)).
    pub gp: Shared<'g, Node<K, V>>,
    /// The leaf's parent.
    pub p: Shared<'g, Node<K, V>>,
    /// The leaf the search ended at.
    pub leaf: Shared<'g, Node<K, V>>,
}

/// What every template tree owns: the sentinels of Fig. 10 and everything
/// that only reads through them. Updates go through [`try_insert`] /
/// [`try_delete`] with the owner's [`WeightRule`].
pub struct LeafTree<K: Send + Sync + 'static, V: Send + Sync + 'static> {
    /// The `entry` Data-record (Fig. 10): key `∞`, weight 1, never removed.
    /// Its left child is the second sentinel (or, when the dictionary is
    /// empty, a single `∞` leaf); its right child is unused.
    entry: Atomic<Node<K, V>>,
}

// SAFETY: the only field is the entry pointer; all shared mutable state
// behind it is accessed through atomics under epoch guards, and the
// `K`/`V: Send + Sync` bounds cover the payloads other threads read, clone
// and (through deferred reclamation) drop.
unsafe impl<K: Send + Sync + 'static, V: Send + Sync + 'static> Send for LeafTree<K, V> {}
// SAFETY: same argument as `Send`.
unsafe impl<K: Send + Sync + 'static, V: Send + Sync + 'static> Sync for LeafTree<K, V> {}

impl<K: Send + Sync + 'static, V: Send + Sync + 'static> LeafTree<K, V> {
    /// An empty tree, Fig. 10(a): `entry(∞, w=1)` over a single `∞` leaf.
    /// Weight 1 is what the chromatic tree requires of its sentinels; the
    /// other weight rules never look at a sentinel's weight.
    pub fn new() -> Self {
        // SAFETY: construction — the tree is not yet shared with any thread.
        let guard = unsafe { llxscx::epoch::unprotected() };
        let leaf = Node::leaf(None, None, 1).into_shared(guard);
        LeafTree {
            entry: Atomic::from(Node::internal(None, 1, leaf, Shared::null())),
        }
    }

    /// The entry sentinel.
    ///
    /// Memory-ordering audit: `Acquire` — the entry pointer is written once
    /// at construction and never changes, so it takes part in no SCX; the
    /// acquiring load only needs to see the sentinel nodes' initialization
    /// (release-published when the tree was handed to other threads), same
    /// argument as [`Node::read_child`].
    #[inline]
    pub fn entry<'g>(&self, guard: &'g Guard) -> Shared<'g, Node<K, V>> {
        self.entry.load(Ordering::Acquire, guard)
    }

    /// Visits every leaf (sentinels included) left to right. Iterative, so
    /// an unbalanced tree of depth Θ(n) cannot overflow the stack.
    fn for_each_leaf(&self, guard: &Guard, mut visit: impl FnMut(&Node<K, V>)) {
        let mut stack = vec![self.entry(guard)];
        while let Some(n) = stack.pop() {
            if n.is_null() {
                continue; // the entry sentinel's unused right child
            }
            // SAFETY: non-null and reached from entry under `guard` (C3).
            let node = unsafe { n.deref() };
            if node.is_leaf(guard) {
                visit(node);
            } else {
                stack.push(node.read_child(1, guard));
                stack.push(node.read_child(0, guard));
            }
        }
    }

    /// Number of keys. Takes a traversal snapshot (O(n)); not linearizable
    /// with respect to concurrent updates, like size in most concurrent maps.
    pub fn len(&self) -> usize {
        with_guard(|guard| {
            let mut count = 0;
            self.for_each_leaf(guard, |leaf| count += usize::from(!leaf.is_sentinel_key()));
            count
        })
    }

    /// Whether the dictionary is empty: O(1), the entry's left child is a
    /// leaf only in the shape of Fig. 10(a).
    pub fn is_empty(&self) -> bool {
        with_guard(|guard| {
            // SAFETY: the entry sentinel is never reclaimed.
            let entry = unsafe { self.entry(guard).deref() };
            // SAFETY: the entry is internal, so its left child is non-null (C2).
            unsafe { entry.read_child(0, guard).deref() }.is_leaf(guard)
        })
    }
}

impl<K: Send + Sync + 'static, V: Send + Sync + 'static> Default for LeafTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> LeafTree<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// The paper's `Search(key)` (Fig. 5): pure reads from `entry` down to
    /// a leaf, remembering the last three nodes. `edge(parent, child)` is
    /// called once per edge followed, in the same loop — the chromatic tree
    /// tallies violations there; [`search`](Self::search) passes a no-op.
    ///
    /// `#[inline]`: this loop is the whole read path and most of every
    /// update path; inlining it (and the hook) into `get`/`insert`/`remove`
    /// lets the compiler keep the probe key and the three path pointers in
    /// registers and drop a no-op hook's loads entirely.
    #[inline]
    pub fn search_with<'g>(
        &self,
        key: &K,
        guard: &'g Guard,
        mut edge: impl FnMut(&Node<K, V>, &Node<K, V>),
    ) -> SearchPath<'g, K, V> {
        let mut gp = Shared::null();
        let mut p = self.entry(guard);
        // SAFETY: entry is never removed.
        let mut leaf = unsafe { p.deref() }.read_child(0, guard);
        loop {
            // SAFETY: reached by child pointers under `guard` (property C3);
            // children of internal nodes are never null.
            let leaf_ref = unsafe { leaf.deref() };
            // SAFETY: `p` was `leaf`'s parent on this search path; same
            // liveness argument as `leaf`.
            edge(unsafe { p.deref() }, leaf_ref);
            if leaf_ref.is_leaf(guard) {
                return SearchPath { gp, p, leaf };
            }
            gp = p;
            p = leaf;
            let dir = if leaf_ref.route_left(key) { 0 } else { 1 };
            leaf = leaf_ref.read_child(dir, guard);
        }
    }

    /// [`search_with`](Self::search_with) without a hook.
    #[inline]
    pub fn search<'g>(&self, key: &K, guard: &'g Guard) -> SearchPath<'g, K, V> {
        self.search_with(key, guard, |_, _| {})
    }

    /// Returns the value associated with `key`, if present.
    ///
    /// Uses only plain reads (no LLX), exactly like a sequential BST search;
    /// correctness under concurrency is the paper's property C3 (§5.4).
    /// Runs under the amortized cached guard ([`llxscx::with_guard`]), so
    /// the epoch pin costs a thread-local re-entry rather than global
    /// atomics — the paper's "searches perform no synchronization" design.
    pub fn get(&self, key: &K) -> Option<V> {
        with_guard(|guard| {
            // SAFETY: `search` always lands on a leaf: non-null, alive under `guard`.
            let leaf = unsafe { self.search(key, guard).leaf.deref() };
            if leaf.key_eq(key) {
                leaf.value().cloned()
            } else {
                None
            }
        })
    }

    /// Whether the dictionary contains `key`.
    pub fn contains_key(&self, key: &K) -> bool {
        with_guard(|guard| {
            // SAFETY: `search` always lands on a leaf: non-null, alive under `guard`.
            unsafe { self.search(key, guard).leaf.deref() }.key_eq(key)
        })
    }

    /// Inserts `key → value` under weight rule `W`, retrying until an
    /// attempt commits; linearizes at that attempt's SCX.
    pub fn insert<W: WeightRule>(&self, key: &K, value: &V) -> Applied<V> {
        loop {
            // One attempt per cached-guard entry: retries cross a
            // `with_guard` boundary, so a long retry storm still lets the
            // epoch advance at the repin interval.
            let attempt = with_guard(|guard| {
                try_insert::<W, K, V>(&self.search(key, guard), key, value, guard)
            });
            if let Some(applied) = attempt {
                return applied;
            }
        }
    }

    /// Removes `key` under weight rule `W`, retrying until an attempt
    /// commits (or finds the key absent, which linearizes like a query).
    pub fn remove<W: WeightRule>(&self, key: &K) -> Applied<V> {
        loop {
            let attempt =
                with_guard(|guard| try_delete::<W, K, V>(&self.search(key, guard), key, guard));
            if let Some(applied) = attempt {
                return applied;
            }
        }
    }

    /// One attempt at an atomic snapshot of the pairs with keys in
    /// `bounds` (see [`crate::range`]); `None` when a concurrent update
    /// interfered.
    pub fn try_range<B: RangeBounds<K>>(&self, bounds: &B) -> Option<Vec<(K, V)>> {
        with_guard(|guard| try_range_scan(self.entry(guard), bounds, guard))
    }

    /// All pairs with keys in `bounds`, sorted — an atomic snapshot,
    /// linearized at the successful VLX of the final attempt. One attempt
    /// per cached-guard entry, like the update paths.
    pub fn range<B: RangeBounds<K>>(&self, bounds: B) -> Vec<(K, V)> {
        loop {
            if let Some(out) = self.try_range(&bounds) {
                return out;
            }
        }
    }

    /// A sorted snapshot of all key/value pairs, by in-order traversal.
    /// Not atomic with respect to concurrent updates (each key's presence
    /// is individually linearizable; use [`range`](Self::range) for an
    /// atomic snapshot).
    pub fn collect(&self) -> Vec<(K, V)> {
        with_guard(|guard| {
            let mut out = Vec::new();
            self.for_each_leaf(guard, |leaf| {
                if let (Some(k), Some(v)) = (leaf.key(), leaf.value()) {
                    out.push((k.clone(), v.clone()));
                }
            });
            out
        })
    }
}

impl<K: Send + Sync + 'static, V: Send + Sync + 'static> Drop for LeafTree<K, V> {
    fn drop(&mut self) {
        // SAFETY: exclusive `&mut self` in Drop — no concurrent readers, so
        // the unprotected guard is sound.
        let guard = unsafe { llxscx::epoch::unprotected() };
        // SAFETY: exclusive access to the whole tree; down-tree, so every
        // node is reachable exactly once. Descriptors belong to threads,
        // not to records, so there is nothing else to release.
        unsafe { dispose_subtree(self.entry(guard), guard) };
    }
}

// ---------------------------------------------------------------------------
// Layer 3: Insert1 / Insert2 / Delete (Fig. 11), generic over the weights.
// ---------------------------------------------------------------------------

/// The only thing the three template trees disagree on inside Fig. 11's
/// Insert1/Insert2/Delete: which weights the fresh nodes carry. A
/// compile-time rule (a type, not a setting), so each tree's update path
/// monomorphizes to straight-line code.
///
/// `below_sentinel` tells the rule that the node it is weighing will hang
/// directly below a sentinel-keyed node, i.e. becomes the root of the
/// dictionary proper (Fig. 10(b)).
pub trait WeightRule {
    /// Insert2: weight of the fresh leaf replacing a leaf of weight
    /// `leaf` (same key, new value).
    fn replacement_leaf(leaf: u32) -> u32;

    /// Insert1: `(internal, leaves)` — the weight of the fresh internal
    /// node that replaces a leaf of weight `leaf`, and of its two fresh
    /// leaves.
    fn split(below_sentinel: bool, leaf: u32) -> (u32, u32);

    /// Delete: weight of the fresh copy of the sibling (weight `sibling`)
    /// that replaces its parent (weight `parent`).
    fn contracted_sibling(below_sentinel: bool, parent: u32, sibling: u32) -> u32;
}

/// Chromatic weights (Figs. 6 and 12): path sums are preserved — a split
/// moves one unit from the leaf up into the new internal node, a
/// contraction adds the removed parent's weight to the sibling — except
/// that a node becoming the chromatic root always gets weight 1.
pub struct ChromaticWeights;

impl WeightRule for ChromaticWeights {
    /// Cannot create a violation: leaves always have weight ≥ 1.
    #[inline]
    fn replacement_leaf(leaf: u32) -> u32 {
        leaf
    }

    /// Like the Delete of Fig. 6 (line 24), force weight 1 whenever the new
    /// node becomes the chromatic tree root — this keeps the root black,
    /// which Lemma 15.2's "rebalancing never touches the sentinels"
    /// argument relies on. (Fig. 12 line 28 only special-cases `l` itself
    /// being a sentinel; taken literally that makes the root red on the
    /// second insertion and the ensuing red-red fix would replace the
    /// second sentinel.) Both leaves are *fresh weight-1 leaves* (Fig. 11:
    /// "+ + 1 1"): the existing leaf is copied, not reused, because its
    /// weight must drop to 1 to keep path sums equal (paths through a
    /// reused overweight leaf would gain `l.w − 1`).
    #[inline]
    fn split(below_sentinel: bool, leaf: u32) -> (u32, u32) {
        (if below_sentinel { 1 } else { leaf.max(1) - 1 }, 1)
    }

    #[inline]
    fn contracted_sibling(below_sentinel: bool, parent: u32, sibling: u32) -> u32 {
        if below_sentinel {
            1
        } else {
            parent + sibling
        }
    }
}

/// No balance information at all: every node has weight 1 (the unbalanced
/// BST of Ellen, Fatourou, Ruppert and van Breugel).
pub struct UnitWeights;

impl WeightRule for UnitWeights {
    #[inline]
    fn replacement_leaf(_: u32) -> u32 {
        1
    }

    #[inline]
    fn split(_: bool, _: u32) -> (u32, u32) {
        (1, 1)
    }

    #[inline]
    fn contracted_sibling(_: bool, _: u32, _: u32) -> u32 {
        1
    }
}

/// Relaxed-AVL ranks stored in the weight field: leaves have rank 0, a
/// fresh internal node over two leaves rank 1 (correct locally; ancestors
/// go stale — the relaxation), and a contracted sibling keeps its rank.
pub struct RankWeights;

impl WeightRule for RankWeights {
    #[inline]
    fn replacement_leaf(_: u32) -> u32 {
        0
    }

    #[inline]
    fn split(_: bool, _: u32) -> (u32, u32) {
        (1, 0)
    }

    #[inline]
    fn contracted_sibling(_: bool, _: u32, sibling: u32) -> u32 {
        sibling
    }
}

/// What a linearized Insert or Delete did — enough for the owner to decide
/// about violations (chromatic) or repair (relaxed AVL).
#[derive(Debug, PartialEq, Eq)]
pub struct Applied<V> {
    /// The value previously associated with the key.
    pub old: Option<V>,
    /// `Some((parent weight, weight of the node now hanging off it))` when
    /// the update changed the tree's shape (Insert1, Delete); `None` for a
    /// value replacement (Insert2) and for a Delete that found no key.
    pub reshaped: Option<(u32, u32)>,
}

/// One attempt to insert `key` at the leaf `path` ended at; `None` means a
/// concurrent update interfered and the caller should search again.
///
/// Two template instances (Fig. 11), both `V = ⟨p, l⟩`, `R = ⟨l⟩`:
/// * **Insert2** (`key` present): replace the leaf by a fresh leaf.
/// * **Insert1** (`key` absent): replace the leaf by a fresh internal node
///   over two fresh leaves, one for `key` and one copying `l`.
#[inline]
pub fn try_insert<'g, W, K, V>(
    path: &SearchPath<'g, K, V>,
    key: &K,
    value: &V,
    guard: &'g Guard,
) -> Option<Applied<V>>
where
    W: WeightRule,
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    let hp = llx_ok(path.p, guard)?;
    let dir = side_of(&hp, path.leaf)?;
    let hl = llx_ok(path.leaf, guard)?;
    let (p, l) = (hp.node_ref(), hl.node_ref());
    let fresh_leaf = |w| Node::leaf(Some(key.clone()), Some(value.clone()), w).into_shared(guard);
    if l.key_eq(key) {
        let new = fresh_leaf(W::replacement_leaf(l.weight()));
        // SAFETY: `new` was just allocated and is referenced by nothing.
        unsafe { commit(&[hp, hl], 0b10, dir, new, &[new], guard) }.then(|| Applied {
            old: l.value().cloned(),
            reshaped: None,
        })
    } else {
        let below_sentinel = l.is_sentinel_key() || p.is_sentinel_key();
        let (w_internal, w_leaf) = W::split(below_sentinel, l.weight());
        let new_leaf = fresh_leaf(w_leaf);
        let l_copy = Node::leaf(l.key().cloned(), l.value().cloned(), w_leaf).into_shared(guard);
        let new = if l.route_left(key) {
            // key < l.k: the new internal routes on l's key.
            Node::internal(l.key().cloned(), w_internal, new_leaf, l_copy)
        } else {
            Node::internal(Some(key.clone()), w_internal, l_copy, new_leaf)
        }
        .into_shared(guard);
        // SAFETY: all three nodes were just allocated; the leaves are
        // referenced only by `new`, and `new` by nothing.
        unsafe { commit(&[hp, hl], 0b10, dir, new, &[new, l_copy, new_leaf], guard) }.then_some(
            Applied {
                old: None,
                reshaped: Some((p.weight(), w_internal)),
            },
        )
    }
}

/// One attempt to delete `key` (Fig. 6): the leaf's parent is replaced by a
/// fresh copy of the leaf's sibling. `V = ⟨gp, p, l, s⟩` in breadth-first
/// order, `R = ⟨p, l, s⟩`. `None` means a concurrent update interfered; a
/// missing key is `Some` (it linearizes like a query).
#[inline]
pub fn try_delete<'g, W, K, V>(
    path: &SearchPath<'g, K, V>,
    key: &K,
    guard: &'g Guard,
) -> Option<Applied<V>>
where
    W: WeightRule,
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    // Empty tree (Fig. 10(a), no grandparent exists) or key absent.
    // SAFETY: the search's leaf is non-null and alive under `guard`.
    if path.gp.is_null() || !unsafe { path.leaf.deref() }.key_eq(key) {
        return Some(Applied {
            old: None,
            reshaped: None,
        });
    }
    let hgp = llx_ok(path.gp, guard)?;
    let dir = side_of(&hgp, path.p)?;
    let hp = llx_ok(path.p, guard)?;
    let leaf_side = side_of(&hp, path.leaf)?;
    let hl = llx_ok(path.leaf, guard)?;
    let hs = llx_ok(hp.child(1 - leaf_side), guard)?;
    let (gp, p) = (hgp.node_ref(), hp.node_ref());
    let below_sentinel = gp.is_sentinel_key() || p.is_sentinel_key();
    let weight = W::contracted_sibling(below_sentinel, p.weight(), hs.node_ref().weight());
    let new = copy_with_weight(&hs, weight, guard);
    let [c0, c1] = bfs2(hl, hs, leaf_side);
    // SAFETY: `new` was just allocated and is referenced by nothing.
    unsafe { commit(&[hgp, hp, c0, c1], 0b1110, dir, new, &[new], guard) }.then(|| Applied {
        old: hl.node_ref().value().cloned(),
        reshaped: Some((gp.weight(), weight)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    type Ptr<'g, V> = Shared<'g, Node<u64, V>>;

    /// Fig. 10(b) around a hand-built dictionary `root`.
    fn fig10b<V: Send + Sync + 'static>(root: Ptr<'_, V>) -> LeafTree<u64, V> {
        // SAFETY: the nodes are not shared with any thread yet.
        let guard = unsafe { llxscx::epoch::unprotected() };
        let inf = Node::leaf(None, None, 1).into_shared(guard);
        let sentinel = Node::internal(None, 1, root, inf).into_shared(guard);
        LeafTree {
            entry: Atomic::from(Node::internal(None, 1, sentinel, Shared::null())),
        }
    }

    /// Everything below `entry` as `key:weight` leaves and
    /// `(key:weight left right)` internals.
    fn shape<V: Send + Sync + 'static>(t: &LeafTree<u64, V>) -> String {
        fn render<V: Send + Sync + 'static>(n: Ptr<'_, V>, guard: &Guard) -> String {
            // SAFETY: reached from entry under `guard`.
            let node = unsafe { n.deref() };
            let key = node.key().map_or("∞".to_string(), u64::to_string);
            if node.is_leaf(guard) {
                return format!("{key}:{}", node.weight());
            }
            let [l, r] = [0, 1].map(|d| render(node.read_child(d, guard), guard));
            format!("({key}:{} {l} {r})", node.weight())
        }
        with_guard(|guard| {
            // SAFETY: the entry sentinel is never reclaimed.
            let entry = unsafe { t.entry(guard).deref() };
            render(entry.read_child(0, guard), guard)
        })
    }

    /// Runs Fig. 11's three updates under `W` against a hand-built tree with
    /// an overweight leaf (weights as a chromatic tree would carry them):
    ///
    /// ```text
    /// entry ─ (∞:1 (50:1 (30:1 20:3 30:1) 50:1) ∞:1)
    /// ```
    ///
    /// drains it to Fig. 10(a) and grows it again. Returns, per step, what
    /// the update reported and the shape it left.
    fn fig11_script<W: WeightRule>() -> Vec<(Option<(u32, u32)>, String)> {
        // SAFETY: the nodes are not shared with any thread yet.
        let guard = unsafe { llxscx::epoch::unprotected() };
        let leaf = |k: u64, w| Node::leaf(Some(k), Some(k * 10), w).into_shared(guard);
        let p = Node::internal(Some(30), 1, leaf(20, 3), leaf(30, 1)).into_shared(guard);
        let t = fig10b(Node::internal(Some(50), 1, p, leaf(50, 1)).into_shared(guard));
        assert_eq!(shape(&t), "(∞:1 (50:1 (30:1 20:3 30:1) 50:1) ∞:1)");

        let mut log = Vec::new();
        let mut insert = |k: u64, expect_old: Option<u64>| {
            let applied = t.insert::<W>(&k, &(k * 10 + 1));
            assert_eq!(applied.old, expect_old, "insert {k}");
            log.push((applied.reshaped, shape(&t)));
        };
        insert(20, Some(200)); // Insert2 on the overweight leaf
        insert(10, None); // Insert1 below an ordinary node
        let mut remove = |k: u64, expect_old: Option<u64>| {
            let applied = t.remove::<W>(&k);
            assert_eq!(applied.old, expect_old, "remove {k}");
            log.push((applied.reshaped, shape(&t)));
        };
        remove(10, Some(101)); // Delete whose sibling copy stays inside the tree
        remove(50, Some(500)); // Delete whose sibling copy becomes the root
        remove(99, None); // absent key: linearizes like a query
        remove(20, Some(201));
        remove(30, Some(300)); // last key: back to Fig. 10(a)
        assert!(t.is_empty());
        let mut insert = |k: u64| {
            let applied = t.insert::<W>(&k, &k);
            assert_eq!(applied.old, None, "insert {k}");
            log.push((applied.reshaped, shape(&t)));
        };
        insert(7); // Insert1 at the ∞ leaf: builds the second sentinel
        insert(9); // Insert1 whose new node becomes the root
        insert(8); // Insert1 under a black parent
        insert(6); // Insert1 under a red (chromatic) parent
        assert_eq!(t.collect(), vec![(6, 6), (7, 7), (8, 8), (9, 9)]);
        assert_eq!(t.len(), 4);
        log
    }

    fn expect(steps: &[(Option<(u32, u32)>, &str)]) -> Vec<(Option<(u32, u32)>, String)> {
        steps.iter().map(|&(r, s)| (r, s.to_string())).collect()
    }

    #[test]
    fn chromatic_weights_follow_figs_6_and_12() {
        assert_eq!(
            fig11_script::<ChromaticWeights>(),
            expect(&[
                // Insert2 keeps the leaf's weight, even an overweight one.
                (None, "(∞:1 (50:1 (30:1 20:3 30:1) 50:1) ∞:1)"),
                // Insert1: l.w − 1 on the internal, two weight-1 leaves.
                (
                    Some((1, 2)),
                    "(∞:1 (50:1 (30:1 (20:2 10:1 20:1) 30:1) 50:1) ∞:1)"
                ),
                // Delete: p.w + s.w = 2 + 1.
                (Some((1, 3)), "(∞:1 (50:1 (30:1 20:3 30:1) 50:1) ∞:1)"),
                // Delete whose copy becomes the chromatic root ⇒ weight 1
                // (not 50.w + 30.w = 2).
                (Some((1, 1)), "(∞:1 (30:1 20:3 30:1) ∞:1)"),
                (None, "(∞:1 (30:1 20:3 30:1) ∞:1)"),
                // ... even when the sibling is overweight on its own.
                (Some((1, 1)), "(∞:1 30:1 ∞:1)"),
                (Some((1, 1)), "∞:1"),
                (Some((1, 1)), "(∞:1 7:1 ∞:1)"),
                // New node becomes the chromatic root ⇒ weight 1, not 0.
                (Some((1, 1)), "(∞:1 (9:1 7:1 9:1) ∞:1)"),
                (Some((1, 0)), "(∞:1 (9:1 (8:0 7:1 8:1) 9:1) ∞:1)"),
                // Red under red: the (0, 0) edge the owner must clean up.
                (Some((0, 0)), "(∞:1 (9:1 (8:0 (7:0 6:1 7:1) 8:1) 9:1) ∞:1)"),
            ])
        );
    }

    #[test]
    fn unit_weights_are_all_one() {
        assert_eq!(
            fig11_script::<UnitWeights>(),
            expect(&[
                (None, "(∞:1 (50:1 (30:1 20:1 30:1) 50:1) ∞:1)"),
                (
                    Some((1, 1)),
                    "(∞:1 (50:1 (30:1 (20:1 10:1 20:1) 30:1) 50:1) ∞:1)"
                ),
                (Some((1, 1)), "(∞:1 (50:1 (30:1 20:1 30:1) 50:1) ∞:1)"),
                (Some((1, 1)), "(∞:1 (30:1 20:1 30:1) ∞:1)"),
                (None, "(∞:1 (30:1 20:1 30:1) ∞:1)"),
                (Some((1, 1)), "(∞:1 30:1 ∞:1)"),
                (Some((1, 1)), "∞:1"),
                (Some((1, 1)), "(∞:1 7:1 ∞:1)"),
                (Some((1, 1)), "(∞:1 (9:1 7:1 9:1) ∞:1)"),
                (Some((1, 1)), "(∞:1 (9:1 (8:1 7:1 8:1) 9:1) ∞:1)"),
                (Some((1, 1)), "(∞:1 (9:1 (8:1 (7:1 6:1 7:1) 8:1) 9:1) ∞:1)"),
            ])
        );
    }

    #[test]
    fn rank_weights_are_leaf_0_internal_1_sibling_kept() {
        assert_eq!(
            fig11_script::<RankWeights>(),
            expect(&[
                (None, "(∞:1 (50:1 (30:1 20:0 30:1) 50:1) ∞:1)"),
                (
                    Some((1, 1)),
                    "(∞:1 (50:1 (30:1 (20:1 10:0 20:0) 30:1) 50:1) ∞:1)"
                ),
                // The contracted sibling keeps its rank: the 20:0 leaf,
                (Some((1, 0)), "(∞:1 (50:1 (30:1 20:0 30:1) 50:1) ∞:1)"),
                // the 30:1 internal, the hand-built 30:1 and ∞:1 leaves.
                (Some((1, 1)), "(∞:1 (30:1 20:0 30:1) ∞:1)"),
                (None, "(∞:1 (30:1 20:0 30:1) ∞:1)"),
                (Some((1, 1)), "(∞:1 30:1 ∞:1)"),
                (Some((1, 1)), "∞:1"),
                (Some((1, 1)), "(∞:1 7:0 ∞:0)"),
                (Some((1, 1)), "(∞:1 (9:1 7:0 9:0) ∞:0)"),
                (Some((1, 1)), "(∞:1 (9:1 (8:1 7:0 8:0) 9:0) ∞:0)"),
                (Some((1, 1)), "(∞:1 (9:1 (8:1 (7:1 6:0 7:0) 8:0) 9:0) ∞:0)"),
            ])
        );
    }

    #[test]
    fn failed_commit_releases_every_created_node_exactly_once() {
        let t = LeafTree::<u64, Arc<()>>::new();
        t.insert::<UnitWeights>(&5, &Arc::new(()));
        // Only the attempt's fresh nodes hold clones of this token, so its
        // count is not disturbed by the epoch-deferred retirements below.
        let token = Arc::new(());
        with_guard(|guard| {
            // LLX the section of an Insert1 for key 3 ...
            let path = t.search(&3, guard);
            let hp = llx_ok(path.p, guard).expect("quiescent");
            let dir = side_of(&hp, path.leaf).expect("the leaf is its parent's child");
            let hl = llx_ok(path.leaf, guard).expect("quiescent");
            // ... let a competing SCX on the same section commit ...
            try_insert::<UnitWeights, _, _>(&path, &4, &Arc::new(()), guard)
                .expect("nothing interferes with the competitor");
            // ... then finish the attempt against the stale snapshots.
            let a = Node::leaf(Some(3), Some(Arc::clone(&token)), 1).into_shared(guard);
            let b = Node::leaf(Some(5), Some(Arc::clone(&token)), 1).into_shared(guard);
            let new = Node::internal(Some(5), 1, a, b).into_shared(guard);
            assert_eq!(Arc::strong_count(&token), 3);
            // SAFETY: the three nodes were just allocated; `a` and `b` are
            // referenced only by `new`, and `new` by nothing.
            let ok = unsafe { commit(&[hp, hl], 0b10, dir, new, &[new, a, b], guard) };
            assert!(!ok, "the section changed since its LLXs");
        });
        assert_eq!(Arc::strong_count(&token), 1, "each fresh leaf dropped once");
        assert_eq!(
            t.collect().into_iter().map(|(k, _)| k).collect::<Vec<_>>(),
            [4, 5],
            "the failed attempt left no trace"
        );
    }

    #[test]
    fn side_of_bails_when_the_child_moved() {
        let t = LeafTree::<u64, u64>::new();
        t.insert::<UnitWeights>(&5, &50);
        with_guard(|guard| {
            let path = t.search(&5, guard);
            let before = llx_ok(path.p, guard).expect("quiescent");
            assert_eq!(side_of(&before, path.leaf), Some(0));
            // Insert2 swings the parent's pointer to a fresh leaf.
            t.insert::<UnitWeights>(&5, &51);
            let after = llx_ok(path.p, guard).expect("the parent is still in the tree");
            assert_eq!(side_of(&after, path.leaf), None, "the old leaf is gone");
            assert_eq!(
                side_of(&before, path.leaf),
                Some(0),
                "snapshots do not move"
            );
            assert!(
                llx_ok(path.leaf, guard).is_none(),
                "the old leaf is finalized"
            );
        });
    }
}

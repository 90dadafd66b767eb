//! The Data-record used by all trees in this crate: a binary tree node with
//! immutable key/value/weight and two mutable child pointers.

use std::sync::atomic::Ordering;

use llxscx::epoch::{Atomic, Guard, Owned, Shared};
use llxscx::{LlxHandle, Record, RecordHeader};

/// A node of a leaf-oriented chromatic tree.
///
/// Following the paper (§5.1), the child pointers are the only mutable
/// fields; `key`, `value` and `weight` are immutable, so updates that would
/// change them replace the node by a fresh copy. `key = None` encodes the
/// sentinel key `∞`, which is larger than every dictionary key.
///
/// One cache line for word-sized keys: the weight lives in the header's
/// immutable word ([`RecordHeader::meta`]), which fills the header's
/// padding, so `Node<u64, u64>` is `key` + `value` (16 B each), the
/// 16-byte header and two child pointers — exactly 64 bytes. A search
/// touches one node per level and pays one miss per hop; the alignment
/// keeps every node on a line of its own, so a node never straddles two
/// lines and the `info`/`marked` words of different nodes never share
/// one (false sharing under concurrent freezing).
#[repr(align(64))]
pub struct Node<K, V> {
    header: RecordHeader<Self>,
    children: [Atomic<Self>; 2],
    key: Option<K>,
    value: Option<V>,
}

// Any field that pushes a word-sized node back onto two lines fails the build.
const _: () = assert!(
    std::mem::size_of::<Node<u64, u64>>() == 64 && std::mem::align_of::<Node<u64, u64>>() == 64
);

impl<K: Send + Sync + 'static, V: Send + Sync + 'static> Record for Node<K, V> {
    const ARITY: usize = 2;
    #[inline]
    fn header(&self) -> &RecordHeader<Self> {
        &self.header
    }
    #[inline]
    fn child(&self, i: usize) -> &Atomic<Self> {
        &self.children[i]
    }
}

impl<K: Send + Sync + 'static, V: Send + Sync + 'static> Node<K, V> {
    /// A leaf holding `key` (or the sentinel `∞` if `None`).
    ///
    /// Allocated through the thread-local record cache
    /// ([`llxscx::slab`]): updates replace nodes constantly, and the
    /// cache turns those aligned allocate/free pairs into pointer pushes.
    pub fn leaf(key: Option<K>, value: Option<V>, weight: u32) -> Owned<Self> {
        llxscx::slab::alloc_owned(Node {
            header: RecordHeader::with_meta(weight),
            children: [Atomic::null(), Atomic::null()],
            key,
            value,
        })
    }

    /// An internal routing node with the given children.
    ///
    /// The children are stored with `Release` ordering, but the node is only
    /// published by the SCX's update CAS (SeqCst), which is what makes it
    /// visible to other threads.
    pub fn internal(
        key: Option<K>,
        weight: u32,
        left: Shared<'_, Self>,
        right: Shared<'_, Self>,
    ) -> Owned<Self> {
        let node = Node {
            header: RecordHeader::with_meta(weight),
            children: [Atomic::null(), Atomic::null()],
            key,
            value: None,
        };
        // RELEASE: publish initialized children before the node escapes through an SCX
        node.children[0].store(left, Ordering::Release);
        // RELEASE: publish initialized children before the node escapes through an SCX
        node.children[1].store(right, Ordering::Release);
        llxscx::slab::alloc_owned(node)
    }

    /// The node's key; `None` is the sentinel `∞`.
    #[inline]
    pub fn key(&self) -> Option<&K> {
        self.key.as_ref()
    }

    /// The value stored in a leaf (`None` for internal and sentinel nodes).
    #[inline]
    pub fn value(&self) -> Option<&V> {
        self.value.as_ref()
    }

    /// The node's weight (0 = red, 1 = black, >1 = overweight).
    #[inline]
    pub fn weight(&self) -> u32 {
        self.header.meta()
    }

    /// Whether this node carries the sentinel key `∞`.
    #[inline]
    pub fn is_sentinel_key(&self) -> bool {
        self.key.is_none()
    }

    /// `true` iff a search for `probe` descends into the left child:
    /// the BST routing rule `probe < node.key`, where `∞` compares greater
    /// than every key.
    #[inline]
    pub fn route_left<Q>(&self, probe: &Q) -> bool
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        match &self.key {
            None => true,
            Some(k) => probe < k.borrow(),
        }
    }

    /// Whether the node's key equals `probe` (the sentinel never does).
    #[inline]
    pub fn key_eq<Q>(&self, probe: &Q) -> bool
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        match &self.key {
            None => false,
            Some(k) => k.borrow() == probe,
        }
    }

    /// Loads the left (`0`) or right (`1`) child. Tree code reads children
    /// through [`Reached::child`], which turns the pointer into a reference.
    ///
    /// Memory-ordering audit: `Acquire`, not `SeqCst`. A search only needs
    /// property C3 (§5.4): every child pointer it follows leads to a node
    /// that was fully initialized before it was published. Children are
    /// published either at node construction (happens-before the SCX update
    /// CAS that publishes the node, which is `SeqCst` and hence a release)
    /// or by the update CAS itself; an acquiring load of the child pointer
    /// therefore sees the pointee's initialization. No search decision
    /// depends on a total order of child loads across different nodes.
    #[inline]
    fn read_child<'g>(&self, dir: usize, guard: &'g Guard) -> Shared<'g, Self> {
        // ACQUIRE: child read pairs with the Release stores at construction and in SCX
        self.children[dir].load(Ordering::Acquire, guard)
    }

    /// Whether this node is a leaf. Leaves are created with both children
    /// null and children of internal nodes are never set to null, so reading
    /// one child suffices.
    #[inline]
    pub fn is_leaf(&self, guard: &Guard) -> bool {
        self.read_child(0, guard).is_null()
    }
}

/// A tree node reached under the caller's pin: a `&'g Node` whose deref
/// is safe because of how it was made.
///
/// There are three ways to make one, all under the same `&'g Guard`:
/// * the `entry` sentinel ([`LeafTree::entry`](crate::template::LeafTree::entry)),
///   which the tree owns and never frees while it is borrowed;
/// * a child read of a `Reached` node ([`child`](Self::child));
/// * a child in an LLX snapshot of a `Reached` node
///   ([`in_snapshot`](Self::in_snapshot)), or that node itself
///   ([`of`](Self::of)).
///
/// The paper's property C3 (§5.4) is why the last two stay allocated; the
/// one private constructor they share, `from_child`, states it once. A
/// child read returns `None` for a leaf's null child, and
/// `Option<Reached>` is one word, so a search pays nothing for the type.
///
/// A reference cannot leave the `with_guard` call whose pin protects it:
///
/// ```compile_fail
/// use nbtree::template::LeafTree;
///
/// let tree = LeafTree::<u64, u64>::new();
/// // The entry reference would outlive the guard it was reached under.
/// let escaped = llxscx::with_guard(|guard| tree.entry(guard));
/// ```
pub struct Reached<'g, K, V>(&'g Node<K, V>);

// A null child costs the search no extra word.
const _: () = assert!(
    std::mem::size_of::<Option<Reached<'static, u64, u64>>>() == std::mem::size_of::<usize>()
);

impl<K, V> Clone for Reached<'_, K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K, V> Copy for Reached<'_, K, V> {}

/// Identity: two references are equal when they name the same node.
impl<K, V> PartialEq for Reached<'_, K, V> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}
impl<K, V> Eq for Reached<'_, K, V> {}

impl<K, V> std::ops::Deref for Reached<'_, K, V> {
    type Target = Node<K, V>;
    #[inline]
    fn deref(&self) -> &Node<K, V> {
        self.0
    }
}

impl<'g, K: Send + Sync + 'static, V: Send + Sync + 'static> Reached<'g, K, V> {
    /// The node behind a child pointer read under the caller's pin, or
    /// `None` for a null pointer.
    ///
    /// # Safety
    /// `child` must have been loaded, under a pin held for `'g`, from a
    /// child field of a node that was itself reached under that pin (or
    /// from an LLX snapshot of such a node's fields).
    ///
    /// This is the paper's property C3 (§5.4), and the one place it is
    /// argued. By induction from `entry`, which is never removed, every
    /// node reached under the pin was in the tree at some moment during
    /// the pin. A child pointer read from such a node names a node that
    /// was in the tree when the read was made or, if the parent had been
    /// removed by then, when the parent was removed: a removed node is
    /// finalized and its child fields never change again. So the child was
    /// in the tree at some moment during the pin. A node is retired only
    /// after an SCX unlinks it, and the epoch collector frees it only once
    /// every thread pinned at retirement has unpinned, which the caller
    /// does after `'g` ends. Fresh nodes are fully initialized before the
    /// SCX that publishes them (see `Node::read_child`).
    #[inline]
    unsafe fn from_child(child: Shared<'g, Node<K, V>>) -> Option<Self> {
        // SAFETY: non-null pointers stay allocated for `'g` per the contract.
        unsafe { child.as_ref() }.map(Reached)
    }

    /// The left (`0`) or right (`1`) child, read now; `None` for a leaf,
    /// whose children are null. Children of internal nodes are never null.
    #[inline]
    pub fn child(self, dir: usize, guard: &'g Guard) -> Option<Self> {
        // SAFETY: loaded under `guard`'s pin from a reached node.
        unsafe { Self::from_child(self.0.read_child(dir, guard)) }
    }

    /// Child `dir` as the LLX snapshot `h` saw it; `None` for a leaf.
    /// `h` must be a snapshot of a reached node, which every snapshot
    /// the tree code takes is: [`llx_ok`](crate::template::llx_ok) takes
    /// a `Reached`.
    #[inline]
    pub fn in_snapshot(h: &LlxHandle<'g, Node<K, V>>, dir: usize) -> Option<Self> {
        // SAFETY: the LLX read the field from the reached node `h.node`
        // under the pin that `h` borrows.
        unsafe { Self::from_child(h.child(dir)) }
    }

    /// The node an LLX snapshot was taken of.
    #[inline]
    pub fn of(h: &LlxHandle<'g, Node<K, V>>) -> Self {
        Reached(h.node_ref())
    }

    /// The node as an epoch pointer: what [`llx`](llxscx::llx) takes, what
    /// a fresh node's child field stores, and what snapshots compare with.
    #[inline]
    pub fn shared(self) -> Shared<'g, Node<K, V>> {
        Shared::from(std::ptr::from_ref(self.0))
    }

    /// Asks the cache hierarchy for the line holding the node ahead of its
    /// use. A hint only: a no-op off `x86_64` and under Miri, which models
    /// no cache.
    #[inline(always)]
    pub fn prefetch(self) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // SAFETY: a prefetch reads nothing the program observes and never
        // faults; SSE, which provides it, is in the x86_64 baseline.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(self.0).cast());
        }
    }
}

/// The `entry` sentinel of a tree (Fig. 10), owned by the tree: key `∞`,
/// weight 1, never removed. Its left child is the rest of the tree; its
/// right child is null. Dropping it frees every node below it.
pub(crate) struct Entry<K: Send + Sync + 'static, V: Send + Sync + 'static>(Box<Node<K, V>>);

impl<K: Send + Sync + 'static, V: Send + Sync + 'static> Entry<K, V> {
    /// An entry over `left`, which becomes the tree's: a single `∞` leaf
    /// for an empty tree (Fig. 10(a)), or a second sentinel over a
    /// dictionary (Fig. 10(b)).
    pub(crate) fn over(left: Owned<Node<K, V>>) -> Self {
        let left = Shared::from(Box::into_raw(left.into_box()).cast_const());
        Entry(Node::internal(None, 1, left, Shared::null()).into_box())
    }

    /// The sentinel, reached under `guard`. It lives as long as the tree,
    /// which outlives `'g`.
    #[inline]
    pub(crate) fn reach<'g>(&'g self, _guard: &'g Guard) -> Reached<'g, K, V> {
        Reached(&self.0)
    }
}

impl<K: Send + Sync + 'static, V: Send + Sync + 'static> Drop for Entry<K, V> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` — no thread can reach the tree any more, so
        // the loads need no pin.
        let guard = unsafe { llxscx::epoch::unprotected() };
        let mut stack = vec![self.0.read_child(0, guard)];
        while let Some(s) = stack.pop() {
            if s.is_null() {
                continue;
            }
            // SAFETY: the tree is ours alone and down-tree, so every node
            // below the entry is reached exactly once; each was allocated
            // through the record slab or a `Box`, which are interchangeable.
            // The `Box` frees the entry itself.
            unsafe {
                let node = s.deref();
                stack.push(node.read_child(0, guard));
                stack.push(node.read_child(1, guard));
                llxscx::reclaim::dispose_record(s.as_raw());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llxscx::with_guard;

    #[test]
    fn sentinel_routing() {
        with_guard(|guard| {
            let leaf = Node::<u64, u64>::leaf(None, None, 1).into_shared(guard);
            // SAFETY: freshly allocated leaf; never shared.
            let n = unsafe { leaf.deref() };
            assert!(n.route_left(&u64::MAX));
            assert!(!n.key_eq(&0));
            assert!(n.is_sentinel_key());
            assert!(n.is_leaf(guard));
            assert_eq!(n.weight(), 1);
            // SAFETY: test-local node; disposed exactly once.
            unsafe { llxscx::reclaim::dispose_record(leaf.as_raw()) };
        })
    }

    #[test]
    fn leaf_vs_internal() {
        with_guard(|guard| {
            let a = Node::leaf(Some(1u64), Some(10u64), 1).into_shared(guard);
            let b = Node::leaf(Some(2u64), Some(20u64), 0).into_shared(guard);
            let p = Node::internal(Some(2u64), 2, a, b).into_shared(guard);
            // SAFETY: freshly allocated internal node; never shared.
            let pn = unsafe { p.deref() };
            assert!(!pn.is_leaf(guard));
            assert_eq!(pn.read_child(0, guard), a);
            assert_eq!(pn.read_child(1, guard), b);
            assert!(pn.route_left(&1));
            assert!(!pn.route_left(&2));
            // Each constructor keeps its own weight: black, red, overweight.
            // SAFETY: freshly allocated leaves; never shared.
            let (an, bn) = unsafe { (a.deref(), b.deref()) };
            assert_eq!((an.weight(), bn.weight(), pn.weight()), (1, 0, 2));
            // SAFETY: test-local nodes; each disposed exactly once.
            unsafe {
                llxscx::reclaim::dispose_record(a.as_raw());
                llxscx::reclaim::dispose_record(b.as_raw());
                llxscx::reclaim::dispose_record(p.as_raw());
            }
        })
    }
}

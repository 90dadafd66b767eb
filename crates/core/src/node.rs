//! The Data-record used by all trees in this crate: a binary tree node with
//! immutable key/value/weight and two mutable child pointers.

use std::sync::atomic::Ordering;

use llxscx::epoch::{Atomic, Guard, Owned, Shared};
use llxscx::{Record, RecordHeader};

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

    /// Loads the left (`0`) or right (`1`) child — the access pattern of
    /// the paper's read-only searches.
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
    pub fn read_child<'g>(&self, dir: usize, guard: &'g Guard) -> Shared<'g, Self> {
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

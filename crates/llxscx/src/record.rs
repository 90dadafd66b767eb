//! The [`Record`] trait and per-node synchronization header.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crossbeam_epoch::Atomic;

use crate::descriptor::{state_of, ABORTED, COMMITTED};

/// Maximum number of mutable (child-pointer) fields a [`Record`] may have.
///
/// The PPoPP 2014 data structures are binary trees (arity 2); we allow up to
/// 4 so that k-ary experiments fit without changing the descriptor layout.
pub const MAX_ARITY: usize = 4;

/// Maximum length of the `V` sequence passed to [`scx`](crate::scx).
///
/// The largest `V` in the chromatic tree (rebalancing step W4) has six
/// records; 8 leaves headroom and lets `R` be encoded as a `u8` bitmask.
pub const MAX_V: usize = 8;

/// Synchronization metadata embedded in every Data-record.
///
/// `info` names the SCX that last froze this node: the packed
/// `(descriptor id, sequence number)` word of that SCX's
/// [descriptor](crate::descriptor), or 0 if the node was never involved in
/// an SCX. A node is *frozen* while that SCX is in progress: its mutable
/// fields may only be changed on behalf of that SCX. `marked` is set when
/// the node is finalized by a committed SCX; a finalized node's mutable
/// fields never change again.
pub struct RecordHeader<N> {
    pub(crate) info: AtomicU64,
    pub(crate) marked: AtomicBool,
    _record: PhantomData<fn() -> N>,
}

impl<N> RecordHeader<N> {
    /// A fresh header: never frozen, not finalized.
    pub fn new() -> Self {
        RecordHeader {
            info: AtomicU64::new(0),
            marked: AtomicBool::new(false),
            _record: PhantomData,
        }
    }

    /// Whether the node has been finalized (removed from the tree).
    ///
    /// This is a racy read intended for assertions and introspection; the
    /// synchronized way to observe finalization is [`Llx::Finalized`](crate::Llx).
    pub fn is_marked(&self) -> bool {
        // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
        self.marked.load(Ordering::SeqCst)
    }
}

impl<N> Default for RecordHeader<N> {
    fn default() -> Self {
        Self::new()
    }
}

/// A Data-record on which LLX/SCX/VLX operate.
///
/// Implementors embed a [`RecordHeader`] and expose their mutable fields as
/// `crossbeam_epoch::Atomic<Self>` child pointers, indexed `0..Self::ARITY`.
/// All other fields must be immutable after construction (the template makes
/// a new copy of a node to change immutable data).
///
/// # Safety contract (logical, not `unsafe`)
///
/// `child(i)` must return the same `&Atomic` for the same `i` for the
/// lifetime of the record, and `header()` must return the embedded header.
pub trait Record: Sized + Send + Sync {
    /// Number of mutable child-pointer fields (at most [`MAX_ARITY`]).
    const ARITY: usize;

    /// The embedded synchronization header.
    fn header(&self) -> &RecordHeader<Self>;

    /// The `i`-th mutable field, `i < Self::ARITY`.
    fn child(&self, i: usize) -> &Atomic<Self>;
}

/// Reads the state a record presents to an [`llx`](crate::llx): the observed
/// `info` word and the state of the SCX it names.
///
/// Returns `(info, state)`; a zero `info` is treated as `ABORTED`
/// (quiescent), matching the paper's convention for never-frozen nodes.
#[inline]
pub(crate) fn load_info<N: Record>(node: &N) -> (u64, u8) {
    // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
    let info = node.header().info.load(Ordering::SeqCst);
    (info, state_of(info))
}

/// Whether `state` permits reading a consistent snapshot (the record is not
/// currently frozen by an in-progress SCX).
#[inline]
pub(crate) fn quiescent(state: u8, marked: bool) -> bool {
    state == ABORTED || (state == COMMITTED && !marked)
}

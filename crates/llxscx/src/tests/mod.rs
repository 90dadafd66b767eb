//! Crate-level tests of the per-thread descriptors: the stall adversary
//! (the paper's progress claim), sequence-number mismatches, slot
//! recycling across thread exits, owners racing their helpers, and the
//! seen-sequence cache of the state lookup.

mod contention;
mod seen;
mod sequence;
mod slots;
pub(crate) mod stall;

use std::sync::atomic::Ordering;

use crate::epoch::{with_guard, Atomic, Guard, Owned, Shared};

use crate::record::{Record, RecordHeader};

/// A binary record with an immutable value.
pub(crate) struct Node {
    header: RecordHeader<Node>,
    kids: [Atomic<Node>; 2],
    pub(crate) val: u64,
}

impl Record for Node {
    const ARITY: usize = 2;
    fn header(&self) -> &RecordHeader<Self> {
        &self.header
    }
    fn child(&self, i: usize) -> &Atomic<Self> {
        &self.kids[i]
    }
}

/// A fresh, never-frozen record, leaked until the test disposes of it.
pub(crate) fn node() -> usize {
    node_with(0)
}

/// [`node`] holding `val`.
pub(crate) fn node_with(val: u64) -> usize {
    with_guard(|guard| node_under(val, guard))
}

/// [`node_with`] under the caller's guard.
pub(crate) fn node_under(val: u64, guard: &Guard) -> usize {
    Owned::new(Node {
        header: RecordHeader::new(),
        kids: [Atomic::null(), Atomic::null()],
        val,
    })
    .into_shared(guard)
    .as_raw() as usize
}

pub(crate) fn shared<'g>(addr: usize) -> Shared<'g, Node> {
    Shared::from(addr as *const Node)
}

pub(crate) fn at<'a>(addr: usize) -> &'a Node {
    // SAFETY: test records are leaked or disposed only after every thread
    // that used them joined.
    unsafe { &*(addr as *const Node) }
}

/// The record's `info` word.
pub(crate) fn info(addr: usize) -> u64 {
    // SEQCST: test-only; SC keeps the interleaving argument trivial.
    at(addr).header.info.load(Ordering::SeqCst)
}

/// The record's `i`-th child, as an address.
pub(crate) fn kid(addr: usize, i: usize, guard: &Guard) -> usize {
    // SEQCST: test-only; SC keeps the interleaving argument trivial.
    at(addr).kids[i].load(Ordering::SeqCst, guard).as_raw() as usize
}

/// Disposes of test records once no thread can reach them.
pub(crate) fn dispose(addrs: &[usize]) {
    for &a in addrs {
        // SAFETY: callers pass records no joined-or-live thread still uses.
        unsafe { crate::reclaim::dispose_record(a as *const Node) };
    }
}

//! The chromatic-style update the epoch integration tests retire through,
//! and a live-node count that shows nothing is lost or freed twice.

use std::sync::atomic::{AtomicUsize, Ordering};

use llxscx::epoch::{self, backlog};
use llxscx::reclaim::{defer_dispose_record, dispose_record};
use llxscx::{llx, scx, with_guard, Atomic, Llx, Owned, Record, RecordHeader, ScxArgs, Shared};

/// Nodes allocated and not yet dropped.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Node {
    header: RecordHeader<Node>,
    kids: [Atomic<Node>; 2],
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

impl Drop for Node {
    fn drop(&mut self) {
        // RELAXED: test-local live-node counter; read only after the worker threads joined
        LIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

fn node() -> Owned<Node> {
    // RELAXED: test-local live-node counter; read only after the worker threads joined
    LIVE.fetch_add(1, Ordering::Relaxed);
    Owned::new(Node {
        header: RecordHeader::new(),
        kids: [Atomic::null(), Atomic::null()],
    })
}

/// What one [`update`] defers: the replaced record (descriptors are reused,
/// never retired).
pub const RETIRES_PER_OP: usize = 1;

/// One chromatic-style update under one guard: LLX the root, SCX a
/// fresh right child in, retire the old one.
pub fn update(root: usize) {
    with_guard(|guard| loop {
        let root = Shared::from(root as *const Node);
        let Llx::Snapshot(h) = llx(root, guard) else {
            continue;
        };
        let (old, fresh) = (h.right(), node().into_shared(guard));
        let args = ScxArgs {
            v: &[h],
            finalize: 0,
            fld_record: 0,
            fld_idx: 1,
            new: fresh,
        };
        if scx(&args, guard) {
            if !old.is_null() {
                // SAFETY: `old` was displaced by our SCX (it was not in R), so we alone retire it.
                unsafe { defer_dispose_record(old.as_raw(), guard) };
            }
            return;
        }
        // SAFETY: the SCX failed, so `fresh` was never published.
        unsafe { dispose_record(fresh.as_raw()) };
    })
}

/// A fresh root record, as an address the worker threads can share.
pub fn new_root() -> usize {
    with_guard(|guard| node().into_shared(guard).as_raw() as usize)
}

/// Once every worker has joined: runs passes until the orphan list is
/// empty, checks that the root and its current child are the only nodes
/// alive, and frees them.
pub fn free_tree(root: usize) {
    for _ in 0..64 {
        epoch::flush();
    }
    assert_eq!(backlog().orphaned, 0);
    // RELAXED: test-local live-node counter; read only after the worker threads joined
    assert_eq!(LIVE.load(Ordering::Relaxed), 2);
    // SAFETY: every worker joined; single-threaded teardown of the two live nodes.
    unsafe {
        let guard = epoch::unprotected();
        let root = root as *const Node;
        // SEQCST: test-only; SC keeps the interleaving argument trivial.
        dispose_record((*root).kids[1].load(Ordering::SeqCst, guard).as_raw());
        dispose_record(root);
    }
    // RELAXED: test-local live-node counter; read only after the worker threads joined
    assert_eq!(LIVE.load(Ordering::Relaxed), 0);
}

//! `epoch::flush()` before parking really bounds the backlog.
//!
//! The guard cache's documented liveness trade is that an idle thread with
//! a warm cache pins the epoch, and every other thread's limbo list then
//! grows without bound. `flush()` is the way out; this test holds it to
//! that: thread A retires chromatic-style, flushes and parks; thread B
//! keeps updating and must (1) see its own limbo list stay within a few
//! repin windows and (2) be the one that frees what A left behind.
//!
//! An integration test on purpose: it owns the process, so no other test's
//! pin can hold the epoch back and the bounds below are exact.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

use llxscx::epoch::{self, backlog, REPIN_OPS};
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
const RETIRES_PER_OP: usize = 1;

/// One chromatic-style update under the cached guard: LLX the root, SCX a
/// fresh right child in, retire the old one.
fn update(root: usize) {
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

#[test]
fn flush_before_parking_bounds_the_backlog() {
    let root = with_guard(|guard| node().into_shared(guard).as_raw() as usize);
    epoch::flush();

    let (flushing_tx, flushing_rx) = mpsc::channel();
    let (parked_tx, parked_rx) = mpsc::channel();
    let (wake_tx, wake_rx) = mpsc::channel::<()>();
    let a = thread::spawn(move || {
        for _ in 0..10 * REPIN_OPS {
            update(root);
        }
        // B waits out the flush under its warm pin, so it cannot run A's
        // batch before A has counted it.
        flushing_tx.send(()).unwrap();
        epoch::flush();
        // Everything A still owed went to the orphan list in one batch.
        let left = backlog();
        assert_eq!(left.limbo, 0, "flush() left garbage on a parking thread");
        parked_tx.send(left.orphaned).unwrap();
        let _ = wake_rx.recv();
    });

    let b = thread::spawn(move || {
        // Contend with A while it runs, then carry on alone once it parks.
        while flushing_rx.try_recv().is_err() {
            update(root);
        }
        let orphaned_by_a: usize = parked_rx.recv().unwrap();
        // A descheduled A may have held the epoch back while both ran;
        // give that backlog a few repin windows to drain, then hold B to
        // the steady-state bound.
        let bound = 4 * REPIN_OPS as usize * RETIRES_PER_OP;
        for i in 0..50 * REPIN_OPS {
            update(root);
            let own = backlog().limbo;
            assert!(
                i < 4 * REPIN_OPS || own <= bound,
                "B's limbo list holds {own} > {bound}"
            );
        }
        // B never hands anything off (its passes run pinned), so an empty
        // orphan list means B's passes ran A's batch.
        assert_eq!(backlog().orphaned, 0, "A's garbage was stranded");
        epoch::flush();
        orphaned_by_a
    });

    let orphaned_by_a = b.join().unwrap();
    assert!(orphaned_by_a > 0, "A parked with nothing left to hand over");
    drop(wake_tx);
    a.join().unwrap();

    // Nothing was lost on the way: once B's own remainder has run, the
    // root and its current child are the only nodes alive.
    for _ in 0..64 {
        epoch::flush();
    }
    assert_eq!(backlog().orphaned, 0);
    // RELAXED: test-local live-node counter; read only after the worker threads joined
    assert_eq!(LIVE.load(Ordering::Relaxed), 2);
    // SAFETY: both workers joined; single-threaded teardown of the two live nodes.
    unsafe {
        let guard = llxscx::epoch::unprotected();
        let root = root as *const Node;
        // SEQCST: test-only; SC keeps the interleaving argument trivial.
        dispose_record((*root).kids[1].load(Ordering::SeqCst, guard).as_raw());
        dispose_record(root);
    }
    // RELAXED: test-local live-node counter; read only after the worker threads joined
    assert_eq!(LIVE.load(Ordering::Relaxed), 0);
}

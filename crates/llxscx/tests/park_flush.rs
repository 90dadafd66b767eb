//! `epoch::flush()` hands a parking thread's garbage to the threads still
//! running.
//!
//! Only its owner drains a limbo list, so what a parking thread still owes
//! must move to the orphan list. Thread A retires chromatic-style, flushes
//! and parks; thread B keeps updating and must (1) see its own limbo list
//! stay within a few pass windows and (2) be the one that frees what A
//! left behind.
//!
//! An integration test on purpose: it owns the process, so no other test's
//! pin can hold the epoch back and the bounds below are exact.

mod common;

use std::sync::mpsc;
use std::thread;

use common::{free_tree, new_root, update, RETIRES_PER_OP};
use llxscx::epoch::{self, backlog, PASS_OPS};

#[test]
fn flush_before_parking_bounds_the_backlog() {
    let root = new_root();

    let (flushing_tx, flushing_rx) = mpsc::channel();
    let (parked_tx, parked_rx) = mpsc::channel();
    let (wake_tx, wake_rx) = mpsc::channel::<()>();
    let a = thread::spawn(move || {
        for _ in 0..10 * PASS_OPS {
            update(root);
        }
        // B runs no pass while it waits on the channel below, so it cannot
        // run A's batch before A has counted it.
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
        // give that backlog a few pass windows to drain, then hold B to
        // the steady-state bound.
        let bound = 4 * PASS_OPS as usize * RETIRES_PER_OP;
        for i in 0..50 * PASS_OPS {
            update(root);
            let own = backlog().limbo;
            assert!(
                i < 4 * PASS_OPS || own <= bound,
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

    // Nothing was lost on the way.
    free_tree(root);
}

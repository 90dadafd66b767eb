//! A thread that blocks between operations, without `epoch::flush()`,
//! does not hold the epoch back.
//!
//! No pin outlives a `with_guard` call, so nothing is left for an idle
//! thread to release. Thread A retires chromatic-style and then blocks on
//! a channel without flushing; thread B keeps updating, and its limbo list
//! must stay within a few pass windows throughout.
//!
//! An integration test on purpose: it owns the process, so no other test's
//! pin can hold the epoch back and the bound below is exact.

mod common;

use std::sync::mpsc;
use std::thread;

use common::{free_tree, new_root, update, RETIRES_PER_OP};
use llxscx::epoch::{self, backlog, PASS_OPS};

/// Updates B runs once A is idle.
const UPDATES: u32 = 100_000;

#[test]
fn an_idle_thread_does_not_hold_the_epoch() {
    let root = new_root();

    let (idle_tx, idle_rx) = mpsc::channel();
    let (wake_tx, wake_rx) = mpsc::channel::<()>();
    let a = thread::spawn(move || {
        for _ in 0..10 * PASS_OPS {
            update(root);
        }
        // No flush: A just stops calling into the crate.
        idle_tx.send(()).unwrap();
        let _ = wake_rx.recv();
    });

    let b = thread::spawn(move || {
        // Contend with A while it runs, then carry on alone once it idles.
        while idle_rx.try_recv().is_err() {
            update(root);
        }
        // A descheduled A may have held the epoch back while both ran;
        // give that backlog a few pass windows to drain, then hold B to
        // the steady-state bound.
        let bound = 4 * PASS_OPS as usize * RETIRES_PER_OP;
        let mut most = 0;
        for i in 0..4 * PASS_OPS + UPDATES {
            update(root);
            if i >= 4 * PASS_OPS {
                most = most.max(backlog().limbo);
            }
        }
        epoch::flush();
        assert!(most <= bound, "B's limbo list held {most} > {bound}");
    });

    b.join().unwrap();
    // A exits without ever flushing; its exit hands its list off.
    drop(wake_tx);
    a.join().unwrap();
    free_tree(root);
}

//! Slot recycling: threads come and go, descriptors stay, and `info`
//! words never repeat.

use std::collections::HashSet;
use std::sync::mpsc;
use std::thread;

use super::stall::recv;
use super::{info, node, shared};
use crate::descriptor::gauge;
use crate::ops::{llx, scx, Llx, ScxArgs};
use crate::with_guard;

/// Commits one SCX swinging `rec.kids[1]` to a fresh record, retiring the
/// old child, and returns the `info` word it installed.
fn commit_one(rec: usize) -> u64 {
    with_guard(|g| loop {
        let Llx::Snapshot(h) = llx(shared(rec), g) else {
            continue;
        };
        let (old, fresh) = (h.right(), node());
        let args = ScxArgs {
            v: &[h],
            finalize: 0,
            fld_record: 0,
            fld_idx: 1,
            new: shared(fresh),
        };
        if scx(&args, g) {
            if !old.is_null() {
                // SAFETY: our SCX unlinked `old`; we are its one retirer.
                unsafe { crate::reclaim::defer_dispose_record(old.as_raw(), g) };
            }
            return info(rec);
        }
        super::dispose(&[fresh]);
    })
}

/// Sequential short-lived threads each commit one SCX on a shared record:
/// every `info` word is new, and the table never grows past the largest
/// number of slot holders alive at once (counted apart from the free
/// list), which stays far below the number of threads.
#[test]
fn sequential_threads_recycle_slots_and_never_repeat_an_info_word() {
    const THREADS: usize = if cfg!(miri) { 100 } else { 10_000 };
    let rec = node();
    let mut seen = HashSet::new();
    for _ in 0..THREADS {
        let word = thread::spawn(move || commit_one(rec)).join().unwrap();
        assert!(seen.insert(word), "info word {word:#x} installed twice");
    }
    let (table, peak) = (gauge::table_len(), gauge::peak_held());
    assert!(table <= peak, "{table} slots for at most {peak} holders");
    assert!(
        peak <= 64,
        "{peak} slots held at once: exited threads kept theirs"
    );
}

/// Runs one SCX when its thread's thread-locals are torn down.
struct ScxOnExit {
    rec: usize,
    report: mpsc::Sender<(u64, Option<usize>)>,
}

impl Drop for ScxOnExit {
    fn drop(&mut self) {
        let word = commit_one(self.rec);
        let _ = self.report.send((word, gauge::own_id()));
    }
}

thread_local! {
    static ON_EXIT: std::cell::RefCell<Option<ScxOnExit>> = const { std::cell::RefCell::new(None) };
}

/// An SCX issued from a thread-local destructor, after the thread gave its
/// own slot back, still runs on a slot no live thread holds.
#[test]
fn an_scx_during_thread_exit_gets_a_slot_no_live_thread_holds() {
    let rec = node();
    // The test thread and another live thread hold slots throughout.
    let main_id = (commit_one(rec) >> 48) as usize;
    let (held_tx, held_rx) = mpsc::channel();
    let (end_tx, end_rx) = mpsc::channel::<()>();
    let holder = thread::spawn(move || {
        let word = commit_one(rec);
        held_tx.send(word >> 48).unwrap();
        let _ = end_rx.recv();
    });
    let holder_id = recv(&held_rx, "the holder's SCX") as usize;

    let (tx, rx) = mpsc::channel();
    let exiting = thread::spawn(move || {
        // Thread-locals are destroyed in reverse order of first use. Used
        // here: the epoch state, then `ON_EXIT`, then the descriptor claim,
        // so the claim is gone by the time `ON_EXIT`'s destructor runs.
        with_guard(|_| ());
        ON_EXIT.with(|e| *e.borrow_mut() = Some(ScxOnExit { rec, report: tx }));
        commit_one(rec);
    });
    exiting.join().unwrap();
    let (word, claim) = recv(&rx, "the destructor's SCX");
    let id = (word >> 48) as usize;
    if !cfg!(miri) {
        assert_eq!(
            claim, None,
            "the destructor ran before the claim was dropped"
        );
    }
    assert_ne!(
        id, holder_id,
        "the exiting thread shared a live thread's slot"
    );
    assert_ne!(
        id, main_id,
        "the exiting thread shared the test thread's slot"
    );

    drop(end_tx);
    holder.join().unwrap();
}

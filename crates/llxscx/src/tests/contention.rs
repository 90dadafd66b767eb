//! Owners and helpers racing across many incarnations of the same
//! descriptors: every committed SCX must count exactly once.

use std::thread;

use super::{at, dispose, kid, node, node_with, shared};
use crate::ops::{llx, scx, Llx, ScxArgs};
use crate::with_guard;

/// Threads repeatedly replace `root`'s child by a copy holding its value
/// plus one, finalizing the old child in the same SCX (`V = [root,
/// child]`, `R = {child}`), each until its SCX commits. Conflicting SCXs
/// help each other through the descriptors their owners keep reusing; the
/// final value must equal the number of committed SCXs.
#[test]
fn racing_increments_lose_no_committed_scx() {
    const THREADS: usize = 4;
    const OPS: usize = if cfg!(miri) { 30 } else { 20_000 };
    let root = node();
    // SEQCST: test-only; SC keeps the interleaving argument trivial.
    at(root).kids[0].store(shared(node()), std::sync::atomic::Ordering::SeqCst);
    thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(move || (0..OPS).for_each(|_| increment(root)));
        }
    });
    let last = with_guard(|g| kid(root, 0, g));
    assert_eq!(
        at(last).val,
        (THREADS * OPS) as u64,
        "a committed SCX was lost"
    );
    dispose(&[last, root]);
}

/// One increment, retried until its SCX commits.
fn increment(root: usize) {
    with_guard(|g| loop {
        let Llx::Snapshot(hr) = llx(shared(root), g) else {
            continue;
        };
        let child = hr.left();
        let Llx::Snapshot(hc) = llx(child, g) else {
            continue;
        };
        let fresh = node_with(hc.node_ref().val + 1);
        let args = ScxArgs {
            v: &[hr, hc],
            finalize: 0b10,
            fld_record: 0,
            fld_idx: 0,
            new: shared(fresh),
        };
        if scx(&args, g) {
            return;
        }
        dispose(&[fresh]);
    })
}

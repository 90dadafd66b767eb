//! Fixture: ordering-audit violations at known lines. The integration
//! test asserts exact line numbers, so keep edits append-only.

use std::sync::atomic::{AtomicUsize, Ordering};

const HIDDEN: Ordering = Ordering::SeqCst;

fn bad(a: &AtomicUsize) {
    let _ = a.fetch_add(1, HIDDEN); // line 9: alias hides the ordering
    let _ = a.compare_exchange(0, 1, HIDDEN, HIDDEN); // line 10
    let _ = a.fetch_update(HIDDEN, HIDDEN, |v| Some(v + 1)); // line 11
    let _ = a.load(Ordering::SeqCst); // line 12: no marker
    // RELAXED: a marker for another ordering (line 13: orphan).
    let _ = a.load(Ordering::Acquire); // line 14: unjustified
    a.store(0, Ordering::Release); // RELEASE:
    let ord = Ordering::Acquire;
    // ACQUIRE: left behind when the literal became a variable (orphan).
    let _ = a.load(ord);
    // SEQCST: left behind by a deleted site (orphan).
    drop(ord);
    /// ACQUIRE: a doc comment is no marker.
    let _ = a.load(Ordering::Acquire); // line 22: unjustified
}

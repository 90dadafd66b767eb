//! Fixture: ordering-audit clean — every atomic call names an explicit
//! ordering and every SeqCst carries a SEQCST justification.

use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};

fn explicit(a: &AtomicUsize, b: &AtomicBool) {
    let _ = a.load(Ordering::Acquire);
    a.store(1, Ordering::Release);
    let _ = a.fetch_add(1, Ordering::Relaxed);
    let _ = a.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);
    // SEQCST: fixture — justification in the comment block above.
    let _ = b.swap(true, Ordering::SeqCst);
    let _ = b.load(Ordering::SeqCst); // SEQCST: trailing form.
    let _ = a.compare_exchange_weak(
        1,
        2,
        Ordering::SeqCst,
        Ordering::Relaxed, // SEQCST: trailing on a later line of the call.
    );
    fence(Ordering::Release);
    std::sync::atomic::fence(Ordering::Acquire);
}

fn lookalikes(v: &mut [u8]) {
    v.swap(0, 1);
    let _ = "x".to_string().len();
}

//! Fixture: ordering-audit clean — every atomic call names an explicit
//! ordering and carries a marker naming exactly its orderings.

use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};

fn explicit(a: &AtomicUsize, b: &AtomicBool) {
    let _ = a.load(Ordering::Acquire); // ACQUIRE: trailing form.
    // RELEASE: the comment block above the call.
    a.store(1, Ordering::Release);
    let _ = a.fetch_add(1, Ordering::Relaxed); // RELAXED: a counter.
    // ACQREL/ACQUIRE: a pair names both orderings, in order.
    let _ = a.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);
    // SEQCST: a `SeqCst, SeqCst` pair names its one ordering once.
    let _ = b.compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst);
    let _ = a.compare_exchange_weak(
        1,
        2,
        Ordering::SeqCst,
        Ordering::Relaxed,
    ); // SEQCST/RELAXED: trailing on the last line of the call.
    // RELEASE: the marker block may sit above an attribute.
    #[rustfmt::skip]
    fence(Ordering::Release);
    // ACQUIRE: a marker's text may run on
    // over several comment lines.
    std::sync::atomic::fence(Ordering::Acquire);
    let _ = "// SEQCST: a marker-shaped string is not a marker";
    let _ = a.load(Ordering::Relaxed); // RELAXED: the string above is not an orphan.
    /// SEQCST: nor is a marker-shaped doc comment.
    b.store(true, Ordering::Relaxed); // RELAXED: this site's own marker.
}

fn lookalikes(v: &mut [u8]) {
    v.swap(0, 1);
    let _ = "x".to_string().len();
}

fn split_chain(slots: &[AtomicUsize]) -> usize {
    // ACQUIRE: above the first line of a chain split one method per line.
    slots
        .iter()
        .map(|s| s.load(Ordering::Acquire))
        .sum()
}

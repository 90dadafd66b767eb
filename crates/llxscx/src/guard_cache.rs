//! Amortized epoch pinning: the path most callers name for
//! [`with_guard`], [`with_guard_weighted`], [`flush`] and [`REPIN_OPS`].
//!
//! They live in [`epoch`](crate::epoch) beside the collector, because the
//! cached pin, the repin counter and the limbo list are one per-thread
//! state there; its module docs cover the cadence and the liveness caveat
//! (call [`flush`] before parking a thread).

pub use crate::epoch::{flush, with_guard, with_guard_weighted, REPIN_OPS};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    /// Runs collection passes until `ran` is set. Other test threads'
    /// pins can hold the epoch back for any fixed number of passes, but
    /// not for this long.
    fn flush_until(ran: &AtomicBool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        // SEQCST: test-only; SC keeps the interleaving argument trivial.
        while !ran.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "deferred closure never ran");
            flush();
            std::thread::yield_now();
        }
    }

    #[test]
    fn cached_guard_spans_calls_and_repins() {
        // Warm the cache, then verify a value deferred under one call is
        // not executed while the cache is warm but is executed after enough
        // calls to cross a repin boundary (plus collection passes).
        static RAN: AtomicBool = AtomicBool::new(false);
        // SAFETY: the deferred closure only touches a `'static` atomic.
        // SEQCST: test-only; SC keeps the interleaving argument trivial.
        with_guard(|g| unsafe { g.defer_unchecked(|| RAN.store(true, Ordering::SeqCst)) });
        for _ in 0..(REPIN_OPS * 8) {
            with_guard(|_| ());
        }
        flush_until(&RAN);
    }

    #[test]
    fn reentrant_with_guard_falls_back() {
        let out = with_guard(|_outer| with_guard(|_inner| 42));
        assert_eq!(out, 42);
    }

    #[test]
    fn weighted_calls_advance_the_repin_cadence() {
        // Garbage deferred under a weighted call must be reclaimed after a
        // handful of further weighted calls: a weight-64 batch counts as 64
        // operations, so two batches cross the repin boundary — whereas 8
        // *unweighted* calls would leave the cadence counter at 8 and the
        // cached pin warm. (The actual free also needs the global epoch to
        // advance twice, hence the trailing flush loop, same as the
        // unweighted test above.)
        static RAN_W: AtomicBool = AtomicBool::new(false);
        // SAFETY: the deferred closure only touches a `'static` atomic.
        with_guard_weighted(REPIN_OPS, |g| unsafe {
            // SEQCST: test-only; SC keeps the interleaving argument trivial.
            g.defer_unchecked(|| RAN_W.store(true, Ordering::SeqCst))
        });
        for _ in 0..8 {
            with_guard_weighted(REPIN_OPS, |_| ());
        }
        flush_until(&RAN_W);
    }

    #[test]
    fn weight_saturates_instead_of_overflowing() {
        for _ in 0..4 {
            with_guard_weighted(u32::MAX, |_| ());
        }
        flush();
    }
}

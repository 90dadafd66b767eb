//! Amortized epoch pinning: a thread-local cached [`Guard`].
//!
//! Every public tree operation used to pin and unpin the epoch (`&pin()`
//! per attempt): several sequentially-consistent atomics plus, every 64th
//! unpin, a collection pass — pure overhead on the read path, where
//! the paper's searches perform *no* synchronization at all. This module
//! keeps one long-lived `Guard` per thread and hands out cheap re-entries:
//!
//! * [`with_guard`] runs a closure under the cached guard. While the cache
//!   is warm this costs a thread-local access and two counter bumps — the
//!   inner `pin()` that callees may still perform is a depth increment
//!   (the vendored crossbeam-epoch's nested-pin fast path).
//! * Every [`REPIN_OPS`]-th call the cached guard is dropped, a fresh pin
//!   is taken, and a collection pass runs under it: the epoch advances if
//!   it can and the thread frees *its own* ripe retirements from its limbo
//!   list (the epoch collector keeps garbage with the thread that retired
//!   it). This bounds both garbage accumulation and how far this thread
//!   can hold the global epoch back.
//!
//! # Liveness caveat
//!
//! A thread that stops calling [`with_guard`] *while its cache is warm*
//! keeps the epoch pinned until it either calls again or exits (thread exit
//! drops the cache), and while it does every other thread's limbo list
//! only grows. Nobody but its owner drains a limbo list, either, so an
//! idle thread also sits on whatever it retired last. Long-lived threads
//! that go idle between bursts of tree operations must therefore call
//! [`flush`] before parking: it releases the cached pin *and* hands the
//! thread's unripe retirements to the collector's orphan list, where the
//! passes of the threads still running free them
//! (`tests/park_flush.rs` holds it to both halves).
//! This is the standard trade of amortized pinning; the repin interval
//! keeps the window small under load, and the throughput win on read-heavy
//! workloads (where pinning was the dominant cost) is what the paper's
//! "no synchronization on searches" design intends.
//!
//! The closure-passing shape is load-bearing for safety: handles and shared
//! pointers borrow the `&Guard`, so they cannot outlive one `with_guard`
//! call — exactly the linking discipline [`LlxHandle`](crate::LlxHandle)
//! already enforces — and a repin can never invalidate a live snapshot.

use std::cell::{Cell, RefCell};

use crossbeam_epoch::{pin, Guard};

/// Calls between forced repins of the cached guard. 64 matches the epoch
/// collector's historical collection cadence (one pass per 64 unpins), so
/// batching pins does not starve reclamation relative to the old scheme.
pub const REPIN_OPS: u32 = 64;

struct GuardCache {
    guard: RefCell<Option<Guard>>,
    uses: Cell<u32>,
}

thread_local! {
    static CACHE: GuardCache = const {
        GuardCache {
            guard: RefCell::new(None),
            uses: Cell::new(0),
        }
    };
}

/// Runs `f` under this thread's cached epoch guard, repinning (and
/// collecting) every [`REPIN_OPS`] calls.
///
/// Re-entrant calls (an operation invoked from inside `with_guard`) and
/// calls during thread teardown fall back to a plain short-lived pin.
#[inline]
pub fn with_guard<R>(f: impl FnOnce(&Guard) -> R) -> R {
    with_guard_weighted(1, f)
}

/// [`with_guard`] with an explicit *weight*: the call counts as `weight`
/// operations toward the [`REPIN_OPS`] repin cadence.
///
/// This is the substrate for batched entry points (`sharded`'s
/// `insert_batch`/`remove_batch`/`get_batch`): a batch of `n` operations
/// executes under ONE pin — every nested `with_guard` the per-operation
/// code performs takes the cheap re-entrant path, a depth increment on the
/// already-pinned epoch — but still advances the cadence by `n`, so a
/// weighted caller crosses the repin boundary as often *per operation* as
/// an unweighted one. The precise guarantee: a repin-and-collect happens
/// on the first call after the counter reaches [`REPIN_OPS`], so the
/// reclamation lag is bounded by `REPIN_OPS` operations *plus one batch*
/// (the pin necessarily spans the whole closure — garbage deferred inside
/// a batch of `n > REPIN_OPS` operations waits for that batch to end, and
/// the post-repin counter saturates at `REPIN_OPS`, making the next batch
/// repin again immediately). Weighting only the counter (not the pin) is
/// what makes batching an amortization rather than an unbounded
/// reclamation stall.
#[inline]
pub fn with_guard_weighted<R>(weight: u32, f: impl FnOnce(&Guard) -> R) -> R {
    // Probe accessibility first so `f` is moved into exactly one path.
    // Thread-local storage already torn down (destructor context)?
    if CACHE.try_with(|_| ()).is_err() {
        return f(&pin());
    }
    CACHE.with(|cache| {
        match cache.guard.try_borrow_mut() {
            Ok(mut slot) => {
                let uses = cache.uses.get();
                if uses >= REPIN_OPS {
                    // Drop the cached pin so the global epoch can advance
                    // past this thread, repin fresh, and run a collection
                    // pass under the new pin: pinned, so our limbo list
                    // stays ours.
                    *slot = None;
                    slot.insert(pin()).flush();
                    cache.uses.set(weight.min(REPIN_OPS));
                } else {
                    cache.uses.set(uses.saturating_add(weight));
                }
                f(slot.get_or_insert_with(pin))
            }
            // Re-entrant use of the cache: the outer call holds the borrow.
            // Nested pins are cheap, so just take a fresh one.
            Err(_) => f(&pin()),
        }
    })
}

/// Drops this thread's cached guard (if any), runs a collection pass and
/// hands what is still unripe in this thread's limbo list to the epoch
/// collector's orphan list, for other threads' passes to free. Call before
/// parking a long-lived thread that performed tree operations and will now
/// go idle; `crossbeam_epoch::backlog` reads what is waiting where.
pub fn flush() {
    let _ = CACHE.try_with(|cache| {
        if let Ok(mut slot) = cache.guard.try_borrow_mut() {
            *slot = None;
            cache.uses.set(0);
        }
    });
    crossbeam_epoch::flush_and_collect();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_guard_spans_calls_and_repins() {
        // Warm the cache, then verify a value deferred under one call is
        // not executed while the cache is warm but is executed after enough
        // calls to cross a repin boundary (plus collection passes).
        use std::sync::atomic::{AtomicBool, Ordering};
        static RAN: AtomicBool = AtomicBool::new(false);
        // SAFETY: the deferred closure only touches a `'static` atomic.
        // SEQCST: test-only; SC keeps the interleaving argument trivial.
        with_guard(|g| unsafe { g.defer_unchecked(|| RAN.store(true, Ordering::SeqCst)) });
        for _ in 0..(REPIN_OPS * 8) {
            with_guard(|_| ());
        }
        flush();
        // Other test threads may be pinned; drive a few extra collections.
        for _ in 0..64 {
            flush();
        }
        // SEQCST: test-only; SC keeps the interleaving argument trivial.
        assert!(RAN.load(Ordering::SeqCst));
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
        use std::sync::atomic::{AtomicBool, Ordering};
        static RAN_W: AtomicBool = AtomicBool::new(false);
        // SAFETY: the deferred closure only touches a `'static` atomic.
        with_guard_weighted(REPIN_OPS, |g| unsafe {
            // SEQCST: test-only; SC keeps the interleaving argument trivial.
            g.defer_unchecked(|| RAN_W.store(true, Ordering::SeqCst))
        });
        for _ in 0..8 {
            with_guard_weighted(REPIN_OPS, |_| ());
        }
        flush();
        for _ in 0..64 {
            flush();
        }
        // SEQCST: test-only; SC keeps the interleaving argument trivial.
        assert!(RAN_W.load(Ordering::SeqCst));
    }

    #[test]
    fn weight_saturates_instead_of_overflowing() {
        for _ in 0..4 {
            with_guard_weighted(u32::MAX, |_| ());
        }
        flush();
    }
}

//! Per-thread SCX-descriptor pools.
//!
//! Brown's follow-up line of work on descriptor-based primitives ("Reuse,
//! don't Recycle", DISC'15) observes that descriptor *allocation* dominates
//! the update path once the protocol itself is cheap. This module removes
//! that cost: every thread keeps a small pool of [`ScxRecord`]s per record
//! type, [`scx`](crate::scx) checks one out instead of heap-allocating, and
//! the reclamation path in [`reclaim`](crate::reclaim) returns descriptors
//! to their owning pool instead of freeing them. Only pool overflow (more
//! than `POOL_CAP` descriptors simultaneously returned) actually frees
//! memory — and that release happens on the same epoch-deferred path that
//! used to free every descriptor.
//!
//! # Structure
//!
//! A pool is a Treiber stack of quiescent descriptors; the owner's
//! *teardown flag* rides in the head word's low bits (descriptors are
//! 128-byte aligned) and the depth bound is a relaxed side counter:
//!
//! * **Checkout** (`acquire`) happens only on the owning thread (it is the
//!   thread-local fast path of `scx`), so the stack has a *single consumer*
//!   and the classic Treiber-pop ABA cannot occur: nodes are only ever
//!   removed by us, so the head we read cannot be popped and re-pushed
//!   behind our back.
//! * **Return** (`release`) can happen on *any* thread. The final
//!   reference drop runs inside an epoch-deferred closure, and the epoch
//!   collector runs a closure on the thread that deferred it: the thread
//!   that displaced the descriptor from its last `info` field, which need
//!   not be the descriptor's owner (and an exited or parked thread's
//!   leftovers run on whichever thread adopts them). So pushes are
//!   multi-producer CAS pushes. A push that observes the stack full
//!   (`POOL_CAP`) or closed (the `DEAD` bit) frees the descriptor instead.
//!
//! # Lifetime
//!
//! A pool must outlive its owner thread: descriptors checked out by a dying
//! thread can still be referenced from `info` fields of live trees. On
//! exit the owner *closes* the stack by swapping the head for the `DEAD`
//! marker — an atomic capture, so a racing return either lands before the
//! swap (and is freed with the captured list) or observes `DEAD` and frees
//! its descriptor itself; none are stranded. The `allocs` counter (touched
//! only on the allocate/free slow paths, never per-SCX) tracks outstanding
//! allocations plus the owner's own reference; whoever drops it to zero
//! frees the `PoolShared`.

use std::any::TypeId;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::descriptor::ScxRecord;
use crate::record::Record;

/// Maximum number of quiescent descriptors parked per (thread, record
/// type).
///
/// An SCX holds at most one descriptor in flight per thread, but returns
/// arrive a collection pass at a time — when a descheduled pinned thread
/// stalls the epoch, a pass spans a whole scheduler rotation — so the cap
/// is sized for bursts
/// (4096 × 256-byte descriptors = 1 MiB per thread, worst case).
pub(crate) const POOL_CAP: usize = 4096;

/// Head-word bit set when the owner thread exited and closed the stack
/// (descriptors are 128-byte aligned, so the low bits of the head are
/// free).
const DEAD: usize = 0x1;
/// The pointer part of the head word.
const PTR_MASK: usize = !0x7f;

/// Shared part of a per-thread descriptor pool; heap-allocated, freed by
/// the last party (owner thread or returning descriptor) to let go.
pub(crate) struct PoolShared<N> {
    /// Treiber stack head: descriptor pointer | [`DEAD`].
    head: AtomicUsize,
    /// Approximate stack depth, maintained Relaxed next to the push/pop
    /// CASes; only used to bound the stack, so transient skew is harmless.
    stacked: AtomicUsize,
    /// Outstanding descriptor allocations + 1 for the owner thread.
    /// Touched only on allocate/free slow paths, never per checkout.
    allocs: AtomicUsize,
    _marker: std::marker::PhantomData<*const N>,
}

impl<N: Record> PoolShared<N> {
    fn new() -> Self {
        PoolShared {
            head: AtomicUsize::new(0),
            stacked: AtomicUsize::new(0),
            // The owner thread's reference.
            allocs: AtomicUsize::new(1),
            _marker: std::marker::PhantomData,
        }
    }
}

/// One registered pool in the thread-local registry, with a type-erased
/// "owner exited" hook so the registry itself needs no generics.
struct PoolEntry {
    type_id: TypeId,
    pool: *const (),
    on_owner_exit: unsafe fn(*const ()),
}

impl Drop for PoolEntry {
    fn drop(&mut self) {
        // SAFETY: `pool` was created by `registered_pool::<N>` with the
        // matching `on_owner_exit = owner_exit::<N>`.
        unsafe { (self.on_owner_exit)(self.pool) }
    }
}

thread_local! {
    static POOLS: RefCell<Vec<PoolEntry>> = const { RefCell::new(Vec::new()) };
}

/// Releases one `allocs` reference; the zero-crossing party frees the pool.
///
/// # Safety
/// The caller gives up one counted reference to `pool` and must not touch
/// the pool through this pointer afterwards.
unsafe fn drop_alloc_ref<N: Record>(pool: *const PoolShared<N>) {
    // AcqRel: the release half publishes our last use of the pool, the
    // acquire half (on the zero crossing) orders it before the free.
    if (*pool).allocs.fetch_sub(1, Ordering::AcqRel) == 1 {
        drop(Box::from_raw(pool as *mut PoolShared<N>));
    }
}

/// Owner-thread exit: close the stack (atomic swap to `DEAD`), free the
/// captured descriptors, and drop the owner's pool reference.
///
/// # Safety
/// `pool` must be the `PoolShared<N>` this thread registered at
/// construction; called exactly once, from the owner's TLS destructor.
unsafe fn owner_exit<N: Record>(pool: *const ()) {
    let pool = pool as *const PoolShared<N>;
    let captured = (*pool).head.swap(DEAD, Ordering::AcqRel);
    let mut p = (captured & PTR_MASK) as *mut ScxRecord<N>;
    while !p.is_null() {
        let next = (*p).free_next.load(Ordering::Relaxed);
        drop(Box::from_raw(p));
        drop_alloc_ref(pool);
        p = next;
    }
    drop_alloc_ref(pool);
}

/// The calling thread's pool for record type `N`, registered on first use.
fn registered_pool<N: Record>() -> *const PoolShared<N> {
    POOLS.with(|pools| {
        let mut pools = pools.borrow_mut();
        let tid = TypeId::of::<N>();
        if let Some(e) = pools.iter().find(|e| e.type_id == tid) {
            return e.pool as *const PoolShared<N>;
        }
        let pool = Box::into_raw(Box::new(PoolShared::<N>::new())) as *const PoolShared<N>;
        pools.push(PoolEntry {
            type_id: tid,
            pool: pool as *const (),
            on_owner_exit: owner_exit::<N>,
        });
        pool
    })
}

/// Point-in-time statistics of the calling thread's descriptor pool for
/// one record type — the observable face of the reuse machinery (useful
/// in tests and leak hunts; the counters are maintained on the slow
/// paths only, so reading them costs nothing on the SCX fast path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Quiescent descriptors currently parked in the pool.
    pub pooled: usize,
    /// Descriptors allocated through this pool and not yet freed
    /// (parked + checked out + still referenced by the structure).
    pub allocated: usize,
}

/// Statistics of the calling thread's pool for record type `N`
/// (registering the pool if this thread has not used one yet).
///
/// # Example
///
/// Steady-state updates allocate **no** descriptors: after a warm-up
/// SCX, cycling further SCXs recycles the same allocation through the
/// pool.
///
/// ```
/// use llxscx::{llx, scx, pin, Atomic, Owned, Record, RecordHeader, ScxArgs};
///
/// struct N { header: RecordHeader<N>, kids: [Atomic<N>; 2] }
/// impl Record for N {
///     const ARITY: usize = 2;
///     fn header(&self) -> &RecordHeader<Self> { &self.header }
///     fn child(&self, i: usize) -> &Atomic<Self> { &self.kids[i] }
/// }
/// fn node() -> Owned<N> {
///     Owned::new(N { header: RecordHeader::new(), kids: [Atomic::null(), Atomic::null()] })
/// }
///
/// let root = {
///     let guard = &pin();
///     node().into_shared(guard).as_raw()
/// };
/// for _ in 0..300u64 {
///     {
///         let guard = &pin();
///         let root = llxscx::Shared::from(root);
///         let h = llx(root, guard).unwrap();
///         let fresh = node().into_shared(guard);
///         let old = h.right();
///         let args = ScxArgs { v: &[h], finalize: 0, fld_record: 0, fld_idx: 1, new: fresh };
///         assert!(scx(&args, guard));
///         if !old.is_null() {
///             // The replaced child is ours to retire (it was not in R).
///             unsafe { llxscx::reclaim::defer_dispose_record(old.as_raw(), guard) };
///         }
///     }
///     // Let the epoch-deferred reference drops run so descriptors
///     // return to the pool (unpinned, so this also orphans what is not
///     // ripe yet; a later iteration's pass runs it).
///     llxscx::epoch::flush_and_collect();
/// }
/// let stats = llxscx::pool::local_stats::<N>();
/// assert!(stats.allocated <= 8, "descriptors were not reused: {stats:?}");
/// assert!(stats.pooled >= 1);
/// ```
pub fn local_stats<N: Record>() -> PoolStats {
    let pool = registered_pool::<N>();
    // SAFETY: the pool outlives its owner thread (us).
    unsafe {
        PoolStats {
            pooled: (*pool).stacked.load(Ordering::Relaxed),
            // `allocs` counts outstanding allocations + 1 owner reference.
            allocated: (*pool).allocs.load(Ordering::Relaxed).saturating_sub(1),
        }
    }
}

/// Checks a quiescent descriptor out of the calling thread's pool,
/// allocating a fresh one only when the pool is empty. Bumps the
/// incarnation counter (`seq`); the caller must tag every published pointer
/// with the new value.
///
/// The returned descriptor has `refs == 0` and is exclusively owned by the
/// caller until a freezing CAS publishes it. Fast path: one CAS.
pub(crate) fn acquire<N: Record>() -> *mut ScxRecord<N> {
    let pool = registered_pool::<N>();
    // SAFETY: `pool` stays alive while the owner thread does (its `allocs`
    // reference is only dropped by the POOLS destructor), and only the
    // owner pops, so popped nodes are exclusively ours.
    unsafe {
        let desc = loop {
            let h = (*pool).head.load(Ordering::Acquire);
            let ptr = (h & PTR_MASK) as *mut ScxRecord<N>;
            if ptr.is_null() {
                // Pool miss: allocate (slow path — the only place the
                // `allocs` counter is touched during normal operation).
                (*pool).allocs.fetch_add(1, Ordering::Relaxed);
                break Box::into_raw(Box::new(ScxRecord::new_in_pool(pool)));
            }
            let next = (*ptr).free_next.load(Ordering::Relaxed) as usize;
            // Single consumer: `ptr` cannot have been popped and re-pushed
            // between the load and this CAS, so `next` is still current.
            if (*pool)
                .head
                .compare_exchange(h, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                (*pool).stacked.fetch_sub(1, Ordering::Relaxed);
                break ptr;
            }
        };
        // New incarnation: stale expected-values carrying the old tag can
        // no longer freeze records for this descriptor. Plain load/store —
        // we own the quiescent descriptor exclusively.
        let seq = (*desc).seq.load(Ordering::Relaxed);
        (*desc).seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        desc
    }
}

/// Returns a quiescent (`refs == 0`) descriptor to its owning pool, or
/// frees it when the pool is full or closed. Fast path: one CAS.
///
/// # Safety
/// The caller must hold the *last* reference: `refs == 0` and no thread can
/// reach the descriptor any more (same precondition the free path had).
pub(crate) unsafe fn release<N: Record>(desc: *mut ScxRecord<N>) {
    let pool = (*desc).pool;
    let mut h = (*pool).head.load(Ordering::Relaxed);
    loop {
        if h & DEAD != 0 || (*pool).stacked.load(Ordering::Relaxed) >= POOL_CAP {
            // Owner exited or pool full: free. This is the only path that
            // frees descriptor memory, and it runs where the pre-pool code
            // freed *every* descriptor (typically inside an epoch-deferred
            // closure). The `DEAD` bit makes teardown race-free: a return
            // either lands before the owner's closing swap (and is freed
            // with the captured list) or sees `DEAD` here.
            drop(Box::from_raw(desc));
            drop_alloc_ref(pool);
            return;
        }
        (*desc)
            .free_next
            .store((h & PTR_MASK) as *mut ScxRecord<N>, Ordering::Relaxed);
        // Release: the consumer's acquiring pop (or the owner's closing
        // swap) must see our `free_next` store.
        match (*pool).head.compare_exchange_weak(
            h,
            desc as usize,
            Ordering::Release,
            Ordering::Relaxed,
        ) {
            Ok(_) => {
                (*pool).stacked.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(cur) => h = cur,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordHeader;
    use crossbeam_epoch::Atomic;

    struct PoolNode {
        header: RecordHeader<PoolNode>,
        children: [Atomic<PoolNode>; 2],
    }
    impl Record for PoolNode {
        const ARITY: usize = 2;
        fn header(&self) -> &RecordHeader<Self> {
            &self.header
        }
        fn child(&self, i: usize) -> &Atomic<Self> {
            &self.children[i]
        }
    }

    #[test]
    fn acquire_release_reuses_allocation() {
        let d1 = acquire::<PoolNode>();
        // SAFETY: `d1` came from `acquire` and has not been released.
        let seq1 = unsafe { (*d1).seq.load(Ordering::Relaxed) };
        // SAFETY: `d1` is a live descriptor this test checked out.
        unsafe { release(d1) };
        let d2 = acquire::<PoolNode>();
        // SAFETY: `d2` came from `acquire` and has not been released.
        let seq2 = unsafe { (*d2).seq.load(Ordering::Relaxed) };
        assert_eq!(d1, d2, "pool should hand back the parked descriptor");
        assert_eq!(seq2, seq1 + 1, "every checkout bumps the incarnation");
        // SAFETY: `d2` is live and released exactly once.
        unsafe { release(d2) };
    }

    #[test]
    fn cross_thread_release_lands_in_owner_pool() {
        let d = acquire::<PoolNode>() as usize;
        // SAFETY: `d` is a live descriptor; this is its only release.
        std::thread::spawn(move || unsafe { release(d as *mut ScxRecord<PoolNode>) })
            .join()
            .unwrap();
        let d2 = acquire::<PoolNode>();
        assert_eq!(d2 as usize, d, "cross-thread return reaches the owner");
        // SAFETY: `d2` is live and released exactly once.
        unsafe { release(d2) };
    }

    #[test]
    fn overflow_frees_instead_of_stacking() {
        // Check out CAP + 8 descriptors, then return them all: the pool
        // keeps CAP and frees the rest; refills must reuse parked memory.
        let descs: Vec<*mut ScxRecord<PoolNode>> = (0..POOL_CAP + 8).map(|_| acquire()).collect();
        for &d in &descs {
            // SAFETY: each descriptor from `acquire` is released exactly once.
            unsafe { release(d) };
        }
        let again: Vec<*mut ScxRecord<PoolNode>> = (0..POOL_CAP).map(|_| acquire()).collect();
        for &d in &again {
            assert!(descs.contains(&d), "refill must reuse parked memory");
            // SAFETY: each descriptor from `acquire` is released exactly once.
            unsafe { release(d) };
        }
    }

    #[test]
    fn owner_exit_frees_parked_and_accepts_stragglers() {
        // A descriptor checked out by a thread that exits must still be
        // returnable afterwards (it is freed, not stranded).
        let d = std::thread::spawn(|| {
            let keep = acquire::<PoolNode>();
            let parked = acquire::<PoolNode>();
            // SAFETY: `parked` is live; released once, before the owner exits.
            unsafe { release(parked) }; // parked in the pool at exit
            keep as usize
        })
        .join()
        .unwrap();
        // The owner is gone; this return must take the DEAD path.
        // SAFETY: `keep` leaked past the owner's exit; this single release
        // must take the DEAD path and free it.
        unsafe { release(d as *mut ScxRecord<PoolNode>) };
    }
}

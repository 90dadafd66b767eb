//! Epoch-based memory reclamation: the collector, and the one per-thread
//! state that amortizes its pins.
//!
//! The papers assume a garbage collector; this module stands in for it with
//! DEBRA-style epochs (Brown, PODC 2015).
//!
//! * A global epoch counter advances only when every *pinned* thread has
//!   announced the current epoch. Threads announce in their slot of the
//!   [descriptor table](crate::descriptor), which a thread's state claims
//!   when it is built and returns when the thread exits; a pass scans the
//!   table without a lock.
//! * [`Guard::defer_unchecked`] / [`Guard::defer_destroy`] queue a closure
//!   on the calling thread's *limbo list*, tagged with the global epoch `e`
//!   read after the caller unlinked the memory. It runs once the global
//!   epoch reaches `e + 2`, when no thread that could have seen the pointer
//!   is still pinned. A closure is stored inline, unboxed, when it fits
//!   three words.
//! * A *pass* tries to advance the epoch and pops the calling thread's ripe
//!   front entries: no lock, no scan, and memory is freed by the thread
//!   that will reuse it ([`slab`](crate::slab)).
//!
//! # Amortized pinning
//!
//! Pins are cached: [`with_guard`] is the only way to get a pinned
//! [`Guard`], and the pin its first call on a thread takes outlives the
//! call. Later calls cost a thread-local access and a counter bump, and
//! calls made inside a running `with_guard` ride its pin. Every [`REPIN_OPS`] operations a call
//! *repins* first: it unpins, pins at the current epoch and runs a pass
//! under the fresh pin. That one cadence bounds both this thread's garbage
//! and how far it can hold the global epoch back.
//!
//! A guard is handed out by reference only, for one closure: handles and
//! shared pointers borrow it, so they cannot outlive the call, and a repin
//! can never invalidate a live snapshot.
//!
//! # Parking
//!
//! Only its owner drains a limbo list, and a thread that stops calling
//! [`with_guard`] keeps its cached pin, holding every other thread's garbage
//! back. A long-lived thread must therefore call [`flush`] before it goes
//! idle. It *parks*: it unpins, runs a pass and seals what is still unripe
//! into one batch, tagged with its newest epoch, on a global *orphan* list
//! (`tests/park_flush.rs` holds it to both halves). Thread exit does the
//! same. Batches with one tag merge, so the list stays short however many
//! threads come and go. Every pass checks one atomic and takes the orphan
//! lock only when something is there.

mod atomic;

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::mem::{self, MaybeUninit};
use std::ptr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::descriptor;

pub use atomic::{Atomic, CompareExchangeError, Owned, Pointer, Shared};

/// Operations between repins. A repin runs a pass, so this is also the
/// collection cadence: the one reclamation interval of the crate.
pub const REPIN_OPS: u32 = 64;

/// A slot's announced epoch while its thread is not pinned.
pub(crate) const UNPINNED: usize = usize::MAX;

/// Inline closure storage: every first-party retirement captures one or
/// two words.
type Inline = MaybeUninit<[usize; 3]>;

/// A deferred closure, type-erased without a heap allocation when it fits
/// [`Inline`]. It is only run after the epoch gap proves exclusive access.
struct Deferred {
    call: unsafe fn(*mut u8),
    data: Inline,
}

// SAFETY: `defer_unchecked`'s caller certifies the closure may run on
// another thread once the epoch gap has passed; `data` is only its bytes.
unsafe impl Send for Deferred {}

impl Deferred {
    fn new<F: FnOnce() + 'static>(f: F) -> Self {
        // SAFETY: callers pass `data` holding an `F` that `new` wrote and
        // nothing has read yet.
        unsafe fn call<F: FnOnce()>(data: *mut u8) {
            ptr::read(data.cast::<F>())()
        }
        if mem::size_of::<F>() > mem::size_of::<Inline>()
            || mem::align_of::<F>() > mem::align_of::<Inline>()
        {
            // Too large or over-aligned: its (two-word) box fits.
            let boxed: Box<dyn FnOnce()> = Box::new(f);
            return Deferred::new(boxed);
        }
        let mut data = Inline::uninit();
        // SAFETY: `data` is large and aligned enough for an `F`, checked
        // just above.
        unsafe { ptr::write(data.as_mut_ptr().cast::<F>(), f) };
        Deferred {
            call: call::<F>,
            data,
        }
    }

    fn run(mut self) {
        // SAFETY: `call` reads back the `F` that `new` wrote into `data`,
        // and consuming `self` makes this the only read.
        unsafe { (self.call)(self.data.as_mut_ptr().cast()) }
    }
}

/// Deferred closures tagged with the global epoch read when they were
/// retired; pushed at the back, so the tags never decrease.
type Limbo = VecDeque<(usize, Deferred)>;

/// The global epoch.
static EPOCH: AtomicUsize = AtomicUsize::new(0);
/// Limbo lists whose owners exited or parked, each sealed under its newest
/// tag; one batch per tag.
static ORPHANS: Mutex<Vec<(usize, Limbo)>> = Mutex::new(Vec::new());
/// Closures in `ORPHANS`, updated under its lock; lets a pass skip the lock
/// while nothing is orphaned.
static ORPHANED: AtomicUsize = AtomicUsize::new(0);

/// Advances the global epoch if every pinned thread announces it.
///
/// The scan takes no lock. It reads the epoch, then the slot table's
/// length, then each slot's announce, all SeqCst. A slot taken after the
/// length load is not scanned, and need not be: `take_slot` stores the new
/// length SeqCst before its thread's first pin, so that pin's epoch load
/// follows this scan's epoch load in the total order and reads at least
/// `cur`. Such a thread cannot block `cur → cur + 1`, and the next scan
/// sees its slot. Scans may overlap; the CAS from `cur` lets at most one of
/// them advance.
fn try_advance() {
    // SEQCST: the scan below must not start before this read; the CAS
    // then fails if anyone advanced past `cur` in between.
    let cur = EPOCH.load(Ordering::SeqCst);
    for id in 1..=descriptor::table_len() {
        // SEQCST: the other half of `Local::pin`'s store/re-load
        // handshake: either this load sees the announce, or the pinning
        // thread's re-load sees an epoch past `cur` and re-announces.
        let e = descriptor::announce(id).load(Ordering::SeqCst);
        if e != UNPINNED && e != cur {
            return;
        }
    }
    // SEQCST: the advance must follow the scan in the one total order
    // the handshake argument is written in; a failed CAS means another
    // thread advanced first, which is just as good.
    let _ = EPOCH.compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst);
}

/// Seals `limbo` under its newest tag and leaves it for any thread's pass
/// to run. A batch already sealed under the same tag absorbs it, so the
/// list holds one batch per tag however many threads exit or park: while
/// a pinned thread holds the epoch back, that is at most one per unripe
/// tag.
fn orphan(mut limbo: Limbo) {
    let Some(&(newest, _)) = limbo.back() else {
        return;
    };
    // Closures run outside the lock, so a poisoned list is still whole.
    let mut orphans = ORPHANS.lock().unwrap_or_else(PoisonError::into_inner);
    // SEQCST: the gauge is a hint read without the lock; SC makes a
    // pass that follows this hand-off in the total order see it.
    ORPHANED.fetch_add(limbo.len(), Ordering::SeqCst);
    match orphans.iter_mut().find(|(tag, _)| *tag == newest) {
        Some((_, batch)) => batch.append(&mut limbo),
        None => orphans.push((newest, limbo)),
    }
}

/// Runs every orphaned batch whose newest tag is two epochs behind
/// `epoch`.
fn collect_orphans(epoch: usize) {
    let Ok(mut orphans) = ORPHANS.try_lock() else {
        return; // someone else is draining
    };
    let mut ripe = Vec::new();
    orphans.retain_mut(|(newest, batch)| {
        let unripe = *newest + 2 > epoch;
        if !unripe {
            ripe.push(mem::take(batch));
        }
        unripe
    });
    let n = ripe.iter().map(Limbo::len).sum();
    // SEQCST: the gauge's decrement, under the lock like its increment
    // in `orphan`; SC keeps both in the order its readers see.
    ORPHANED.fetch_sub(n, Ordering::SeqCst);
    drop(orphans);
    for (_, d) in ripe.into_iter().flatten() {
        d.run();
    }
}

/// All of one thread's reclamation state.
struct Local {
    /// This thread's slot in the descriptor table, held until it exits.
    slot: usize,
    /// The epoch announced in that slot, or [`UNPINNED`].
    epoch: &'static AtomicUsize,
    /// Whether this thread holds its cached pin.
    pinned: Cell<bool>,
    /// Whether a [`with_guard`] call is running on this thread; calls made
    /// inside it ride its pin.
    active: Cell<bool>,
    /// Outermost [`with_guard`] calls since the last repin.
    uses: Cell<u32>,
    /// What this thread retired and has not yet run.
    limbo: RefCell<Limbo>,
}

thread_local! {
    static LOCAL: Local = {
        let slot = descriptor::take_slot();
        Local {
            slot,
            epoch: descriptor::announce(slot),
            pinned: Cell::new(false),
            active: Cell::new(false),
            uses: Cell::new(0),
            limbo: RefCell::new(Limbo::new()),
        }
    };
}

impl Local {
    /// Announces the current epoch. The thread must not be pinned.
    fn pin(&self) {
        self.pinned.set(true);
        // Announce, then re-check: an advance between the load and the
        // store would otherwise go unnoticed by both sides.
        loop {
            // SEQCST: the epoch to announce, in the handshake's total order.
            let e = EPOCH.load(Ordering::SeqCst);
            // SEQCST: the announce must be ordered before the re-load that
            // follows it; only SC forbids that store→load reordering.
            self.epoch.store(e, Ordering::SeqCst);
            // SEQCST: pairs with `try_advance`'s scan: if this still reads
            // `e`, any advance past `e` comes later and its scan sees `e`.
            if EPOCH.load(Ordering::SeqCst) == e {
                break;
            }
        }
    }

    /// Withdraws the announce, if pinned.
    fn unpin(&self) {
        if self.pinned.replace(false) {
            // SEQCST: every access made under the pin must precede an
            // advancer's scan that reads this; one total order with the
            // announces keeps that argument in the handshake's terms.
            self.epoch.store(UNPINNED, Ordering::SeqCst);
        }
    }

    /// Lets the epoch move past this thread, pins afresh and runs a pass
    /// under the new pin. Pinned, the thread will be back: its limbo list
    /// stays with it.
    fn repin(&self) {
        self.unpin();
        self.pin();
        self.collect();
    }

    /// Unpins, runs a pass and hands what is still unripe to the orphan
    /// list, for the passes of threads still running.
    fn park(&self) {
        self.uses.set(0);
        self.unpin();
        self.collect();
        // A closure the pass ran may have pinned again through `with_guard`.
        self.unpin();
        orphan(self.limbo.take());
    }

    /// A pass: advance the epoch if possible, run this thread's ripe
    /// closures, and look at the orphan list only if it is non-empty.
    fn collect(&self) {
        try_advance();
        // SEQCST: read after this thread's own advance attempt, in the
        // order the `tag + 2 <= epoch` rule is argued in.
        let epoch = EPOCH.load(Ordering::SeqCst);
        // One entry per borrow: a closure may itself defer, or repin into
        // a nested pass.
        while let Some(d) = self.pop_ripe(epoch) {
            d.run();
        }
        // SEQCST: the gauge's lock-free read; see `orphan`.
        if ORPHANED.load(Ordering::SeqCst) != 0 {
            collect_orphans(epoch);
        }
    }

    fn pop_ripe(&self, epoch: usize) -> Option<Deferred> {
        let mut limbo = self.limbo.borrow_mut();
        match limbo.front() {
            Some(&(e, _)) if e + 2 <= epoch => limbo.pop_front().map(|(_, d)| d),
            _ => None,
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // The thread exits: its retirements must survive it, and its slot
        // goes back unpinned.
        orphan(self.limbo.take());
        self.unpin();
        descriptor::give_slot(self.slot);
    }
}

/// Clears `Local::active` when the outermost [`with_guard`] returns or
/// unwinds.
struct Active<'a>(&'a Local);

impl Drop for Active<'_> {
    fn drop(&mut self) {
        self.0.active.set(false);
    }
}

/// A witness that the current thread is pinned (or, for [`unprotected`], a
/// promise of exclusive access).
///
/// Only [`with_guard`] hands out a pinned guard, by reference, for the
/// duration of one closure. Shared pointers loaded under it stay valid
/// until that closure returns: deferred destruction waits out every pin
/// held at retire time.
pub struct Guard {
    /// `false` for the [`unprotected`] guard, which defers nothing and runs
    /// deferred closures immediately.
    pinned: bool,
    _not_send: PhantomData<*mut ()>,
}

/// Runs `f` under this thread's cached pin, repinning (and collecting)
/// every [`REPIN_OPS`] calls. A call made inside another rides the outer
/// call's pin and does not count, and nothing inside a call unpins it.
///
/// A repin happens on the first call after the counter reaches
/// [`REPIN_OPS`], so garbage this thread defers, and the epoch it holds
/// the others back at, lag by at most `REPIN_OPS` operations.
#[inline]
pub fn with_guard<R>(f: impl FnOnce(&Guard) -> R) -> R {
    let guard = Guard {
        pinned: true,
        _not_send: PhantomData,
    };
    LOCAL.with(|local| {
        if local.active.replace(true) {
            return f(&guard);
        }
        let _active = Active(local);
        let uses = local.uses.get();
        if uses >= REPIN_OPS {
            local.repin();
            local.uses.set(1);
        } else {
            // Checked here, not in `pin`: the warm path makes no call.
            if !local.pinned.get() {
                local.pin();
            }
            local.uses.set(uses + 1);
        }
        f(&guard)
    })
}

/// Parks the calling thread: drops its cached pin, runs a pass and hands
/// what is still unripe in its limbo list to the orphan list, for other
/// threads' passes to free. Call before a long-lived thread that performed
/// tree operations goes idle; [`backlog`] reads what is waiting where.
///
/// Inside a [`with_guard`] call the pin must stay, so `flush` only runs a
/// pass and the limbo list stays with the thread.
pub fn flush() {
    // A thread past its thread-local teardown has already orphaned its list.
    let _ = LOCAL.try_with(|local| {
        if local.active.get() {
            local.collect();
        } else {
            local.park();
        }
    });
}

/// The calling thread's slot id in the descriptor table, the crate's one
/// thread registry, or `None` once its epoch state is torn down. A thread
/// holds its id from its first use of the crate until it exits, and no
/// live thread shares it; ids are small (at most the largest number of
/// threads that ever held one at once), so they can index per-thread
/// counter stripes.
pub fn own_slot() -> Option<usize> {
    LOCAL.try_with(|l| l.slot).ok()
}

/// Returns a dummy guard that does **not** pin the thread.
///
/// # Safety
///
/// The caller must guarantee no other thread can access the data protected
/// by this guard (e.g. inside `Drop` of the owning structure). Deferred
/// functions run immediately.
pub unsafe fn unprotected() -> &'static Guard {
    struct SyncGuard(Guard);
    // SAFETY: the unprotected guard carries no thread-local state; its only
    // method behavior is "run deferred functions immediately".
    unsafe impl Sync for SyncGuard {}
    static UNPROTECTED: SyncGuard = SyncGuard(Guard {
        pinned: false,
        _not_send: PhantomData,
    });
    &UNPROTECTED.0
}

impl Guard {
    /// Defers `f` until no thread pinned at or before the current epoch
    /// remains pinned.
    ///
    /// # Safety
    ///
    /// `f` must be safe to call from another thread once the epoch gap has
    /// passed (the usual use is freeing memory unlinked before this call).
    pub unsafe fn defer_unchecked<F: FnOnce() + 'static>(&self, f: F) {
        if !self.pinned {
            f();
            return;
        }
        // SEQCST: the tag must be read after the caller's unlink (itself
        // SeqCst), so that `tag + 2` waits out every pin that saw it.
        let epoch = EPOCH.load(Ordering::SeqCst);
        // A pinned guard exists only inside `with_guard`, on a live LOCAL.
        LOCAL.with(|local| {
            let entry = (epoch, Deferred::new(f));
            local.limbo.borrow_mut().push_back(entry);
        });
    }

    /// Defers dropping the heap allocation behind `ptr`.
    ///
    /// # Safety
    ///
    /// `ptr` must have been allocated via `Owned`/`Box` and must be
    /// unreachable to threads that pin after this call; it must be retired
    /// exactly once.
    pub unsafe fn defer_destroy<T>(&self, ptr: Shared<'_, T>) {
        // SAFETY: callers pass a `Box<T>` allocation nothing else will use.
        unsafe fn dropper<T>(raw: usize) {
            drop(Box::from_raw(raw as *mut T));
        }
        // Erase `T` through a fn pointer so the deferred closure is
        // `'static` regardless of `T`'s bounds.
        let f: unsafe fn(usize) = dropper::<T>;
        let raw = ptr.as_raw() as usize;
        // SAFETY: the caller retires `ptr` exactly once, and the closure
        // runs only after the epoch gap.
        self.defer_unchecked(move || unsafe { f(raw) });
    }
}

/// The deferred-garbage backlog gauge, read by [`backlog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backlog {
    /// Deferred functions waiting in the calling thread's limbo list. It
    /// grows without bound only while some pinned thread holds the epoch
    /// back (the `epoch_lag` symptom).
    pub limbo: usize,
    /// Deferred functions waiting on the global orphan list, from every
    /// thread that exited or parked.
    pub orphaned: usize,
}

/// Reads the backlog gauge: lock-free and read-only.
pub fn backlog() -> Backlog {
    Backlog {
        limbo: LOCAL.try_with(|l| l.limbo.borrow().len()).unwrap_or(0),
        // SEQCST: the gauge's lock-free read; see `orphan`.
        orphaned: ORPHANED.load(Ordering::SeqCst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::thread;
    use std::time::{Duration, Instant};

    use crate::descriptor::gauge;

    /// Adds to a test counter; deferred closures do, on whichever thread's
    /// pass runs them.
    fn add(c: &AtomicUsize, n: usize) {
        c.fetch_add(n, Ordering::Relaxed);
    }

    fn count(c: &AtomicUsize) -> usize {
        c.load(Ordering::Relaxed)
    }

    /// Runs passes until `c` reaches `n`, then a few more, so that a
    /// closure run twice would show. The deadline matches the stall
    /// adversary's watchdog: a pin held by a concurrently running test,
    /// such as a parked owner, can stall the epoch that long.
    fn drive_to(c: &AtomicUsize, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while count(c) < n && Instant::now() < deadline {
            flush();
            thread::yield_now();
        }
        (0..8).for_each(|_| flush());
        assert_eq!(count(c), n);
    }

    /// Defers `f` under this thread's cached pin.
    fn defer(f: impl FnOnce() + 'static) {
        // SAFETY: test closures only touch `'static` counters.
        with_guard(|g| unsafe { g.defer_unchecked(f) });
    }

    #[test]
    fn deferred_destruction_runs() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        defer(|| add(&RAN, 1));
        drive_to(&RAN, 1);
    }

    #[test]
    fn pinned_peer_holds_the_closure_back() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let peer = thread::spawn(move || {
            with_guard(|_| {
                pinned_tx.send(()).unwrap();
                let _ = release_rx.recv();
            })
        });
        pinned_rx.recv().unwrap();
        defer(|| add(&RAN, 1));
        // Pinned passes first (the limbo list stays here), then parking
        // ones (it moves to the orphan list): neither may run it.
        (0..500).for_each(|_| with_guard(|_| flush()));
        (0..500).for_each(|_| flush());
        assert_eq!(count(&RAN), 0, "ran under a guard from the retire epoch");
        drop(release_tx);
        peer.join().unwrap();
        drive_to(&RAN, 1);
    }

    /// A thread pinned on a slot an exited thread gave back is scanned like
    /// any other: the slot's announce is the one registry entry it has.
    #[test]
    fn a_pinned_thread_on_a_reused_slot_holds_the_closure_back() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        // Another test's thread may take the freed slot first; try again.
        let (release_tx, peer) = (0..100)
            .find_map(|_| {
                let gone = thread::spawn(|| gauge::own_id().unwrap()).join().unwrap();
                let (pinned_tx, pinned_rx) = mpsc::channel();
                let (release_tx, release_rx) = mpsc::channel::<()>();
                let peer = thread::spawn(move || {
                    with_guard(|_| {
                        pinned_tx.send(gauge::own_id().unwrap()).unwrap();
                        let _ = release_rx.recv();
                    })
                });
                if pinned_rx.recv().unwrap() == gone {
                    return Some((release_tx, peer));
                }
                drop(release_tx);
                peer.join().unwrap();
                None
            })
            .expect("no thread ever reused the slot its predecessor gave back");
        defer(|| add(&RAN, 1));
        (0..1000).for_each(|_| flush());
        assert_eq!(count(&RAN), 0, "ran under a pin on a reused slot");
        drop(release_tx);
        peer.join().unwrap();
        drive_to(&RAN, 1);
    }

    #[test]
    fn exited_threads_garbage_is_adopted_once() {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let retire = || (0..100).for_each(|_| defer(|| add(&RUNS, 1)));
        thread::spawn(retire).join().unwrap();
        drive_to(&RUNS, 100);
    }

    /// Threads that exit while a peer holds the epoch back share orphan
    /// batches: one per unripe tag, not one per thread.
    #[test]
    fn short_lived_threads_share_orphan_batches() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        let n = if cfg!(miri) { 100 } else { 10_000 };
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let peer = thread::spawn(move || {
            with_guard(|_| {
                pinned_tx.send(()).unwrap();
                let _ = release_rx.recv();
            })
        });
        pinned_rx.recv().unwrap();
        // The pinned peer holds the epoch within one step of its own, so
        // the threads below retire under at most two tags; a third batch
        // is a ripe one the next pass runs.
        let mut most = 0;
        for _ in 0..n {
            thread::spawn(|| defer(|| add(&RAN, 1))).join().unwrap();
            flush();
            let batches = ORPHANS.lock().unwrap_or_else(PoisonError::into_inner).len();
            most = most.max(batches);
        }
        assert!(most <= 3, "{most} orphan batches behind one pinned peer");
        drop(release_tx);
        peer.join().unwrap();
        drive_to(&RAN, n);
    }

    /// A closure deferred under the cached pin survives the calls that
    /// repin across it and still runs.
    #[test]
    fn cached_pin_spans_calls_and_repins() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        defer(|| add(&RAN, 1));
        for _ in 0..(REPIN_OPS * 8) {
            with_guard(|_| ());
        }
        drive_to(&RAN, 1);
    }

    #[test]
    fn a_nested_call_returns_its_closures_value() {
        assert_eq!(with_guard(|_outer| with_guard(|_inner| 42)), 42);
    }

    #[test]
    fn closure_may_defer_again() {
        static INNER: AtomicUsize = AtomicUsize::new(0);
        defer(|| defer(|| add(&INNER, 1)));
        drive_to(&INNER, 1);
    }

    #[test]
    fn oversized_and_overaligned_closures_are_boxed() {
        #[repr(align(16))]
        struct Wide(usize);
        static SUM: AtomicUsize = AtomicUsize::new(0);
        let (big, wide) = ([1usize, 2, 3, 4], Wide(32));
        let oversized = move || add(&SUM, big.iter().sum());
        // `let whole = wide` captures the struct, not just its field.
        let overaligned = move || {
            let whole = wide;
            add(&SUM, whole.0);
        };
        assert!(mem::size_of_val(&oversized) > mem::size_of::<Inline>());
        assert!(mem::align_of_val(&overaligned) > mem::align_of::<Inline>());
        defer(oversized);
        defer(overaligned);
        drive_to(&SUM, 42);
    }

    #[test]
    fn two_retiring_threads_drop_everything_once() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted(#[allow(dead_code)] u64); // ALLOW: the payload only gives the value a size
        impl Drop for Counted {
            fn drop(&mut self) {
                add(&DROPS, 1);
            }
        }
        let n = if cfg!(miri) { 300 } else { 100_000 };
        let retire = move || {
            for i in 0..n {
                with_guard(|guard| {
                    let p = Owned::new(Counted(i as u64)).into_shared(guard);
                    // SAFETY: `p` was never published; it is retired once.
                    unsafe { guard.defer_destroy(p) };
                });
            }
        };
        let workers = [thread::spawn(retire), thread::spawn(retire)];
        workers.into_iter().for_each(|w| w.join().unwrap());
        drive_to(&DROPS, 2 * n);
    }

    #[test]
    fn nothing_inside_with_guard_unpins_it() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        let state = || LOCAL.with(|l| (l.uses.get(), l.pinned.get()));
        with_guard(|g| {
            // SAFETY: the closure only touches a `'static` counter.
            unsafe { g.defer_unchecked(|| add(&RAN, 1)) };
            let before = state();
            assert!(before.1, "with_guard runs its closure unpinned");
            // Enough nested calls to cross the repin cadence four times,
            // each followed by a pass.
            for _ in 0..4 * REPIN_OPS {
                with_guard(|_| ());
                flush();
            }
            assert_eq!(state(), before, "a nested call counted or unpinned");
            assert_eq!(count(&RAN), 0, "ran under the guard it was deferred in");
        });
        drive_to(&RAN, 1);
    }

    #[test]
    fn a_panic_inside_with_guard_leaves_the_state_whole() {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let active = || LOCAL.with(|l| l.active.get());
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            with_guard(|g| {
                // SAFETY: the closure only touches a `'static` counter.
                unsafe { g.defer_unchecked(|| add(&RUNS, 1)) };
                panic!("an operation panics under the guard");
            })
        }));
        assert!(caught.is_err());
        assert!(!active(), "the unwind left the with_guard marker set");
        // The next call is outermost again, and calls inside it still nest.
        with_guard(|_| {
            assert!(active());
            with_guard(|_| assert!(active()));
            assert!(active());
        });
        assert!(!active());
        // Parking still unpins and hands the closure off (or has run it).
        flush();
        assert_eq!(backlog().limbo, 0, "flush() kept the limbo list");
        assert!(!LOCAL.with(|l| l.pinned.get()), "flush() kept the pin");
        drive_to(&RUNS, 1);
    }
}

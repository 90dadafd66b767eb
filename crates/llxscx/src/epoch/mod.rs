//! Epoch-based memory reclamation: the collector, and the one per-thread
//! state that amortizes its pins.
//!
//! The papers assume a garbage collector; this module stands in for it with
//! DEBRA-style epochs (Brown, PODC 2015).
//!
//! * A global epoch counter advances only when every *pinned* thread has
//!   announced the current epoch.
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
//! same. Every pass checks one atomic and takes the orphan lock only when
//! something is there.

mod atomic;

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::mem::{self, MaybeUninit};
use std::ptr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

pub use atomic::{Atomic, CompareExchangeError, Owned, Pointer, Shared};

/// Operations between repins. A repin runs a pass, so this is also the
/// collection cadence: the one reclamation interval of the crate.
pub const REPIN_OPS: u32 = 64;

/// A participant's announced epoch while it is not pinned.
const UNPINNED: usize = usize::MAX;

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

struct Global {
    epoch: AtomicUsize,
    /// Every live thread's announced epoch (or [`UNPINNED`]); an entry
    /// whose thread exited is the registry's last reference.
    participants: Mutex<Vec<Arc<AtomicUsize>>>,
    /// Limbo lists whose owners exited or parked, each sealed under its
    /// newest tag.
    orphans: Mutex<Vec<(usize, Limbo)>>,
    /// Closures in `orphans`, updated under its lock; lets a pass skip the
    /// lock while nothing is orphaned.
    orphaned: AtomicUsize,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        epoch: AtomicUsize::new(0),
        participants: Mutex::new(Vec::new()),
        orphans: Mutex::new(Vec::new()),
        orphaned: AtomicUsize::new(0),
    })
}

impl Global {
    /// Advances the global epoch if every pinned participant is current,
    /// pruning the registry only when the scan met an exited thread.
    fn try_advance(&self) {
        // SEQCST: the scan below must not start before this read; the CAS
        // then fails if anyone advanced past `cur` in between.
        let cur = self.epoch.load(Ordering::SeqCst);
        let Ok(mut parts) = self.participants.try_lock() else {
            return; // someone else is advancing
        };
        let mut exited = false;
        for p in parts.iter() {
            // SEQCST: the other half of `Local::pin`'s store/re-load
            // handshake: either this load sees the announce, or the pinning
            // thread's re-load sees an epoch past `cur` and re-announces.
            let e = p.load(Ordering::SeqCst);
            if e == UNPINNED {
                exited |= Arc::strong_count(p) == 1;
            } else if e != cur {
                return;
            }
        }
        if exited {
            parts.retain(|p| Arc::strong_count(p) > 1);
        }
        let epoch = &self.epoch;
        // SEQCST: the advance must follow the scan in the one total order
        // the handshake argument is written in; a failed CAS means another
        // thread advanced first, which is just as good.
        let _ = epoch.compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// Seals `limbo` under its newest tag and leaves it for any thread's
    /// pass to run.
    fn orphan(&self, limbo: Limbo) {
        let Some(&(newest, _)) = limbo.back() else {
            return;
        };
        // Closures run outside the lock, so a poisoned list is still whole.
        let mut orphans = self.orphans.lock().unwrap_or_else(PoisonError::into_inner);
        // SEQCST: the gauge is a hint read without the lock; SC makes a
        // pass that follows this hand-off in the total order see it.
        self.orphaned.fetch_add(limbo.len(), Ordering::SeqCst);
        orphans.push((newest, limbo));
    }

    /// Runs every orphaned batch whose newest tag is two epochs behind
    /// `epoch`.
    fn collect_orphans(&self, epoch: usize) {
        let Ok(mut orphans) = self.orphans.try_lock() else {
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
        self.orphaned.fetch_sub(n, Ordering::SeqCst);
        drop(orphans);
        for (_, d) in ripe.into_iter().flatten() {
            d.run();
        }
    }
}

/// All of one thread's reclamation state.
struct Local {
    /// This thread's announced epoch, shared with the registry.
    epoch: Arc<AtomicUsize>,
    /// Whether this thread holds its cached pin.
    pinned: Cell<bool>,
    /// Whether a [`with_guard`] call is running on this thread; calls made
    /// inside it ride its pin.
    active: Cell<bool>,
    /// Operations since the last repin, counted in `with_guard` weights.
    uses: Cell<u32>,
    /// What this thread retired and has not yet run.
    limbo: RefCell<Limbo>,
}

thread_local! {
    static LOCAL: Local = {
        let epoch = Arc::new(AtomicUsize::new(UNPINNED));
        global()
            .participants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&epoch));
        Local {
            epoch,
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
        let g = global();
        // Announce, then re-check: an advance between the load and the
        // store would otherwise go unnoticed by both sides.
        loop {
            // SEQCST: the epoch to announce, in the handshake's total order.
            let e = g.epoch.load(Ordering::SeqCst);
            // SEQCST: the announce must be ordered before the re-load that
            // follows it; only SC forbids that store→load reordering.
            self.epoch.store(e, Ordering::SeqCst);
            // SEQCST: pairs with `try_advance`'s scan: if this still reads
            // `e`, any advance past `e` comes later and its scan sees `e`.
            if g.epoch.load(Ordering::SeqCst) == e {
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
        global().orphan(self.limbo.take());
    }

    /// A pass: advance the epoch if possible, run this thread's ripe
    /// closures, and look at the orphan list only if it is non-empty.
    fn collect(&self) {
        let g = global();
        g.try_advance();
        // SEQCST: read after this thread's own advance attempt, in the
        // order the `tag + 2 <= epoch` rule is argued in.
        let epoch = g.epoch.load(Ordering::SeqCst);
        // One entry per borrow: a closure may itself defer, or repin into
        // a nested pass.
        while let Some(d) = self.pop_ripe(epoch) {
            d.run();
        }
        // SEQCST: the gauge's lock-free read; see `Global::orphan`.
        if g.orphaned.load(Ordering::SeqCst) != 0 {
            g.collect_orphans(epoch);
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
        // The thread exits: its retirements must survive it.
        global().orphan(self.limbo.take());
        self.unpin();
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
/// call's pin and does not count.
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
/// code performs rides it — but still advances the cadence by `n`, so a
/// weighted caller crosses the repin boundary as often *per operation* as
/// an unweighted one. The precise guarantee: a repin happens on the first
/// call after the counter reaches [`REPIN_OPS`], so the reclamation lag is
/// bounded by `REPIN_OPS` operations *plus one batch* (garbage deferred
/// inside a batch of `n > REPIN_OPS` operations waits for that batch to
/// end, and the post-repin counter saturates at `REPIN_OPS`, making the
/// next batch repin again immediately).
#[inline]
pub fn with_guard_weighted<R>(weight: u32, f: impl FnOnce(&Guard) -> R) -> R {
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
            local.uses.set(weight.min(REPIN_OPS));
        } else {
            // Checked here, not in `pin`: the warm path makes no call.
            if !local.pinned.get() {
                local.pin();
            }
            local.uses.set(uses.saturating_add(weight));
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
        let epoch = global().epoch.load(Ordering::SeqCst);
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
        // SEQCST: the gauge's lock-free read; see `Global::orphan`.
        orphaned: global().orphaned.load(Ordering::SeqCst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::thread;

    /// Adds to a test counter; deferred closures do, on whichever thread's
    /// pass runs them.
    fn add(c: &AtomicUsize, n: usize) {
        c.fetch_add(n, Ordering::Relaxed);
    }

    fn count(c: &AtomicUsize) -> usize {
        c.load(Ordering::Relaxed)
    }

    /// Runs passes until `c` reaches `n`, within a generous bound (a pin
    /// held by a concurrently running test can stall the epoch), then a few
    /// more, so that a closure run twice would show.
    fn drive_to(c: &AtomicUsize, n: usize) {
        for _ in 0..1_000_000 {
            if count(c) >= n {
                break;
            }
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

    #[test]
    fn exited_threads_garbage_is_adopted_once() {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let retire = || (0..100).for_each(|_| defer(|| add(&RUNS, 1)));
        thread::spawn(retire).join().unwrap();
        drive_to(&RUNS, 100);
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

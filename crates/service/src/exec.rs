//! A minimal hand-rolled executor: [`block_on`] for synchronous callers
//! and a fixed-size [`Pool`] of worker loops for driving many client
//! futures concurrently. No `futures` crate, no `tokio` — wakers are
//! built from raw vtables over `Arc`s, which is all the service's
//! response futures need.
//!
//! The design is the textbook two-piece split:
//!
//! * [`block_on`] parks the calling thread between polls; the waker
//!   unparks it. One mutex+condvar pair per call, no global state.
//! * [`Pool`] keeps a shared injector queue of tasks. A task's waker
//!   re-enqueues the task; workers pop and poll. A task is a future
//!   pinned in a box behind a mutex, so a wake that races the poll
//!   simply re-queues the task and the next worker serializes on the
//!   task lock — no lost wakeup, at worst one redundant poll.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

// --- block_on --------------------------------------------------------------

/// The parking primitive behind [`block_on`]: a boolean token under a
/// mutex. `unpark` before `park` leaves the token set, so a wake that
/// lands between the poll returning `Pending` and the thread actually
/// parking is never lost.
struct Parker {
    woken: Mutex<bool>,
    cvar: Condvar,
}

impl Parker {
    fn new() -> Parker {
        Parker {
            woken: Mutex::new(false),
            cvar: Condvar::new(),
        }
    }

    fn park(&self) {
        let mut woken = self.woken.lock().unwrap();
        while !*woken {
            woken = self.cvar.wait(woken).unwrap();
        }
        *woken = false;
    }

    fn unpark(&self) {
        *self.woken.lock().unwrap() = true;
        self.cvar.notify_one();
    }
}

/// Builds a [`Waker`] whose wake unparks `parker`. The vtable manages
/// the `Arc`'s strong count by hand: `clone` increments, `wake`
/// consumes, `wake_by_ref` borrows, `drop` decrements.
fn parker_waker(parker: Arc<Parker>) -> Waker {
    // SAFETY: vtable contract — `data` is an `Arc<Parker>` from `Arc::into_raw`.
    unsafe fn clone(data: *const ()) -> RawWaker {
        // SAFETY: `data` came from `Arc::into_raw` and the count is
        // incremented before a second raw handle exists.
        unsafe { Arc::increment_strong_count(data as *const Parker) };
        RawWaker::new(data, &VTABLE)
    }
    // SAFETY: vtable contract — called at most once with the waker's handle.
    unsafe fn wake(data: *const ()) {
        // SAFETY: consumes the handle this waker owned.
        unsafe { Arc::from_raw(data as *const Parker) }.unpark();
    }
    // SAFETY: vtable contract — `data` stays valid for the call's duration.
    unsafe fn wake_by_ref(data: *const ()) {
        // SAFETY: borrows without touching the count.
        unsafe { &*(data as *const Parker) }.unpark();
    }
    // SAFETY: vtable contract — the waker's final use of `data`.
    unsafe fn drop_raw(data: *const ()) {
        // SAFETY: releases the handle this waker owned.
        drop(unsafe { Arc::from_raw(data as *const Parker) });
    }
    static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, wake, wake_by_ref, drop_raw);
    let raw = RawWaker::new(Arc::into_raw(parker) as *const (), &VTABLE);
    // SAFETY: the vtable above upholds the RawWaker contract (clone
    // increments, wake/drop consume exactly one count each).
    unsafe { Waker::from_raw(raw) }
}

/// Drives a future to completion on the calling thread, parking between
/// polls. This is the sync↔async bridge the service's clients use: a
/// worker thread `block_on`s its response futures, an async task awaits
/// them directly.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let parker = Arc::new(Parker::new());
    let waker = parker_waker(parker.clone());
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => parker.park(),
        }
    }
}

/// A waker that does nothing — what the deterministic test batteries
/// poll with when they want to *observe* readiness without any
/// scheduling side effects (see [`poll_now`]).
pub fn noop_waker() -> Waker {
    fn raw() -> RawWaker {
        // SAFETY: carries no data; nothing to uphold.
        unsafe fn clone(_: *const ()) -> RawWaker {
            raw()
        }
        // SAFETY: carries no data; nothing to uphold.
        unsafe fn nop(_: *const ()) {}
        static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, nop, nop, nop);
        RawWaker::new(std::ptr::null(), &VTABLE)
    }
    // SAFETY: every vtable entry is a no-op over a null data pointer.
    unsafe { Waker::from_raw(raw()) }
}

/// Polls an `Unpin` future exactly once with a [`noop_waker`]. The
/// deterministic batteries use this to assert "Pending before the flush,
/// Ready after" without threads, sleeps or real wakers.
pub fn poll_now<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
    let waker = noop_waker();
    let mut cx = Context::from_waker(&waker);
    Pin::new(fut).poll(&mut cx)
}

// --- thread pool -----------------------------------------------------------

/// A spawned task: the future, pinned and boxed, behind a mutex. `None`
/// once complete — a stale wake of a finished task re-enqueues it, the
/// polling worker sees `None` and drops it.
struct Task {
    fut: Mutex<Option<Pin<Box<dyn Future<Output = ()> + Send>>>>,
    pool: Weak<PoolShared>,
}

impl Task {
    /// Re-enqueues this task on its pool (the wake path). A task whose
    /// pool is gone is simply dropped — nothing left to run it.
    fn schedule(self: &Arc<Task>) {
        if let Some(pool) = self.pool.upgrade() {
            pool.push(self.clone());
        }
    }
}

/// Builds a [`Waker`] that re-enqueues `task`; same manual `Arc`
/// counting as the parker waker.
fn task_waker(task: Arc<Task>) -> Waker {
    // SAFETY: vtable contract — `data` is an `Arc<Task>` from `Arc::into_raw`.
    unsafe fn clone(data: *const ()) -> RawWaker {
        // SAFETY: as in `parker_waker`.
        unsafe { Arc::increment_strong_count(data as *const Task) };
        RawWaker::new(data, &VTABLE)
    }
    // SAFETY: vtable contract — called at most once with the waker's handle.
    unsafe fn wake(data: *const ()) {
        // SAFETY: consumes the waker's handle.
        unsafe { Arc::from_raw(data as *const Task) }.schedule();
    }
    // SAFETY: vtable contract — `data` stays valid for the call's duration.
    unsafe fn wake_by_ref(data: *const ()) {
        // SAFETY: a borrowed Arc view — ManuallyDrop keeps the count
        // untouched; `schedule` clones internally.
        let task = unsafe { std::mem::ManuallyDrop::new(Arc::from_raw(data as *const Task)) };
        task.schedule();
    }
    // SAFETY: vtable contract — the waker's final use of `data`.
    unsafe fn drop_raw(data: *const ()) {
        // SAFETY: releases the waker's handle.
        drop(unsafe { Arc::from_raw(data as *const Task) });
    }
    static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, wake, wake_by_ref, drop_raw);
    let raw = RawWaker::new(Arc::into_raw(task) as *const (), &VTABLE);
    // SAFETY: the vtable upholds the RawWaker contract.
    unsafe { Waker::from_raw(raw) }
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    cvar: Condvar,
}

struct PoolQueue {
    ready: VecDeque<Arc<Task>>,
    shutdown: bool,
}

impl PoolShared {
    fn push(&self, task: Arc<Task>) {
        let mut q = self.queue.lock().unwrap();
        // Tasks woken after shutdown are dropped, not run: the workers
        // are already draining out.
        if !q.shutdown {
            q.ready.push_back(task);
            self.cvar.notify_one();
        }
    }
}

/// A fixed-size thread pool of worker loops: `spawn` tasks, workers poll
/// them, wakes re-enqueue. Dropping the pool stops the workers after the
/// queue drains of *ready* tasks; tasks still pending (waiting on a
/// waker that never fires) are dropped with the pool, so callers that
/// need completion join through a channel — the service example awaits a
/// oneshot per task before letting the pool go.
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Starts `workers` worker threads (at least one).
    pub fn new(workers: usize) -> Pool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                ready: VecDeque::new(),
                shutdown: false,
            }),
            cvar: Condvar::new(),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Pool { shared, workers }
    }

    /// Spawns a future onto the pool. The future runs to completion on
    /// whatever workers its wakes land on.
    pub fn spawn(&self, fut: impl Future<Output = ()> + Send + 'static) {
        let task = Arc::new(Task {
            fut: Mutex::new(Some(Box::pin(fut))),
            pool: Arc::downgrade(&self.shared),
        });
        self.shared.push(task);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.cvar.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(t) = q.ready.pop_front() {
                    break t;
                }
                if q.shutdown {
                    return;
                }
                q = shared.cvar.wait(q).unwrap();
            }
        };
        let waker = task_waker(task.clone());
        let mut cx = Context::from_waker(&waker);
        let mut slot = task.fut.lock().unwrap();
        if let Some(fut) = slot.as_mut() {
            if fut.as_mut().poll(&mut cx).is_ready() {
                *slot = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn block_on_ready_future() {
        assert_eq!(block_on(std::future::ready(42)), 42);
    }

    #[test]
    fn block_on_parks_until_cross_thread_wake() {
        let (tx, rx) = crate::oneshot::channel::<u64>();
        let h = std::thread::spawn(move || {
            // No timing assumption: the main thread may or may not have
            // parked yet; the parker token absorbs either order.
            tx.send(7);
        });
        assert_eq!(block_on(rx), 7);
        h.join().unwrap();
    }

    #[test]
    fn poll_now_observes_pending_then_ready() {
        let (tx, mut rx) = crate::oneshot::channel::<u64>();
        assert!(poll_now(&mut rx).is_pending());
        tx.send(9);
        assert_eq!(poll_now(&mut rx), Poll::Ready(9));
    }

    #[test]
    fn pool_runs_spawned_tasks_to_completion() {
        let pool = Pool::new(3);
        let done = Arc::new(AtomicUsize::new(0));
        let mut receivers = Vec::new();
        for i in 0..32u64 {
            let (tx, rx) = crate::oneshot::channel::<u64>();
            receivers.push(rx);
            let done = done.clone();
            pool.spawn(async move {
                done.fetch_add(1, Ordering::Relaxed);
                tx.send(i * 2);
            });
        }
        for (i, rx) in receivers.into_iter().enumerate() {
            assert_eq!(block_on(rx), i as u64 * 2);
        }
        assert_eq!(done.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn pool_tasks_await_each_other_through_oneshots() {
        // A chain of tasks, each awaiting the previous task's oneshot:
        // exercises cross-task wakes (task waker re-enqueueing) rather
        // than only run-to-completion bodies.
        let pool = Pool::new(2);
        let (head_tx, head_rx) = crate::oneshot::channel::<u64>();
        let mut tail = head_rx;
        for _ in 0..16 {
            let (tx, rx) = crate::oneshot::channel::<u64>();
            let upstream = tail;
            pool.spawn(async move {
                tx.send(upstream.await + 1);
            });
            tail = rx;
        }
        // Every task in the chain is parked on its upstream before the
        // head value is released.
        head_tx.send(1);
        assert_eq!(block_on(tail), 17);
    }
}

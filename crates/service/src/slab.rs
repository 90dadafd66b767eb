//! The crate's one park/wake implementation: a value published once by a
//! producer and read by any number of consumers, each either a blocked
//! thread or an async task.
//!
//! [`BatchedService`](crate::BatchedService) answers a whole flush
//! through one `Slab<Vec<Option<u64>>>` shared by that flush's response
//! futures; [`oneshot`](crate::oneshot) is a one-slot slab. The value sits
//! in a [`OnceLock`], so once it is there every read is one acquire load
//! and no lock. The waiter registry beside it is touched only by a
//! consumer that found the slab unsettled and by the one settling call:
//!
//! * a thread parks on the condvar after re-checking the value under the
//!   registry lock, and settling notifies only if a thread is parked;
//! * a task leaves its waker in the registry after the same re-check, and
//!   settling wakes every registered waker, outside the lock.
//!
//! Settling writes the value before it takes the registry lock, and a
//! consumer re-checks the value while holding it, so either the consumer
//! sees the value or settling sees the consumer: no wake-up is lost.
//!
//! A slab can also be *abandoned* — settled with no value — when its
//! producer can no longer deliver one (the flusher panicked, a oneshot
//! sender was dropped). Consumers then get [`Abandoned`] instead of
//! blocking forever. The first settling call wins; later ones do nothing.

use std::sync::{Condvar, Mutex, OnceLock};
use std::task::{Context, Poll, Waker};

/// The slab was settled without a value: its producer is gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Abandoned;

/// Consumers that found the slab unsettled and are waiting for it.
#[derive(Default)]
struct Waiters {
    /// Threads blocked in [`Slab::wait`].
    parked: usize,
    /// Tasks that polled while the slab was unsettled.
    wakers: Vec<Waker>,
}

/// A publish-once value with blocking and async consumers.
pub(crate) struct Slab<T> {
    /// `Some(value)` once published, `None` once abandoned.
    value: OnceLock<Option<T>>,
    waiters: Mutex<Waiters>,
    cvar: Condvar,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Slab<T> {
        Slab {
            value: OnceLock::new(),
            waiters: Mutex::new(Waiters::default()),
            cvar: Condvar::new(),
        }
    }

    /// Publishes `value` and wakes every waiting consumer.
    pub(crate) fn publish(&self, value: T) {
        self.settle(Some(value));
    }

    /// Settles the slab with no value, waking every waiting consumer.
    pub(crate) fn abandon(&self) {
        self.settle(None);
    }

    fn settle(&self, outcome: Option<T>) {
        if self.value.set(outcome).is_err() {
            return; // already settled: the first call wins
        }
        let (parked, wakers) = {
            let mut w = self.waiters.lock().expect("slab waiter lock poisoned");
            (w.parked > 0, std::mem::take(&mut w.wakers))
        };
        // Wake outside the lock: a woken thread or task runs at once (on
        // one CPU, often before this thread) and would block on it. A
        // thread counted in `parked` is inside `cvar.wait` or re-checks
        // the value, which is set, before it waits again.
        if parked {
            self.cvar.notify_all();
        }
        for waker in wakers {
            waker.wake();
        }
    }

    /// The outcome if the slab is settled, without blocking or locking.
    pub(crate) fn get(&self) -> Option<Result<&T, Abandoned>> {
        self.value.get().map(|v| v.as_ref().ok_or(Abandoned))
    }

    /// Blocks the calling thread until the slab is settled.
    pub(crate) fn wait(&self) -> Result<&T, Abandoned> {
        if let Some(outcome) = self.get() {
            return outcome;
        }
        let mut w = self.waiters.lock().expect("slab waiter lock poisoned");
        loop {
            if let Some(outcome) = self.get() {
                return outcome;
            }
            w.parked += 1;
            w = self.cvar.wait(w).expect("slab waiter lock poisoned");
            w.parked -= 1;
        }
    }

    /// The outcome if settled; otherwise registers `cx`'s waker to be
    /// woken when it is. A task that re-polls with the same waker is
    /// registered once.
    pub(crate) fn poll(&self, cx: &mut Context<'_>) -> Poll<Result<&T, Abandoned>> {
        if let Some(outcome) = self.get() {
            return Poll::Ready(outcome);
        }
        let mut w = self.waiters.lock().expect("slab waiter lock poisoned");
        if let Some(outcome) = self.get() {
            return Poll::Ready(outcome);
        }
        if !w.wakers.iter().any(|known| known.will_wake(cx.waker())) {
            w.wakers.push(cx.waker().clone());
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{block_on, noop_waker, Pool};
    use std::sync::Arc;

    #[test]
    fn publish_then_get_wait_and_poll_read_without_parking() {
        let slab = Slab::new();
        assert_eq!(slab.get(), None);
        slab.publish(vec![Some(1u64), None]);
        assert_eq!(slab.get(), Some(Ok(&vec![Some(1), None])));
        assert_eq!(slab.wait(), Ok(&vec![Some(1), None]));
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        assert_eq!(slab.poll(&mut cx), Poll::Ready(Ok(&vec![Some(1), None])));
    }

    #[test]
    fn first_settle_wins() {
        let slab = Slab::new();
        slab.publish(5u64);
        slab.abandon();
        slab.publish(6);
        assert_eq!(slab.get(), Some(Ok(&5)));
        let gone = Slab::<u64>::new();
        gone.abandon();
        gone.publish(7);
        assert_eq!(gone.get(), Some(Err(Abandoned)));
    }

    #[test]
    fn parked_threads_wake_on_cross_thread_publish() {
        let slab = Arc::new(Slab::new());
        let readers: Vec<_> = (0..3)
            .map(|i| {
                let slab = slab.clone();
                std::thread::spawn(move || slab.wait().map(|v: &Vec<u64>| v[i]))
            })
            .collect();
        // Wait until every reader has parked (state, not time), so the
        // publish must go through the notify path.
        while slab.waiters.lock().unwrap().parked < 3 {
            std::thread::yield_now();
        }
        slab.publish(vec![10, 11, 12]);
        for (i, r) in readers.into_iter().enumerate() {
            assert_eq!(r.join().unwrap(), Ok(10 + i as u64));
        }
    }

    #[test]
    fn every_registered_task_wakes_and_reads_its_index() {
        let slab = Arc::new(Slab::new());
        let pool = Pool::new(2);
        let mut done = Vec::new();
        for i in 0..8 {
            let slab = slab.clone();
            let (tx, rx) = crate::oneshot::channel();
            done.push(rx);
            pool.spawn(async move {
                let v = std::future::poll_fn(|cx| slab.poll(cx)).await;
                tx.send(v.map(|v: &Vec<u64>| v[i]));
            });
        }
        while slab.waiters.lock().unwrap().wakers.len() < 8 {
            std::thread::yield_now();
        }
        slab.publish((100..108).collect());
        for (i, rx) in done.into_iter().enumerate() {
            assert_eq!(block_on(rx), Ok(100 + i as u64));
        }
    }

    #[test]
    fn abandon_wakes_parked_threads_and_tasks() {
        let slab = Arc::new(Slab::<u64>::new());
        let thread = {
            let slab = slab.clone();
            std::thread::spawn(move || slab.wait().copied())
        };
        let pool = Pool::new(1);
        let (tx, rx) = crate::oneshot::channel();
        {
            let slab = slab.clone();
            pool.spawn(async move {
                tx.send(std::future::poll_fn(|cx| slab.poll(cx)).await.copied());
            });
        }
        loop {
            let w = slab.waiters.lock().unwrap();
            if w.parked == 1 && w.wakers.len() == 1 {
                break;
            }
            drop(w);
            std::thread::yield_now();
        }
        slab.abandon();
        assert_eq!(thread.join().unwrap(), Err(Abandoned));
        assert_eq!(block_on(rx), Err(Abandoned));
    }
}

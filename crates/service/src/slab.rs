//! The crate's one park/wake implementation: a value published once by a
//! producer and read by any number of consumers.
//!
//! [`BatchedService`](crate::BatchedService) answers a whole flush
//! through one `Slab<Vec<Option<u64>>>` shared by that flush's response
//! futures. The value sits in a [`OnceLock`], so once it is there every
//! read is one acquire load and no lock. The waker list beside it is
//! touched only by a consumer that found the slab unsettled and by the
//! one settling call: a consumer leaves its waker in the list after
//! re-checking the value under the list's lock, and settling wakes every
//! registered waker, outside the lock. A blocked thread is one such
//! consumer: [`Slab::wait`] polls through [`exec::block_on`], whose
//! waker unparks the thread.
//!
//! Settling writes the value before it takes the list lock, and a
//! consumer re-checks the value while holding it, so either the consumer
//! sees the value or settling sees the consumer's waker: no wake-up is
//! lost.
//!
//! A slab can also be *abandoned* — settled with no value — when its
//! producer can no longer deliver one (the flusher panicked). Consumers
//! then get [`Abandoned`] instead of blocking forever. The first settling
//! call wins; later ones do nothing.

use std::sync::{Mutex, OnceLock};
use std::task::{Context, Poll, Waker};

use crate::exec;

/// The slab was settled without a value: its producer is gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Abandoned;

/// A publish-once value with blocking and async consumers.
pub(crate) struct Slab<T> {
    /// `Some(value)` once published, `None` once abandoned.
    value: OnceLock<Option<T>>,
    /// Consumers that polled while the slab was unsettled.
    wakers: Mutex<Vec<Waker>>,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Slab<T> {
        Slab {
            value: OnceLock::new(),
            wakers: Mutex::new(Vec::new()),
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
        let wakers = std::mem::take(&mut *self.wakers.lock().expect("slab waker lock poisoned"));
        // Wake outside the lock: a woken consumer runs at once (on one
        // CPU, often before this thread) and would block on it.
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
        match self.get() {
            Some(outcome) => outcome,
            None => exec::block_on(std::future::poll_fn(|cx| self.poll(cx))),
        }
    }

    /// The outcome if settled; otherwise registers `cx`'s waker to be
    /// woken when it is. A consumer that re-polls with the same waker is
    /// registered once.
    pub(crate) fn poll(&self, cx: &mut Context<'_>) -> Poll<Result<&T, Abandoned>> {
        if let Some(outcome) = self.get() {
            return Poll::Ready(outcome);
        }
        let mut wakers = self.wakers.lock().expect("slab waker lock poisoned");
        if let Some(outcome) = self.get() {
            return Poll::Ready(outcome);
        }
        if !wakers.iter().any(|known| known.will_wake(cx.waker())) {
            wakers.push(cx.waker().clone());
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::task::Wake;

    /// A task's waker: counts its wakes.
    #[derive(Default)]
    struct WakeCount(Mutex<usize>);

    impl Wake for WakeCount {
        fn wake(self: Arc<Self>) {
            *self.0.lock().unwrap() += 1;
        }
    }

    impl WakeCount {
        fn count(&self) -> usize {
            *self.0.lock().unwrap()
        }
    }

    #[test]
    fn publish_then_get_wait_and_poll_read_without_parking() {
        let slab = Slab::new();
        assert_eq!(slab.get(), None);
        slab.publish(vec![Some(1u64), None]);
        assert_eq!(slab.get(), Some(Ok(&vec![Some(1), None])));
        assert_eq!(slab.wait(), Ok(&vec![Some(1), None]));
        let mut cx = Context::from_waker(Waker::noop());
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

    /// Spins (on state, not time) until `n` consumers have registered.
    fn until_registered<T>(slab: &Slab<T>, n: usize) {
        while slab.wakers.lock().unwrap().len() < n {
            std::thread::yield_now();
        }
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
        until_registered(&slab, 3);
        // Spurious unparks only make a reader re-poll with the waker it
        // already registered, then park again.
        for r in &readers {
            r.thread().unpark();
            r.thread().unpark();
        }
        assert_eq!(slab.wakers.lock().unwrap().len(), 3);
        assert!(readers.iter().all(|r| !r.is_finished()));
        let publisher = {
            let slab = slab.clone();
            std::thread::spawn(move || slab.publish(vec![10, 11, 12]))
        };
        publisher.join().unwrap();
        for (i, r) in readers.into_iter().enumerate() {
            assert_eq!(r.join().unwrap(), Ok(10 + i as u64));
        }
    }

    #[test]
    fn every_registered_task_wakes_and_reads_its_index() {
        let slab = Slab::new();
        let tasks: Vec<_> = (0..8).map(|_| Arc::new(WakeCount::default())).collect();
        for task in &tasks {
            let waker = Waker::from(task.clone());
            let mut cx = Context::from_waker(&waker);
            assert!(slab.poll(&mut cx).is_pending());
            // A re-poll with the same waker is not registered twice.
            assert!(slab.poll(&mut cx).is_pending());
        }
        assert_eq!(slab.wakers.lock().unwrap().len(), 8);
        slab.publish((100..108).collect::<Vec<u64>>());
        assert!(slab.wakers.lock().unwrap().is_empty());
        for (i, task) in tasks.iter().enumerate() {
            assert_eq!(task.count(), 1, "task {i} woken once");
            let waker = Waker::from(task.clone());
            let polled = slab.poll(&mut Context::from_waker(&waker));
            assert_eq!(
                polled.map(|v| v.map(|v| v[i])),
                Poll::Ready(Ok(100 + i as u64))
            );
        }
        assert!(tasks.iter().all(|task| task.count() == 1));
    }

    #[test]
    fn every_waiting_thread_wakes_and_reads_its_index() {
        let slab = Arc::new(Slab::new());
        let readers: Vec<_> = (0..8)
            .map(|i| {
                let slab = slab.clone();
                std::thread::spawn(move || slab.wait().map(|v: &Vec<u64>| v[i]))
            })
            .collect();
        // Publish only once every reader is blocked in `wait`, so each
        // must be woken through its registered waker.
        until_registered(&slab, 8);
        slab.publish((100..108).collect());
        for (i, r) in readers.into_iter().enumerate() {
            assert_eq!(r.join().unwrap(), Ok(100 + i as u64));
        }
    }

    #[test]
    fn abandon_wakes_waiting_threads() {
        let slab = Arc::new(Slab::<u64>::new());
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let slab = slab.clone();
                std::thread::spawn(move || slab.wait().copied())
            })
            .collect();
        until_registered(&slab, 2);
        slab.abandon();
        for r in readers {
            assert_eq!(r.join().unwrap(), Err(Abandoned));
        }
    }

    #[test]
    fn abandon_wakes_parked_threads_and_tasks() {
        let slab = Arc::new(Slab::<u64>::new());
        let thread = {
            let slab = slab.clone();
            std::thread::spawn(move || slab.wait().copied())
        };
        let task = Arc::new(WakeCount::default());
        let waker = Waker::from(task.clone());
        assert!(slab.poll(&mut Context::from_waker(&waker)).is_pending());
        until_registered(&slab, 2);
        slab.abandon();
        assert_eq!(thread.join().unwrap(), Err(Abandoned));
        assert_eq!(task.count(), 1);
        assert_eq!(
            slab.poll(&mut Context::from_waker(&waker)),
            Poll::Ready(Err(Abandoned))
        );
    }
}

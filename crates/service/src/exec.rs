//! The two ways to run a future without an async runtime: [`block_on`]
//! drives one to completion on the calling thread, and [`poll_now`]
//! polls one exactly once. Both use `std` wakers only: [`block_on`]'s is
//! an `Arc` through [`std::task::Wake`], [`poll_now`]'s is
//! [`Waker::noop`].

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

/// Wakes the thread blocked in [`block_on`] by unparking it.
struct Unparker(Thread);

impl Wake for Unparker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives a future to completion on the calling thread, parking between
/// polls. This is the sync↔async bridge: a thread `block_on`s a response
/// future, and [`ResponseFuture::wait`](crate::ResponseFuture::wait)
/// blocks through it. A wake that lands between a `Pending` poll and the
/// park leaves the thread's unpark token set, so it is never lost; a
/// spurious return from `park` costs one redundant poll.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let waker = Waker::from(Arc::new(Unparker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => std::thread::park(),
        }
    }
}

/// Polls an `Unpin` future exactly once with a no-op waker. The
/// deterministic batteries use this to assert "Pending before the flush,
/// Ready after" without threads, sleeps or real wakers.
pub fn poll_now<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
    Pin::new(fut).poll(&mut Context::from_waker(Waker::noop()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::Slab;

    #[test]
    fn block_on_ready_future() {
        assert_eq!(block_on(std::future::ready(42)), 42);
    }

    #[test]
    fn block_on_repolls_a_future_that_wakes_itself() {
        // Each wake lands before the park it should end: the unpark
        // token must carry it, or this never returns.
        let mut polls = 0;
        let out = block_on(std::future::poll_fn(|cx| {
            polls += 1;
            if polls < 4 {
                cx.waker().wake_by_ref();
                Poll::Pending
            } else {
                Poll::Ready(polls)
            }
        }));
        assert_eq!(out, 4);
    }

    #[test]
    fn block_on_parks_until_cross_thread_wake() {
        let slab = Arc::new(Slab::new());
        let h = {
            let slab = slab.clone();
            // No timing assumption: the main thread may or may not have
            // parked yet; the unpark token absorbs either order.
            std::thread::spawn(move || slab.publish(7u64))
        };
        assert_eq!(block_on(std::future::poll_fn(|cx| slab.poll(cx))), Ok(&7));
        h.join().unwrap();
    }

    #[test]
    fn poll_now_observes_pending_then_ready() {
        let slab = Slab::new();
        let mut fut = std::future::poll_fn(|cx| slab.poll(cx).map(|v| v.copied()));
        assert!(poll_now(&mut fut).is_pending());
        slab.publish(9u64);
        assert_eq!(poll_now(&mut fut), Poll::Ready(Ok(9)));
    }
}

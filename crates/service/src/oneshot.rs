//! A one-shot response slot with both a sync and an async receive side.
//!
//! A oneshot is a one-slot completion slab: the sender publishes once,
//! and the receiver either blocks in [`Receiver::wait`] or awaits the
//! [`Receiver`] future, on the same park/wake code the service's
//! per-flush completion slabs use. Exactly one value crosses, exactly
//! once. A sender dropped without sending abandons the slot, so its
//! receiver panics instead of waiting forever.

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};

use crate::slab::{Abandoned, Slab};

/// The slot: the value sits under a mutex only so the single receiver can
/// move it out of the shared slab; nothing else contends for it.
type Slot<T> = Slab<Mutex<Option<T>>>;

/// Creates a connected sender/receiver pair.
pub fn channel<T: Send>() -> (Sender<T>, Receiver<T>) {
    let slot = Arc::new(Slab::new());
    (Sender { slot: slot.clone() }, Receiver { slot })
}

/// The completing half. Consumed by [`send`](Sender::send); dropping it
/// unsent abandons the receiver.
pub struct Sender<T> {
    slot: Arc<Slot<T>>,
}

impl<T: Send> Sender<T> {
    /// Delivers the value, waking a parked sync waiter and/or a
    /// registered async waker.
    pub fn send(self, value: T) {
        self.slot.publish(Mutex::new(Some(value)));
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        // A no-op after `send`: the slab's first settle wins.
        self.slot.abandon();
    }
}

/// The receiving half: a [`Future`] resolving to the value, or a
/// blocking [`wait`](Receiver::wait) for sync callers.
pub struct Receiver<T> {
    slot: Arc<Slot<T>>,
}

impl<T: Send> Receiver<T> {
    /// Blocks the calling thread until the value arrives.
    ///
    /// # Panics
    ///
    /// If the sender was dropped without sending.
    pub fn wait(self) -> T {
        take(self.slot.wait())
    }

    /// Whether the sender has sent or been dropped, so that `wait` would
    /// not block.
    pub fn is_ready(&self) -> bool {
        self.slot.get().is_some()
    }
}

impl<T: Send> Future for Receiver<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        self.slot.poll(cx).map(take)
    }
}

fn take<T>(outcome: Result<&Mutex<Option<T>>, Abandoned>) -> T {
    outcome
        .unwrap_or_else(|Abandoned| panic!("oneshot sender dropped without sending"))
        .lock()
        .expect("oneshot slot lock poisoned")
        .take()
        .expect("oneshot receiver polled after completion")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_then_wait() {
        let (tx, rx) = channel();
        tx.send(5u64);
        assert!(rx.is_ready());
        assert_eq!(rx.wait(), 5);
    }

    #[test]
    fn wait_parks_until_cross_thread_send() {
        let (tx, rx) = channel();
        let h = std::thread::spawn(move || rx.wait());
        tx.send(11u64);
        assert_eq!(h.join().unwrap(), 11);
    }

    #[test]
    fn future_side_registers_waker_and_resolves() {
        let (tx, mut rx) = channel();
        assert!(crate::exec::poll_now(&mut rx).is_pending());
        assert!(crate::exec::poll_now(&mut rx).is_pending(), "re-poll ok");
        tx.send(3u64);
        assert_eq!(crate::exec::poll_now(&mut rx), Poll::Ready(3));
    }

    #[test]
    #[should_panic(expected = "polled after completion")]
    fn poll_after_completion_panics() {
        let (tx, mut rx) = channel();
        tx.send(1u64);
        let _ = crate::exec::poll_now(&mut rx);
        let _ = crate::exec::poll_now(&mut rx);
    }

    #[test]
    #[should_panic(expected = "sender dropped without sending")]
    fn dropped_sender_fails_the_receiver() {
        let (tx, rx) = channel::<u64>();
        drop(tx);
        rx.wait();
    }
}

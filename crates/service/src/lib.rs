//! An async batched request/response front end over any
//! [`sharded::ConcurrentMap`].
//!
//! Each client submits point ops into a bounded accumulation queue and
//! immediately receives a future; a flusher drains the queue whenever a
//! size threshold fills or the oldest request ages past a deadline,
//! applies the drained ops to the map as point calls in queue order, and
//! publishes each flush's results once for all of its futures. What a
//! flush saves is per-request overhead above the map — a wake-up, a
//! result hand-off — not map work.
//!
//! The pieces:
//!
//! * [`exec`] — two functions, no runtime: [`exec::block_on`] drives a
//!   future on the calling thread, [`exec::poll_now`] polls one once.
//! * `slab` (crate-private) — the one park/wake implementation: a value
//!   published once and read without a lock, a waker list for consumers
//!   that found it unsettled (a blocked thread registers through
//!   `block_on`), or abandoned if its producer dies.
//! * [`service`] — [`BatchedService`] itself: one completion slab per
//!   flush, [`FlushPolicy`] (size + deadline triggers), blocking
//!   backpressure on a full queue, [`ServiceStats`] counters, and an
//!   injectable [`Clock`] so every flush path is deterministically
//!   testable under [`MockClock`] with zero sleeps.
//!
//! See `docs/SERVICE.md` for the design discussion and the measured
//! latency-vs-batching trade-off.

#![warn(missing_docs)]

pub mod clock;
pub mod exec;
pub mod service;
mod slab;

pub use clock::{Clock, MockClock, RealClock};
pub use service::{
    BatchedService, FlushPolicy, FlushTrigger, Op, ResponseFuture, ServiceConfig, ServiceStats,
    Step, SubmitError,
};

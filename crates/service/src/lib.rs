//! An async batched request/response front end over the suite's
//! [`sharded::ConcurrentMap`] batch entry points.
//!
//! The structures' batch operations (`insert_batch` / `remove_batch` /
//! `get_batch`) run one point op per element, in input order; what a
//! batch saves is per-request overhead above the map — a queue slot, a
//! wake-up, a result hand-off — and only a caller that *has* a batch can
//! use them. This crate manufactures batches out of independent
//! concurrent clients: each client submits
//! point ops into a bounded accumulation queue and immediately receives
//! a future; a flusher drains the queue through the batch entry points
//! whenever a size threshold fills or the oldest request ages past a
//! deadline, and publishes each flush's results once for all of its
//! futures.
//!
//! The pieces:
//!
//! * [`exec`] — a minimal hand-rolled executor: [`exec::block_on`] plus
//!   a fixed-size thread [`exec::Pool`], raw-waker vtables over `Arc`s,
//!   no external async runtime.
//! * `slab` (crate-private) — the one park/wake implementation: a value
//!   published once and read without a lock by blocked threads and async
//!   tasks alike, or abandoned if its producer dies.
//! * [`oneshot`] — a one-slot slab as a channel, with a blocking `wait`
//!   for sync callers and a `Future` impl for async ones.
//! * [`service`] — [`BatchedService`] itself: one completion slab per
//!   flush, [`FlushPolicy`] (size + deadline triggers),
//!   [`OverflowPolicy`] backpressure (block or shed), [`ServiceStats`]
//!   counters, and an injectable [`Clock`] so every flush path is
//!   deterministically testable under [`MockClock`] with zero sleeps.
//!
//! See `docs/SERVICE.md` for the design discussion and the measured
//! latency-vs-batching trade-off.

#![warn(missing_docs)]

pub mod clock;
pub mod exec;
pub mod oneshot;
pub mod service;
mod slab;

pub use clock::{Clock, MockClock, RealClock};
pub use service::{
    BatchedService, FlushPolicy, FlushTrigger, Op, OverflowPolicy, ResponseFuture, ServiceConfig,
    ServiceStats, Step, SubmitError,
};

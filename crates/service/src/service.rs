//! The batched request/response bridge: clients submit point ops into a
//! bounded accumulation queue and get a future on their flush's
//! completion slab; a flusher drains the queue when either the size
//! threshold fills or the oldest request ages past the deadline, applies
//! the drained ops to the map as point calls in queue order, then
//! publishes the flush's results once for all of its futures.
//!
//! ## Flush decision
//!
//! [`BatchedService::step`] is the whole policy, a pure function of
//! (queue state, `clock.now_ns()`), checked in this order:
//!
//! 1. **Size**: `len ≥ max_batch` → flush exactly `max_batch` requests.
//! 2. **Drain**: the service is shutting down and requests remain →
//!    flush what's there (deadlines no longer apply).
//! 3. **Deadline**: the *oldest* queued request is `max_delay` old →
//!    flush the partial batch. The deadline always tracks the oldest
//!    pending request's enqueue time, so after a flush it re-arms from
//!    the next enqueue, not from the flush itself.
//! 4. Otherwise **idle**, reporting how long until the pending deadline.
//!
//! The production constructor runs `step` in a dedicated flusher thread
//! against a [`RealClock`]; the deterministic batteries construct the
//! service with [`BatchedService::with_clock`] (no thread) and call
//! `step` by hand under a `MockClock` — every trigger path above is a
//! hand-enumerated schedule there, not a timing race.
//!
//! ## Completion and wake-ups
//!
//! The queued ops are divided into **slabs**, one per future flush.
//! `submit` appends its op to the back slab and returns a [`ResponseFuture`]
//! naming that slab and the op's index in it; it opens a new slab (one
//! allocation, one clock read) only when the back one already holds
//! `max_batch` ops or the queue is empty. Every slab but the back one is
//! therefore full, so "flush the first `min(len, max_batch)` requests" is
//! "pop the front slab", and the oldest request's enqueue time is the
//! front slab's opening time. The flusher publishes a slab's results
//! once; its futures read them without a lock.
//!
//! A wake-up is sent only when it changes a decision: `submit` notifies
//! the flusher only if the flusher is parked and the push made the queue
//! non-empty (arming the deadline) or filled a slab (the size trigger); a
//! flush notifies `not_full` only if a `Block` submitter is parked; a
//! published slab wakes only the consumers registered on it.
//!
//! ## Ordering semantics
//!
//! The queue is FIFO and a flush applies its requests as `get` / `insert`
//! / `remove` point calls in queue order. Responses therefore equal
//! sequential application of the drained requests, duplicate keys
//! included. One client's submissions resolve in its own program order;
//! concurrent clients interleave at queue push, which is the service's
//! linearization order.
//!
//! ## A panicking map op
//!
//! If the map panics inside a flush, that flush's slab and every slab
//! still queued are abandoned: their futures' `wait` and `poll` panic
//! with "service flusher panicked" instead of blocking forever, and the
//! queue closes, so later submits return [`SubmitError::Closed`]. The
//! panic itself surfaces once: in the flusher thread, whose exit
//! [`shutdown`](BatchedService::shutdown) re-raises (or `Drop` prints),
//! or out of [`step`](BatchedService::step) for a hand-driven service.

use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll};
use std::time::Duration;

use crate::clock::{Clock, RealClock};
use crate::slab::{Abandoned, Slab};
use sharded::ConcurrentMap;

/// What abandoned futures and a joined flusher report after a map op
/// panicked inside a flush.
const FLUSHER_PANICKED: &str = "service flusher panicked";

/// No code panics while holding the queue lock (a flush runs the map
/// outside it), so a poisoned lock is a bug in this module.
const QUEUE_LOCK: &str = "service queue lock poisoned";

/// A point operation submitted to the service. Keys and values are
/// `u64`, as everywhere in the suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Lookup; responds with the current value.
    Get(u64),
    /// Insert; responds with the displaced value.
    Insert(u64, u64),
    /// Remove; responds with the removed value.
    Remove(u64),
}

/// When the flusher fires: either trigger ends a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Size trigger: flush as soon as this many requests are queued.
    pub max_batch: usize,
    /// Time trigger: flush when the oldest queued request is this old.
    pub max_delay: Duration,
}

impl FlushPolicy {
    /// A policy; `max_batch` must be at least 1.
    pub fn new(max_batch: usize, max_delay: Duration) -> FlushPolicy {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        FlushPolicy {
            max_batch,
            max_delay,
        }
    }

    /// The degenerate per-op policy: batches of one, no waiting — the
    /// baseline the batching sweep compares against.
    pub fn passthrough() -> FlushPolicy {
        FlushPolicy::new(1, Duration::ZERO)
    }
}

/// What `submit` does when the accumulation queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Block the submitting thread until the flusher drains space.
    Block,
    /// Refuse immediately with [`SubmitError::Overloaded`] (load shedding).
    Shed,
}

/// Service construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// The flush policy.
    pub policy: FlushPolicy,
    /// Full-queue behavior.
    pub overflow: OverflowPolicy,
    /// Accumulation-queue capacity (requests). Submits beyond it block
    /// or shed per `overflow`.
    pub capacity: usize,
}

impl ServiceConfig {
    /// A config with the given policy, `Block` overflow, and a capacity
    /// of `4 × max_batch` (at least 64): deep enough that the flusher
    /// can run one batch while the next accumulates.
    pub fn new(policy: FlushPolicy) -> ServiceConfig {
        ServiceConfig {
            policy,
            overflow: OverflowPolicy::Block,
            capacity: (4 * policy.max_batch).max(64),
        }
    }

    /// Sets the queue capacity (at least 1).
    pub fn with_capacity(mut self, capacity: usize) -> ServiceConfig {
        assert!(capacity >= 1, "capacity must be at least 1");
        self.capacity = capacity;
        self
    }

    /// Sets the full-queue behavior.
    pub fn with_overflow(mut self, overflow: OverflowPolicy) -> ServiceConfig {
        self.overflow = overflow;
        self
    }
}

/// Why a submit was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is full and the overflow policy is
    /// [`OverflowPolicy::Shed`].
    Overloaded,
    /// The service is shutting down, or its flusher panicked.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "service overloaded (queue full, shed policy)"),
            SubmitError::Closed => write!(f, "service closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What fired a flush (see the module docs for the precedence order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushTrigger {
    /// The size threshold filled.
    Size,
    /// The oldest request aged past `max_delay`.
    Deadline,
    /// Shutdown drain.
    Drain,
}

/// One flusher step's outcome — what the deterministic batteries assert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// A batch of `len` requests was flushed.
    Flushed {
        /// Number of requests in the flushed batch.
        len: usize,
        /// Which trigger fired.
        trigger: FlushTrigger,
    },
    /// Nothing to do yet.
    Idle {
        /// Nanoseconds until the pending deadline trigger, when requests
        /// are queued; `None` on an empty queue.
        until_deadline_ns: Option<u64>,
    },
}

/// One flush's results, in the order of its ops.
type Results = Slab<Vec<Option<u64>>>;

/// One future flush (module docs, "Completion and wake-ups"): the next
/// `len` queued ops after those of the slabs ahead of it. Only the back
/// slab is ever short of `max_batch` ops.
struct Pending {
    len: usize,
    /// Enqueue time of the first op: what the deadline tracks.
    opened_ns: u64,
    results: Arc<Results>,
}

struct QueueState {
    /// Every queued op, oldest first.
    ops: VecDeque<Op>,
    /// The slabs `ops` divides into, oldest first.
    slabs: VecDeque<Pending>,
    closed: bool,
    /// The flusher is waiting on `not_empty`. Set by the flusher before
    /// it waits; cleared by the flusher when it wakes, or by the submit
    /// that notifies it, so one park takes at most one notification.
    flusher_parked: bool,
    /// `Block` submitters waiting on `not_full`.
    blocked_parked: usize,
}

/// Monotone event counters (relaxed atomics — exact under the quiesced
/// reads the tests and stats snapshots perform).
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    blocked: AtomicU64,
    flushes: AtomicU64,
    size_flushes: AtomicU64,
    deadline_flushes: AtomicU64,
    drain_flushes: AtomicU64,
    batched_ops: AtomicU64,
    flusher_wakeups: AtomicU64,
}

/// A point-in-time counter snapshot (see [`BatchedService::stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Responses completed.
    pub completed: u64,
    /// Submits refused with [`SubmitError::Overloaded`].
    pub shed: u64,
    /// Blocking episodes: submits that had to wait for queue space at
    /// least once (counted once per episode, not per wakeup).
    pub blocked: u64,
    /// Total flushes (= `size_flushes + deadline_flushes + drain_flushes`).
    pub flushes: u64,
    /// Flushes fired by the size threshold.
    pub size_flushes: u64,
    /// Flushes fired by the age deadline.
    pub deadline_flushes: u64,
    /// Flushes fired by shutdown drain.
    pub drain_flushes: u64,
    /// Requests flushed in total (mean batch = `batched_ops / flushes`).
    pub batched_ops: u64,
    /// Notifications `submit` sent to a parked flusher: at most two per
    /// flushed slab (queue became non-empty, slab filled), not one per
    /// request.
    pub flusher_wakeups: u64,
    /// Current queue occupancy.
    pub occupancy: usize,
    /// Queue capacity.
    pub capacity: usize,
}

struct Shared<M> {
    map: M,
    queue: Mutex<QueueState>,
    /// Flusher waits here for work.
    not_empty: Condvar,
    /// `Block` submitters wait here for space.
    not_full: Condvar,
    clock: Arc<dyn Clock>,
    max_batch: usize,
    max_delay_ns: u64,
    overflow: OverflowPolicy,
    capacity: usize,
    counters: Counters,
}

/// The async batched front end over any [`ConcurrentMap`]. See the
/// module docs for the flush decision and ordering semantics.
pub struct BatchedService<M: ConcurrentMap + 'static> {
    shared: Arc<Shared<M>>,
    flusher: Option<std::thread::JoinHandle<()>>,
}

/// The client's handle on one response: a future resolving to the op's
/// result (`Option<u64>` — displaced/removed/current value), or a
/// blocking [`wait`](ResponseFuture::wait) for sync callers. `Unpin`, so
/// manual pollers (`exec::poll_now`) need no pin projection.
///
/// `wait` and `poll` panic with "service flusher panicked" if the map
/// panicked before this request's flush completed.
pub struct ResponseFuture {
    slab: Arc<Results>,
    index: usize,
}

impl std::fmt::Debug for ResponseFuture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseFuture")
            .field("index", &self.index)
            .field("ready", &self.is_ready())
            .finish()
    }
}

impl ResponseFuture {
    /// Blocks the calling thread for the response.
    pub fn wait(self) -> Option<u64> {
        response(self.slab.wait(), self.index)
    }

    /// Whether the request's flush has finished, so that `wait` would not
    /// block (without consuming the response).
    pub fn is_ready(&self) -> bool {
        self.slab.get().is_some()
    }
}

impl Future for ResponseFuture {
    type Output = Option<u64>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<u64>> {
        self.slab
            .poll(cx)
            .map(|outcome| response(outcome, self.index))
    }
}

fn response(outcome: Result<&Vec<Option<u64>>, Abandoned>, index: usize) -> Option<u64> {
    match outcome {
        Ok(results) => results[index],
        Err(Abandoned) => panic!("{FLUSHER_PANICKED}"),
    }
}

impl<M: ConcurrentMap + 'static> BatchedService<M> {
    /// Starts the service with a dedicated flusher thread and a
    /// [`RealClock`].
    pub fn start(map: M, config: ServiceConfig) -> BatchedService<M> {
        let mut svc = Self::with_clock(map, config, Arc::new(RealClock::new()));
        let shared = svc.shared.clone();
        svc.flusher = Some(
            std::thread::Builder::new()
                .name("service-flusher".into())
                .spawn(move || flusher_loop(&shared))
                .expect("spawn flusher"),
        );
        svc
    }

    /// Builds the service **without** a flusher thread, against an
    /// injected clock: the caller drives [`step`](Self::step) by hand.
    /// This is the deterministic-test constructor — with a `MockClock`,
    /// every flush path is a schedule the test enumerates.
    pub fn with_clock(map: M, config: ServiceConfig, clock: Arc<dyn Clock>) -> BatchedService<M> {
        BatchedService {
            shared: Arc::new(Shared {
                map,
                queue: Mutex::new(QueueState {
                    ops: VecDeque::with_capacity(config.capacity.min(1 << 16)),
                    slabs: VecDeque::new(),
                    closed: false,
                    flusher_parked: false,
                    blocked_parked: 0,
                }),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                clock,
                max_batch: config.policy.max_batch,
                // Saturate: a delay past u64 nanoseconds (~584 years) is
                // "never", not a wrapped-around small one.
                max_delay_ns: u64::try_from(config.policy.max_delay.as_nanos()).unwrap_or(u64::MAX),
                overflow: config.overflow,
                capacity: config.capacity,
                counters: Counters::default(),
            }),
            flusher: None,
        }
    }

    /// Submits one operation. Returns the response future immediately;
    /// on a full queue it blocks for space or sheds, per the overflow
    /// policy.
    pub fn submit(&self, op: Op) -> Result<ResponseFuture, SubmitError> {
        let shared = &*self.shared;
        let c = &shared.counters;
        let mut q = shared.queue.lock().expect(QUEUE_LOCK);
        let mut counted_blocked = false;
        loop {
            if q.closed {
                return Err(SubmitError::Closed);
            }
            if q.ops.len() < shared.capacity {
                break;
            }
            match shared.overflow {
                OverflowPolicy::Shed => {
                    c.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::Overloaded);
                }
                OverflowPolicy::Block => {
                    if !counted_blocked {
                        c.blocked.fetch_add(1, Ordering::Relaxed);
                        counted_blocked = true;
                    }
                    q.blocked_parked += 1;
                    q = shared.not_full.wait(q).expect(QUEUE_LOCK);
                    q.blocked_parked -= 1;
                }
            }
        }
        let was_empty = q.ops.is_empty();
        if q.slabs
            .back()
            .is_none_or(|back| back.len == shared.max_batch)
        {
            let opened_ns = shared.clock.now_ns();
            q.slabs.push_back(Pending {
                len: 0,
                opened_ns,
                results: Arc::new(Slab::new()),
            });
        }
        let back = q.slabs.back_mut().expect("a back slab with room");
        let index = back.len;
        back.len += 1;
        let filled = back.len == shared.max_batch;
        let slab = back.results.clone();
        q.ops.push_back(op);
        let wake = q.flusher_parked && (was_empty || filled);
        if wake {
            q.flusher_parked = false;
            c.flusher_wakeups.fetch_add(1, Ordering::Relaxed);
        }
        c.submitted.fetch_add(1, Ordering::Relaxed);
        drop(q);
        if wake {
            shared.not_empty.notify_one();
        }
        Ok(ResponseFuture { slab, index })
    }

    /// [`submit`](Self::submit)s a lookup.
    pub fn get(&self, k: u64) -> Result<ResponseFuture, SubmitError> {
        self.submit(Op::Get(k))
    }

    /// [`submit`](Self::submit)s an insert.
    pub fn insert(&self, k: u64, v: u64) -> Result<ResponseFuture, SubmitError> {
        self.submit(Op::Insert(k, v))
    }

    /// [`submit`](Self::submit)s a remove.
    pub fn remove(&self, k: u64) -> Result<ResponseFuture, SubmitError> {
        self.submit(Op::Remove(k))
    }

    /// One flusher decision + (at most) one batch execution. The
    /// production flusher thread loops this; manual-mode tests call it
    /// directly. See the module docs for the trigger precedence.
    ///
    /// # Panics
    ///
    /// If the map panics during the flush, after abandoning every
    /// pending request (module docs, "A panicking map op").
    pub fn step(&self) -> Step {
        step_shared(&self.shared)
    }

    /// The wrapped map (e.g. for settled-state inspection after
    /// [`shutdown`](Self::shutdown)).
    pub fn map(&self) -> &M {
        &self.shared.map
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.shared.counters;
        let occupancy = self.shared.queue.lock().expect(QUEUE_LOCK).ops.len();
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            blocked: c.blocked.load(Ordering::Relaxed),
            flushes: c.flushes.load(Ordering::Relaxed),
            size_flushes: c.size_flushes.load(Ordering::Relaxed),
            deadline_flushes: c.deadline_flushes.load(Ordering::Relaxed),
            drain_flushes: c.drain_flushes.load(Ordering::Relaxed),
            batched_ops: c.batched_ops.load(Ordering::Relaxed),
            flusher_wakeups: c.flusher_wakeups.load(Ordering::Relaxed),
            occupancy,
            capacity: self.shared.capacity,
        }
    }

    /// Closes the queue, drains every pending request (completing its
    /// response) and stops the flusher. Subsequent submits return
    /// [`SubmitError::Closed`]. Idempotent; `Drop` calls it.
    ///
    /// # Panics
    ///
    /// With "service flusher panicked" if the flusher thread died of a
    /// panicking map op — once: a later call or `Drop` does not repeat
    /// it.
    pub fn shutdown(&mut self) {
        if let Err(report) = self.close() {
            panic!("{report}");
        }
    }

    /// [`shutdown`](Self::shutdown), returning the flusher's panic
    /// instead of raising it.
    fn close(&mut self) -> Result<(), &'static str> {
        self.shared.queue.lock().expect(QUEUE_LOCK).closed = true;
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        match self.flusher.take() {
            Some(h) => h.join().map_err(|_| FLUSHER_PANICKED),
            None => {
                // Manual mode: drain synchronously.
                while matches!(self.step(), Step::Flushed { .. }) {}
                Ok(())
            }
        }
    }
}

impl<M: ConcurrentMap + 'static> Drop for BatchedService<M> {
    fn drop(&mut self) {
        // A panic here would abort if the owner is already unwinding.
        if let Err(report) = self.close() {
            eprintln!("{report}");
        }
    }
}

/// What the flush decision makes of the queue at one instant.
#[derive(Debug, PartialEq, Eq)]
enum Decision {
    /// Flush the front slab.
    Flush(FlushTrigger),
    /// Nothing to flush yet: nanoseconds until the front slab's deadline,
    /// or `None` on an empty queue.
    Idle(Option<u64>),
}

impl<M> Shared<M> {
    /// The flush decision (module docs, "Flush decision") on the queue
    /// state `q` at `now`: the one place its trigger order lives, for
    /// both [`step_shared`] and the flusher's park loop.
    fn decide(&self, q: &QueueState, now: u64) -> Decision {
        let Some(front) = q.slabs.front() else {
            return Decision::Idle(None);
        };
        let deadline = front.opened_ns.saturating_add(self.max_delay_ns);
        if front.len == self.max_batch {
            Decision::Flush(FlushTrigger::Size)
        } else if q.closed {
            Decision::Flush(FlushTrigger::Drain)
        } else if now >= deadline {
            Decision::Flush(FlushTrigger::Deadline)
        } else {
            Decision::Idle(Some(deadline - now))
        }
    }
}

/// One flusher step: takes the [flush decision](Shared::decide) and, on a
/// trigger, pops the front slab under the lock, executes it outside so
/// submitters regain space while the map calls run, then publishes its
/// results.
fn step_shared<M: ConcurrentMap>(shared: &Shared<M>) -> Step {
    let now = shared.clock.now_ns();
    let (slab, ops, trigger) = {
        let mut q = shared.queue.lock().expect(QUEUE_LOCK);
        let trigger = match shared.decide(&q, now) {
            Decision::Flush(trigger) => trigger,
            Decision::Idle(until_deadline_ns) => return Step::Idle { until_deadline_ns },
        };
        let slab = q.slabs.pop_front().expect("front checked");
        let ops: Vec<Op> = q.ops.drain(..slab.len).collect();
        // Space freed: wake every parked submitter at once (a flush frees
        // up to `max_batch` slots, and each waiter rechecks under the
        // lock).
        if q.blocked_parked > 0 {
            shared.not_full.notify_all();
        }
        (slab.results, ops, trigger)
    };
    let results = match catch_unwind(AssertUnwindSafe(|| execute(&shared.map, &ops))) {
        Ok(results) => results,
        Err(panic) => {
            abandon_all(shared, &slab);
            resume_unwind(panic)
        }
    };
    let len = ops.len();
    let c = &shared.counters;
    // Count *before* publishing: a client whose `wait` returns must not
    // observe a stats snapshot that hasn't counted its own flush yet.
    c.completed.fetch_add(len as u64, Ordering::Relaxed);
    c.flushes.fetch_add(1, Ordering::Relaxed);
    c.batched_ops.fetch_add(len as u64, Ordering::Relaxed);
    match trigger {
        FlushTrigger::Size => c.size_flushes.fetch_add(1, Ordering::Relaxed),
        FlushTrigger::Deadline => c.deadline_flushes.fetch_add(1, Ordering::Relaxed),
        FlushTrigger::Drain => c.drain_flushes.fetch_add(1, Ordering::Relaxed),
    };
    slab.publish(results);
    Step::Flushed { len, trigger }
}

/// Applies one slab's ops to the map as point calls, in queue order.
fn execute<M: ConcurrentMap>(map: &M, ops: &[Op]) -> Vec<Option<u64>> {
    ops.iter()
        .map(|op| match *op {
            Op::Get(k) => map.get(&k),
            Op::Insert(k, v) => map.insert(k, v),
            Op::Remove(k) => map.remove(&k),
        })
        .collect()
}

/// After the map panicked while executing the flush `popped`: fails its
/// requests and every queued one, and closes the queue so nothing new is
/// accepted.
fn abandon_all<M>(shared: &Shared<M>, popped: &Results) {
    popped.abandon();
    let queued = {
        let mut q = shared.queue.lock().expect(QUEUE_LOCK);
        q.closed = true;
        q.ops.clear();
        std::mem::take(&mut q.slabs)
    };
    shared.not_full.notify_all();
    for slab in queued {
        slab.results.abandon();
    }
}

/// The production flusher: loop [`step_shared`], park between batches.
/// Parking re-takes the flush decision under the queue lock and raises
/// `flusher_parked` before waiting, so a submit that changes the decision
/// (first request of an empty queue, a filled slab) sees the flag and
/// notifies; a timed wait covers the pending deadline.
///
/// A flush runs map operations, which warm this thread's cached epoch
/// guard. When the flushes have drained the queue, the flusher releases
/// it with `epoch::flush()`, outside the queue lock, before it
/// parks (the epoch module's "flush before parking" rule); otherwise an
/// idle service would hold the global epoch back for every thread in the
/// process until its next request. A queue with a pending deadline gets
/// a timed wait, which ends within `max_delay`, so the guard stays.
fn flusher_loop<M: ConcurrentMap>(shared: &Shared<M>) {
    loop {
        match step_shared(shared) {
            Step::Flushed { .. } => continue,
            Step::Idle {
                until_deadline_ns: None,
            } => llxscx::epoch::flush(),
            Step::Idle { .. } => {}
        }
        let mut q = shared.queue.lock().expect(QUEUE_LOCK);
        loop {
            let timeout = match shared.decide(&q, shared.clock.now_ns()) {
                Decision::Flush(_) => break,
                Decision::Idle(None) if q.closed => return,
                Decision::Idle(wait) => wait.map(Duration::from_nanos),
            };
            q.flusher_parked = true;
            q = match timeout {
                None => shared.not_empty.wait(q).expect(QUEUE_LOCK),
                Some(t) => shared.not_empty.wait_timeout(q, t).expect(QUEUE_LOCK).0,
            };
            q.flusher_parked = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MockClock;
    use std::collections::BTreeMap;
    use std::sync::mpsc;

    /// A trivial map for unit tests (integration tests use the real
    /// structures through `workload`).
    struct TestMap(Mutex<BTreeMap<u64, u64>>);

    impl TestMap {
        fn new() -> TestMap {
            TestMap(Mutex::new(BTreeMap::new()))
        }
    }

    impl ConcurrentMap for TestMap {
        fn name(&self) -> &'static str {
            "testmap"
        }
        fn insert(&self, k: u64, v: u64) -> Option<u64> {
            self.0.lock().unwrap().insert(k, v)
        }
        fn remove(&self, k: &u64) -> Option<u64> {
            self.0.lock().unwrap().remove(k)
        }
        fn get(&self, k: &u64) -> Option<u64> {
            self.0.lock().unwrap().get(k).copied()
        }
        fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
            self.0
                .lock()
                .unwrap()
                .range(lo..=hi)
                .map(|(k, v)| (*k, *v))
                .collect()
        }
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
    }

    /// How long a threaded test waits before calling a wake-up lost.
    const WATCHDOG: Duration = Duration::from_secs(20);

    /// Spins (on state, not time) until the flusher thread is parked.
    fn until_flusher_parks<M: ConcurrentMap>(svc: &BatchedService<M>) {
        while !svc.shared.queue.lock().unwrap().flusher_parked {
            std::thread::yield_now();
        }
    }

    #[test]
    fn threaded_service_answers_requests() {
        let svc = BatchedService::start(
            TestMap::new(),
            ServiceConfig::new(FlushPolicy::new(8, Duration::from_micros(200))),
        );
        assert_eq!(svc.insert(1, 10).unwrap().wait(), None);
        assert_eq!(svc.insert(1, 20).unwrap().wait(), Some(10));
        assert_eq!(svc.get(1).unwrap().wait(), Some(20));
        assert_eq!(svc.remove(1).unwrap().wait(), Some(20));
        assert_eq!(svc.get(1).unwrap().wait(), None);
        let stats = svc.stats();
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn threaded_service_batches_a_burst() {
        let mut svc = BatchedService::start(
            TestMap::new(),
            ServiceConfig::new(FlushPolicy::new(64, Duration::from_millis(5))),
        );
        let futs: Vec<_> = (0..256).map(|i| svc.insert(i % 32, i).unwrap()).collect();
        for f in futs {
            f.wait();
        }
        svc.shutdown();
        let stats = svc.stats();
        assert_eq!(stats.completed, 256);
        assert_eq!(stats.batched_ops, 256);
        // Bursty closed-loop submission must produce multi-request
        // batches: strictly fewer flushes than requests.
        assert!(
            stats.flushes < 256,
            "no batching happened: {} flushes",
            stats.flushes
        );
        assert_eq!(svc.map().len(), 32);
    }

    /// A lost wake-up in the submit gating would strand these requests:
    /// with an hour-long deadline only the size trigger can flush them,
    /// and with a parked flusher only the filling submit's notify can
    /// fire it. Then, on a 2 ms deadline, one lone request must complete:
    /// the empty → non-empty notify is what arms the flusher's timer.
    #[test]
    fn parked_flusher_wakes_for_a_filled_slab_and_for_a_first_request() {
        for (policy, n) in [
            (FlushPolicy::new(8, Duration::from_secs(3600)), 8),
            (FlushPolicy::new(8, Duration::from_millis(2)), 1),
        ] {
            let svc = Arc::new(BatchedService::start(
                TestMap::new(),
                ServiceConfig::new(policy),
            ));
            until_flusher_parks(&svc);
            let (tx, rx) = mpsc::channel();
            let client = {
                let svc = svc.clone();
                std::thread::spawn(move || {
                    let futs: Vec<_> = (0..n).map(|k| svc.insert(k, k).unwrap()).collect();
                    for f in futs {
                        tx.send(f.wait()).unwrap();
                    }
                })
            };
            for _ in 0..n {
                let got = rx.recv_timeout(WATCHDOG);
                assert_eq!(got, Ok(None), "lost wake-up under {policy:?}");
            }
            client.join().unwrap();
            assert!(svc.stats().flusher_wakeups >= 1);
        }
    }

    /// The parent sent one flusher notification per submit (256 here);
    /// the gated submit sends at most two per slab: one when the queue
    /// turns non-empty, one when the slab fills.
    #[test]
    fn windowed_submissions_send_at_most_two_wakeups_per_slab() {
        let mut svc = BatchedService::start(
            TestMap::new(),
            ServiceConfig::new(FlushPolicy::new(64, Duration::from_secs(3600))),
        );
        until_flusher_parks(&svc);
        let futs: Vec<_> = (0..256).map(|k| svc.insert(k, k).unwrap()).collect();
        for f in futs {
            assert_eq!(f.wait(), None);
        }
        svc.shutdown();
        let stats = svc.stats();
        assert_eq!(stats.size_flushes, 4);
        assert!(
            (1..=8).contains(&stats.flusher_wakeups),
            "{} flusher wake-ups for 256 submits",
            stats.flusher_wakeups
        );
    }

    #[test]
    fn decide_takes_size_then_drain_then_deadline() {
        // max_batch 2, max_delay 100 ns; the front slab opened at t = 0.
        let svc = BatchedService::with_clock(
            TestMap::new(),
            ServiceConfig::new(FlushPolicy::new(2, Duration::from_nanos(100))),
            Arc::new(MockClock::new()),
        );
        let decide = |front: Option<usize>, closed: bool, now: u64| {
            let q = QueueState {
                ops: VecDeque::new(),
                slabs: front
                    .map(|len| Pending {
                        len,
                        opened_ns: 0,
                        results: Arc::new(Slab::new()),
                    })
                    .into_iter()
                    .collect(),
                closed,
                flusher_parked: false,
                blocked_parked: 0,
            };
            svc.shared.decide(&q, now)
        };
        use Decision::{Flush, Idle};
        // Each trigger wins over every one after it.
        assert_eq!(decide(Some(2), true, 100), Flush(FlushTrigger::Size));
        assert_eq!(decide(Some(1), true, 100), Flush(FlushTrigger::Drain));
        assert_eq!(decide(Some(1), false, 100), Flush(FlushTrigger::Deadline));
        assert_eq!(decide(Some(1), false, 99), Idle(Some(1)));
        // An empty queue is idle with no deadline, closed or not.
        assert_eq!(decide(None, false, 100), Idle(None));
        assert_eq!(decide(None, true, 100), Idle(None));
    }

    #[test]
    fn submit_after_shutdown_is_closed() {
        let mut svc = BatchedService::start(
            TestMap::new(),
            ServiceConfig::new(FlushPolicy::passthrough()),
        );
        assert_eq!(svc.insert(1, 1).unwrap().wait(), None);
        svc.shutdown();
        assert_eq!(svc.get(1).unwrap_err(), SubmitError::Closed);
    }

    #[test]
    fn manual_mode_drop_drains_pending() {
        let clock = Arc::new(MockClock::new());
        let svc = BatchedService::with_clock(
            TestMap::new(),
            ServiceConfig::new(FlushPolicy::new(1000, Duration::from_secs(3600))),
            clock,
        );
        let f = svc.insert(7, 70).unwrap();
        drop(svc); // must drain, not leak the pending response
        assert_eq!(f.wait(), None);
    }

    #[test]
    fn mixed_kind_batch_executes_in_queue_order() {
        let clock = Arc::new(MockClock::new());
        let svc = BatchedService::with_clock(
            TestMap::new(),
            ServiceConfig::new(FlushPolicy::new(1000, Duration::from_secs(3600))),
            clock,
        );
        // insert k=1 twice (a duplicate key), get, remove, get —
        // responses must equal sequential application.
        let f1 = svc.submit(Op::Insert(1, 10)).unwrap();
        let f2 = svc.submit(Op::Insert(1, 20)).unwrap();
        let f3 = svc.submit(Op::Get(1)).unwrap();
        let f4 = svc.submit(Op::Remove(1)).unwrap();
        let f5 = svc.submit(Op::Get(1)).unwrap();
        assert_eq!(
            svc.step(),
            Step::Idle {
                until_deadline_ns: Some(3600 * 1_000_000_000)
            }
        );
        let mut svc = svc;
        svc.shutdown();
        assert_eq!(f1.wait(), None);
        assert_eq!(f2.wait(), Some(10), "duplicate insert sees the first");
        assert_eq!(f3.wait(), Some(20));
        assert_eq!(f4.wait(), Some(20));
        assert_eq!(f5.wait(), None);
        assert_eq!(svc.stats().drain_flushes, 1);
    }
}

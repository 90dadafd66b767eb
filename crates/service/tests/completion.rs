//! Completion battery: a flush's results reach every kind of waiter —
//! many async tasks on one completion slab — and a map op that panics
//! inside a flush fails the pending requests instead of stranding them.
//! Interleavings are forced by observable state (counters, channels);
//! the only timeouts are watchdogs that turn a hang into a failure.

mod common;

use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use common::ModelMap;
use service::{
    exec, oneshot, BatchedService, FlushPolicy, FlushTrigger, MockClock, Op, ServiceConfig, Step,
    SubmitError,
};
use sharded::ConcurrentMap;

const HOUR: Duration = Duration::from_secs(3600);

/// How long a client may wait before its wake-up counts as lost.
const WATCHDOG: Duration = Duration::from_secs(20);

#[test]
fn one_flush_wakes_all_64_tasks_awaiting_it() {
    let clock = Arc::new(MockClock::new());
    let svc = BatchedService::with_clock(
        ModelMap::new(),
        ServiceConfig::new(FlushPolicy::new(64, HOUR)),
        clock,
    );
    let pool = exec::Pool::new(2);
    let pending = Arc::new(AtomicUsize::new(0));
    let mut done = Vec::new();
    for k in 0..64 {
        let mut fut = svc.submit(Op::Insert(k, k)).unwrap();
        let (tx, rx) = oneshot::channel();
        done.push(rx);
        let pending = pending.clone();
        pool.spawn(async move {
            // Count the first Pending so the test can flush only once
            // every task has registered its waker on the slab.
            let mut counted = false;
            let res = std::future::poll_fn(|cx| {
                let poll = std::pin::Pin::new(&mut fut).poll(cx);
                if poll.is_pending() && !counted {
                    counted = true;
                    pending.fetch_add(1, Ordering::Relaxed);
                }
                poll
            })
            .await;
            tx.send(res);
        });
    }
    while pending.load(Ordering::Relaxed) < 64 {
        std::thread::yield_now();
    }
    assert_eq!(
        svc.step(),
        Step::Flushed {
            len: 64,
            trigger: FlushTrigger::Size
        }
    );
    for rx in done {
        assert_eq!(exec::block_on(rx), None);
    }
}

/// A [`ModelMap`] whose `insert_batch` panics on [`POISON`] — but only
/// once the test opens the gate, so it can queue a second slab behind the
/// poisoned one first.
struct PoisonMap {
    inner: ModelMap,
    gate: Mutex<mpsc::Receiver<()>>,
}

const POISON: u64 = 666;

impl ConcurrentMap for PoisonMap {
    fn name(&self) -> &'static str {
        "poison"
    }
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        self.inner.insert(k, v)
    }
    fn remove(&self, k: &u64) -> Option<u64> {
        self.inner.remove(k)
    }
    fn get(&self, k: &u64) -> Option<u64> {
        self.inner.get(k)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.inner.range(lo, hi)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn insert_batch(&self, batch: &[(u64, u64)]) -> Vec<Option<u64>> {
        if batch.iter().any(|&(k, _)| k == POISON) {
            self.gate.lock().unwrap().recv().unwrap();
            panic!("poison key");
        }
        self.inner.insert_batch(batch)
    }
}

/// Waits on `fut` on its own thread and reports whether `wait` panicked
/// with the service's message.
fn client(fut: service::ResponseFuture) -> mpsc::Receiver<bool> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| fut.wait()));
        let failed = outcome.is_err_and(|p| {
            p.downcast_ref::<String>()
                .is_some_and(|m| m == "service flusher panicked")
        });
        tx.send(failed).unwrap();
    });
    rx
}

#[test]
fn a_panicking_map_op_fails_pending_requests_instead_of_hanging_them() {
    let (open, gate) = mpsc::channel();
    let mut svc = BatchedService::start(
        PoisonMap {
            inner: ModelMap::new(),
            gate: Mutex::new(gate),
        },
        ServiceConfig::new(FlushPolicy::new(4, HOUR)),
    );
    // Slab 1 fills (poison inside) and its flush parks at the gate;
    // slab 2 queues behind it.
    let mut slab1: Vec<_> = [1, POISON, 2, 3]
        .into_iter()
        .map(|k| svc.insert(k, k).unwrap())
        .collect();
    let slab2 = svc.insert(4, 4).unwrap();
    let on_poisoned = client(slab1.pop().unwrap());
    let on_later = client(slab2);
    open.send(()).unwrap();
    assert_eq!(on_poisoned.recv_timeout(WATCHDOG), Ok(true));
    assert_eq!(on_later.recv_timeout(WATCHDOG), Ok(true));
    // The unread futures of the failed slab are settled too.
    assert!(slab1.iter().all(|f| f.is_ready()));
    assert_eq!(svc.get(1).unwrap_err(), SubmitError::Closed);
    // Shutdown reports the flusher's panic, once.
    let report = catch_unwind(AssertUnwindSafe(|| svc.shutdown())).unwrap_err();
    assert_eq!(
        report.downcast_ref::<String>().map(String::as_str),
        Some("service flusher panicked")
    );
    svc.shutdown();
    let stats = svc.stats();
    assert_eq!((stats.submitted, stats.completed), (5, 0));
    assert_eq!(stats.occupancy, 0);
}

#[test]
fn a_manual_step_that_panics_abandons_the_queue() {
    let (open, gate) = mpsc::channel();
    open.send(()).unwrap();
    let svc = BatchedService::with_clock(
        PoisonMap {
            inner: ModelMap::new(),
            gate: Mutex::new(gate),
        },
        ServiceConfig::new(FlushPolicy::new(2, HOUR)),
        Arc::new(MockClock::new()),
    );
    let mut poisoned = svc.insert(POISON, 0).unwrap();
    svc.insert(1, 1).unwrap();
    let mut later = svc.get(1).unwrap();
    assert!(catch_unwind(AssertUnwindSafe(|| svc.step())).is_err());
    for fut in [&mut poisoned, &mut later] {
        let polled = catch_unwind(AssertUnwindSafe(|| exec::poll_now(fut)));
        assert!(polled.is_err(), "an abandoned future must not stay Pending");
    }
    assert!(matches!(svc.step(), Step::Idle { .. }));
    assert_eq!(svc.get(1).unwrap_err(), SubmitError::Closed);
    drop(svc); // the panic already surfaced from `step`: nothing to report
}

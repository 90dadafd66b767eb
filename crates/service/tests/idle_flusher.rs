//! An idle flusher does not hold the epoch back.
//!
//! A flush runs the map's point ops, which pin through `llxscx::epoch`.
//! A flusher that parked still pinned would stop the global epoch from
//! advancing, so garbage every other thread retires would wait for the
//! service's next request. Here one flush runs through a map whose
//! inserts pin the way the trees' point ops do; then, with the service
//! idle, a closure the test thread defers must run.
//!
//! An integration test on purpose: it owns the process, so no other
//! test's pin can hold the epoch back.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use common::ModelMap;
use llxscx::epoch;
use service::{BatchedService, FlushPolicy, ServiceConfig};
use sharded::ConcurrentMap;

/// How long the deferred closure may take before the epoch counts as held.
const WATCHDOG: Duration = Duration::from_secs(10);

/// A [`ModelMap`] whose `insert` runs under an epoch guard.
struct PinningMap(ModelMap);

impl ConcurrentMap for PinningMap {
    fn name(&self) -> &'static str {
        "pinning"
    }
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        epoch::with_guard(|_| self.0.insert(k, v))
    }
    fn remove(&self, k: &u64) -> Option<u64> {
        self.0.remove(k)
    }
    fn get(&self, k: &u64) -> Option<u64> {
        self.0.get(k)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.0.range(lo, hi)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

static RAN: AtomicBool = AtomicBool::new(false);

#[test]
fn an_idle_flusher_does_not_hold_the_epoch() {
    let svc = BatchedService::start(
        PinningMap(ModelMap::new()),
        ServiceConfig::new(FlushPolicy::new(8, Duration::from_secs(3600))),
    );
    let futs: Vec<_> = (0..8).map(|k| svc.insert(k, k).unwrap()).collect();
    for f in futs {
        assert_eq!(f.wait(), None);
    }
    assert_eq!(svc.stats().size_flushes, 1, "one size-triggered flush");

    // SAFETY: the deferred closure only touches a `'static` atomic.
    // RELAXED: test-only flag set by a deferred closure; the watchdog loop only needs it to become
    // visible eventually
    epoch::with_guard(|g| unsafe { g.defer_unchecked(|| RAN.store(true, Ordering::Relaxed)) });
    let deadline = Instant::now() + WATCHDOG;
    // RELAXED: test-only flag poll under a watchdog; no other data is published through it
    while !RAN.load(Ordering::Relaxed) {
        assert!(
            Instant::now() < deadline,
            "the idle flusher still pins the epoch"
        );
        epoch::flush();
        std::thread::yield_now();
    }
}

//! The flusher's injectable time source.
//!
//! Every deadline decision in the service goes through a [`Clock`], so
//! the flush policy is a pure function of (queue state, `now_ns`): prod
//! wires in [`RealClock`] and the deterministic batteries a
//! [`MockClock`] they advance by hand — every deadline path is then a
//! schedule the test enumerates, not a race it hopes to win.
//!
//! [`RealClock`] mirrors the harness clock in `workload::latency`: one
//! `rdtsc` per reading on x86-64 (~6 ns, no syscall) scaled by a factor
//! calibrated once against the OS monotonic clock, with an
//! `Instant`-anchor fallback elsewhere. It is duplicated rather than
//! imported because `service` sits *beside* `workload` in the layering
//! (both front ends over `sharded::ConcurrentMap`) — depending on the
//! whole harness for 30 lines of clock would invert that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonic nanosecond clock the flusher consults for deadlines.
/// Implementations must be cheap: `submit` reads it once per slab it
/// opens — once per request in passthrough configurations — and the
/// flusher once per decision.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary fixed origin (process start for
    /// [`RealClock`], zero for [`MockClock`]). Monotone non-decreasing.
    fn now_ns(&self) -> u64;
}

/// The production clock: TSC-based on x86-64, `Instant`-based elsewhere.
pub struct RealClock {
    /// Tick value at construction; readings are deltas from here.
    anchor: u64,
    /// Nanoseconds per tick (1.0 on the `Instant` fallback).
    ns_per_tick: f64,
}

impl RealClock {
    /// Calibrates (first construction measures ~5 ms of TSC against the
    /// OS clock; the factor is cached process-wide) and anchors at now.
    pub fn new() -> RealClock {
        RealClock {
            anchor: raw_ticks(),
            ns_per_tick: ns_per_tick(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        let ticks = raw_ticks().saturating_sub(self.anchor);
        (ticks as f64 * self.ns_per_tick) as u64
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn raw_ticks() -> u64 {
    // SAFETY: RDTSC has no memory or register preconditions.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(target_arch = "x86_64")]
fn ns_per_tick() -> f64 {
    use std::sync::OnceLock;
    static NS_PER_TICK: OnceLock<f64> = OnceLock::new();
    *NS_PER_TICK.get_or_init(|| {
        let wall = std::time::Instant::now();
        let t0 = raw_ticks();
        std::thread::sleep(Duration::from_millis(5));
        let ticks = raw_ticks().saturating_sub(t0).max(1);
        wall.elapsed().as_nanos() as f64 / ticks as f64
    })
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn raw_ticks() -> u64 {
    use std::sync::OnceLock;
    static ANCHOR: OnceLock<std::time::Instant> = OnceLock::new();
    ANCHOR
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

#[cfg(not(target_arch = "x86_64"))]
fn ns_per_tick() -> f64 {
    1.0
}

/// A manually-advanced clock for deterministic tests: time moves only
/// when the test says so, so "the deadline fires exactly at
/// `max_delay`" is an assertable schedule rather than a sleep.
#[derive(Default)]
pub struct MockClock {
    ns: AtomicU64,
}

impl MockClock {
    /// A clock at t = 0.
    pub fn new() -> MockClock {
        MockClock::default()
    }

    /// Advances time by `d`.
    pub fn advance(&self, d: Duration) {
        // SEQCST: virtual test clock; not hot, simplest correct choice.
        self.ns.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
    }

    /// Advances time by `ns` nanoseconds.
    pub fn advance_ns(&self, ns: u64) {
        // SEQCST: virtual test clock; not hot, simplest correct choice.
        self.ns.fetch_add(ns, Ordering::SeqCst);
    }
}

impl Clock for MockClock {
    fn now_ns(&self) -> u64 {
        // SEQCST: virtual test clock; not hot, simplest correct choice.
        self.ns.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotone_and_roughly_calibrated() {
        let c = RealClock::new();
        let t0 = c.now_ns();
        std::thread::sleep(Duration::from_millis(2));
        let t1 = c.now_ns();
        assert!(t1 >= t0);
        // 2 ms slept must read between 1 ms and 1 s — a calibration
        // sanity check, not a precision one (noisy CI hosts).
        assert!(
            (1_000_000..1_000_000_000).contains(&(t1 - t0)),
            "elapsed {} ns",
            t1 - t0
        );
    }

    #[test]
    fn mock_clock_moves_only_when_advanced() {
        let c = MockClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 0);
        c.advance(Duration::from_micros(3));
        assert_eq!(c.now_ns(), 3_000);
        c.advance_ns(7);
        assert_eq!(c.now_ns(), 3_007);
    }
}

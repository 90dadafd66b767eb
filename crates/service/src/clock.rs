//! The flusher's injectable time source.
//!
//! Every deadline decision in the service goes through a [`Clock`], so
//! the flush policy is a pure function of (queue state, `now_ns`): prod
//! wires in [`RealClock`] and the deterministic batteries a
//! [`MockClock`] they advance by hand — every deadline path is then a
//! schedule the test enumerates, not a race it hopes to win.
//!
//! [`RealClock`] reads the OS monotonic clock through an [`Instant`]
//! taken at construction: no calibration, no per-architecture code.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic nanosecond clock the flusher consults for deadlines.
/// Implementations must be cheap: `submit` reads it once per slab it
/// opens — once per request in passthrough configurations — and the
/// flusher once per decision.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary fixed origin (construction for
    /// [`RealClock`], zero for [`MockClock`]). Monotone non-decreasing.
    fn now_ns(&self) -> u64;
}

/// The production clock: nanoseconds since construction, by [`Instant`].
pub struct RealClock {
    anchor: Instant,
}

impl RealClock {
    /// A clock anchored at now.
    pub fn new() -> RealClock {
        RealClock {
            anchor: Instant::now(),
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
        u64::try_from(self.anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
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

    /// Advances time by `d`, saturating at `u64::MAX` nanoseconds.
    pub fn advance(&self, d: Duration) {
        self.advance_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Advances time by `ns` nanoseconds, saturating at `u64::MAX`: the
    /// clock stops at its end rather than wrap back to the past.
    pub fn advance_ns(&self, ns: u64) {
        let clock = &self.ns;
        let saturating = |t: u64| Some(t.saturating_add(ns));
        // SEQCST: virtual test clock; not hot, simplest correct choice.
        let _ = clock.fetch_update(Ordering::SeqCst, Ordering::SeqCst, saturating);
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
        // 2 ms slept must read between 1 ms and 1 s — a sanity check,
        // not a precision one (noisy CI hosts).
        assert!(
            (1_000_000..1_000_000_000).contains(&(t1 - t0)),
            "elapsed {} ns",
            t1 - t0
        );
    }

    #[test]
    fn real_clock_counts_from_its_own_construction() {
        let early = RealClock::new();
        std::thread::sleep(Duration::from_millis(2));
        let late = RealClock::new();
        // Read the later clock first: it still reads at least the 2 ms
        // between the two anchors less than the earlier one.
        let l = late.now_ns();
        let e = early.now_ns();
        assert!(e >= l + 2_000_000, "early {e} ns, late {l} ns");
        assert!(l < 1_000_000_000, "late {l} ns");
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

    #[test]
    fn mock_clock_saturates_instead_of_wrapping() {
        let c = MockClock::new();
        c.advance_ns(u64::MAX);
        assert_eq!(c.now_ns(), u64::MAX);
        c.advance_ns(u64::MAX);
        assert_eq!(c.now_ns(), u64::MAX, "a second advance must not wrap back");
        c.advance(Duration::MAX);
        assert_eq!(c.now_ns(), u64::MAX, "a Duration past u64 ns saturates");
    }
}

//! Allocation-free per-operation latency recording for the measurement
//! harness: a fixed 64-bucket power-of-two histogram (`[u64; 64]`, one
//! per worker — no atomics, no heap, no locks anywhere near
//! the measured loop), merged after the workers join, with percentile
//! extraction for the bench artifacts (`p50_ns` / `p99_ns` / `p999_ns`).
//!
//! ## Clock
//!
//! [`now`] reads the TSC directly on x86-64 (one `rdtsc`, ~6 ns, no
//! syscall, no vDSO call) and falls back to a monotonic-`Instant` delta
//! elsewhere. Raw ticks are converted to nanoseconds only at
//! [`elapsed_ns`] via a factor calibrated once per process
//! ([`calibrate`], ~5 ms against the OS monotonic clock); `run_trial`
//! calibrates **before** spawning workers so the first measured op never
//! pays for it. Modern x86-64 TSCs are invariant and socket-synchronized,
//! which is what makes cross-`now` deltas meaningful even under
//! migration.
//!
//! ## Resolution and error bound
//!
//! Bucket `b ≥ 1` holds samples in `[2^(b-1), 2^b)` ns; bucket 0 holds
//! exact zeros. A percentile is reported as the **upper edge** of the
//! bucket containing the rank, so the reported value is never below the
//! true percentile and overshoots it by strictly less than 2× — the
//! standard trade of log-scale histograms (HdrHistogram with one
//! significant digit): 512 bytes per histogram, O(1) record, O(64)
//! merge, and tail buckets as precise (relatively) as the median's.

use std::time::Duration;

/// Number of power-of-two buckets; covers `[0, 2^62)` ns (≈ 146 years)
/// with the last bucket absorbing anything larger.
pub const BUCKETS: usize = 64;

/// A fixed-bucket log-scale latency histogram. Plain `u64` counters —
/// `record` is an index computation and an increment, nothing else.
#[derive(Clone, Copy, Debug)]
pub struct Histogram {
    counts: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
        }
    }

    /// Bucket index for a sample: 0 for 0, else `floor(log2(ns)) + 1`,
    /// clamped into the last bucket.
    #[inline]
    pub fn bucket(ns: u64) -> usize {
        ((u64::BITS - ns.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Upper edge (inclusive) of a bucket — what percentiles report.
    pub fn bucket_upper(b: usize) -> u64 {
        match b {
            0 => 0,
            b if b >= BUCKETS - 1 => u64::MAX,
            b => (1u64 << b) - 1,
        }
    }

    /// Records one sample (nanoseconds). Allocation-free and branch-light.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
    }

    /// Adds every count of `other` into `self` (worker → trial merge).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `p`-quantile (`0 < p ≤ 1`) as the upper edge of the bucket
    /// holding the rank-`⌈p·n⌉` sample; 0 on an empty histogram. The
    /// reported value is ≥ the true percentile and < 2× it (see module
    /// docs).
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_upper(b);
            }
        }
        Self::bucket_upper(BUCKETS - 1)
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }
}

// --- clock ----------------------------------------------------------------

/// An opaque timestamp in clock units (TSC ticks on x86-64, nanoseconds
/// elsewhere). Only meaningful to [`elapsed_ns`] within one process.
#[inline]
pub fn now() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC has no memory or register preconditions.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        instant_ns()
    }
}

/// Nanoseconds elapsed since a [`now`] timestamp (saturating — a
/// migration across non-invariant TSCs yields 0, not a wrapped huge
/// value).
#[inline]
pub fn elapsed_ns(start: u64) -> u64 {
    let ticks = now().saturating_sub(start);
    #[cfg(target_arch = "x86_64")]
    {
        (ticks as f64 * ns_per_tick()) as u64
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        ticks
    }
}

/// Forces clock calibration now (first call measures ~5 ms of TSC
/// against `Instant`; later calls are a cached load). `run_trial` calls
/// this before spawning workers so calibration never lands inside a
/// measured region.
pub fn calibrate() {
    #[cfg(target_arch = "x86_64")]
    {
        let _ = ns_per_tick();
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = instant_ns();
    }
}

#[cfg(target_arch = "x86_64")]
fn ns_per_tick() -> f64 {
    use std::sync::OnceLock;
    static NS_PER_TICK: OnceLock<f64> = OnceLock::new();
    *NS_PER_TICK.get_or_init(|| {
        let wall = std::time::Instant::now();
        let t0 = now();
        std::thread::sleep(Duration::from_millis(5));
        let ticks = now().saturating_sub(t0).max(1);
        wall.elapsed().as_nanos() as f64 / ticks as f64
    })
}

#[cfg(not(target_arch = "x86_64"))]
fn instant_ns() -> u64 {
    use std::sync::OnceLock;
    static ANCHOR: OnceLock<std::time::Instant> = OnceLock::new();
    ANCHOR
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket((1 << 20) - 1), 20);
        assert_eq!(Histogram::bucket(1 << 20), 21);
        assert_eq!(Histogram::bucket(u64::MAX), BUCKETS - 1);
        // Every bucket's upper edge maps back into the same bucket.
        for b in 0..BUCKETS - 1 {
            assert_eq!(
                Histogram::bucket(Histogram::bucket_upper(b)),
                b,
                "bucket {b}"
            );
        }
    }

    #[test]
    fn percentile_matches_sorted_vec_oracle_within_one_bucket() {
        // The exact oracle: the histogram percentile must be the upper
        // edge of the bucket containing the true (sorted-Vec) percentile
        // — i.e. `true ≤ reported < 2 × max(true, 1)` — for every
        // percentile we emit, across several shapes.
        let shapes: Vec<Vec<u64>> = vec![
            (1..=1000u64).collect(),
            (0..1000u64).map(|i| i * i).collect(),
            vec![5; 999].into_iter().chain([1_000_000]).collect(),
            vec![0, 0, 0, 1, 2, 3],
        ];
        for samples in shapes {
            let mut h = Histogram::new();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for &s in &samples {
                h.record(s);
            }
            assert_eq!(h.count(), samples.len() as u64);
            for p in [0.5, 0.9, 0.99, 0.999] {
                let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let truth = sorted[rank - 1];
                let got = h.percentile(p);
                assert_eq!(
                    got,
                    Histogram::bucket_upper(Histogram::bucket(truth)),
                    "p{p}: oracle {truth}, histogram {got}"
                );
                assert!(got >= truth, "p{p}: reported {got} below true {truth}");
                assert!(
                    got < 2 * truth.max(1),
                    "p{p}: reported {got} ≥ 2× true {truth}"
                );
            }
        }
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
    }

    #[test]
    fn merge_is_count_preserving_and_commutative() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..500u64 {
            a.record(i * 3);
            b.record(i * 7 + 1);
        }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab.count(), 1000);
        assert_eq!(ab.counts, ba.counts);
        // Merging equals recording everything into one histogram.
        let mut one = Histogram::new();
        for i in 0..500u64 {
            one.record(i * 3);
            one.record(i * 7 + 1);
        }
        assert_eq!(one.counts, ab.counts);
    }

    #[test]
    fn clock_is_monotone_and_calibrated() {
        calibrate();
        let t0 = now();
        std::thread::sleep(Duration::from_millis(2));
        let ns = elapsed_ns(t0);
        // 2 ms sleep must measure between 1 ms and 1 s even on a noisy
        // host — this is a calibration sanity check, not a precision one.
        assert!(
            (1_000_000..1_000_000_000).contains(&ns),
            "2ms slept, {ns} ns measured"
        );
    }
}

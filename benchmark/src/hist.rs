//! Log-linear latency histogram: 32 sub-buckets per octave, so a bucket
//! is at most 1/32 (3.125 %) of its lower edge wide.
//!
//! `workload::Histogram` buckets by powers of two; a percentile sitting
//! near one of its edges moves by 100 % between runs, which no regression
//! bound survives. Here values below 32 ns are exact, larger ones keep
//! their top six significant bits, and a percentile is interpolated
//! linearly inside its bucket, so reported values are continuous rather
//! than one of a few dozen edges.

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Exact buckets for `0..32`, then 32 per octave for msb 5..=63.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// A fixed-size histogram of nanosecond samples. `record` is an index
/// computation and an increment; nothing allocates after `new`.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = (63 - v.leading_zeros()) - SUB_BITS;
    ((shift as usize + 1) << SUB_BITS) + ((v >> shift) as usize & (SUB - 1))
}

/// Smallest value that lands in bucket `idx`.
fn lower(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let shift = (idx >> SUB_BITS) - 1;
    ((SUB + (idx & (SUB - 1))) as u64) << shift
}

/// Number of distinct values bucket `idx` covers.
fn width(idx: usize) -> u64 {
    if idx < SUB {
        1
    } else {
        1 << ((idx >> SUB_BITS) - 1)
    }
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
    }

    /// The `p`-quantile (`0 < p <= 1`) in nanoseconds: the bucket holding
    /// rank `p * n`, interpolated by how far into the bucket the rank
    /// falls. Within one bucket width (3.125 %) of the exact sample; 0.0
    /// when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (p * self.total as f64).clamp(1.0, self.total as f64);
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && (before + c) as f64 >= rank {
                let into = (rank - before as f64) / c as f64;
                return lower(idx) as f64 + into * width(idx) as f64;
            }
            before += c;
        }
        unreachable!("rank is clamped to the sample count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_round_trip_and_stay_within_one_thirty_second() {
        for idx in 0..BUCKETS {
            let (lo, w) = (lower(idx), width(idx));
            assert_eq!(index(lo), idx, "lower edge of {idx}");
            assert_eq!(index(lo + (w - 1)), idx, "upper edge of {idx}");
            if idx + 1 < BUCKETS {
                assert_eq!(
                    lower(idx + 1),
                    lo + w,
                    "buckets {idx} and next are adjacent"
                );
            }
            assert!(
                w == 1 || w * 32 <= lo,
                "bucket {idx}: width {w} over lower {lo}"
            );
        }
        assert_eq!(index(0), 0);
        assert_eq!(index(31), 31);
        assert_eq!(index(32), 32);
        assert_eq!(index(63), 63);
        assert_eq!(index(64), 64);
        assert_eq!(index(65), 64);
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_are_monotone_and_within_bucket_error_of_a_sorted_oracle() {
        let shapes: Vec<Vec<u64>> = vec![
            (1..=100_000u64).collect(),
            (0..50_000u64).map(|i| 200 + (i * i) % 90_000).collect(),
            std::iter::repeat_n(1_000, 9_900)
                .chain((0..100).map(|i| 40_000 + 97 * i))
                .collect(),
        ];
        for samples in shapes {
            let mut h = Hist::new();
            for &s in &samples {
                h.record(s);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let mut last = 0.0;
            for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                let got = h.percentile(p);
                assert!(got >= last, "p{p} = {got} below the previous {last}");
                last = got;
                let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let truth = sorted[rank - 1] as f64;
                assert!(
                    (got - truth).abs() <= truth * 0.032 + 1.0,
                    "p{p}: histogram {got}, oracle {truth}"
                );
            }
        }
        assert_eq!(Hist::new().percentile(0.5), 0.0);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut one) = (Hist::new(), Hist::new(), Hist::new());
        for i in 0..5_000u64 {
            a.record(i * 3);
            b.record(i * 7 + 1);
            one.record(i * 3);
            one.record(i * 7 + 1);
        }
        a.merge(&b);
        assert_eq!(a.total, 10_000);
        assert_eq!(a.counts[..], one.counts[..]);
        assert_eq!(a.percentile(0.99), one.percentile(0.99));
    }
}

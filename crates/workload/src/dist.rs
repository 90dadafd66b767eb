//! Key distributions for workload generation: uniform, zipfian and
//! hot-set, behind one [`KeySampler`] the harness builds **once per
//! trial** and samples from **before the timing barrier** — the
//! generator never runs inside the measured loop (pre-generated key
//! streams, the ppsim/YCSB methodology), so a heavier distribution
//! cannot masquerade as structure slowdown.
//!
//! Zipfian sampling is exact inverse-CDF over the ranked key space
//! (cumulative weights `1/(r+1)^θ`, binary search per draw), valid for
//! **any** θ ≥ 0 — including θ > 1, where the closed-form YCSB
//! generator breaks down. Ranks are scattered over the key range by a
//! bijective mixer (cycle-walking over the next power of two), so the
//! hot keys are spread across the key space rather than packed into a
//! few adjacent tree leaves: skew stresses *contention*, not leaf
//! locality. For key ranges beyond [`ZIPF_EXACT_RANKS`] the head stays
//! exact and the tail is approximated as uniform with the tail's
//! aggregate mass (the head holds almost all of it at any interesting θ).

use rand::{rngs::StdRng, Rng, RngCore};

/// How keys are drawn from the key range `[0, range)`.
///
/// `θ` and the hot-set fractions are stored in integer percent so a
/// `KeyDist` stays `Copy + Eq` and usable in `const` contexts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyDist {
    /// Every key equally likely — the paper's methodology and the
    /// default everywhere.
    Uniform,
    /// Zipfian with exponent `theta = theta_pct / 100`: rank `r` (0 =
    /// hottest) is drawn with probability proportional to
    /// `1 / (r + 1)^theta`. `theta_pct = 0` degenerates to uniform.
    Zipfian {
        /// `θ × 100` (`90` is the YCSB default 0.9).
        theta_pct: u32,
    },
    /// A two-temperature distribution: `ops_pct`% of draws land
    /// uniformly in a hot set of `keys_pct`% of the key range, the rest
    /// uniformly in the cold remainder. The hot set is scattered across
    /// the range (not a contiguous prefix).
    HotSet {
        /// Hot-set size as a percent of the key range (≥ 1 key).
        keys_pct: u32,
        /// Percent of operations directed at the hot set.
        ops_pct: u32,
    },
}

impl KeyDist {
    /// Whether the distribution draws every key with equal probability.
    pub fn is_uniform(&self) -> bool {
        matches!(self, KeyDist::Uniform)
            || matches!(self, KeyDist::Zipfian { theta_pct: 0 })
            || matches!(self, KeyDist::HotSet { ops_pct: 0, .. })
    }
}

/// Ranks with exact zipfian CDF entries; beyond this the tail is
/// approximated as uniform (see module docs). 2^21 covers the paper's
/// largest key range (10^6) exactly.
pub const ZIPF_EXACT_RANKS: usize = 1 << 21;

/// A prepared sampler for one `(KeyDist, range)` pair. Construction is
/// `O(min(range, ZIPF_EXACT_RANKS))` for zipfian (it materializes the
/// CDF) and `O(1)` otherwise; sampling is `O(log ranks)` worst case.
/// Build it once per trial, outside the timed region.
pub struct KeySampler {
    range: u64,
    kind: SamplerKind,
}

enum SamplerKind {
    Uniform,
    Zipf {
        /// Cumulative normalized weights of ranks `0..cdf.len()`.
        cdf: Vec<f64>,
        /// Probability mass of the exact head (1.0 when the whole range
        /// is materialized).
        head_mass: f64,
    },
    Hot {
        hot_keys: u64,
        ops_pct: u32,
    },
}

impl KeySampler {
    /// Prepares a sampler for `dist` over `[0, range)`.
    ///
    /// # Panics
    ///
    /// If `range == 0`.
    pub fn new(dist: KeyDist, range: u64) -> KeySampler {
        assert!(range > 0, "empty key range");
        let kind = match dist {
            KeyDist::Uniform => SamplerKind::Uniform,
            KeyDist::Zipfian { theta_pct: 0 } => SamplerKind::Uniform,
            KeyDist::Zipfian { theta_pct } => {
                let theta = theta_pct as f64 / 100.0;
                let ranks = range.min(ZIPF_EXACT_RANKS as u64) as usize;
                let mut cdf = Vec::with_capacity(ranks);
                let mut sum = 0.0f64;
                for r in 0..ranks {
                    sum += 1.0 / ((r + 1) as f64).powf(theta);
                    cdf.push(sum);
                }
                // Tail mass of ranks [ranks, range), continuous
                // approximation of the truncated zeta remainder.
                let tail = if (range as usize) > ranks {
                    let a = ranks as f64 + 1.0;
                    let b = range as f64 + 1.0;
                    if (theta - 1.0).abs() < 1e-9 {
                        (b / a).ln()
                    } else {
                        (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
                    }
                } else {
                    0.0
                };
                let total = sum + tail;
                for c in &mut cdf {
                    *c /= total;
                }
                SamplerKind::Zipf {
                    cdf,
                    head_mass: sum / total,
                }
            }
            KeyDist::HotSet { keys_pct, ops_pct } => {
                assert!(
                    (1..=100).contains(&keys_pct) && ops_pct <= 100,
                    "hot set: keys_pct in [1,100], ops_pct in [0,100]"
                );
                let hot_keys = ((range as u128 * keys_pct as u128) / 100).max(1) as u64;
                SamplerKind::Hot { hot_keys, ops_pct }
            }
        };
        KeySampler { range, kind }
    }

    /// Draws one key from `[0, range)` under the prepared distribution.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        match &self.kind {
            SamplerKind::Uniform => rng.gen_range(0..self.range),
            SamplerKind::Zipf { cdf, head_mass } => {
                let u = unit_f64(rng);
                let rank = if u < *head_mass || cdf.len() as u64 == self.range {
                    // Exact head: binary search the CDF. Clamp covers
                    // u == head_mass rounding on fully-materialized
                    // ranges.
                    cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u64
                } else {
                    // Approximated tail: uniform over the residual ranks.
                    rng.gen_range(cdf.len() as u64..self.range)
                };
                scatter(rank, self.range)
            }
            SamplerKind::Hot { hot_keys, ops_pct } => {
                let hot = rng.gen_range(0..100u32) < *ops_pct;
                let rank = if hot || *hot_keys == self.range {
                    rng.gen_range(0..*hot_keys)
                } else {
                    rng.gen_range(*hot_keys..self.range)
                };
                scatter(rank, self.range)
            }
        }
    }

    /// The key range `[0, range)` this sampler draws from.
    pub fn range(&self) -> u64 {
        self.range
    }

    /// The rank → key permutation this sampler applies (exposed so the
    /// statistical tests can invert it).
    pub fn key_of_rank(&self, rank: u64) -> u64 {
        match self.kind {
            SamplerKind::Uniform => rank,
            _ => scatter(rank, self.range),
        }
    }
}

/// Uniform `f64` in `[0, 1)` with 53 random mantissa bits.
fn unit_f64(rng: &mut StdRng) -> f64 {
    ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
}

/// A deterministic bijection on `[0, range)`: multiply/xorshift rounds
/// (each invertible modulo the next power of two) with cycle-walking
/// until the image lands back inside the range. Spreads zipf ranks and
/// the hot set across the key space so popularity skew doesn't collapse
/// into adjacency skew.
pub fn scatter(rank: u64, range: u64) -> u64 {
    debug_assert!(rank < range);
    if range <= 2 {
        return rank;
    }
    let mask = range.next_power_of_two().wrapping_sub(1);
    let mut x = rank;
    loop {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask;
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9) & mask;
        x ^= x >> 17;
        if x < range {
            return x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn scatter_is_a_bijection() {
        for range in [1u64, 2, 3, 100, 1000, 1024] {
            let mut seen = vec![false; range as usize];
            for r in 0..range {
                let k = scatter(r, range);
                assert!(k < range, "scatter({r}, {range}) = {k} out of range");
                assert!(!seen[k as usize], "scatter collision at {k}");
                seen[k as usize] = true;
            }
        }
    }

    #[test]
    fn uniform_and_theta_zero_cover_the_range() {
        for dist in [KeyDist::Uniform, KeyDist::Zipfian { theta_pct: 0 }] {
            let s = KeySampler::new(dist, 64);
            let mut rng = StdRng::seed_from_u64(5);
            let mut seen = [false; 64];
            for _ in 0..4096 {
                seen[s.sample(&mut rng) as usize] = true;
            }
            assert!(seen.iter().all(|&b| b), "{dist:?} left keys unsampled");
        }
    }

    #[test]
    fn zipf_is_deterministic_under_a_fixed_seed() {
        for theta_pct in [90, 120] {
            let s = KeySampler::new(KeyDist::Zipfian { theta_pct }, 10_000);
            let mut a = StdRng::seed_from_u64(77);
            let mut b = StdRng::seed_from_u64(77);
            for _ in 0..1000 {
                assert_eq!(s.sample(&mut a), s.sample(&mut b));
            }
        }
    }

    #[test]
    fn zipf_rank_frequencies_are_monotone() {
        // Statistical contract: bucketing ranks by octave, the *average
        // per-rank frequency* must strictly decrease octave over octave.
        // 200k samples over 1024 ranks at θ = 0.9 puts each comparison
        // far outside noise.
        for theta_pct in [90u32, 120] {
            let range = 1024u64;
            let s = KeySampler::new(KeyDist::Zipfian { theta_pct }, range);
            // Invert the scatter once so counts are per *rank*.
            let mut rank_of_key = vec![0u64; range as usize];
            for r in 0..range {
                rank_of_key[s.key_of_rank(r) as usize] = r;
            }
            let mut rng = StdRng::seed_from_u64(theta_pct as u64);
            let mut counts = vec![0u64; range as usize];
            for _ in 0..200_000 {
                counts[rank_of_key[s.sample(&mut rng) as usize] as usize] += 1;
            }
            let octaves: Vec<(u64, u64)> = [0..1u64, 1..2, 2..4, 4..8, 8..16, 16..64, 64..1024]
                .into_iter()
                .map(|r| {
                    let n = r.end - r.start;
                    (r.map(|i| counts[i as usize]).sum::<u64>(), n)
                })
                .collect();
            for w in octaves.windows(2) {
                let (a, na) = w[0];
                let (b, nb) = w[1];
                assert!(
                    a * nb > b * na,
                    "θ={}: per-rank frequency not decreasing: {a}/{na} vs {b}/{nb}",
                    theta_pct as f64 / 100.0
                );
            }
        }
    }

    #[test]
    fn higher_theta_concentrates_more_mass_on_the_head() {
        let range = 4096u64;
        let head_share = |theta_pct: u32| {
            let s = KeySampler::new(KeyDist::Zipfian { theta_pct }, range);
            let head: std::collections::HashSet<u64> = (0..16).map(|r| s.key_of_rank(r)).collect();
            let mut rng = StdRng::seed_from_u64(9);
            (0..100_000)
                .filter(|_| head.contains(&s.sample(&mut rng)))
                .count() as f64
                / 100_000.0
        };
        let (z0, z9, z12) = (head_share(0), head_share(90), head_share(120));
        assert!(z0 < 0.02, "uniform head share {z0}");
        assert!(z9 > 4.0 * z0, "θ=0.9 head share {z9} vs uniform {z0}");
        assert!(z12 > z9, "θ=1.2 head share {z12} vs θ=0.9 {z9}");
    }

    #[test]
    fn hot_set_receives_its_share_of_ops() {
        let range = 10_000u64;
        let s = KeySampler::new(
            KeyDist::HotSet {
                keys_pct: 10,
                ops_pct: 90,
            },
            range,
        );
        let hot: std::collections::HashSet<u64> =
            (0..range / 10).map(|r| s.key_of_rank(r)).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..100_000)
            .filter(|_| hot.contains(&s.sample(&mut rng)))
            .count();
        assert!(
            (88_000..92_000).contains(&hits),
            "hot set drew {hits}/100000 ops, expected ~90000"
        );
        // The hot set is scattered, not a contiguous prefix.
        assert!(hot.iter().any(|&k| k > range / 2));
    }

    #[test]
    fn large_range_tail_approximation_still_samples_the_tail() {
        let range = (ZIPF_EXACT_RANKS as u64) * 4;
        let s = KeySampler::new(KeyDist::Zipfian { theta_pct: 90 }, range);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20_000 {
            assert!(s.sample(&mut rng) < range);
        }
    }
}

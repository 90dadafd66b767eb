//! # Workload generation and throughput measurement
//!
//! Reproduces the experimental methodology of §6: operation mixes `xi-yd`
//! (x% inserts, y% deletes, rest `get`s), key ranges controlling contention,
//! prefilling to the steady-state expected size, and timed multi-thread
//! trials measuring total throughput.

#![warn(missing_docs)]

pub mod adapters;
pub mod config;
pub mod dist;
pub mod latency;
pub mod oracle;

pub use adapters::{
    make_hybrid, make_map, make_sharded, ChromaticShard, ConcurrentMap, HopShard, HybridShard,
    RangeTier, ALL_MAPS, TIER_ALLOWED_VIOLATIONS,
};
pub use config::SuiteConfig;
pub use dist::{KeyDist, KeySampler};
pub use latency::Histogram;
pub use oracle::{
    assert_scan_per_key, check_against_model, check_against_model_dist, check_batches_against_model,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};

/// An operation mix in the paper's `xi-yd` notation: `inserts`% inserts,
/// `deletes`% removes, the rest lookups. The paper's mixes are 50i-50d,
/// 20i-10d and 0i-0d.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    /// Percent of operations that are `insert`.
    pub inserts: u32,
    /// Percent of operations that are `remove`.
    pub deletes: u32,
}

impl Mix {
    /// The paper's three mixes.
    pub const ALL: [Mix; 3] = [
        Mix::updates(50, 50),
        Mix::updates(20, 10),
        Mix::updates(0, 0),
    ];

    /// An update/lookup mix: `inserts`% inserts, `deletes`% removes, the
    /// rest lookups.
    pub const fn updates(inserts: u32, deletes: u32) -> Mix {
        assert!(inserts + deletes <= 100, "mix percentages exceed 100");
        Mix { inserts, deletes }
    }

    /// Expected steady-state size as a fraction of the key range (§6):
    /// 1/2 for 50i-50d (last op on a key equally likely insert or delete),
    /// 2/3 for 20i-10d (insert twice as likely), 1/2 for query-only.
    pub fn steady_state_fraction(&self) -> f64 {
        if self.inserts + self.deletes == 0 {
            0.5
        } else {
            self.inserts as f64 / (self.inserts + self.deletes) as f64
        }
    }
}

/// The paper's `xi-yd` label, e.g. `20i-10d`.
impl std::fmt::Display for Mix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}i-{}d", self.inserts, self.deletes)
    }
}

/// Fills `map` with distinct uniform random keys from `[0, range)` until it
/// holds the steady-state expected size for `mix` (the paper prefilled by
/// running the workload until within 5% of that size; direct sampling
/// reaches the same distribution faster).
pub fn prefill(map: &dyn ConcurrentMap, range: u64, mix: Mix, seed: u64) {
    let target = (range as f64 * mix.steady_state_fraction()) as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inserted = 0u64;
    while inserted < target {
        let k = rng.gen_range(0..range);
        if map.insert(k, k).is_none() {
            inserted += 1;
        }
    }
    // Announce quiescence (DEBRA-style): the prefilling thread goes idle
    // next (it sleeps through the trial), and a warm cached epoch guard
    // would stall reclamation for every worker until it woke up.
    llxscx::epoch::flush();
}

/// Result of one timed trial.
#[derive(Clone, Copy, Debug)]
pub struct TrialResult {
    /// Total operations completed by all threads.
    pub ops: u64,
    /// Wall-clock duration measured.
    pub elapsed: Duration,
    /// Per-op latency, merged across workers after the join (each worker
    /// records into its own plain `u64` buckets inside the measured loop —
    /// no atomics, no allocation).
    pub latency: Histogram,
}

impl TrialResult {
    /// Millions of operations per second — the y-axis of Figure 8.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }
}

/// Length of each worker's pre-generated key/op-kind stream (a power of
/// two so the replay cursor is a mask, not a division). 64 Ki entries ≈
/// 0.5 MiB of keys per worker; a trial longer than the stream replays it
/// from the top, which preserves the distribution exactly.
const STREAM: usize = 1 << 16;
const STREAM_MASK: usize = STREAM - 1;

/// Op-kind bytes of the pre-generated stream.
const INS: u8 = 0;
const REM: u8 = 1;
const GET: u8 = 2;

/// Pre-generates one worker's operation stream: `STREAM` uniform keys
/// from `[0, range)` and `STREAM` op-kind bytes drawn from the mix's
/// percentages. Runs **before** the timing barrier so the RNG never
/// executes inside the measured loop.
fn pregen_stream(mix: Mix, range: u64, rng: &mut StdRng) -> (Vec<u64>, Vec<u8>) {
    let keys: Vec<u64> = (0..STREAM).map(|_| rng.gen_range(0..range)).collect();
    let kinds: Vec<u8> = (0..STREAM)
        .map(|_| {
            let dice = rng.gen_range(0..100);
            if dice < mix.inserts {
                INS
            } else if dice < mix.inserts + mix.deletes {
                REM
            } else {
                GET
            }
        })
        .collect();
    (keys, kinds)
}

/// Runs one timed trial: `threads` workers each executing the `mix` on
/// uniform keys from `[0, range)` for `duration`.
///
/// Each worker pre-generates its key and op-kind streams **before** the
/// timing barrier; the measured loop only indexes the streams, calls the
/// map, and bumps plain `u64` latency buckets — no RNG, no allocation, no
/// atomics (the `nblint` hot-loop gate enforces this region stays that
/// way). Per-op latency lands in a per-worker [`Histogram`] merged after
/// the join.
pub fn run_trial(
    map: &(dyn ConcurrentMap + Sync),
    threads: usize,
    mix: Mix,
    range: u64,
    duration: Duration,
    seed: u64,
) -> TrialResult {
    // Calibrate the latency clock before any worker exists, so the ~5 ms
    // one-time TSC calibration never lands inside a measured region.
    latency::calibrate();
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let merged = std::sync::Mutex::new(Histogram::new());
    // Keep thread spawning and stream pre-generation out of the timed
    // region: every worker sets up, then all parties meet at the barrier
    // and the clock starts there.
    let start_gate = std::sync::Barrier::new(threads + 1);
    let mut started = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let stop = &stop;
            let total = &total;
            let start_gate = &start_gate;
            let merged = &merged;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ ((tid as u64) << 32) | tid as u64);
                let (keys, kinds) = pregen_stream(mix, range, &mut rng);
                let mut hist = Histogram::new();
                let mut ops = 0u64;
                let mut cursor = 0usize;
                start_gate.wait();
                // cfgcheck:hotloop:begin
                // RELAXED: stop flag: guards no data, a late observation only lengthens the trial
                while !stop.load(Ordering::Relaxed) {
                    // Batch the stop check to keep the loop tight.
                    for _ in 0..64 {
                        let k = keys[cursor & STREAM_MASK];
                        let kind = kinds[cursor & STREAM_MASK];
                        cursor += 1;
                        let t0 = latency::now();
                        match kind {
                            INS => {
                                map.insert(k, k);
                            }
                            REM => {
                                map.remove(&k);
                            }
                            _ => {
                                map.get(&k);
                            }
                        }
                        hist.record(latency::elapsed_ns(t0));
                        ops += 1;
                    }
                }
                // cfgcheck:hotloop:end
                // RELAXED: throughput tally; aggregated after worker join
                total.fetch_add(ops, Ordering::Relaxed);
                merged.lock().unwrap().merge(&hist);
            });
        }
        start_gate.wait();
        started = Instant::now();
        std::thread::sleep(duration);
        // RELAXED: stop flag: guards no data, a late observation only lengthens the trial
        stop.store(true, Ordering::Relaxed);
    });
    TrialResult {
        // RELAXED: throughput tally; aggregated after worker join
        ops: total.load(Ordering::Relaxed),
        elapsed: started.elapsed(),
        latency: merged.into_inner().unwrap(),
    }
}

/// Runs `trials` trials (fresh prefilled map each time) and returns the
/// mean Mops/s together with the individual results. Maps are built
/// exclusively through `make_map(name, cfg)`, so the caller's
/// [`SuiteConfig`] — not the environment at call time — determines how
/// the `"sharded"` entry is sized.
#[allow(clippy::too_many_arguments)] // ALLOW: bench entry point mirrors the suite-config axes one-to-one
pub fn measure(
    name: &str,
    cfg: &SuiteConfig,
    threads: usize,
    mix: Mix,
    range: u64,
    duration: Duration,
    trials: usize,
    seed: u64,
) -> (f64, Vec<TrialResult>) {
    let mut results = Vec::with_capacity(trials);
    for t in 0..trials {
        let map = make_map(name, cfg).unwrap_or_else(|| panic!("unknown map {name}"));
        prefill(map.as_ref(), range, mix, seed + t as u64);
        let r = run_trial(
            map.as_ref(),
            threads,
            mix,
            range,
            duration,
            seed + 1000 + t as u64,
        );
        results.push(r);
    }
    let mean = results.iter().map(|r| r.mops()).sum::<f64>() / results.len() as f64;
    (mean, results)
}

/// The thread counts to sweep on this host, mirroring the paper's
/// {1, 32, 64, 96, 128} scaled to the available parallelism.
pub fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut counts = if max <= 2 {
        // Few-core host: sweep oversubscription instead. Parallel speedup
        // cannot manifest, but the blocking-vs-non-blocking contrast does:
        // preempted lock holders stall lock-based structures while the
        // non-blocking ones keep making progress through helping.
        vec![1, 2, 4, 8]
    } else {
        vec![1, max / 4, max / 2, (3 * max) / 4, max]
    };
    counts.retain(|&c| c >= 1);
    counts.sort_unstable();
    counts.dedup();
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_entries_split_the_key_range_they_are_built_for() {
        // The benchmark builds its sharded maps from exactly this config;
        // these tables are what keeps its cells comparable across changes.
        let tables: [(u64, [u64; 7]); 4] = [
            (100, [12, 25, 37, 50, 62, 75, 87]),
            (10_000, [1250, 2500, 3750, 5000, 6250, 7500, 8750]),
            (
                1 << 20,
                [131072, 262144, 393216, 524288, 655360, 786432, 917504],
            ),
            // A range below the shard count still yields 8 non-empty shards.
            (5, [1, 2, 3, 4, 5, 6, 7]),
        ];
        for (range, table) in tables {
            let cfg = SuiteConfig::default().for_key_range(range);
            assert_eq!(
                make_sharded(&cfg).boundaries(),
                table,
                "sharded, range {range}"
            );
            assert_eq!(
                make_hybrid(&cfg).boundaries(),
                table,
                "hybrid, range {range}"
            );
        }
    }

    #[test]
    fn prefill_reaches_expected_size() {
        let map = make_map("chromatic", &SuiteConfig::default()).unwrap();
        prefill(map.as_ref(), 1000, Mix::updates(50, 50), 3);
        let n = map.len();
        assert!((450..=550).contains(&n), "prefilled size {n}");
    }

    #[test]
    fn trial_counts_operations() {
        let map = make_map("skiplist", &SuiteConfig::default()).unwrap();
        prefill(map.as_ref(), 1000, Mix::updates(20, 10), 3);
        let r = run_trial(
            map.as_ref(),
            2,
            Mix::updates(20, 10),
            1000,
            Duration::from_millis(100),
            9,
        );
        assert!(r.ops > 0);
        assert!(r.mops() > 0.0);
        assert_eq!(r.latency.count(), r.ops, "every op lands in a bucket");
        assert!(r.latency.p99() >= r.latency.p50());
    }

    #[test]
    fn trial_runs_on_every_map() {
        let cfg = SuiteConfig::default().for_key_range(500);
        for name in ALL_MAPS {
            let map = make_map(name, &cfg).unwrap();
            let mix = Mix::updates(20, 10);
            prefill(map.as_ref(), 500, mix, 3);
            let r = run_trial(map.as_ref(), 2, mix, 500, Duration::from_millis(50), 11);
            assert!(r.ops > 0, "{name} performed no operations");
        }
    }

    #[test]
    fn mix_labels() {
        assert_eq!(Mix::updates(20, 10).to_string(), "20i-10d");
        assert_eq!(
            Mix::ALL.map(|m| m.to_string()),
            ["50i-50d", "20i-10d", "0i-0d"]
        );
    }

    #[test]
    fn thread_counts_sane() {
        let c = thread_counts();
        assert!(!c.is_empty());
        assert_eq!(c[0], 1);
        assert!(c.windows(2).all(|w| w[0] < w[1]));
    }
}

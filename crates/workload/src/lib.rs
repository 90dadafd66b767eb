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

pub use adapters::{
    make_hybrid, make_map, make_sharded, ConcurrentMap, HopShard, HybridShard, RangeTier, ALL_MAPS,
};
pub use config::SuiteConfig;
pub use dist::{KeyDist, KeySampler};
pub use latency::Histogram;

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
    llxscx::guard_cache::flush();
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
                total.fetch_add(ops, Ordering::Relaxed);
                merged.lock().unwrap().merge(&hist);
            });
        }
        start_gate.wait();
        started = Instant::now();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    TrialResult {
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

/// Sanity helper shared by tests: applies `ops` scripted operations to a
/// map and to `BTreeMap`, asserting identical results — including ordered
/// `range` scans, so every registered structure's scan is oracle-checked.
///
/// The range assertion is **tiered** by [`ConcurrentMap::range_tier`]:
/// an [`RangeTier::Atomic`] scan must equal the model snapshot verbatim,
/// while a per-key-linearizable scan is held to exactly the properties
/// that tier promises (see [`assert_scan_per_key`]). Sequentially the
/// two are equivalent — the weak properties compose to set equality when
/// nothing runs concurrently — so splitting the oracle loses no
/// coverage; what it fixes is the *claim*: the old oracle asserted
/// snapshot atomicity for every structure, which the skip list only
/// passed because a single-threaded script can't distinguish the tiers
/// (and which a new weak-scan structure should not inherit).
pub fn check_against_model(map: &dyn ConcurrentMap, seed: u64, ops: u64, range: u64) {
    check_against_model_dist(map, seed, ops, range, KeyDist::Uniform);
}

/// [`check_against_model`] with keys drawn from an arbitrary [`KeyDist`]
/// instead of uniformly — what the skewed-workload tests use to show the
/// samplers feed structures keys they handle correctly (a zipfian stream
/// hammers the same hot keys through insert/remove/get/range in every
/// interleaving a sequential script can produce).
pub fn check_against_model_dist(
    map: &dyn ConcurrentMap,
    seed: u64,
    ops: u64,
    range: u64,
    dist: KeyDist,
) {
    use std::collections::BTreeMap;
    let sampler = KeySampler::new(dist, range);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = BTreeMap::new();
    for step in 0..ops {
        let k = sampler.sample(&mut rng);
        match rng.gen_range(0..4) {
            0 => assert_eq!(map.insert(k, step), model.insert(k, step), "insert {k}"),
            1 => assert_eq!(map.remove(&k), model.remove(&k), "remove {k}"),
            2 => assert_eq!(map.get(&k), model.get(&k).copied(), "get {k}"),
            _ => {
                let hi = k + rng.gen_range(0..range / 4 + 1);
                let expect: Vec<(u64, u64)> = model.range(k..=hi).map(|(k, v)| (*k, *v)).collect();
                assert_range_matches(map, map.range(k, hi), &expect, k, hi);
            }
        }
    }
}

/// The tier dispatch behind the model oracles' range checks.
fn assert_range_matches(
    map: &dyn ConcurrentMap,
    got: Vec<(u64, u64)>,
    expect: &[(u64, u64)],
    lo: u64,
    hi: u64,
) {
    match map.range_tier() {
        RangeTier::Atomic => {
            assert_eq!(got, expect, "{}: range [{lo}, {hi}]", map.name());
        }
        RangeTier::PerShardAtomic | RangeTier::PerKeyLinearizable => {
            assert_scan_per_key(&got, expect, map.name(), lo, hi);
        }
    }
}

/// Asserts the properties a per-key-linearizable (or per-shard-atomic)
/// scan owes a **sequential** caller: strictly sorted, no phantom pair
/// (everything returned is in the model) and no missing pair (everything
/// in the model is returned). Together these are set equality — the same
/// coverage as the atomic oracle's `assert_eq` — but stated as the
/// properties the tier actually promises, so the same predicate remains
/// sound for concurrent callers (where the atomic claim would not be).
pub fn assert_scan_per_key(
    got: &[(u64, u64)],
    expect: &[(u64, u64)],
    name: &str,
    lo: u64,
    hi: u64,
) {
    assert!(
        got.windows(2).all(|w| w[0].0 < w[1].0),
        "{name}: range [{lo}, {hi}] not strictly sorted: {got:?}"
    );
    for pair in got {
        assert!(
            expect.binary_search(pair).is_ok(),
            "{name}: range [{lo}, {hi}] returned phantom {pair:?}"
        );
    }
    for pair in expect {
        assert!(
            got.binary_search(pair).is_ok(),
            "{name}: range [{lo}, {hi}] missed {pair:?}"
        );
    }
}

/// Oracle check for the trait-level batched entry points: applies random
/// interleaved batches (insert/remove/get) and point ops to any
/// [`ConcurrentMap`] and to `BTreeMap`, asserting identical per-item
/// results in input order. Mirrors the trait's documented duplicate-key
/// semantics (a batch behaves like sequential input-order application),
/// so the model is simply "apply the batch one element at a time" — valid
/// for the per-element defaults, the façade's shard grouping and the
/// chromatic tree's sorted-bulk override alike.
pub fn check_batches_against_model(map: &dyn ConcurrentMap, seed: u64, batches: u64, range: u64) {
    use std::collections::BTreeMap;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = BTreeMap::new();
    for step in 0..batches {
        let len = rng.gen_range(0..48usize);
        match rng.gen_range(0..4) {
            0 => {
                let batch: Vec<(u64, u64)> = (0..len)
                    .map(|i| (rng.gen_range(0..range), step * 1000 + i as u64))
                    .collect();
                let expect: Vec<_> = batch.iter().map(|&(k, v)| model.insert(k, v)).collect();
                assert_eq!(map.insert_batch(&batch), expect, "insert_batch {batch:?}");
            }
            1 => {
                let keys: Vec<u64> = (0..len).map(|_| rng.gen_range(0..range)).collect();
                let expect: Vec<_> = keys.iter().map(|k| model.remove(k)).collect();
                assert_eq!(map.remove_batch(&keys), expect, "remove_batch {keys:?}");
            }
            2 => {
                let keys: Vec<u64> = (0..len).map(|_| rng.gen_range(0..range)).collect();
                let expect: Vec<_> = keys.iter().map(|k| model.get(k).copied()).collect();
                assert_eq!(map.get_batch(&keys), expect, "get_batch {keys:?}");
            }
            _ => {
                // Point ops and scans interleave with the batches so the
                // two entry-point families are checked against each other,
                // boundary-straddling ranges included.
                let k = rng.gen_range(0..range);
                assert_eq!(map.insert(k, step), model.insert(k, step));
                let hi = k + rng.gen_range(0..range / 2 + 1);
                let expect: Vec<(u64, u64)> = model.range(k..=hi).map(|(k, v)| (*k, *v)).collect();
                assert_range_matches(map, map.range(k, hi), &expect, k, hi);
            }
        }
    }
    assert_eq!(map.len(), model.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_map_matches_model() {
        let cfg = SuiteConfig::default();
        for name in ALL_MAPS {
            let map = make_map(name, &cfg).unwrap();
            check_against_model(map.as_ref(), 7, 3000, 128);
        }
    }

    #[test]
    fn sharded_batches_match_model() {
        // Boundaries at 32/64/96: a range of 128 keys over 4 shards keeps
        // every batch and scan straddling shard boundaries.
        let map = make_sharded(&SuiteConfig::default().with_shards(4).with_span(128));
        check_batches_against_model(&map, 11, 400, 128);
    }

    #[test]
    fn trait_batches_match_model_on_every_registered_map() {
        // The same oracle, through the trait object — covers the
        // per-element defaults and both overrides (façade + chromatic
        // sorted-bulk).
        let cfg = SuiteConfig::default().with_shards(4).with_span(128);
        for name in ALL_MAPS {
            let map = make_map(name, &cfg).unwrap();
            check_batches_against_model(map.as_ref(), 13, 150, 128);
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
    fn skewed_mixes_match_model_on_chromatic() {
        let cfg = SuiteConfig::default();
        let map = make_map("chromatic", &cfg).unwrap();
        check_against_model_dist(
            map.as_ref(),
            7,
            2000,
            128,
            KeyDist::Zipfian { theta_pct: 120 },
        );
        let map = make_map("chromatic", &cfg).unwrap();
        check_against_model_dist(
            map.as_ref(),
            9,
            2000,
            128,
            KeyDist::HotSet {
                keys_pct: 10,
                ops_pct: 90,
            },
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

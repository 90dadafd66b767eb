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
pub use latency::{Histogram, LatencySummary, OpHistograms, OpKind};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};

/// An operation mix: percentages of inserts, deletes and range scans (the
/// remainder are lookups), plus the *batch* knob. The paper's mixes are
/// 50i-50d, 20i-10d and 0i-0d; range scans and batched execution extend
/// the scenario axis beyond the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    /// Percent of operations that are `insert`.
    pub inserts: u32,
    /// Percent of operations that are `remove`.
    pub deletes: u32,
    /// Percent of operations that are ordered `range` scans.
    pub ranges: u32,
    /// Width of each range scan in key space: a scan starting at `k`
    /// covers `[k, k + range_width)`. Ignored when `ranges == 0`.
    pub range_width: u64,
    /// Operations per batch. `1` (the default) drives point ops; `n > 1`
    /// makes [`run_trial`] issue the trait-level batch entry points
    /// (`insert_batch` / `remove_batch` / `get_batch`) with `n` uniform
    /// random keys per call, each call counting as `n` operations — so
    /// Mops/s stays comparable with point-op runs. See
    /// [`with_batch`](Mix::with_batch).
    pub batch: u32,
    /// Key clustering within a batch: each random draw yields a *run* of
    /// this many consecutive keys (`base, base+1, …`). `1` (the default)
    /// is the uniform flavor; `r > 1` makes batches land runs of keys on
    /// shared leaves, the shape the chromatic tree's single-SCX run
    /// merging is built for. Ignored when `batch == 1`. See
    /// [`with_run`](Mix::with_run).
    pub run: u32,
    /// Percent of operations that are read-modify-write: a `get` of the
    /// key followed by an `insert` of a derived value, timed and counted
    /// as **one** operation — the canonical counter/accumulator shape.
    /// See [`with_rmw`](Mix::with_rmw) and [`rmw`](Mix::rmw).
    pub rmws: u32,
    /// How keys are drawn from the key range: uniform (the default and
    /// the paper's methodology), zipfian-θ or hot-set. See
    /// [`with_zipf`](Mix::with_zipf) and
    /// [`with_hot_set`](Mix::with_hot_set). The harness pre-generates
    /// per-worker key streams from this distribution before the timing
    /// barrier, so a heavier sampler never runs inside the measured loop.
    pub dist: KeyDist,
}

impl Mix {
    /// The paper's three mixes (no range component, point ops).
    pub const ALL: [Mix; 3] = [
        Mix::updates(50, 50),
        Mix::updates(20, 10),
        Mix::updates(0, 0),
    ];

    /// An update/lookup mix: `inserts`% inserts, `deletes`% removes, the
    /// rest lookups — the paper's `xi-yd` notation.
    pub const fn updates(inserts: u32, deletes: u32) -> Mix {
        assert!(inserts + deletes <= 100, "mix percentages exceed 100");
        Mix {
            inserts,
            deletes,
            ranges: 0,
            range_width: 0,
            batch: 1,
            run: 1,
            rmws: 0,
            dist: KeyDist::Uniform,
        }
    }

    /// A read-modify-write mix: `pct`% RMW ops (lookup + write-back of a
    /// derived value, one timed op), the rest plain lookups — the
    /// counter/accumulator workload (`wm` label segment).
    pub const fn rmw(pct: u32) -> Mix {
        Mix::updates(0, 0).with_rmw(pct)
    }

    /// A scan-heavy mix: 80% ordered range scans of `width` keys under a
    /// light 5i-5d churn — the analytics-over-live-writes workload.
    pub const fn scan_heavy(width: u64) -> Mix {
        Mix::updates(5, 5).with_ranges(80, width)
    }

    /// Converts `pct` of the *lookup* share into read-modify-write ops
    /// (`xi-yd-wm` notation). Incompatible with batched execution: the
    /// trait batch entry points have no RMW flavor.
    pub const fn with_rmw(mut self, pct: u32) -> Mix {
        assert!(
            self.inserts + self.deletes + self.ranges + pct <= 100,
            "mix percentages exceed 100"
        );
        assert!(
            self.batch <= 1 || pct == 0,
            "read-modify-write has no batched entry point; set rmw before batch"
        );
        self.rmws = pct;
        self
    }

    /// Draws keys zipfian with exponent `theta` (`-zT.TT` label suffix):
    /// rank `r` of the scattered popularity order is drawn with
    /// probability ∝ `1/(r+1)^theta`. `theta = 0` is exactly uniform;
    /// YCSB's default hot skew is 0.9; `theta > 1` concentrates most ops
    /// on a handful of keys. Stored in integer percent so `Mix` stays
    /// `Copy + Eq` (θ resolution 0.01).
    pub fn with_zipf(mut self, theta: f64) -> Mix {
        assert!(
            (0.0..=5.0).contains(&theta),
            "zipf theta out of sane range [0, 5]"
        );
        let theta_pct = (theta * 100.0).round() as u32;
        // θ = 0 *is* the uniform distribution; normalize so labels and
        // `Mix` equality don't distinguish two spellings of the same mix.
        self.dist = if theta_pct == 0 {
            KeyDist::Uniform
        } else {
            KeyDist::Zipfian { theta_pct }
        };
        self
    }

    /// Directs `ops_pct`% of operations at a scattered hot set of
    /// `keys_pct`% of the key range (`-hKxO` label suffix) — the
    /// two-temperature alternative to zipf.
    pub fn with_hot_set(mut self, keys_pct: u32, ops_pct: u32) -> Mix {
        assert!(
            (1..=100).contains(&keys_pct) && ops_pct <= 100,
            "hot set: keys_pct in [1,100], ops_pct in [0,100]"
        );
        self.dist = KeyDist::HotSet { keys_pct, ops_pct };
        self
    }

    /// Converts `percent` of the *lookup* share into range scans of
    /// `width` keys each (`xi-yd-zr` notation).
    pub const fn with_ranges(mut self, percent: u32, width: u64) -> Mix {
        assert!(
            self.inserts + self.deletes + self.rmws + percent <= 100,
            "mix percentages exceed 100"
        );
        assert!(width > 0, "range width must be positive");
        assert!(
            self.batch <= 1,
            "range scans have no batched entry point; set ranges before batch"
        );
        self.ranges = percent;
        self.range_width = width;
        self
    }

    /// Batches the mix: [`run_trial`] workers draw one op kind per batch
    /// (with this mix's percentages) and execute it through the
    /// trait-level batch entry points, `n` uniform random keys per call
    /// (`xi-yd-bn` notation). `n = 1` restores point ops. Incompatible
    /// with range scans, which have no batched entry point.
    pub const fn with_batch(mut self, n: u32) -> Mix {
        assert!(n >= 1, "batch size must be at least 1");
        assert!(
            self.ranges == 0 || n == 1,
            "range scans have no batched entry point"
        );
        assert!(
            self.rmws == 0 || n == 1,
            "read-modify-write has no batched entry point"
        );
        self.batch = n;
        self
    }

    /// Clusters batched keys into runs of `r` consecutive keys per random
    /// draw (`xi-yd-bn-cr` notation): a batch of 64 with `r = 8` is eight
    /// random bases, each expanded to `base..base + 8`. This is the
    /// workload axis for the run-merging bulk paths — consecutive keys
    /// share destination leaves, so a merged install replaces `r` SCXs
    /// with one. `r = 1` restores uniform draws. Only meaningful on a
    /// batched mix.
    pub const fn with_run(mut self, r: u32) -> Mix {
        assert!(r >= 1, "run length must be at least 1");
        assert!(
            self.batch > 1 || r == 1,
            "clustered runs only apply to batched mixes; set batch first"
        );
        self.run = r;
        self
    }

    /// `xi-yd` label as used in the paper, extended to `xi-yd-zr` when the
    /// mix includes range scans, `-wm` for a read-modify-write share,
    /// `-bn` when it is batched, `-cr` when the batch keys are clustered
    /// into runs, and a distribution suffix (`-zT.TT` zipfian,
    /// `-hKxO` hot-set) when keys are not uniform (pure-update uniform
    /// point labels are unchanged so existing artifacts keep their keys).
    ///
    /// Allocation-free: formats into a fixed inline buffer. The previous
    /// `String`-returning version was called from measurement loops and put
    /// a heap allocation inside the timed region.
    pub fn label(&self) -> MixLabel {
        let mut out = MixLabel {
            buf: [0; MIX_LABEL_CAP],
            len: 0,
        };
        out.push_u32(self.inserts);
        out.push_byte(b'i');
        out.push_byte(b'-');
        out.push_u32(self.deletes);
        out.push_byte(b'd');
        if self.ranges > 0 {
            out.push_byte(b'-');
            out.push_u32(self.ranges);
            out.push_byte(b'r');
        }
        if self.rmws > 0 {
            out.push_byte(b'-');
            out.push_u32(self.rmws);
            out.push_byte(b'm');
        }
        if self.batch > 1 {
            out.push_byte(b'-');
            out.push_byte(b'b');
            out.push_u32(self.batch);
        }
        if self.run > 1 {
            out.push_byte(b'-');
            out.push_byte(b'c');
            out.push_u32(self.run);
        }
        match self.dist {
            KeyDist::Uniform => {}
            KeyDist::Zipfian { theta_pct } => {
                out.push_byte(b'-');
                out.push_byte(b'z');
                // θ printed with two decimals: `z0.90`, `z1.20`.
                out.push_u32(theta_pct / 100);
                out.push_byte(b'.');
                out.push_byte(b'0' + ((theta_pct / 10) % 10) as u8);
                out.push_byte(b'0' + (theta_pct % 10) as u8);
            }
            KeyDist::HotSet { keys_pct, ops_pct } => {
                out.push_byte(b'-');
                out.push_byte(b'h');
                out.push_u32(keys_pct);
                out.push_byte(b'x');
                out.push_u32(ops_pct);
            }
        }
        out
    }

    /// Expected steady-state size as a fraction of the key range (§6):
    /// 1/2 for 50i-50d (last op on a key equally likely insert or delete),
    /// 2/3 for 20i-10d (insert twice as likely), 1/2 for query-only.
    /// Range scans, like lookups, don't shift the steady state; RMW ops
    /// count as inserts (they always leave the key present). Presence at
    /// steady state is a per-key property of the *mix percentages* alone
    /// — conditioned on "the last update touched key k", the insert/
    /// delete split is the same for hot and cold keys — so the fraction
    /// (and uniform prefilling) is correct under skewed key
    /// distributions too.
    pub fn steady_state_fraction(&self) -> f64 {
        let ins = self.inserts + self.rmws;
        if ins + self.deletes == 0 {
            0.5
        } else {
            ins as f64 / (ins + self.deletes) as f64
        }
    }
}

/// Capacity of [`MixLabel`]'s inline buffer
/// (`"100i-100d-100r-100m-b4294967295-c4294967295-h100x100"` is 52
/// bytes).
const MIX_LABEL_CAP: usize = 56;

/// A stack-allocated `xi-yd` mix label; dereferences to `str`.
#[derive(Clone, Copy)]
pub struct MixLabel {
    buf: [u8; MIX_LABEL_CAP],
    len: usize,
}

impl MixLabel {
    fn push_byte(&mut self, b: u8) {
        self.buf[self.len] = b;
        self.len += 1;
    }

    fn push_u32(&mut self, mut n: u32) {
        let start = self.len;
        loop {
            self.push_byte(b'0' + (n % 10) as u8);
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.buf[start..self.len].reverse();
    }

    /// The label as a string slice.
    pub fn as_str(&self) -> &str {
        // The buffer only ever holds ASCII digits and `i`/`-`/`d`.
        std::str::from_utf8(&self.buf[..self.len]).expect("mix label is ASCII")
    }
}

impl std::ops::Deref for MixLabel {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl std::fmt::Display for MixLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::fmt::Debug for MixLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_str())
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
    /// Per-op-kind latency histograms, merged across workers after the
    /// join (each worker records into its own plain `u64` buckets inside
    /// the measured loop — no atomics, no allocation). For batched mixes
    /// the recorded unit is one **batch call**, for point mixes one op.
    pub latency: OpHistograms,
}

impl TrialResult {
    /// Millions of operations per second — the y-axis of Figure 8.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }

    /// All op kinds folded into one latency distribution.
    pub fn latency_merged(&self) -> Histogram {
        self.latency.merged()
    }
}

/// Merges the latency of several trials (all op kinds folded) into the
/// `p50_ns`/`p99_ns`/`p999_ns` summary the bench artifacts embed.
pub fn latency_summary(trials: &[TrialResult]) -> LatencySummary {
    let mut all = Histogram::new();
    for t in trials {
        all.merge(&t.latency_merged());
    }
    LatencySummary::of(&all)
}

/// Length of each worker's pre-generated key/op-kind stream (a power of
/// two so the replay cursor is a mask, not a division). 64 Ki entries ≈
/// 0.5 MiB of keys per worker; a trial longer than the stream replays it
/// from the top, which preserves the distribution exactly.
const STREAM: usize = 1 << 16;
const STREAM_MASK: usize = STREAM - 1;

/// Pre-generates one worker's operation stream: `STREAM` keys drawn from
/// the mix's [`KeyDist`] and `STREAM` op-kind bytes drawn from its
/// percentages. Runs **before** the timing barrier so neither the RNG nor
/// the skew sampler (a binary search for zipfian) ever executes inside
/// the measured loop.
fn pregen_stream(mix: Mix, sampler: &KeySampler, rng: &mut StdRng) -> (Vec<u64>, Vec<u8>) {
    let keys: Vec<u64> = if mix.run <= 1 {
        (0..STREAM).map(|_| sampler.sample(rng)).collect()
    } else {
        // Run flavor: each draw seeds a run of consecutive keys (clamped
        // inside the key range). Runs are laid out in the stream, so in
        // batched trials they may straddle a batch boundary — the
        // clustering statistics per call are unchanged in expectation.
        let r = mix.run as u64;
        let base_lim = range_base_limit(sampler.range(), r);
        let mut v = Vec::with_capacity(STREAM);
        while v.len() < STREAM {
            let base = sampler.sample(rng).min(base_lim - 1);
            let n = (STREAM - v.len()).min(r as usize) as u64;
            v.extend(base..base + n);
        }
        v
    };
    let kinds: Vec<u8> = (0..STREAM)
        .map(|_| {
            let dice = rng.gen_range(0..100);
            if dice < mix.inserts {
                OpKind::Insert as u8
            } else if dice < mix.inserts + mix.deletes {
                OpKind::Remove as u8
            } else if dice < mix.inserts + mix.deletes + mix.ranges {
                OpKind::Range as u8
            } else if dice < mix.inserts + mix.deletes + mix.ranges + mix.rmws {
                OpKind::Rmw as u8
            } else {
                OpKind::Get as u8
            }
        })
        .collect();
    (keys, kinds)
}

/// Largest valid run base so a run of `r` consecutive keys stays in range.
fn range_base_limit(range: u64, r: u64) -> u64 {
    range.saturating_sub(r - 1).max(1)
}

/// Runs one timed trial: `threads` workers each executing the `mix` on
/// keys drawn from `mix.dist` over `[0, range)` for `duration`.
///
/// Each worker pre-generates its key and op-kind streams and sets up its
/// buffers **before** the timing barrier; the measured loop only indexes
/// the streams, calls the map, and bumps plain `u64` latency buckets —
/// no RNG, no allocation, no atomics (the `nblint` hot-loop gate
/// enforces this region stays that way). Per-op latency lands in
/// per-worker [`OpHistograms`] merged after the join.
///
/// With `mix.batch > 1` the workers drive the trait-level batch entry
/// points instead of point ops: each iteration consumes one op kind and
/// `batch` keys from the streams and issues a single `insert_batch` /
/// `remove_batch` / `get_batch` that counts as `batch` operations; the
/// latency sample recorded is the **batch call**, not a per-key figure.
pub fn run_trial(
    map: &(dyn ConcurrentMap + Sync),
    threads: usize,
    mix: Mix,
    range: u64,
    duration: Duration,
    seed: u64,
) -> TrialResult {
    assert!(
        mix.ranges == 0 || mix.batch <= 1,
        "range scans have no batched entry point"
    );
    // Calibrate the latency clock before any worker exists, so the ~5 ms
    // one-time TSC calibration never lands inside a measured region.
    latency::calibrate();
    // One sampler, built once and shared read-only: the zipfian CDF can
    // be megabytes, and every worker binary-searches the same table.
    let sampler = KeySampler::new(mix.dist, range);
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let merged = std::sync::Mutex::new(OpHistograms::new());
    // Keep thread spawning, stream pre-generation and buffer setup out of
    // the timed region: every worker sets up, then all parties meet at
    // the barrier and the clock starts there.
    let start_gate = std::sync::Barrier::new(threads + 1);
    let mut started = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let stop = &stop;
            let total = &total;
            let start_gate = &start_gate;
            let sampler = &sampler;
            let merged = &merged;
            s.spawn(move || {
                const INS: u8 = OpKind::Insert as u8;
                const REM: u8 = OpKind::Remove as u8;
                const RNG: u8 = OpKind::Range as u8;
                const RMW: u8 = OpKind::Rmw as u8;
                let mut rng = StdRng::seed_from_u64(seed ^ ((tid as u64) << 32) | tid as u64);
                let (keys, kinds) = pregen_stream(mix, sampler, &mut rng);
                let mut hist = OpHistograms::new();
                let mut ops = 0u64;
                let mut cursor = 0usize;
                if mix.batch > 1 {
                    // Batched flavor: fixed-size buffers are written in
                    // place each call, so the timed region measures the
                    // batch entry points, not allocator traffic.
                    let b = mix.batch as usize;
                    let mut kbuf: Vec<u64> = vec![0; b];
                    let mut pairs: Vec<(u64, u64)> = vec![(0, 0); b];
                    let mut kc = 0usize;
                    start_gate.wait();
                    // cfgcheck:hotloop:begin
                    while !stop.load(Ordering::Relaxed) {
                        for slot in kbuf.iter_mut() {
                            *slot = keys[kc & STREAM_MASK];
                            kc += 1;
                        }
                        let kind = kinds[cursor & STREAM_MASK];
                        cursor += 1;
                        let t0 = latency::now();
                        match kind {
                            INS => {
                                for (p, &k) in pairs.iter_mut().zip(kbuf.iter()) {
                                    *p = (k, k);
                                }
                                std::hint::black_box(map.insert_batch(&pairs));
                            }
                            REM => {
                                std::hint::black_box(map.remove_batch(&kbuf));
                            }
                            _ => {
                                std::hint::black_box(map.get_batch(&kbuf));
                            }
                        }
                        hist.record(kind, latency::elapsed_ns(t0));
                        ops += b as u64;
                    }
                    // cfgcheck:hotloop:end
                } else {
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
                                RNG => {
                                    // A scan of `range_width` keys starting
                                    // at `k` counts as ONE operation: Mops/s
                                    // for range mixes measures scans, not
                                    // keys touched. Saturating at both ends:
                                    // the pub fields allow a hand-built Mix
                                    // with width 0 (empty scan), which must
                                    // not underflow into a full-map scan.
                                    let hi = k.saturating_add(mix.range_width).saturating_sub(1);
                                    std::hint::black_box(map.range(k, hi));
                                }
                                RMW => {
                                    // Read-modify-write: one timed op, the
                                    // counter/accumulator shape.
                                    let v = map.get(&k).map_or(1, |v| v.wrapping_add(1));
                                    map.insert(k, v);
                                }
                                _ => {
                                    map.get(&k);
                                }
                            }
                            hist.record(kind, latency::elapsed_ns(t0));
                            ops += 1;
                        }
                    }
                    // cfgcheck:hotloop:end
                }
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

/// Convenience: construct every registered map under one [`SuiteConfig`].
pub fn all_maps(cfg: &SuiteConfig) -> Vec<Arc<dyn ConcurrentMap>> {
    ALL_MAPS
        .iter()
        .map(|n| Arc::<dyn ConcurrentMap>::from(make_map(n, cfg).unwrap()))
        .collect()
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
    }

    #[test]
    fn trial_with_range_component_runs_on_every_map() {
        let cfg = SuiteConfig::default().for_key_range(500);
        for name in ALL_MAPS {
            let map = make_map(name, &cfg).unwrap();
            let mix = Mix::updates(20, 10).with_ranges(20, 32);
            prefill(map.as_ref(), 500, mix, 3);
            let r = run_trial(map.as_ref(), 2, mix, 500, Duration::from_millis(50), 11);
            assert!(r.ops > 0, "{name} performed no operations");
        }
    }

    #[test]
    fn batched_trial_runs_and_counts_batch_sized_ops() {
        let cfg = SuiteConfig::default().for_key_range(1000);
        for name in ["chromatic", "sharded"] {
            let map = make_map(name, &cfg).unwrap();
            let mix = Mix::updates(50, 50).with_batch(16);
            prefill(map.as_ref(), 1000, mix, 3);
            let r = run_trial(map.as_ref(), 2, mix, 1000, Duration::from_millis(50), 11);
            assert!(r.ops > 0, "{name} performed no operations");
            assert_eq!(r.ops % 16, 0, "{name}: ops must come in whole batches");
        }
    }

    #[test]
    fn clustered_batched_trial_runs_and_merges_runs() {
        // A clustered insert-heavy batch trial on the bare chromatic tree
        // must exercise the merged-install path (visible in its stats).
        let cfg = SuiteConfig::default().for_key_range(1 << 14);
        let map = make_map("chromatic", &cfg).unwrap();
        let mix = Mix::updates(80, 20).with_batch(64).with_run(8);
        prefill(map.as_ref(), 1 << 14, mix, 3);
        let r = run_trial(map.as_ref(), 2, mix, 1 << 14, Duration::from_millis(80), 11);
        assert!(r.ops > 0);
        assert_eq!(r.ops % 64, 0, "ops must come in whole batches");
    }

    #[test]
    fn mix_labels() {
        assert_eq!(Mix::updates(20, 10).label().as_str(), "20i-10d");
        assert_eq!(
            Mix::updates(20, 10).with_ranges(5, 100).label().as_str(),
            "20i-10d-5r"
        );
        assert_eq!(
            Mix::updates(0, 0).with_ranges(100, 1).label().as_str(),
            "0i-0d-100r"
        );
        assert_eq!(
            Mix::updates(50, 50).with_batch(64).label().as_str(),
            "50i-50d-b64"
        );
        assert_eq!(
            Mix::updates(100, 0).with_batch(1).label().as_str(),
            "100i-0d",
            "batch 1 is the point flavor and keeps the point label"
        );
        assert_eq!(
            Mix::updates(100, 0)
                .with_batch(64)
                .with_run(8)
                .label()
                .as_str(),
            "100i-0d-b64-c8"
        );
        assert_eq!(
            Mix::updates(0, 100)
                .with_batch(64)
                .with_run(1)
                .label()
                .as_str(),
            "0i-100d-b64",
            "run 1 is the uniform flavor and keeps the plain batch label"
        );
        assert_eq!(
            Mix::updates(20, 10).with_zipf(0.9).label().as_str(),
            "20i-10d-z0.90"
        );
        assert_eq!(
            Mix::updates(20, 10).with_zipf(1.2).label().as_str(),
            "20i-10d-z1.20"
        );
        assert_eq!(
            Mix::updates(20, 10).with_zipf(0.0).label().as_str(),
            "20i-10d",
            "theta 0 is uniform and keeps the plain label"
        );
        assert_eq!(
            Mix::updates(5, 5).with_hot_set(10, 90).label().as_str(),
            "5i-5d-h10x90"
        );
        assert_eq!(Mix::rmw(30).label().as_str(), "0i-0d-30m");
        assert_eq!(
            Mix::scan_heavy(64).label().as_str(),
            "5i-5d-80r",
            "scan-heavy is the 5i-5d-80r shape"
        );
        assert_eq!(
            Mix::updates(50, 50)
                .with_batch(64)
                .with_run(8)
                .with_zipf(1.2)
                .label()
                .as_str(),
            "50i-50d-b64-c8-z1.20"
        );
    }

    #[test]
    fn skewed_trials_run_and_record_latency() {
        let cfg = SuiteConfig::default().for_key_range(1000);
        for mix in [
            Mix::updates(20, 10).with_zipf(0.9),
            Mix::updates(20, 10).with_zipf(1.2),
            Mix::updates(20, 10).with_hot_set(10, 90),
        ] {
            let map = make_map("chromatic", &cfg).unwrap();
            prefill(map.as_ref(), 1000, mix, 3);
            let r = run_trial(map.as_ref(), 2, mix, 1000, Duration::from_millis(50), 11);
            assert!(
                r.ops > 0,
                "{} performed no operations",
                mix.label().as_str()
            );
            assert_eq!(
                r.latency_merged().count(),
                r.ops,
                "{}: every op must land in a latency bucket",
                mix.label().as_str()
            );
            let s = latency_summary(&[r]);
            assert!(s.p99_ns >= s.p50_ns);
        }
    }

    #[test]
    fn rmw_trial_records_under_the_rmw_kind() {
        let cfg = SuiteConfig::default().for_key_range(500);
        let map = make_map("skiplist", &cfg).unwrap();
        let mix = Mix::updates(10, 10).with_rmw(50);
        prefill(map.as_ref(), 500, mix, 3);
        let r = run_trial(map.as_ref(), 2, mix, 500, Duration::from_millis(50), 7);
        assert!(r.ops > 0);
        let rmw = r.latency.kind(OpKind::Rmw).count();
        assert!(rmw > 0, "50% RMW mix recorded no RMW samples");
        // Roughly half the ops should be RMW (binomial around 0.5).
        let frac = rmw as f64 / r.ops as f64;
        assert!((0.3..0.7).contains(&frac), "RMW fraction {frac}");
    }

    #[test]
    fn batched_trial_records_batch_call_latency() {
        let cfg = SuiteConfig::default().for_key_range(1000);
        let map = make_map("sharded", &cfg).unwrap();
        let mix = Mix::updates(50, 50).with_batch(16);
        prefill(map.as_ref(), 1000, mix, 3);
        let r = run_trial(map.as_ref(), 2, mix, 1000, Duration::from_millis(50), 11);
        assert!(r.ops > 0);
        // One latency sample per batch *call*, not per key.
        assert_eq!(r.latency_merged().count(), r.ops / 16);
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

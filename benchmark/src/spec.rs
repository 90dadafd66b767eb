//! The four workloads and the inputs a seed turns them into.
//!
//! Everything random is drawn here, before any clock starts: the set of
//! keys to prefill and one op stream per worker. The timed loops only
//! index these arrays.

use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};
use workload::latency::elapsed_ns;
use workload::{KeyDist, KeySampler};

pub const INSERT: u32 = 0;
pub const REMOVE: u32 = 1;
pub const GET: u32 = 2;
pub const RANGE: u32 = 3;

/// Keys scanned by one `range` op.
pub const RANGE_WIDTH: u64 = 100;

/// One stream entry packed into 32 bits (4 MiB per million ops, so the
/// harness stays a small part of `peak_rss_mib`): key in bits 0..24, op
/// kind in bits 24..26, and in bit 31 a fair coin that chooses insert or
/// remove where a get or a scan is replayed as an update (the ladder's
/// update rungs and the service, on workloads whose mix is not all
/// updates).
#[derive(Clone, Copy)]
pub struct Entry(pub u32);

const KEY_BITS: u32 = 24;

impl Entry {
    #[inline]
    pub fn key(self) -> u64 {
        (self.0 & ((1 << KEY_BITS) - 1)) as u64
    }
    #[inline]
    pub fn kind(self) -> u32 {
        (self.0 >> KEY_BITS) & 3
    }
    /// Whether this entry, replayed as an update, inserts: its own kind
    /// when that is an update, else its coin.
    #[inline]
    pub fn inserts(self) -> bool {
        match self.kind() {
            INSERT => true,
            REMOVE => false,
            _ => self.0 >> 31 == 1,
        }
    }
    /// The update this entry is replayed as: same key, kind as
    /// [`inserts`](Self::inserts) says.
    pub fn as_update(self) -> Entry {
        let kind = if self.inserts() { INSERT } else { REMOVE };
        Entry(self.0 & !(3 << KEY_BITS) | kind << KEY_BITS)
    }
}

/// When a phase of a round (its warm-up, its timed slice, a
/// rung of the ladder) ends.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this many ops. One-thread rounds warm up this way.
    Ops(u64),
    /// After this much wall time. Two-thread rounds warm up this way, with
    /// every worker running, until the map has its steady shape and the
    /// collector its steady backlog.
    Wall(Duration),
}

impl Stop {
    /// Whether a phase that began at clock reading `started` and has done
    /// `ops` is over.
    #[inline]
    pub fn reached(self, ops: u64, started: u64) -> bool {
        match self {
            Stop::Ops(n) => ops >= n,
            Stop::Wall(d) => elapsed_ns(started) >= d.as_nanos() as u64,
        }
    }
}

/// A closed-loop client of `BatchedService`.
#[derive(Clone, Copy)]
pub struct ServiceClient {
    /// Submissions kept in flight.
    pub window: usize,
    pub max_batch: usize,
    pub max_delay: Duration,
}

impl ServiceClient {
    /// Responses the client collects per wake-up: one flush's worth. It
    /// blocks on the last request of the oldest batch only, so the flusher
    /// answers a whole batch before the client runs again.
    pub fn harvest(self) -> usize {
        self.max_batch.min(self.window)
    }
}

/// Which of a run's rounds a timing metric reports.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Pick {
    /// The middle round. For a workload whose rounds have two regimes of
    /// their own: the median reports the common one.
    Median,
    /// The round a quarter of the way in from the good end: the third
    /// fastest of nine. The host only ever slows a round, for seconds to
    /// minutes at a time, so the good quartile still reads a calm round
    /// when a slow spell covers up to three quarters of the run.
    GoodQuartile,
}

#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Registry name passed to `workload::make_map`.
    pub map: &'static str,
    pub key_range: u64,
    pub zipf: bool,
    /// Percent of ops that insert, remove, get and scan; sums to 100.
    pub mix: [u32; 4],
    pub threads: usize,
    /// Rounds per run; odd, so the median is a measured round.
    pub rounds: usize,
    pub pick: Pick,
    pub warmup: Stop,
    /// `Some`: ops go through the service instead of direct calls.
    pub service: Option<ServiceClient>,
    /// Entries per worker stream; a power of two, replayed from the top
    /// when a slice outlasts it.
    pub stream_len: usize,
}

/// `svc-window`'s client, and the windowed service rung of every ladder.
pub const SVC_WINDOW: ServiceClient = ServiceClient {
    window: 256,
    max_batch: 64,
    max_delay: Duration::from_micros(100),
};

const STREAM_LEN: usize = 1 << 20;
const SETTLE: Stop = Stop::Wall(Duration::from_millis(750));

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "tree-update",
        map: "chromatic",
        key_range: 1 << 14,
        zipf: false,
        mix: [50, 50, 0, 0],
        threads: 2,
        rounds: 9,
        // One round in five to fifteen runs in the fast reclamation
        // regime (README, "Bistable reclamation"); a good quartile would
        // sit on the flip.
        pick: Pick::Median,
        warmup: SETTLE,
        service: None,
        stream_len: STREAM_LEN,
    },
    Spec {
        name: "tree-read",
        map: "chromatic",
        // 2048 keys, half a MiB of nodes: a quarter of this host's private
        // L2. Whatever shares the vCPU's core pre-empts it a thousand
        // times a second in its busy spells, and each time the tree has
        // to be fetched again: at 2^14 keys (2 MiB) rounds then ran up to
        // 2x slow and run values ranged 24 %, at 2^12 they ranged 7 %. At
        // 2^18 keys (32 MiB), as first specified, two thirds of a get was
        // misses to the L3 all tenants share and ten runs spread 24-30 %.
        key_range: 1 << 12,
        zipf: false,
        mix: [0, 0, 100, 0],
        threads: 1,
        // Set-up is 50 ms, so rounds are cheap: twenty-one of 0.95 s.
        rounds: 21,
        pick: Pick::GoodQuartile,
        warmup: Stop::Ops(1 << 18),
        service: None,
        stream_len: STREAM_LEN,
    },
    Spec {
        name: "hybrid-skew",
        map: "hybrid",
        key_range: 1 << 18,
        zipf: true,
        mix: [10, 10, 79, 1],
        threads: 2,
        rounds: 7,
        pick: Pick::GoodQuartile,
        warmup: SETTLE,
        service: None,
        stream_len: STREAM_LEN,
    },
    Spec {
        name: "svc-window",
        map: "sharded",
        key_range: 1 << 14,
        zipf: false,
        mix: [50, 50, 0, 0],
        threads: 1,
        // Fifteen of 1.3 s: a round holds 0.85 million samples at 0.65
        // Mops/s, 8 500 of them beyond its p99.
        rounds: 15,
        pick: Pick::GoodQuartile,
        warmup: Stop::Ops(1 << 17),
        service: Some(SVC_WINDOW),
        stream_len: STREAM_LEN,
    },
];

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|s| s.name == name)
    }

    /// The same workload at sizes a self-test finishes in well under a
    /// second: what `--quick` and `cargo test` run.
    pub fn quick(mut self) -> Spec {
        self.key_range = (self.key_range / 16).max(1024);
        self.rounds = 3;
        self.stream_len = 1 << 14;
        self.warmup = match self.warmup {
            Stop::Ops(_) => Stop::Ops(4096),
            Stop::Wall(_) => Stop::Wall(Duration::from_millis(30)),
        };
        self
    }
}

/// What one `(workload, seed)` pair runs on.
pub struct Inputs {
    /// Distinct keys, half the key range, in the order they are inserted:
    /// the current round's draw (see [`draw_prefill`](Self::draw_prefill)).
    pub prefill: Vec<u64>,
    /// One op stream per worker.
    pub streams: Vec<Vec<Entry>>,
    seed: u64,
    key_range: u64,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        assert!(
            spec.key_range <= 1 << KEY_BITS,
            "keys are packed into 24 bits"
        );
        assert!(spec.stream_len.is_power_of_two());
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = if spec.zipf {
            KeyDist::Zipfian { theta_pct: 99 }
        } else {
            KeyDist::Uniform
        };
        let sampler = KeySampler::new(dist, spec.key_range);
        let [ins, rem, get, _] = spec.mix;
        let streams = (0..spec.threads)
            .map(|_| {
                (0..spec.stream_len)
                    .map(|_| {
                        let key = sampler.sample(&mut rng) as u32;
                        let dice = rng.gen_range(0..100u32);
                        let kind = if dice < ins {
                            INSERT
                        } else if dice < ins + rem {
                            REMOVE
                        } else if dice < ins + rem + get {
                            GET
                        } else {
                            RANGE
                        };
                        let coin = rng.gen_bool(0.5) as u32;
                        Entry(key | kind << KEY_BITS | coin << 31)
                    })
                    .collect()
            })
            .collect();
        let mut inputs = Inputs {
            prefill: Vec::new(),
            streams,
            seed,
            key_range: spec.key_range,
        };
        inputs.draw_prefill(0);
        inputs
    }

    /// Replaces the prefill with round `round`'s own draw from the seed.
    /// Which keys go in, in which order, decides where the map's entries
    /// end up in memory, and on `hybrid-skew` that alone moves the p50 by
    /// a quarter (215-274 ns over six seeds, 225-249 ns with the prefill
    /// held fixed); with one draw per round a run reads several layouts
    /// instead of one.
    pub fn draw_prefill(&mut self, round: usize) {
        let mut rng = StdRng::seed_from_u64(
            self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ round as u64 ^ 0x7072_6566_696c_6c00,
        );
        // A partial Fisher-Yates shuffle: exactly half the range, distinct,
        // in random order.
        let mut keys: Vec<u64> = (0..self.key_range).collect();
        let half = keys.len() / 2;
        for i in 0..half {
            let j = rng.gen_range(i..keys.len());
            keys.swap(i, j);
        }
        keys.truncate(half);
        self.prefill = keys;
    }

    /// FNV-1a over the current prefill's order and every stream: equal for equal
    /// seeds, and printed by every run so two runs can be shown to have
    /// executed the same inputs.
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        self.prefill.iter().for_each(|&k| eat(k));
        for stream in &self.streams {
            stream.iter().for_each(|e| eat(e.0 as u64));
        }
        h
    }
}

//! The end-to-end run: `R` rounds in one process, each a fresh map and a
//! timed slice; every reported value is one round's, chosen per metric by
//! the workload's [`Pick`].
//!
//! A round builds a fresh map, prefills it, warms up, then replays the
//! pre-generated streams for a fixed slice of wall time. Its throughput is
//! all the ops of the slice over the slice's wall time and its percentiles
//! come from every sample of the slice, so a stall inside a round counts in
//! full; choosing among rounds is what absorbs the ones the host disturbed.

use std::collections::VecDeque;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use service::{BatchedService, FlushPolicy, Op, ResponseFuture, ServiceConfig, ServiceStats};
use workload::latency::{calibrate, elapsed_ns, now};
use workload::{make_map, ConcurrentMap, SuiteConfig};

use crate::affinity;
use crate::check::{self, Tally};
use crate::hist::Hist;
use crate::span::Tracer;
use crate::spec::{Entry, Inputs, Pick, ServiceClient, Spec, Stop, INSERT, REMOVE};

/// A named value with its unit, as printed.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one round measured.
pub struct Round {
    /// Ops all workers completed in the timed slice.
    pub ops: u64,
    /// Ops over the slice's wall time, the slowest worker's.
    pub mops: f64,
    /// Percentiles over every op of the slice, all workers' together.
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub failed: u64,
    pub setup_s: f64,
    /// Peak resident set from the round's start to the end of its timed
    /// slice: the checks' own memory (a full scan, the model) is not in.
    pub peak_rss_mib: f64,
    pub pinned: bool,
}

/// One worker's timed slice.
struct Timed {
    ops: u64,
    ns: u64,
    hist: Hist,
}

impl Round {
    fn of<'a>(
        slices: impl Iterator<Item = &'a Timed>,
        failed: u64,
        setup_s: f64,
        peak_rss_mib: f64,
        pinned: bool,
    ) -> Round {
        let (mut ops, mut ns, mut hist) = (0, 0, Hist::new());
        for timed in slices {
            ops += timed.ops;
            ns = ns.max(timed.ns);
            hist.merge(&timed.hist);
        }
        Round {
            ops,
            mops: ops as f64 * 1e3 / ns as f64,
            p50_ns: hist.percentile(0.50),
            p99_ns: hist.percentile(0.99),
            failed,
            setup_s,
            peak_rss_mib,
            pinned,
        }
    }
}

pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub pinned: bool,
    pub rounds: Vec<Round>,
    pub metrics: Vec<Metric>,
}

/// Ops between looks at the stop condition.
const CHUNK: usize = 64;

/// What a measured loop writes to: per-op latency, the correctness
/// bookkeeping, and (switched off end to end) sampled spans.
pub struct Probe {
    pub hist: Hist,
    pub tally: Tally,
    pub tracer: Tracer,
}

impl Probe {
    pub fn new(tracer: Tracer) -> Probe {
        Probe {
            hist: Hist::new(),
            tally: Tally::default(),
            tracer,
        }
    }
}

/// Replays `stream` from `*cursor` against `map` until `stop`, timing
/// each call. Indexing, the call, two clock reads and plain counter
/// bumps: no RNG, allocation or syscall of the harness's own.
pub fn drive(
    map: &dyn ConcurrentMap,
    stream: &[Entry],
    cursor: &mut usize,
    stop: Stop,
    probe: &mut Probe,
) -> u64 {
    let mask = stream.len() - 1;
    let started = now();
    let mut ops = 0u64;
    loop {
        for _ in 0..CHUNK {
            let e = stream[*cursor & mask];
            let t0 = now();
            check::apply(map, e, &mut probe.tally);
            let ns = elapsed_ns(t0);
            probe.hist.record(ns);
            if probe.tracer.samples(*cursor) {
                probe.tracer.op("map.op", t0, ns, *cursor as u64);
            }
            *cursor += 1;
        }
        ops += CHUNK as u64;
        if stop.reached(ops, started) {
            return ops;
        }
    }
}

struct WorkerOutput {
    timed: Timed,
    /// Ops since the round began, the warm-up's included: how far into
    /// its stream the worker got.
    total_ops: u64,
    warm_ns: u64,
    tally: Tally,
    pinned: bool,
}

/// A fresh map of the workload's kind holding the seed's prefill keys.
pub fn prefilled_map(name: &str, spec: &Spec, inputs: &Inputs) -> Box<dyn ConcurrentMap> {
    let cfg = SuiteConfig::default().for_key_range(spec.key_range);
    let map = make_map(name, &cfg).expect("a registered map name");
    for &k in &inputs.prefill {
        map.insert(k, k);
    }
    // The prefilling thread blocks next (it sleeps through the round, or
    // waits on a service future); a warm cached guard would hold the
    // epoch back for every other thread until it woke up.
    llxscx::guard_cache::flush();
    map
}

fn direct_round(spec: &Spec, inputs: &Inputs, slice: Duration, cpus: &[usize]) -> Round {
    let setup = Instant::now();
    let map = prefilled_map(spec.map, spec, inputs);
    let built_s = setup.elapsed().as_secs_f64();
    let gate = Barrier::new(spec.threads);
    let outs: Vec<WorkerOutput> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .streams
            .iter()
            .enumerate()
            .map(|(i, stream)| {
                let (map, gate) = (&*map, &gate);
                s.spawn(move || {
                    let spawned = now();
                    let pinned = affinity::pin_worker(cpus, i);
                    let mut probe = Probe::new(Tracer::off());
                    let mut cursor = 0;
                    drive(map, stream, &mut cursor, spec.warmup, &mut probe);
                    probe.hist.clear();
                    gate.wait();
                    let warm_ns = elapsed_ns(spawned);
                    let t0 = now();
                    let ops = drive(map, stream, &mut cursor, Stop::Wall(slice), &mut probe);
                    let ns = elapsed_ns(t0);
                    WorkerOutput {
                        timed: Timed {
                            ops,
                            ns,
                            hist: probe.hist,
                        },
                        total_ops: cursor as u64,
                        warm_ns,
                        tally: probe.tally,
                        pinned,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut tally = Tally::default();
    for out in &outs {
        tally.absorb(&out.tally);
    }
    let warm_ns = outs
        .iter()
        .map(|o| o.warm_ns)
        .max()
        .expect("at least one worker");
    let peak_rss_mib = peak_rss_mib();

    let mut failed = tally.bad + check::quiescent(spec.name, &*map, tally.expected_len(inputs));
    if let [only] = &outs[..] {
        let executed = inputs.streams[0].iter().copied().cycle();
        failed += check::against_model(
            &*map,
            inputs,
            executed.take(only.total_ops as usize),
            &only.tally,
        );
    }
    drop(map);
    llxscx::guard_cache::flush();
    Round::of(
        outs.iter().map(|o| &o.timed),
        failed,
        built_s + warm_ns as f64 * 1e-9,
        peak_rss_mib,
        outs.iter().all(|o| o.pinned),
    )
}

/// One request in flight.
struct InFlight {
    submitted: u64,
    entry: Entry,
    response: ResponseFuture,
    /// Its `service.request` span when sampled, else 0.
    span: u32,
}

/// A closed-loop service client that keeps `window` submissions in
/// flight: with the window full it collects the oldest `harvest`
/// responses, then submits as many again.
///
/// It blocks once per harvest, on the last response of the oldest batch.
/// A client that waits on the oldest response alone is woken by the first
/// answer of every flush, pre-empts the flusher (they share a CPU), takes
/// one or two responses and blocks again: 0.43 context switches per
/// request, so the round times the kernel's scheduler and its p99 swings
/// by 40 % between runs. Blocking on the batch's last response costs one
/// switch per 64 requests and leaves the service's own work to measure.
pub struct Client<'a> {
    svc: BatchedService<Box<dyn ConcurrentMap>>,
    stream: &'a [Entry],
    cursor: usize,
    window: usize,
    harvest: usize,
    ring: VecDeque<InFlight>,
    pub probe: Probe,
}

impl<'a> Client<'a> {
    /// Starts the service over `map`. The flusher thread inherits the
    /// caller's CPU mask, so pin before calling this.
    pub fn start(
        map: Box<dyn ConcurrentMap>,
        sc: ServiceClient,
        stream: &'a [Entry],
        tracer: Tracer,
    ) -> Self {
        let policy = FlushPolicy::new(sc.max_batch, sc.max_delay);
        Client {
            svc: BatchedService::start(map, ServiceConfig::new(policy)),
            stream,
            cursor: 0,
            window: sc.window,
            harvest: sc.harvest(),
            ring: VecDeque::with_capacity(sc.window),
            probe: Probe::new(tracer),
        }
    }

    /// Submits (and, once the window is full, completes) until `stop`,
    /// which counts completions. Leaves the window full, so consecutive
    /// phases measure a pipeline in steady state.
    pub fn pump(&mut self, stop: Stop) -> u64 {
        let mask = self.stream.len() - 1;
        let started = now();
        let mut done = 0u64;
        loop {
            for _ in 0..CHUNK {
                if self.ring.len() == self.window {
                    done += self.harvest();
                }
                let id = self.cursor;
                let entry = self.stream[id & mask];
                self.cursor += 1;
                let op = if entry.inserts() {
                    Op::Insert(entry.key(), entry.key())
                } else {
                    Op::Remove(entry.key())
                };
                let submitted = now();
                let response = match self.svc.submit(op) {
                    Ok(response) => response,
                    Err(err) => {
                        eprintln!("check: submit refused: {err:?}");
                        self.probe.tally.bad += 1;
                        continue;
                    }
                };
                let mut span = 0;
                if self.probe.tracer.samples(id) {
                    let ns = elapsed_ns(submitted);
                    span = self
                        .probe
                        .tracer
                        .op("service.request", submitted, 0, id as u64);
                    self.probe
                        .tracer
                        .child("service.submit", submitted, ns, span, id as u64);
                }
                self.ring.push_back(InFlight {
                    submitted,
                    entry,
                    response,
                    span,
                });
            }
            if stop.reached(done, started) {
                return done;
            }
        }
    }

    /// Collects the oldest `harvest` responses in submission order (the
    /// service answers in queue order, so once the last of them has
    /// arrived the others have). Returns how many.
    fn harvest(&mut self) -> u64 {
        let n = self.harvest.min(self.ring.len());
        let last = self.ring.remove(n - 1).expect("a request in flight");
        let result = last.response.wait();
        for _ in 1..n {
            let req = self.ring.pop_front().expect("a request in flight");
            let result = req.response.wait();
            self.record(req.submitted, req.entry, req.span, result);
        }
        self.record(last.submitted, last.entry, last.span, result);
        n as u64
    }

    fn record(&mut self, submitted: u64, entry: Entry, span: u32, result: Option<u64>) {
        let ns = elapsed_ns(submitted);
        self.probe.hist.record(ns);
        let kind = if entry.inserts() { INSERT } else { REMOVE };
        self.probe.tally.point(kind, entry.key(), result);
        if span != 0 {
            self.probe.tracer.finish(span, ns);
        }
    }

    /// Completes everything in flight, shuts the service down and checks
    /// it: every accepted request was completed, none was shed, and the
    /// map it wrapped passes the quiescent checks and the model's. (The
    /// service flushes runs of one kind in queue order and a batch
    /// answers as its elements applied in order would, so one client's
    /// results are those of its stream applied one op at a time.)
    /// Returns the service's counters, the probe and the number of
    /// failures.
    pub fn finish(mut self, inputs: &Inputs) -> (ServiceStats, Probe, u64) {
        while !self.ring.is_empty() {
            self.harvest();
        }
        let stats = self.svc.stats();
        self.svc.shutdown();
        let submitted = self.stream.iter().cycle().take(self.cursor);
        let failed = self.probe.tally.bad
            + stats.submitted.abs_diff(stats.completed)
            + stats.shed
            + check::quiescent(
                "service",
                self.svc.map(),
                self.probe.tally.expected_len(inputs),
            )
            + check::against_model(
                self.svc.map(),
                inputs,
                submitted.map(|e| e.as_update()),
                &self.probe.tally,
            );
        drop(self.svc);
        llxscx::guard_cache::flush();
        (stats, self.probe, failed)
    }
}

fn service_round(
    spec: &Spec,
    sc: ServiceClient,
    inputs: &Inputs,
    slice: Duration,
    cpus: &[usize],
) -> Round {
    let setup = Instant::now();
    // Client and flusher share one CPU: a wake-up that crosses vCPUs is
    // bimodal here (3 µs or 39 µs, flipping mid-process), and on one core
    // throughput is exactly 1 / (CPU cost per request over both threads).
    let pinned = affinity::pin_worker(cpus, 0);
    let map = prefilled_map(spec.map, spec, inputs);
    let mut client = Client::start(map, sc, &inputs.streams[0], Tracer::off());
    client.pump(spec.warmup);
    client.probe.hist.clear();
    let setup_s = setup.elapsed().as_secs_f64();

    let t0 = now();
    let ops = client.pump(Stop::Wall(slice));
    let ns = elapsed_ns(t0);
    let peak_rss_mib = peak_rss_mib();
    let (_, probe, failed) = client.finish(inputs);
    affinity::restrict(cpus);
    let timed = Timed {
        ops,
        ns,
        hist: probe.hist,
    };
    Round::of(
        std::iter::once(&timed),
        failed,
        setup_s,
        peak_rss_mib,
        pinned,
    )
}

pub fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
}

/// The round `pick` reports, of one value per round.
pub fn picked(pick: Pick, higher_is_better: bool, values: impl Iterator<Item = f64>) -> f64 {
    match pick {
        Pick::Median => median(values),
        Pick::GoodQuartile => {
            let mut v: Vec<f64> = values.collect();
            v.sort_by(f64::total_cmp);
            if higher_is_better {
                v.reverse();
            }
            v[v.len() / 4]
        }
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Makes the next [`peak_rss_mib`] the peak of the coming round alone:
/// hands the heap's free pages back to the kernel, then resets `VmHWM`
/// to the current resident set. Without this the metric is the maximum
/// over the whole run, and one round in which a descheduled worker held
/// the epoch back (the garbage backlog then runs to tens of MiB) sets
/// it: two runs in ten read 57 and 87 MiB against 33. Where either step
/// is unavailable the peak simply stays cumulative.
fn start_rss_round() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and may be called at any
    // time; no other thread is running.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set since the last [`start_rss_round`], from `VmHWM`.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `spec` on the inputs of `seed`, measuring `seconds` in total
/// across its rounds; every round prefills with its own draw of keys.
pub fn run(spec: &Spec, inputs: &mut Inputs, seconds: f64) -> RunOutput {
    calibrate();
    let cpus = affinity::allowed();
    let slice = Duration::from_secs_f64(seconds / spec.rounds as f64);
    let rounds: Vec<Round> = (0..spec.rounds)
        .map(|round| {
            inputs.draw_prefill(round);
            start_rss_round();
            match spec.service {
                Some(sc) => service_round(spec, sc, inputs, slice, &cpus),
                None => direct_round(spec, inputs, slice, &cpus),
            }
        })
        .collect();
    let lowest = |f: fn(&Round) -> f64| picked(spec.pick, false, rounds.iter().map(f));
    let metrics = vec![
        Metric {
            name: "throughput_mops",
            value: picked(spec.pick, true, rounds.iter().map(|r| r.mops)),
            unit: "Mops/s",
        },
        Metric {
            name: "op_p50_ns",
            value: lowest(|r| r.p50_ns),
            unit: "ns",
        },
        Metric {
            name: "op_p99_ns",
            value: lowest(|r| r.p99_ns),
            unit: "ns",
        },
        Metric {
            name: "setup_s",
            value: lowest(|r| r.setup_s),
            unit: "s",
        },
        // Memory is not a timing: the host does not inflate it.
        Metric {
            name: "peak_rss_mib",
            value: median(rounds.iter().map(|r| r.peak_rss_mib)),
            unit: "MiB",
        },
    ];
    RunOutput {
        attempted: rounds.iter().map(|r| r.ops).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        pinned: rounds.iter().all(|r| r.pinned),
        rounds,
        metrics,
    }
}

//! The traced run: one op stream replayed against each layer from the
//! bottom up, so a layer's cost is its rung minus the rung below.
//!
//! Every rung executes the same entries — the first `50 000 × seconds` of
//! worker 0's stream, so the keys, their distribution and the prefill are
//! the workload's — single-threaded on one pinned CPU, through the
//! layer's public functions only. Update rungs replay every entry as an
//! insert or a remove (its own kind if it is one, else its coin), so all
//! of them do the same work whatever the workload's own mix is. Counters
//! (`ChromaticTree::stats`, the descriptor pool, `HopMap::resizes`,
//! `ServiceStats`) are read around the rung that moves them.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Duration;

use hashmap::HopMap;
use llxscx::{llx, scx, Atomic, Owned, Record, RecordHeader, ScxArgs, Shared};
use nbtree::{ChromaticTree, Stats};
use service::ServiceStats;
use workload::latency::{calibrate, elapsed_ns, now};
use workload::ConcurrentMap;

use crate::affinity;
use crate::check;
use crate::run::{drive, median, prefilled_map, Client, Metric, Probe};
use crate::span::{Tracer, SAMPLE};
use crate::spec::{
    Entry, Inputs, ServiceClient, Spec, Stop, GET, INSERT, RANGE_WIDTH, REMOVE, SVC_WINDOW,
};

pub struct TraceOutput {
    pub attempted: u64,
    pub failed: u64,
    pub pinned: bool,
    pub metrics: Vec<Metric>,
    pub spans: usize,
}

/// `benchmark/out/<file>`, where spans are written.
pub fn out_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(file)
}

/// Stream entries each rung replays per second of `--seconds`: a million
/// at the contract's 20 s.
const OPS_PER_SECOND: f64 = 50_000.0;

/// Keys per call in the bulk and batch rungs: the service's `max_batch`.
const BATCH: usize = 64;

struct Ladder {
    tracer: Tracer,
    attempted: u64,
    failed: u64,
}

impl Ladder {
    /// Runs `op` over `items` inside one rung span, sampling op spans,
    /// and returns nanoseconds per item.
    fn rung<T>(
        &mut self,
        name: &'static str,
        items: impl Iterator<Item = T>,
        mut op: impl FnMut(T),
    ) -> f64 {
        let id = self.tracer.open(name);
        let t0 = now();
        let mut n = 0usize;
        for item in items {
            if self.tracer.samples(n) {
                let start = now();
                op(item);
                self.tracer.op(name, start, elapsed_ns(start), n as u64);
            } else {
                op(item);
            }
            n += 1;
        }
        let ns = elapsed_ns(t0);
        self.tracer.close(id);
        self.attempted += n as u64;
        ns as f64 / n as f64
    }

    /// Each entry replayed as an update.
    fn update_rung(
        &mut self,
        name: &'static str,
        entries: &[Entry],
        insert: impl Fn(u64) -> Option<u64>,
        remove: impl Fn(u64) -> Option<u64>,
    ) -> f64 {
        self.rung(name, entries.iter(), |e| {
            black_box(if e.inserts() {
                insert(e.key())
            } else {
                remove(e.key())
            });
        })
    }

    fn get_rung(
        &mut self,
        name: &'static str,
        entries: &[Entry],
        get: impl Fn(u64) -> Option<u64>,
    ) -> f64 {
        self.rung(name, entries.iter(), |e| {
            black_box(get(e.key()));
        })
    }

    /// Whole-batch insert or remove, as the batch's first entry would
    /// update; returns nanoseconds per key.
    fn batch_rung(
        &mut self,
        name: &'static str,
        entries: &[Entry],
        insert: impl Fn(&[(u64, u64)]) -> Vec<Option<u64>>,
        remove: impl Fn(&[u64]) -> Vec<Option<u64>>,
    ) -> f64 {
        let mut pairs = vec![(0, 0); BATCH];
        let mut keys = vec![0; BATCH];
        let per_batch = self.rung(name, entries.chunks_exact(BATCH), |chunk| {
            if chunk[0].inserts() {
                for (slot, e) in pairs.iter_mut().zip(chunk) {
                    *slot = (e.key(), e.key());
                }
                black_box(insert(&pairs));
            } else {
                for (slot, e) in keys.iter_mut().zip(chunk) {
                    *slot = e.key();
                }
                black_box(remove(&keys));
            }
        });
        per_batch / BATCH as f64
    }

    fn check_map(&mut self, map: &dyn ConcurrentMap) {
        self.failed += check::quiescent(map.name(), map, map.len());
    }

    /// One pass of the service over a fresh sharded map: `ops`
    /// completions through a client of shape `sc`. Returns nanoseconds
    /// per completion and the service's counters.
    fn service_rung(
        &mut self,
        name: &'static str,
        spec: &Spec,
        inputs: &Inputs,
        sc: ServiceClient,
        ops: u64,
    ) -> (f64, ServiceStats) {
        let map = prefilled_map("sharded", spec, inputs);
        let id = self.tracer.open(name);
        let tracer = std::mem::replace(&mut self.tracer, Tracer::off());
        let mut client = Client::start(map, sc, &inputs.streams[0], tracer);
        let t0 = now();
        let done = client.pump(Stop::Ops(ops));
        let ns = elapsed_ns(t0);
        let (stats, probe, failed) = client.finish(inputs);
        self.tracer = probe.tracer;
        self.tracer.close(id);
        self.attempted += done;
        self.failed += failed;
        (ns as f64 / done as f64, stats)
    }

    /// The workload as the end-to-end run executes it — its own map and
    /// op kinds, through the service if it has one — on one thread.
    fn top_rung(&mut self, spec: &Spec, inputs: &Inputs, ops: u64) -> f64 {
        if let Some(sc) = spec.service {
            return self.service_rung(spec.name, spec, inputs, sc, ops).0;
        }
        let map = prefilled_map(spec.map, spec, inputs);
        let id = self.tracer.open(spec.name);
        let mut probe = Probe::new(std::mem::replace(&mut self.tracer, Tracer::off()));
        let t0 = now();
        let done = drive(
            &*map,
            &inputs.streams[0],
            &mut 0,
            Stop::Ops(ops),
            &mut probe,
        );
        let ns = elapsed_ns(t0);
        self.tracer = probe.tracer;
        self.tracer.close(id);
        self.attempted += done;
        self.failed +=
            probe.tally.bad + check::quiescent(spec.name, &*map, probe.tally.expected_len(inputs));
        ns as f64 / done as f64
    }
}

/// The private record of the `llxscx` rung: a header and two children,
/// as in the `llxscx::pool::local_stats` example.
struct Pair {
    header: RecordHeader<Pair>,
    kids: [Atomic<Pair>; 2],
}

impl Record for Pair {
    const ARITY: usize = 2;
    fn header(&self) -> &RecordHeader<Self> {
        &self.header
    }
    fn child(&self, i: usize) -> &Atomic<Self> {
        &self.kids[i]
    }
}

fn pair() -> Owned<Pair> {
    Owned::new(Pair {
        header: RecordHeader::new(),
        kids: [Atomic::null(), Atomic::null()],
    })
}

/// LLX on a private root, then an SCX that swings its right child to a
/// fresh record, under the cached guard like every tree operation. The
/// root and its last child are leaked: two records per process.
fn llx_scx_ns(l: &mut Ladder, entries: &[Entry]) -> f64 {
    let root = llxscx::with_guard(|guard| pair().into_shared(guard).as_raw());
    l.rung("llxscx.llx_scx", entries.iter(), |_| {
        llxscx::with_guard(|guard| {
            let handle = llx(Shared::from(root), guard).unwrap();
            let old = handle.right();
            let args = ScxArgs {
                v: &[handle],
                finalize: 0,
                fld_record: 0,
                fld_idx: 1,
                new: pair().into_shared(guard),
            };
            assert!(scx(&args, guard), "an uncontended SCX failed");
            if !old.is_null() {
                // SAFETY: the SCX above unlinked `old` from the only record
                // that pointed to it, no other thread ever saw `root`, and
                // this is the one place `old` is retired.
                unsafe { llxscx::reclaim::defer_dispose_record(old.as_raw(), guard) };
            }
        })
    })
}

/// The `Stats` counters the ladder reports, as one snapshot.
#[derive(Clone, Copy)]
struct TreeCounts {
    scx_retries: u64,
    rebalance_steps: u64,
    cleanup_passes: u64,
    violations: u64,
    scans: u64,
    scan_retries: u64,
    merged_insert_keys: u64,
}

impl TreeCounts {
    fn of(s: &Stats) -> TreeCounts {
        TreeCounts {
            scx_retries: s.insert_retries() + s.delete_retries(),
            rebalance_steps: s.total_steps(),
            cleanup_passes: s.cleanup_passes(),
            violations: s.violations_created(),
            scans: s.range_queries(),
            scan_retries: s.range_retries(),
            merged_insert_keys: s.merged_insert_keys(),
        }
    }
}

fn prefilled_tree(inputs: &Inputs) -> ChromaticTree<u64, u64> {
    let tree = ChromaticTree::new();
    for &k in &inputs.prefill {
        tree.insert(k, k);
    }
    tree
}

/// The workload's own mix on a bare tree at the workload's thread count:
/// what contention adds, counted by the tree itself. Returns the counter
/// deltas and the ops executed.
fn contended_counts(
    spec: &Spec,
    inputs: &Inputs,
    ops: usize,
    cpus: &[usize],
) -> (TreeCounts, TreeCounts, u64) {
    let tree = prefilled_tree(inputs);
    llxscx::guard_cache::flush();
    let before = TreeCounts::of(tree.stats());
    std::thread::scope(|s| {
        for (i, stream) in inputs.streams.iter().enumerate() {
            let tree = &tree;
            s.spawn(move || {
                affinity::pin_worker(cpus, i);
                for e in &stream[..ops] {
                    let k = e.key();
                    match e.kind() {
                        INSERT => drop(black_box(tree.insert(k, k))),
                        REMOVE => drop(black_box(tree.remove(&k))),
                        GET => drop(black_box(tree.get(&k))),
                        _ => drop(black_box(tree.range(k..=k + RANGE_WIDTH - 1))),
                    }
                }
            });
        }
    });
    let after = TreeCounts::of(tree.stats());
    (before, after, (ops * spec.threads) as u64)
}

/// `part / whole`, 0 when there was nothing to take a share of.
fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Runs the ladder for `spec` and writes its spans to `path`.
pub fn trace(spec: &Spec, inputs: &Inputs, seconds: f64, path: &Path) -> TraceOutput {
    calibrate();
    let cpus = affinity::allowed();
    let pinned = affinity::pin_worker(&cpus, 0);
    let ops = ((OPS_PER_SECOND * seconds) as usize).clamp(BATCH, spec.stream_len);
    let entries = &inputs.streams[0][..ops];
    let mut l = Ladder {
        tracer: Tracer::on(ops / SAMPLE * 16 + 64),
        attempted: 0,
        failed: 0,
    };
    let mut metrics = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        metrics.push(Metric { name, value, unit })
    };
    let root = l.tracer.open("trace");

    // llxscx: the primitives alone.
    let pin_ns = l.rung("llxscx.pin", entries.iter(), |_| {
        llxscx::with_guard(|guard| {
            black_box(guard);
        })
    });
    let llx_scx = llx_scx_ns(&mut l, entries);

    // core: the chromatic tree through its inherent API.
    let tree = prefilled_tree(inputs);
    let core_update = l.update_rung(
        "core.update",
        entries,
        |k| tree.insert(k, k),
        |k| tree.remove(&k),
    );
    let pool_allocated = llxscx::pool::local_stats::<nbtree::node::Node<u64, u64>>().allocated;
    let core_get = l.get_rung("core.get", entries, |k| tree.get(&k));
    let core_range = l.rung("core.range100", entries[..ops / 16].iter(), |e| {
        black_box(tree.range(e.key()..=e.key() + RANGE_WIDTH - 1));
    });
    let before_bulk = TreeCounts::of(tree.stats());
    let core_bulk = l.batch_rung(
        "core.bulk64",
        entries,
        |b| tree.insert_bulk(b),
        |k| tree.remove_bulk(k),
    );
    let merged = TreeCounts::of(tree.stats()).merged_insert_keys - before_bulk.merged_insert_keys;
    let bulk_inserted = entries
        .chunks_exact(BATCH)
        .filter(|c| c[0].inserts())
        .count()
        * BATCH;
    if !tree.audit().is_valid() {
        eprintln!("check: the core rung's tree fails its audit");
        l.failed += 1;
    }
    drop(tree);
    let (before, after, contended_ops) = contended_counts(spec, inputs, ops, &cpus);

    // sharded: the trait object, then the routing façade and its batches.
    let dyn_map = prefilled_map("chromatic", spec, inputs);
    let dyn_update = l.update_rung(
        "dyn.update",
        entries,
        |k| dyn_map.insert(k, k),
        |k| dyn_map.remove(&k),
    );
    l.check_map(&*dyn_map);
    drop(dyn_map);
    let sharded = prefilled_map("sharded", spec, inputs);
    let sharded_update = l.update_rung(
        "sharded.update",
        entries,
        |k| sharded.insert(k, k),
        |k| sharded.remove(&k),
    );
    let sharded_batch = l.batch_rung(
        "sharded.batch64",
        entries,
        |b| sharded.insert_batch(b),
        |k| sharded.remove_batch(k),
    );
    l.check_map(&*sharded);
    drop(sharded);

    // hashmap: the bare hash tier.
    let hop = HopMap::<u64, u64>::new();
    for &k in &inputs.prefill {
        hop.insert(k, k);
    }
    let hash_get = l.get_rung("hashmap.get", entries, |k| hop.get(&k));
    let hash_update = l.update_rung(
        "hashmap.update",
        entries,
        |k| hop.insert(k, k),
        |k| hop.remove(&k),
    );
    let resizes = hop.resizes();
    drop(hop);

    // workload.adapters: hash tier + tree tier behind the dual-write latch.
    let hybrid = prefilled_map("hybrid", spec, inputs);
    let hybrid_get = l.get_rung("hybrid.get", entries, |k| hybrid.get(&k));
    let hybrid_update = l.update_rung(
        "hybrid.update",
        entries,
        |k| hybrid.insert(k, k),
        |k| hybrid.remove(&k),
    );
    l.check_map(&*hybrid);
    drop(hybrid);

    // service: windowed batching, then one-in-flight passthrough.
    let (window_ns, stats) = l.service_rung("service.window", spec, inputs, SVC_WINDOW, ops as u64);
    let submit_ns = median(l.tracer.durations("service.submit").map(|ns| ns as f64));
    let passthrough = ServiceClient {
        window: 1,
        max_batch: 1,
        max_delay: Duration::ZERO,
    };
    let (passthrough_ns, _) = l.service_rung(
        "service.passthrough",
        spec,
        inputs,
        passthrough,
        ops as u64 / 4,
    );

    // The workload itself, spans off then on: what tracing costs.
    l.tracer.set_on(false);
    let untraced_ns = l.top_rung(spec, inputs, ops as u64);
    l.tracer.set_on(true);
    let traced_ns = l.top_rung(spec, inputs, ops as u64);
    l.tracer.close(root);

    put("llxscx.llx_scx_ns", llx_scx, "ns");
    put("llxscx.pin_ns", pin_ns, "ns");
    put("llxscx.pool_allocated", pool_allocated as f64, "count");
    put("core.update_ns", core_update, "ns");
    put("core.get_ns", core_get, "ns");
    put("core.range100_ns", core_range, "ns");
    put("core.bulk64_ns_per_key", core_bulk, "ns");
    let per_kop = |f: fn(&TreeCounts) -> u64| 1e3 * share(f(&after) - f(&before), contended_ops);
    put(
        "core.scx_retries_per_kop",
        per_kop(|c| c.scx_retries),
        "1/kop",
    );
    put(
        "core.rebalance_steps_per_kop",
        per_kop(|c| c.rebalance_steps),
        "1/kop",
    );
    put(
        "core.cleanup_passes_per_kop",
        per_kop(|c| c.cleanup_passes),
        "1/kop",
    );
    put(
        "core.violations_per_kop",
        per_kop(|c| c.violations),
        "1/kop",
    );
    put(
        "core.range_retries_per_kscan",
        1e3 * share(
            after.scan_retries - before.scan_retries,
            after.scans - before.scans,
        ),
        "1/kscan",
    );
    put(
        "core.merged_keys_share",
        share(merged, bulk_inserted as u64),
        "ratio",
    );
    put("sharded.dyn_tax_ns", dyn_update - core_update, "ns");
    put("sharded.route_tax_ns", sharded_update - dyn_update, "ns");
    put("sharded.batch64_ns_per_key", sharded_batch, "ns");
    put("hashmap.get_ns", hash_get, "ns");
    put("hashmap.update_ns", hash_update, "ns");
    put("hashmap.resizes", resizes as f64, "count");
    put("hybrid.get_ns", hybrid_get, "ns");
    put("hybrid.update_ns", hybrid_update, "ns");
    put(
        "hybrid.update_tax_ns",
        hybrid_update - hash_update - core_update,
        "ns",
    );
    put("service.submit_ns", submit_ns, "ns");
    put("service.window_ns_per_op", window_ns, "ns");
    put("service.tax_ns_per_op", window_ns - sharded_batch, "ns");
    put("service.passthrough_ns_per_op", passthrough_ns, "ns");
    put(
        "service.mean_batch",
        share(stats.batched_ops, stats.flushes),
        "count",
    );
    put(
        "service.size_flush_share",
        share(stats.size_flushes, stats.flushes),
        "ratio",
    );
    put(
        "service.deadline_flush_share",
        share(stats.deadline_flushes, stats.flushes),
        "ratio",
    );
    put(
        "service.blocked_per_kop",
        1e3 * share(stats.blocked, stats.submitted),
        "1/kop",
    );
    put("service.shed", stats.shed as f64, "count");
    put(
        "trace.overhead_share",
        1.0 - untraced_ns / traced_ns,
        "ratio",
    );

    if let Err(err) = l.tracer.write_json(path) {
        eprintln!("check: cannot write {}: {err}", path.display());
        l.failed += 1;
    }
    affinity::restrict(&cpus);
    TraceOutput {
        attempted: l.attempted,
        failed: l.failed,
        pinned,
        metrics,
        spans: l.tracer.len(),
    }
}

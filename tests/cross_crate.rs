//! Cross-crate integration tests: every structure in the suite against the
//! same scripted workloads, semantic equivalence between structures, and
//! template-level properties that span llxscx + nbtree.

use sharded::ShardedMap;
use workload::{
    check_against_model, check_against_model_dist, make_hybrid, make_map, make_sharded,
    ChromaticShard, ConcurrentMap, HybridShard, KeyDist, SuiteConfig, ALL_MAPS,
    TIER_ALLOWED_VIOLATIONS,
};

/// One config for every test in this file: the scripted workloads use
/// small key ranges, so the sharded entry's boundary table is sized to
/// match (the typed-config equivalent of what the bench bins do).
fn cfg() -> SuiteConfig {
    SuiteConfig::default().for_key_range(256)
}

#[test]
fn all_structures_agree_on_scripted_workload() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let maps: Vec<_> = ALL_MAPS
        .iter()
        .map(|n| make_map(n, &cfg()).unwrap())
        .collect();
    let mut rng = StdRng::seed_from_u64(1234);
    for step in 0..4000u64 {
        let k = rng.gen_range(0..200u64);
        match rng.gen_range(0..4) {
            0 => {
                let expect = maps[0].insert(k, step);
                for m in &maps[1..] {
                    assert_eq!(m.insert(k, step), expect, "{} insert({k})", m.name());
                }
            }
            1 => {
                let expect = maps[0].remove(&k);
                for m in &maps[1..] {
                    assert_eq!(m.remove(&k), expect, "{} remove({k})", m.name());
                }
            }
            2 => {
                let expect = maps[0].get(&k);
                for m in &maps[1..] {
                    assert_eq!(m.get(&k), expect, "{} get({k})", m.name());
                }
            }
            _ => {
                let hi = k + rng.gen_range(0..50u64);
                let expect = maps[0].range(k, hi);
                for m in &maps[1..] {
                    assert_eq!(m.range(k, hi), expect, "{} range([{k}, {hi}])", m.name());
                }
            }
        }
    }
    let n = maps[0].len();
    for m in &maps[1..] {
        assert_eq!(m.len(), n, "{} size", m.name());
    }
}

#[test]
fn each_structure_matches_btreemap() {
    for name in ALL_MAPS {
        let map = make_map(name, &cfg()).unwrap();
        check_against_model(map.as_ref(), 5, 5000, 300);
    }
}

#[test]
fn each_structure_matches_btreemap_under_skewed_keys() {
    // The skewed samplers feed every structure a hot-key-heavy script:
    // the same few keys hammered through insert/remove/get/range, which
    // exercises repeated same-leaf churn (chromatic rebalancing,
    // hopscotch displacement, shard hot-spotting) that a uniform script
    // touches only rarely. Model equivalence must hold regardless of how
    // keys are drawn.
    let dists = [
        KeyDist::Zipfian { theta_pct: 90 },
        KeyDist::Zipfian { theta_pct: 120 },
        KeyDist::HotSet {
            keys_pct: 5,
            ops_pct: 90,
        },
    ];
    for name in ALL_MAPS {
        for dist in dists {
            let map = make_map(name, &cfg()).unwrap();
            check_against_model_dist(map.as_ref(), 5, 3000, 300, dist);
        }
    }
}

#[test]
fn trait_batch_ops_match_per_element_application_on_every_structure() {
    // The batch-equivalence oracle: on every registered structure, the
    // trait-level batch entry points must return exactly what
    // sequential per-element application returns — displaced values in
    // input order, duplicate keys resolving in batch order — and leave
    // identical contents behind. One round flavor builds clustered
    // consecutive-key runs.
    use rand::{rngs::StdRng, Rng, SeedableRng};
    for name in ALL_MAPS {
        let batched = make_map(name, &cfg()).unwrap();
        let pointwise = make_map(name, &cfg()).unwrap();
        let mut rng = StdRng::seed_from_u64(4242);
        for round in 0..150u64 {
            let len = rng.gen_range(0..40usize);
            match rng.gen_range(0..3) {
                0 => {
                    // Small key range: plenty of in-batch duplicates.
                    let batch: Vec<(u64, u64)> = (0..len)
                        .map(|i| (rng.gen_range(0..200), round * 100 + i as u64))
                        .collect();
                    let expect: Vec<_> =
                        batch.iter().map(|&(k, v)| pointwise.insert(k, v)).collect();
                    assert_eq!(
                        batched.insert_batch(&batch),
                        expect,
                        "{name} insert_batch {batch:?}"
                    );
                }
                1 => {
                    let keys: Vec<u64> = (0..len).map(|_| rng.gen_range(0..200)).collect();
                    let expect: Vec<_> = keys.iter().map(|k| pointwise.remove(k)).collect();
                    assert_eq!(
                        batched.remove_batch(&keys),
                        expect,
                        "{name} remove_batch {keys:?}"
                    );
                }
                _ => {
                    // Clustered runs: random bases expanded to consecutive
                    // keys — maximal same-leaf runs for the chromatic
                    // merge paths. Alternate rounds insert and remove, so
                    // sibling-pair collapses fire on leaves the previous
                    // clustered round installed.
                    let mut keys: Vec<u64> = Vec::new();
                    while keys.len() < len {
                        let base = rng.gen_range(0..200u64);
                        let r = rng.gen_range(1..9usize).min(len - keys.len());
                        keys.extend(base..base + r as u64);
                    }
                    if round % 2 == 0 {
                        let batch: Vec<(u64, u64)> =
                            keys.iter().map(|&k| (k, round * 100)).collect();
                        let expect: Vec<_> =
                            batch.iter().map(|&(k, v)| pointwise.insert(k, v)).collect();
                        assert_eq!(
                            batched.insert_batch(&batch),
                            expect,
                            "{name} clustered insert_batch {batch:?}"
                        );
                    } else {
                        let expect: Vec<_> = keys.iter().map(|k| pointwise.remove(k)).collect();
                        assert_eq!(
                            batched.remove_batch(&keys),
                            expect,
                            "{name} clustered remove_batch {keys:?}"
                        );
                    }
                }
            }
        }
        assert_eq!(
            batched.range(0, u64::MAX),
            pointwise.range(0, u64::MAX),
            "{name}: final contents diverged"
        );
        // And the model-based flavor of the same oracle.
        let map = make_map(name, &cfg()).unwrap();
        workload::check_batches_against_model(map.as_ref(), 17, 120, 200);
    }
}

#[test]
fn concurrent_batch_writers_settle_like_point_writers() {
    // Batched and point execution of the same striped workload must agree
    // on the final state on every structure (each stripe is
    // single-writer, so the end state is deterministic). This is the
    // concurrent half of the batch oracle and runs under TSan in CI.
    use std::sync::Arc;
    for name in ALL_MAPS {
        let maps: Vec<Arc<dyn workload::ConcurrentMap>> = vec![
            Arc::from(make_map(name, &cfg()).unwrap()),
            Arc::from(make_map(name, &cfg()).unwrap()),
        ];
        for (flavor, map) in maps.iter().enumerate() {
            std::thread::scope(|s| {
                for tid in 0..4u64 {
                    let map = Arc::clone(map);
                    s.spawn(move || {
                        let base = tid * 1000;
                        for round in 0..8u64 {
                            let batch: Vec<(u64, u64)> =
                                (0..125).map(|i| (base + (round * 125 + i), i)).collect();
                            let dels: Vec<u64> = batch.iter().step_by(3).map(|&(k, _)| k).collect();
                            if flavor == 0 {
                                map.insert_batch(&batch);
                                map.remove_batch(&dels);
                            } else {
                                for &(k, v) in &batch {
                                    map.insert(k, v);
                                }
                                for k in &dels {
                                    map.remove(k);
                                }
                            }
                        }
                    });
                }
            });
        }
        assert_eq!(
            maps[0].range(0, u64::MAX),
            maps[1].range(0, u64::MAX),
            "{name}: batched and point writers diverged"
        );
    }
}

#[test]
fn batched_service_over_every_structure_settles_like_model() {
    // The service-vs-model oracle: N client threads push interleaved
    // point ops through a `BatchedService` front end (real flusher
    // thread, size + deadline triggers, `Block` backpressure) over every
    // registered structure. Clients own disjoint key stripes, so the
    // FIFO queue plus in-order flush execution makes each client's
    // response stream equal its own sequential `BTreeMap` replay —
    // including duplicate-key submissions, which must resolve in
    // submission order. After shutdown the settled contents must equal
    // the union of the per-stripe models. Runs under TSan in CI (the
    // flusher, the clients and the completion slabs race for real).
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use service::{BatchedService, FlushPolicy, Op, ServiceConfig};
    use std::collections::BTreeMap;
    use std::time::Duration;
    const CLIENTS: u64 = 4;
    const STRIPE: u64 = 1000;
    const OPS: u64 = 1200;
    for name in ALL_MAPS {
        let svc = BatchedService::start(
            make_map(name, &cfg()).unwrap(),
            ServiceConfig::new(FlushPolicy::new(32, Duration::from_micros(200))),
        );
        let svc = std::sync::Arc::new(svc);
        let models: Vec<BTreeMap<u64, u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|tid| {
                    let svc = std::sync::Arc::clone(&svc);
                    s.spawn(move || {
                        let base = tid * STRIPE;
                        let mut rng = StdRng::seed_from_u64(tid + 99);
                        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
                        let mut window: Vec<(Op, service::ResponseFuture)> = Vec::new();
                        for step in 0..OPS {
                            // Narrow per-stripe key range: plenty of
                            // same-key (duplicate) submissions in flight.
                            let k = base + rng.gen_range(0..150u64);
                            let op = match rng.gen_range(0..4) {
                                0 | 1 => Op::Insert(k, tid * 1_000_000 + step),
                                2 => Op::Remove(k),
                                _ => Op::Get(k),
                            };
                            window.push((op, svc.submit(op).unwrap()));
                            // Settle in windows so many futures are in
                            // flight at once but memory stays bounded.
                            if window.len() == 64 || step == OPS - 1 {
                                for (op, fut) in window.drain(..) {
                                    let want = match op {
                                        Op::Get(k) => model.get(&k).copied(),
                                        Op::Insert(k, v) => model.insert(k, v),
                                        Op::Remove(k) => model.remove(&k),
                                    };
                                    assert_eq!(
                                        fut.wait(),
                                        want,
                                        "{name}: client {tid} {op:?} diverged from replay"
                                    );
                                }
                            }
                        }
                        model
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut svc = std::sync::Arc::into_inner(svc).expect("clients joined");
        svc.shutdown();
        let merged: Vec<(u64, u64)> = models
            .into_iter()
            .flatten()
            .collect::<BTreeMap<u64, u64>>()
            .into_iter()
            .collect();
        assert_eq!(
            svc.map().range(0, u64::MAX),
            merged,
            "{name}: settled contents diverged from the striped models"
        );
        let stats = svc.stats();
        assert_eq!(stats.submitted, CLIENTS * OPS, "{name}: lost submissions");
        assert_eq!(stats.completed, CLIENTS * OPS, "{name}: lost responses");
        assert!(
            stats.flushes < stats.completed,
            "{name}: no batching at all under {CLIENTS} concurrent clients"
        );
    }
}

#[test]
fn concurrent_cross_structure_consistency() {
    // Run the same striped concurrent workload on every structure; final
    // contents must be identical (each stripe is single-writer).
    use std::sync::Arc;
    let mut finals = Vec::new();
    for name in ALL_MAPS {
        let map: Arc<dyn workload::ConcurrentMap> = Arc::from(make_map(name, &cfg()).unwrap());
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    let base = tid * 1000;
                    for i in 0..1000 {
                        map.insert(base + i, i);
                    }
                    for i in (0..1000).step_by(3) {
                        map.remove(&(base + i));
                    }
                });
            }
        });
        finals.push((name, map.len()));
    }
    let expect = finals[0].1;
    for (name, n) in &finals {
        assert_eq!(*n, expect, "{name} diverged");
    }
}

#[test]
fn concurrent_range_scans_hold_weak_properties_on_every_structure() {
    // Properties every structure's scan must satisfy even mid-churn,
    // atomic or not: sorted, duplicate-free, no phantom keys, and no
    // missing *permanent* key (inserted before the storm, never touched).
    // The strong atomic-snapshot check (pair invariant) lives in
    // `crates/core/tests/range_stress.rs` for the VLX-validated trees.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    const CHURN_LO: u64 = 1000; // churn keys: [1000, 2000)
    const CHURN_HI: u64 = 2000;
    for name in ALL_MAPS {
        let map: Arc<dyn workload::ConcurrentMap> = Arc::from(make_map(name, &cfg()).unwrap());
        for k in (0..CHURN_LO).step_by(10) {
            map.insert(k, k); // permanent prefix
        }
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for tid in 0..2u64 {
                let map = Arc::clone(&map);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    use rand::{rngs::StdRng, Rng, SeedableRng};
                    let mut rng = StdRng::seed_from_u64(tid);
                    // RELAXED: stop flag: guards no data; joined before results are read
                    while !stop.load(Ordering::Relaxed) {
                        let k = rng.gen_range(CHURN_LO..CHURN_HI);
                        if rng.gen_bool(0.5) {
                            map.insert(k, k);
                        } else {
                            map.remove(&k);
                        }
                    }
                });
            }
            let scans = if cfg!(debug_assertions) { 100 } else { 250 };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for round in 0..scans {
                    let lo = (round as u64 * 37) % CHURN_LO;
                    let snap = map.range(lo, CHURN_HI + 100);
                    for w in snap.windows(2) {
                        assert!(w[0].0 < w[1].0, "{name}: scan not strictly sorted");
                    }
                    for (k, _) in &snap {
                        assert!(
                            (*k < CHURN_LO && k % 10 == 0) || (CHURN_LO..CHURN_HI).contains(k),
                            "{name}: phantom key {k}"
                        );
                    }
                    for k in (lo.next_multiple_of(10)..CHURN_LO).step_by(10) {
                        assert!(
                            snap.binary_search_by_key(&k, |(k, _)| *k).is_ok(),
                            "{name}: permanent key {k} missing from scan at [{lo}, ..]"
                        );
                    }
                }
            }));
            // RELAXED: stop flag: guards no data; joined before results are read
            stop.store(true, Ordering::Relaxed);
            if let Err(panic) = result {
                std::panic::resume_unwind(panic);
            }
        });
    }
}

/// Who writes what in [`hybrid_tiers_agree_after_concurrent_run`].
#[derive(Clone, Copy, PartialEq)]
enum HybridWriters {
    /// Every thread issues point ops writing `tid * 1_000_000 + step`, so
    /// almost every insert changes its key's value.
    Point,
    /// Odd threads issue `insert_batch`/`remove_batch` calls whose keys
    /// repeat, racing the even threads' point ops on the same keys.
    Batched,
    /// Every thread issues point ops writing `k` or `k + 1`, so
    /// equal-value re-inserts (which skip the tree), value changes and
    /// absent removes all contend on the same latches.
    TwoValues,
}

/// The dual-write consistency oracle for the `"hybrid"` registration:
/// point ops answer from the hash tier, `range` from the chromatic tier,
/// and every mutation takes a per-key-stripe latch, writes the hash tier
/// and carries any change of the key's state to the tree.
/// Unlike the suite's other concurrent tests, the threads here
/// deliberately contend on the SAME keys — without the latch, two racing
/// writers could commit in opposite orders in the two tiers and leave
/// them permanently disagreeing, and a write could skip the tree on a
/// hash-tier answer another writer was about to change: exactly the bug
/// classes this oracle exists to catch. After the run settles, the tiers
/// must agree key for key.
fn hybrid_tiers_agree_after_concurrent_run(writers: HybridWriters) {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::sync::Arc;
    const KEYSPACE: u64 = 512;
    let map: Arc<dyn workload::ConcurrentMap> = Arc::from(make_map("hybrid", &cfg()).unwrap());
    std::thread::scope(|s| {
        for tid in 0..4u64 {
            let map = Arc::clone(&map);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(tid);
                if writers == HybridWriters::Batched && tid % 2 == 1 {
                    for step in 0..200u64 {
                        // 32 draws from the shared keyspace, then the
                        // first 8 again: duplicates within one batch.
                        let mut keys: Vec<u64> =
                            (0..32).map(|_| rng.gen_range(0..KEYSPACE)).collect();
                        keys.extend_from_within(..8);
                        if rng.gen_bool(0.6) {
                            let batch: Vec<(u64, u64)> =
                                keys.iter().map(|&k| (k, tid * 1_000_000 + step)).collect();
                            map.insert_batch(&batch);
                        } else {
                            map.remove_batch(&keys);
                        }
                    }
                } else {
                    for step in 0..6000u64 {
                        let k = rng.gen_range(0..KEYSPACE); // shared keyspace: same-key races
                        match rng.gen_range(0..4) {
                            0 | 1 => {
                                let v = match writers {
                                    HybridWriters::TwoValues => k + rng.gen_range(0..2),
                                    _ => tid * 1_000_000 + step,
                                };
                                map.insert(k, v);
                            }
                            2 => {
                                map.remove(&k);
                            }
                            _ => {
                                map.get(&k);
                            }
                        }
                    }
                }
            });
        }
    });
    // Settled: the hash tier (gets, len) and the tree tier (range) must
    // be the same map.
    let scan = map.range(0, u64::MAX);
    assert!(scan.windows(2).all(|w| w[0].0 < w[1].0), "scan not sorted");
    assert_eq!(map.len(), scan.len(), "hash-tier len != tree-tier scan");
    let mut present = 0;
    for k in 0..KEYSPACE {
        let got = map.get(&k);
        let in_scan = scan
            .binary_search_by_key(&k, |(k, _)| *k)
            .ok()
            .map(|i| scan[i].1);
        assert_eq!(got, in_scan, "tiers disagree on key {k}");
        present += got.is_some() as usize;
    }
    assert_eq!(present, scan.len());
}

#[test]
fn hybrid_tiers_agree_after_settled_concurrent_run() {
    hybrid_tiers_agree_after_concurrent_run(HybridWriters::Point);
}

#[test]
fn hybrid_tiers_agree_after_racing_batch_writers() {
    hybrid_tiers_agree_after_concurrent_run(HybridWriters::Batched);
}

#[test]
fn hybrid_tiers_agree_after_idempotent_and_changing_writes() {
    hybrid_tiers_agree_after_concurrent_run(HybridWriters::TwoValues);
}

/// Keys per lazy-tier test: 8 shards of 512 keys each.
const LAZY_TIER_KEYS: u64 = 1 << 12;

/// A fresh `"sharded"` and `"hybrid"` entry over `[0, LAZY_TIER_KEYS)`,
/// concrete so each shard's tree can be audited.
fn lazy_tier_maps() -> (ShardedMap<ChromaticShard>, ShardedMap<HybridShard>) {
    let cfg = SuiteConfig::default().for_key_range(LAZY_TIER_KEYS);
    (make_sharded(&cfg), make_hybrid(&cfg))
}

/// Every chromatic tier of both entries must be a valid chromatic tree
/// within the §5.3 quiescent height bound that `figures height` checks,
/// `2⌈log2(n+1)⌉ + 2 + k`, at the `k` the registry ships.
fn assert_lazy_tiers_within_bound(
    sharded: &ShardedMap<ChromaticShard>,
    hybrid: &ShardedMap<HybridShard>,
) {
    let check = |entry: &str, shard: usize, tree: &nbtree::ChromaticTree<u64, u64>| {
        let report = tree.audit();
        assert!(
            report.is_valid(),
            "{entry} shard {shard}: {:?}",
            report.errors
        );
        let log = (report.keys + 1).next_power_of_two().trailing_zeros() as usize;
        let bound = 2 * log + 2 + TIER_ALLOWED_VIOLATIONS as usize;
        assert!(
            report.height <= bound,
            "{entry} shard {shard}: height {} exceeds the bound {bound} (n = {}, k = {})",
            report.height,
            report.keys,
            TIER_ALLOWED_VIOLATIONS
        );
    };
    for (i, s) in sharded.shards().enumerate() {
        check("sharded", i, s.tree());
    }
    for (i, s) in hybrid.shards().enumerate() {
        check("hybrid", i, s.tree());
    }
}

/// Two threads churn both composed entries 50i-50d on shared keys; at
/// quiescence every lazy tier holds the height bound.
#[test]
fn lazy_tier_shards_hold_the_height_bound_after_two_thread_churn() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let (sharded, hybrid) = lazy_tier_maps();
    std::thread::scope(|s| {
        for tid in 0..2u64 {
            let (sharded, hybrid) = (&sharded, &hybrid);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(11 + tid);
                for step in 0..20_000u64 {
                    let k = rng.gen_range(0..LAZY_TIER_KEYS);
                    if rng.gen_bool(0.5) {
                        sharded.insert(k, step);
                        hybrid.insert(k, step);
                    } else {
                        sharded.remove(&k);
                        hybrid.remove(&k);
                    }
                }
            });
        }
    });
    assert!(sharded.len() > 0 && hybrid.len() > 0);
    assert_lazy_tiers_within_bound(&sharded, &hybrid);
}

/// Ascending inserts are the worst case for deferred rebalancing: every
/// insert lands on the rightmost path, so a tier that never cleaned up
/// would grow one level per key.
#[test]
fn lazy_tier_shards_hold_the_height_bound_after_ascending_inserts() {
    let (sharded, hybrid) = lazy_tier_maps();
    for k in 0..LAZY_TIER_KEYS {
        sharded.insert(k, k);
        hybrid.insert(k, k);
    }
    assert_eq!(sharded.len(), LAZY_TIER_KEYS as usize);
    assert_eq!(hybrid.len(), LAZY_TIER_KEYS as usize);
    assert_lazy_tiers_within_bound(&sharded, &hybrid);
}

#[test]
fn template_driver_and_unrolled_updates_interoperate() {
    // nbbst (generic template driver) and chromatic (hand-unrolled) share
    // the same llxscx substrate; hammering both concurrently in one process
    // checks the substrate's global state (epoch collector) under load.
    use std::sync::Arc;
    let bst = Arc::new(nbbst::NbBst::<u64, u64>::new());
    let chrom = Arc::new(nbtree::ChromaticTree::<u64, u64>::new());
    std::thread::scope(|s| {
        for tid in 0..2u64 {
            let bst = Arc::clone(&bst);
            let chrom = Arc::clone(&chrom);
            s.spawn(move || {
                for i in 0..5000u64 {
                    let k = (i * 7 + tid * 3) % 512;
                    bst.insert(k, i);
                    chrom.insert(k, i);
                    if i % 3 == 0 {
                        bst.remove(&k);
                        chrom.remove(&k);
                    }
                }
            });
        }
    });
    let report = chrom.audit();
    assert!(report.is_valid(), "{:?}", report.errors);
}

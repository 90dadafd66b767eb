//! Cross-crate stress for the sharded façade: the pair-invariant
//! linearizability harness of `crates/core/tests/range_stress.rs`,
//! applied *per shard*.
//!
//! The façade's documented range-atomicity scope is per-shard: each
//! shard's slice of a stitched scan is a VLX-atomic snapshot, but slices
//! from different shards may reflect different instants. The harness
//! encodes exactly that contract: every writer-toggled key pair is placed
//! wholly inside one shard (pair strides divide the shard boundaries), so
//! an atomic *per-shard* scan must always observe ≥ 1 member of every
//! pair — even though the overall scan crosses every boundary. A pair
//! straddling a boundary would carry no such guarantee; that case is
//! covered by the sequential proptest in `crates/sharded` and documented
//! in `docs/SHARDING.md`.
//!
//! Writers come in two flavors, point ops and batched ops
//! (`insert_batch`/`remove_batch`), so the batch entry points are
//! stressed against concurrent stitched scans too.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sharded::{ConcurrentMap, ShardedMap};
use workload::{make_sharded, SuiteConfig};

/// Pair layout, mirroring `range_stress.rs`: pair `i` is
/// `(base, base + SPREAD)` with a permanent key at `base + 1`. STRIDE
/// divides the shard span, so boundaries always fall on pair bases and no
/// pair straddles a shard.
const PAIRS: u64 = 24;
const SPREAD: u64 = 1000;
const STRIDE: u64 = 2 * SPREAD + 100;
const SHARDS: usize = 4;
const SPAN: u64 = PAIRS * STRIDE; // per-shard: PAIRS / SHARDS whole pairs

fn pair_lo(i: u64) -> u64 {
    i * STRIDE
}
fn pair_hi(i: u64) -> u64 {
    i * STRIDE + SPREAD
}
fn permanent(i: u64) -> u64 {
    i * STRIDE + 1
}

fn scans() -> usize {
    if cfg!(debug_assertions) {
        150
    } else {
        400
    }
}

fn check_snapshot<M: ConcurrentMap>(map: &ShardedMap<M>, snap: &[(u64, u64)], lo: u64, hi: u64) {
    for w in snap.windows(2) {
        assert!(
            w[0].0 < w[1].0,
            "stitched scan not strictly sorted: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    assert!(
        snap.iter().all(|(k, _)| (lo..=hi).contains(k)),
        "stitched scan leaked keys outside [{lo}, {hi}]"
    );
    for (k, _) in snap {
        let i = k / STRIDE;
        assert!(
            *k == pair_lo(i) || *k == pair_hi(i) || *k == permanent(i),
            "phantom key {k} was never inserted"
        );
    }
    for i in 0..PAIRS {
        if lo <= permanent(i) && permanent(i) <= hi {
            assert!(
                snap.binary_search_by_key(&permanent(i), |(k, _)| *k)
                    .is_ok(),
                "permanent key {} missing from [{lo}, {hi}]",
                permanent(i)
            );
        }
        // THE per-shard atomicity check. Every pair sits inside one shard
        // by construction (assert it, so a layout change cannot silently
        // weaken the test); a pair wholly inside the query must have ≥ 1
        // member in the stitched snapshot, because the slice contributed
        // by its shard is atomic.
        if lo <= pair_lo(i) && pair_hi(i) <= hi {
            assert_eq!(
                map.shard_of(pair_lo(i)),
                map.shard_of(pair_hi(i)),
                "test layout broken: pair {i} straddles a shard boundary"
            );
            let has_lo = snap.binary_search_by_key(&pair_lo(i), |(k, _)| *k).is_ok();
            let has_hi = snap.binary_search_by_key(&pair_hi(i), |(k, _)| *k).is_ok();
            assert!(
                has_lo || has_hi,
                "pair {i} ({}, {}) wholly absent from stitched scan of [{lo}, {hi}]: \
                 the per-shard slice was not atomic",
                pair_lo(i),
                pair_hi(i)
            );
        }
    }
}

/// `batched = false`: writers toggle pairs with point ops.
/// `batched = true`: writers toggle all their pairs with one
/// `insert_batch` (absent members) followed by one `remove_batch`
/// (previously-present members) — between the two calls both members are
/// present, so the ≥ 1 invariant holds at every instant.
fn pair_invariant_stress(batched: bool) {
    let map = Arc::new(make_sharded(
        &SuiteConfig::default()
            .with_shards(SHARDS)
            .for_key_range(SPAN),
    ));
    assert_eq!(map.shard_count(), SHARDS);
    for i in 0..PAIRS {
        map.insert(permanent(i), i);
        map.insert(pair_lo(i), i);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writers = 2u64;
    let scanners = 2u64;
    std::thread::scope(|s| {
        for w in 0..writers {
            let map = Arc::clone(&map);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mine: Vec<u64> = (w..PAIRS).step_by(writers as usize).collect();
                let mut present_lo = true; // all owned pairs toggle together
                while !stop.load(Ordering::Relaxed) {
                    let (add, del): (Vec<_>, Vec<_>) = if present_lo {
                        (
                            mine.iter().map(|&i| (pair_hi(i), i)).collect(),
                            mine.iter().map(|&i| pair_lo(i)).collect(),
                        )
                    } else {
                        (
                            mine.iter().map(|&i| (pair_lo(i), i)).collect(),
                            mine.iter().map(|&i| pair_hi(i)).collect(),
                        )
                    };
                    if batched {
                        map.insert_batch(&add);
                        map.remove_batch(&del);
                    } else {
                        for (&(k, v), &d) in add.iter().zip(&del) {
                            map.insert(k, v);
                            map.remove(&d);
                        }
                    }
                    present_lo = !present_lo;
                }
            });
        }
        let scan_handles: Vec<_> = (0..scanners)
            .map(|t| {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    use rand::{rngs::StdRng, Rng, SeedableRng};
                    let mut rng = StdRng::seed_from_u64(700 + t);
                    for round in 0..scans() {
                        let (lo, hi) = if round % 3 == 0 {
                            (0, SPAN + SPREAD) // all shards
                        } else {
                            let a = rng.gen_range(0..PAIRS);
                            let b = rng.gen_range(a..PAIRS);
                            (a * STRIDE, b * STRIDE + SPREAD)
                        };
                        let snap = map.range(lo, hi);
                        check_snapshot(&map, &snap, lo, hi);
                    }
                })
            })
            .collect();
        // Stop writers BEFORE propagating scanner panics (they poll
        // `stop`; panicking first would deadlock the scope).
        let results: Vec<_> = scan_handles.into_iter().map(|h| h.join()).collect();
        stop.store(true, Ordering::Relaxed);
        for r in results {
            if let Err(panic) = r {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[test]
fn stitched_scans_are_atomic_per_shard_under_point_writers() {
    pair_invariant_stress(false);
}

#[test]
fn stitched_scans_are_atomic_per_shard_under_batched_writers() {
    pair_invariant_stress(true);
}

/// After a multi-thread batched storm: the façade agrees with a
/// sequential replay, every key sits in the shard the boundary table
/// names, and the stitched full scan equals the union of per-shard scans.
#[test]
fn batched_storm_settles_to_consistent_shards() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let map = Arc::new(make_sharded(
        &SuiteConfig::default().with_shards(8).for_key_range(4096),
    ));
    std::thread::scope(|s| {
        for tid in 0..4u64 {
            let map = Arc::clone(&map);
            s.spawn(move || {
                // Disjoint key stripes per thread, so a sequential replay
                // below can predict the final state exactly.
                let mut rng = StdRng::seed_from_u64(tid);
                for round in 0..60u64 {
                    let batch: Vec<(u64, u64)> = (0..64)
                        .map(|_| (rng.gen_range(0..1024) * 4 + tid, round))
                        .collect();
                    map.insert_batch(&batch);
                    let dels: Vec<u64> = batch.iter().take(32).map(|&(k, _)| k).collect();
                    map.remove_batch(&dels);
                }
            });
        }
    });
    // Sequential replay per stripe.
    use std::collections::BTreeMap;
    let mut model = BTreeMap::new();
    for tid in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(tid);
        for round in 0..60u64 {
            let batch: Vec<(u64, u64)> = (0..64)
                .map(|_| (rng.gen_range(0..1024) * 4 + tid, round))
                .collect();
            for &(k, v) in &batch {
                model.insert(k, v);
            }
            for &(k, _) in batch.iter().take(32) {
                model.remove(&k);
            }
        }
    }
    let full = map.range(0, u64::MAX);
    let expect: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(full, expect);
    assert_eq!(map.len(), model.len());
    // Shard residency matches the boundary table, and the stitched scan
    // is exactly the shard-ordered concatenation.
    let mut stitched = Vec::new();
    for idx in 0..map.shard_count() {
        let shard_content = map.shard(idx).range(0, u64::MAX);
        for (k, _) in &shard_content {
            assert_eq!(map.shard_of(*k), idx, "key {k} resident in wrong shard");
        }
        stitched.extend(shard_content);
    }
    assert_eq!(stitched, expect);
}

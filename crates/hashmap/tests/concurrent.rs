//! Concurrency battery for the hopscotch map's lock-free read path:
//! readers racing displacement chains, readers racing slot reuse by
//! another key, settled determinism under striped writers, and scan weak
//! properties mid-churn.

mod common;

use common::IdentityBuild;
use hashmap::{HopMap, HOP_RANGE};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Readers must never miss a permanent key while churn threads force
/// displacement chains through the permanent keys' neighborhoods. A
/// displacement moves an entry between two slots of its home
/// neighborhood, and names the new slot and drops the old one in one
/// store of the bucket's word; a reader that saw the two bits change
/// apart would report a false miss.
#[test]
fn readers_never_miss_permanent_keys_during_displacement_storm() {
    let map: Arc<HopMap<u64, u64, IdentityBuild>> =
        Arc::new(HopMap::with_capacity_and_hasher(1 << 14, IdentityBuild));
    let cap = map.capacity() as u64;
    // Permanent keys homed at buckets 0..24.
    for h in 0..24u64 {
        map.insert(h, h + 1);
    }
    let stop = Arc::new(AtomicBool::new(false));
    // Churn threads: keys congruent to the permanent homes mod cap, so
    // every insert lands in (and every remove vacates) the permanent
    // keys' neighborhoods, repeatedly displacing them. Each thread owns
    // a disjoint multiplier range: no same-key write races.
    let mut churners = Vec::new();
    for t in 0..2u64 {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        churners.push(std::thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for h in 0..24 {
                    for m in (1 + t * 12)..(1 + t * 12 + 12) {
                        map.insert(h + m * cap, round);
                    }
                }
                for h in 0..24 {
                    for m in (1 + t * 12)..(1 + t * 12 + 12) {
                        if !(h + m + round).is_multiple_of(3) {
                            map.remove(&(h + m * cap));
                        }
                    }
                }
                round += 1;
            }
            llxscx::epoch::flush();
        }));
    }
    let mut readers = Vec::new();
    for _ in 0..2 {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for h in 0..24u64 {
                    assert_eq!(
                        map.get(&h),
                        Some(h + 1),
                        "reader missed a permanent key mid-displacement"
                    );
                }
            }
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    for h in churners.into_iter().chain(readers) {
        h.join().unwrap();
    }
    let report = map.audit();
    assert!(report.is_valid(), "audit errors: {:?}", report.errors);
    assert!(report.max_probe < HOP_RANGE);
}

/// A reader must never pair one key with a value written for another.
/// Keys `A` and `B` share a home bucket (identity hash), so each reuses
/// the slot the other's removal freed: a writer cycles remove-A,
/// insert-B, update-B, remove-B, insert-A, update-A, and every value is
/// tagged with its key. A reader that copied the slot's key word before
/// the swap and its value word after it holds `A` with `B`'s value; only
/// the re-check of the bucket's word tells it to retry. One reader gets both
/// keys, so on two CPUs it and the writer run side by side.
#[test]
fn gets_never_return_another_keys_value_from_a_reused_slot() {
    let map: Arc<HopMap<u64, u64, IdentityBuild>> = Arc::new(HopMap::with_hasher(IdentityBuild));
    let (a, b) = (5, 5 + map.capacity() as u64);
    let tag = |k: u64, n: u64| k << 32 | n;
    map.insert(a, tag(a, 0));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (map, stop) = (Arc::clone(&map), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                n = (n + 2) & 0xffff;
                map.remove(&a);
                map.insert(b, tag(b, n));
                map.insert(b, tag(b, n + 1));
                map.remove(&b);
                map.insert(a, tag(a, n));
                map.insert(a, tag(a, n + 1));
            }
            llxscx::epoch::flush();
        })
    };
    let reader = {
        let (map, stop) = (Arc::clone(&map), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for k in [a, b] {
                    if let Some(v) = map.get(&k) {
                        assert_eq!(v >> 32, k, "get({k}) returned {v:#x}, another key's value");
                    }
                }
            }
        })
    };
    // Each get has a small chance to straddle a slot swap. With the
    // re-check deleted, 12 of 12 debug runs on a 2-vCPU host failed within
    // 0.1–0.9 s while the binary's other tests shared the CPUs.
    std::thread::sleep(std::time::Duration::from_secs(2));
    stop.store(true, Ordering::Relaxed);
    reader.join().unwrap();
    writer.join().unwrap();
    let report = map.audit();
    assert!(report.is_valid(), "audit errors: {:?}", report.errors);
    assert_eq!(report.occupied, 1);
}

/// Striped point writers over disjoint key ranges settle to the
/// deterministic per-stripe outcome, and `len` is exact once quiet.
#[test]
fn striped_point_writers_settle_deterministically() {
    const STRIPE: u64 = 4_000;
    let map: Arc<HopMap<u64, u64>> = Arc::new(HopMap::new());
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let map = Arc::clone(&map);
        handles.push(std::thread::spawn(move || {
            let base = t * STRIPE;
            for k in base..base + STRIPE {
                map.insert(k, k + t);
            }
            for k in (base..base + STRIPE).filter(|k| k % 5 == 0) {
                map.remove(&k);
            }
            llxscx::epoch::flush();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let expect: Vec<(u64, u64)> = (0..4 * STRIPE)
        .filter(|k| k % 5 != 0)
        .map(|k| (k, k + k / STRIPE))
        .collect();
    assert_eq!(map.sorted_items(), expect);
    assert_eq!(map.len(), expect.len());
    let report = map.audit();
    assert!(report.is_valid(), "audit errors: {:?}", report.errors);
}

/// Scans racing writers hold the documented per-key-linearizable weak
/// properties: strictly sorted (hence duplicate-free), no phantom keys
/// outside the live keyspace, and keys nobody ever deletes are present.
#[test]
fn scans_hold_weak_properties_mid_churn() {
    const KEYSPACE: u64 = 4_096;
    let map: Arc<HopMap<u64, u64>> = Arc::new(HopMap::new());
    // Even keys are permanent; odd keys churn.
    for k in (0..KEYSPACE).step_by(2) {
        map.insert(k, k);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut churners = Vec::new();
    for t in 0..2u64 {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        churners.push(std::thread::spawn(move || {
            // Each thread owns half of the odd keys (disjoint by residue
            // mod 4), inserting and removing them in waves.
            let mine: Vec<u64> = (0..KEYSPACE).filter(|k| k % 4 == 2 * t + 1).collect();
            while !stop.load(Ordering::Relaxed) {
                for &k in &mine {
                    map.insert(k, k);
                }
                for &k in &mine {
                    map.remove(&k);
                }
            }
            llxscx::epoch::flush();
        }));
    }
    for _ in 0..60 {
        let got = map.sorted_range(&0, &(KEYSPACE - 1));
        for w in got.windows(2) {
            assert!(w[0].0 < w[1].0, "scan unsorted or duplicated a key");
        }
        for &(k, v) in &got {
            assert!(k < KEYSPACE, "phantom key {k} outside live keyspace");
            assert_eq!(v, k, "phantom value for key {k}");
        }
        let evens = got.iter().filter(|&&(k, _)| k % 2 == 0).count();
        assert_eq!(
            evens,
            (KEYSPACE / 2) as usize,
            "scan missed a permanent key"
        );
    }
    stop.store(true, Ordering::Relaxed);
    for h in churners {
        h.join().unwrap();
    }
    let report = map.audit();
    assert!(report.is_valid(), "audit errors: {:?}", report.errors);
}

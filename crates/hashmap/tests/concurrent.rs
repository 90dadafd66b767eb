//! Concurrency battery for the hopscotch map's lock-free read path:
//! readers racing displacement chains, settled determinism under
//! striped writers, and scan weak properties mid-churn.

use hashmap::{HopMap, HOP_RANGE};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Identity hash so the test can aim keys at specific home buckets.
#[derive(Clone, Copy, Default)]
struct IdentityBuild;
struct IdentityHasher(u64);
impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("u64 keys hash via write_u64");
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}
impl BuildHasher for IdentityBuild {
    type Hasher = IdentityHasher;
    fn build_hasher(&self) -> IdentityHasher {
        IdentityHasher(0)
    }
}

/// Readers must never miss a permanent key while churn threads force
/// displacement chains through the permanent keys' neighborhoods. This
/// is the seqlock's reason to exist: a displacement moves an entry
/// between two slots of its home neighborhood, and a reader scanning
/// between the two stores would otherwise report a false miss.
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
            llxscx::guard_cache::flush();
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
            llxscx::guard_cache::flush();
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
            llxscx::guard_cache::flush();
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

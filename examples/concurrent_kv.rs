//! A concurrent key-value workload in the style of the paper's evaluation:
//! mixed readers and writers over a shared dictionary, with throughput and
//! structural statistics reported — the "moderate contention" scenario the
//! paper's introduction motivates (session stores, runtime indexes).
//!
//! Run with `cargo run --release --example concurrent_kv`.

use nbtree::ChromaticTree;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let tree = Arc::new(ChromaticTree::with_allowed_violations(6)); // "Chromatic6"
    let range = 100_000u64;

    // Prefill to steady state (half the key range).
    let mut rng = StdRng::seed_from_u64(1);
    let mut n = 0;
    while n < range / 2 {
        let k = rng.gen_range(0..range);
        if tree.insert(k, k).is_none() {
            n += 1;
        }
    }

    let threads = std::thread::available_parallelism()
        .map(|x| x.get())
        .unwrap_or(4);
    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let tree = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            let ops = Arc::clone(&ops);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(tid as u64);
                let mut local = 0u64;
                // RELAXED: stop flag: guards no data; joined before results are read
                while !stop.load(Ordering::Relaxed) {
                    let k = rng.gen_range(0..range);
                    match rng.gen_range(0..10) {
                        0..=1 => {
                            tree.insert(k, k);
                        }
                        2 => {
                            tree.remove(&k);
                        }
                        _ => {
                            tree.get(&k);
                        }
                    }
                    local += 1;
                }
                // RELAXED: test/example counter; threads are joined before reading
                ops.fetch_add(local, Ordering::Relaxed);
            });
        }
        std::thread::sleep(Duration::from_secs(1));
        // RELAXED: stop flag: guards no data; joined before results are read
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = started.elapsed();
    // RELAXED: test/example counter; threads are joined before reading
    let total = ops.load(Ordering::Relaxed);
    println!(
        "{} threads, {:.2} Mops/s ({} ops in {:?})",
        threads,
        total as f64 / elapsed.as_secs_f64() / 1e6,
        total,
        elapsed
    );
    let stats = tree.stats();
    println!(
        "rebalancing steps: {} ({:.4}/op), cleanup passes: {}, retries: {}+{}",
        stats.total_steps(),
        stats.total_steps() as f64 / total as f64,
        stats.cleanup_passes(),
        stats.insert_retries(),
        stats.delete_retries()
    );
    let report = tree.audit();
    println!(
        "final: {} keys, height {}, {} residual violations (k = 6 tolerates them)",
        report.keys,
        report.height,
        report.violations()
    );
}

//! An ordered-index scenario: timestamps → event ids, queried by ordered
//! navigation (successor chains) and atomic window snapshots
//! (`ChromaticTree::range`) while writers append and expire entries
//! concurrently — the kind of ordered-dictionary use that hash maps cannot
//! serve and the paper's VLX-based queries (§5.5) target.
//!
//! Run with `cargo run --release --example range_index`.

use nbtree::ChromaticTree;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn main() {
    let index = Arc::new(ChromaticTree::<u64, u64>::new());
    let clock = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Writer: appends events at increasing timestamps, expires old ones.
        {
            let index = Arc::clone(&index);
            let clock = Arc::clone(&clock);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                // RELAXED: stop flag: guards no data; joined before results are read
                while !stop.load(Ordering::Relaxed) {
                    // RELAXED: test/example counter; threads are joined before reading
                    let t = clock.fetch_add(1, Ordering::Relaxed);
                    index.insert(t, t * 10);
                    if t > 10_000 {
                        index.remove(&(t - 10_000));
                    }
                }
            });
        }
        // Readers: scan a window with successor chains; the VLX-validated
        // successor guarantees each hop is an atomic adjacent-pair read.
        for _ in 0..2 {
            let index = Arc::clone(&index);
            let clock = Arc::clone(&clock);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut scanned = 0u64;
                // RELAXED: stop flag: guards no data; joined before results are read
                while !stop.load(Ordering::Relaxed) {
                    // RELAXED: test/example counter; threads are joined before reading
                    let now = clock.load(Ordering::Relaxed);
                    let from = now.saturating_sub(100);
                    let mut cur = from;
                    let mut hops = 0;
                    while let Some((k, v)) = index.successor(&cur) {
                        assert_eq!(v, k * 10, "index maps t -> 10t");
                        assert!(k > cur, "successor strictly increases");
                        cur = k;
                        hops += 1;
                        if hops >= 32 {
                            break;
                        }
                    }
                    scanned += hops;
                }
                println!("reader scanned {scanned} window entries");
            });
        }
        // Snapshot reader: one VLX-validated range() per window — the whole
        // window is a single atomic snapshot, so timestamps are contiguous
        // up to the expiry frontier and values are consistent.
        {
            let index = Arc::clone(&index);
            let clock = Arc::clone(&clock);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut windows = 0u64;
                let mut entries = 0u64;
                // RELAXED: stop flag: guards no data; joined before results are read
                while !stop.load(Ordering::Relaxed) {
                    // RELAXED: test/example counter; threads are joined before reading
                    let now = clock.load(Ordering::Relaxed);
                    let from = now.saturating_sub(100);
                    let snap = index.range(from..=now);
                    for w in snap.windows(2) {
                        assert!(w[0].0 < w[1].0, "snapshot sorted");
                    }
                    for (k, v) in &snap {
                        assert_eq!(*v, k * 10, "index maps t -> 10t");
                    }
                    windows += 1;
                    entries += snap.len() as u64;
                }
                println!("snapshot reader took {windows} windows ({entries} entries)");
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(800));
        // RELAXED: stop flag: guards no data; joined before results are read
        stop.store(true, Ordering::Relaxed);
    });

    let report = index.audit();
    println!(
        "final index: {} keys, height {}, oldest {:?}, newest {:?}",
        report.keys,
        report.height,
        index.first().map(|kv| kv.0),
        index.last().map(|kv| kv.0)
    );
    assert!(report.is_valid());
}

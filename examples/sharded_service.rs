//! A many-thread "service" over the sharded façade: worker threads drain
//! batched requests (lookups, upserts, deletes) against the registry's
//! `"sharded"` entry, sized to the service's key range `[0, SPAN)` — the
//! shape every sharded benchmark and figure deploys: a uniform boundary
//! table over the keys the workload draws.
//!
//! Each worker builds a request batch, then executes it: lookups as point
//! `get`s, upserts and deletes through the trait-level batch helpers. The
//! façade routes each element, in input order, to its shard's point op.
//!
//! ```sh
//! cargo run --release --example sharded_service
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use workload::{make_map, ConcurrentMap, SuiteConfig};

/// The service's keyspace: every request draws its key from `[0, SPAN)`.
const SPAN: u64 = 100_000;

fn main() {
    let workers = 8;
    let batch_size = 64;
    let run_for = Duration::from_secs(1);

    let cfg = SuiteConfig::default().for_key_range(SPAN);
    let map = make_map("sharded", &cfg).expect("registered");
    println!(
        "sharded service: {} chromatic shards splitting [0, {SPAN}) uniformly",
        cfg.shards()
    );

    // Prefill 10 000 draws through one batch.
    let mut rng = StdRng::seed_from_u64(7);
    let prefill: Vec<(u64, u64)> = (0..10_000)
        .map(|_| rng.gen_range(0..SPAN))
        .map(|k| (k, k))
        .collect();
    map.insert_batch(&prefill);

    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|s| {
        for w in 0..workers {
            let (map, stop, served) = (&map, &stop, &served);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + w);
                let mut reads = Vec::with_capacity(batch_size);
                let mut writes = Vec::with_capacity(batch_size / 4);
                let mut deletes = Vec::with_capacity(batch_size / 8);
                // RELAXED: stop flag: guards no data; joined before results are read
                while !stop.load(Ordering::Relaxed) {
                    // A service tick: mostly reads, some upserts, few
                    // deletes — batched per kind.
                    reads.clear();
                    writes.clear();
                    deletes.clear();
                    for _ in 0..batch_size {
                        reads.push(rng.gen_range(0..SPAN));
                    }
                    for _ in 0..batch_size / 4 {
                        writes.push((rng.gen_range(0..SPAN), w));
                    }
                    for _ in 0..batch_size / 8 {
                        deletes.push(rng.gen_range(0..SPAN));
                    }
                    let hits = reads.iter().filter_map(|k| map.get(k)).count();
                    map.insert_batch(&writes);
                    map.remove_batch(&deletes);
                    std::hint::black_box(hits);
                    // RELAXED: test/example counter; threads are joined before reading
                    served.fetch_add(
                        (reads.len() + writes.len() + deletes.len()) as u64,
                        Ordering::Relaxed,
                    );
                }
            });
        }
        std::thread::sleep(run_for);
        // RELAXED: stop flag: guards no data; joined before results are read
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = started.elapsed();
    // RELAXED: test/example counter; threads are joined before reading
    let total = served.load(Ordering::Relaxed);

    println!(
        "served {total} requests from {workers} workers in {elapsed:.2?} \
         ({:.2} Mops/s)",
        total as f64 / elapsed.as_secs_f64() / 1e6
    );
    println!("final size {}", map.len());
}

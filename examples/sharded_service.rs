//! A many-thread "service" over the sharded façade: worker threads drain
//! batched requests (lookups, upserts, deletes) against a
//! `ShardedMap` whose boundary table was *learned* from a sample of the
//! service's key distribution — the deployment shape `docs/SHARDING.md`
//! prescribes for skewed keyspaces.
//!
//! Each worker builds a request batch, then executes it: lookups as point
//! `get`s, upserts and deletes through the trait-level batch helpers. The
//! façade routes each element, in input order, to its shard's point op.
//!
//! ```sh
//! cargo run --release --example sharded_service
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use sharded::{ConcurrentMap, ShardedMap};

/// The service's key distribution is skewed: 80% of traffic hits a small
/// "hot" ID band, 20% a long sparse tail — uniform splitting of the raw
/// keyspace would route ~everything to shard 0.
fn sample_key(rng: &mut StdRng) -> u64 {
    if rng.gen_range(0..10) < 8 {
        rng.gen_range(0..100_000) // hot band
    } else {
        100_000 + rng.gen_range(0..1_000_000) * 1_000 // sparse tail
    }
}

fn main() {
    let workers = 8;
    let shards = workload::config::DEFAULT_SHARDS;
    let batch_size = 64;
    let run_for = Duration::from_secs(1);

    // Learn split points from a traffic sample, then shard the chromatic
    // tree behind them.
    let mut rng = StdRng::seed_from_u64(7);
    let sample: Vec<u64> = (0..10_000).map(|_| sample_key(&mut rng)).collect();
    let map: Arc<ShardedMap<Box<dyn ConcurrentMap>>> =
        Arc::new(ShardedMap::from_sample(shards, &sample, |_| {
            workload::make_map("chromatic", &workload::SuiteConfig::default()).expect("registered")
        }));
    println!(
        "sharded service: {shards} chromatic shards, learned boundaries {:?}",
        map.boundaries()
    );

    // Prefill through one big batch per shard-count chunk.
    let prefill: Vec<(u64, u64)> = sample.iter().map(|&k| (k, k)).collect();
    map.insert_batch(&prefill);

    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    std::thread::scope(|s| {
        for w in 0..workers {
            let map = Arc::clone(&map);
            let stop = Arc::clone(&stop);
            let served = Arc::clone(&served);
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
                        reads.push(sample_key(&mut rng));
                    }
                    for _ in 0..batch_size / 4 {
                        writes.push((sample_key(&mut rng), w));
                    }
                    for _ in 0..batch_size / 8 {
                        deletes.push(sample_key(&mut rng));
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
    let sizes: Vec<usize> = map.shards().map(|s| s.len()).collect();
    println!("final size {} across shards {sizes:?}", map.len());
}

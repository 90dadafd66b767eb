//! The async batched front end, end to end: async client tasks on the
//! hand-rolled `service::exec::Pool` submit point ops to a
//! `BatchedService` over the chromatic tree and `await` their responses;
//! the service's flusher turns the concurrent trickle into
//! `insert_batch`/`remove_batch`/`get_batch` calls, which the tree runs
//! as one point op per element, and the final stats show how large the
//! manufactured batches actually got.
//!
//! ```sh
//! cargo run --release --example async_service
//! ```

use std::sync::Arc;
use std::time::Duration;

use service::{exec, BatchedService, FlushPolicy, Op, ServiceConfig};

fn main() {
    let tasks: u64 = 16;
    let ops_per_task: u64 = 2_000;
    let keyspace: u64 = 8_192;

    // The service owns the map; clients only ever see response futures.
    let map = workload::make_map("chromatic", &workload::SuiteConfig::default())
        .expect("chromatic is registered");
    let svc = Arc::new(BatchedService::start(
        map,
        ServiceConfig::new(FlushPolicy::new(64, Duration::from_micros(200))),
    ));

    // Async clients: each task submits a stripe of inserts, reads a few
    // back, deletes every third key — awaiting each response future
    // (its flush's completion slab). A completion oneshot per task lets
    // main block until all of them finish (the pool drops pending tasks
    // on drop, so join through channels, not timing).
    let pool = exec::Pool::new(4);
    let mut done = Vec::new();
    for t in 0..tasks {
        let svc = Arc::clone(&svc);
        let (tx, rx) = service::oneshot::channel::<u64>();
        done.push(rx);
        pool.spawn(async move {
            let base = t * keyspace;
            let mut hits = 0u64;
            for i in 0..ops_per_task {
                let k = base + (i * 37) % keyspace;
                svc.submit(Op::Insert(k, t)).expect("open").await;
                if i % 4 == 0 {
                    hits += svc.submit(Op::Get(k)).expect("open").await.is_some() as u64;
                }
                if i % 3 == 0 {
                    svc.submit(Op::Remove(k)).expect("open").await;
                }
            }
            tx.send(hits);
        });
    }
    let hits: u64 = done.into_iter().map(exec::block_on).sum();
    drop(pool);

    let mut svc = Arc::into_inner(svc).expect("all clients done");
    svc.shutdown();
    let stats = svc.stats();
    println!(
        "{} tasks x {} ops: {} submitted, {} completed, {} read-back hits",
        tasks, ops_per_task, stats.submitted, stats.completed, hits
    );
    println!(
        "{} flushes ({} size, {} deadline, {} drain), mean batch {:.1}, final size {}",
        stats.flushes,
        stats.size_flushes,
        stats.deadline_flushes,
        stats.drain_flushes,
        stats.batched_ops as f64 / stats.flushes.max(1) as f64,
        workload::ConcurrentMap::len(svc.map()),
    );
}

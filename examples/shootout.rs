//! Mini-shootout across every structure in the suite on one workload cell
//! (the 20i-10d moderate-contention mix), printing a Figure-8-style row.
//!
//! Run with `cargo run --release --example shootout`.

use std::time::Duration;
use workload::{measure, Mix, SuiteConfig, ALL_MAPS};

fn main() {
    let mix = Mix::updates(20, 10);
    let range = 10_000;
    let cfg = SuiteConfig::default().for_key_range(range);
    let threads = std::thread::available_parallelism()
        .map(|x| x.get())
        .unwrap_or(4);
    println!("20i-10d, key range [0,{range}), {threads} threads, 0.5s per structure:");
    for name in ALL_MAPS {
        let (mops, _) = measure(
            name,
            &cfg,
            threads,
            mix,
            range,
            Duration::from_millis(500),
            1,
            42,
        );
        println!("  {name:<12} {mops:>8.3} Mops/s");
    }
}

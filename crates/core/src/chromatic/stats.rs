//! Always-on operation counters, used by the benchmark harness and the
//! rebalancing-cost experiment (amortized-steps claim of Boyar et al.).

use std::sync::atomic::{AtomicU64, Ordering};

/// Which rebalancing transformation committed (Fig. 11; mirrors counted
/// together with their originals).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // ALLOW: variants are the paper's rebalancing-case mnemonics; docs would repeat the table above
pub enum Step {
    Blk,
    Rb1,
    Rb2,
    Push,
    W1,
    W2,
    W3,
    W4,
    W5,
    W6,
    W7,
}

/// Names for [`Stats::steps`], index-aligned with [`Step`].
pub const STEP_NAMES: [&str; 11] = [
    "BLK", "RB1", "RB2", "PUSH", "W1", "W2", "W3", "W4", "W5", "W6", "W7",
];

/// Counters for one tree instance. All relaxed: they are statistics, not
/// synchronization.
#[derive(Default)]
pub struct Stats {
    steps: [AtomicU64; 11],
    insert_retries: AtomicU64,
    delete_retries: AtomicU64,
    cleanup_passes: AtomicU64,
    violations_created: AtomicU64,
    range_queries: AtomicU64,
    range_retries: AtomicU64,
}

impl Stats {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn bump_step(&self, step: Step) {
        self.steps[step as usize].fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn bump_insert_retries(&self) {
        self.insert_retries.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn bump_delete_retries(&self) {
        self.delete_retries.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn bump_cleanup_passes(&self) {
        self.cleanup_passes.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn bump_violations_created(&self) {
        self.violations_created.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn bump_range_queries(&self) {
        self.range_queries.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn bump_range_retries(&self) {
        self.range_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Committed rebalancing steps, per transformation (see [`STEP_NAMES`]).
    pub fn steps(&self) -> [u64; 11] {
        std::array::from_fn(|i| self.steps[i].load(Ordering::Relaxed))
    }

    /// Total committed rebalancing steps.
    pub fn total_steps(&self) -> u64 {
        self.steps().iter().sum()
    }

    /// Failed `TryInsert` attempts (each implies a retry).
    pub fn insert_retries(&self) -> u64 {
        self.insert_retries.load(Ordering::Relaxed)
    }

    /// Failed `TryDelete` attempts.
    pub fn delete_retries(&self) -> u64 {
        self.delete_retries.load(Ordering::Relaxed)
    }

    /// Root-to-violation walks performed by `Cleanup`.
    pub fn cleanup_passes(&self) -> u64 {
        self.cleanup_passes.load(Ordering::Relaxed)
    }

    /// Updates that created a violation.
    pub fn violations_created(&self) -> u64 {
        self.violations_created.load(Ordering::Relaxed)
    }

    /// Range queries started (each may take several validation attempts).
    pub fn range_queries(&self) -> u64 {
        self.range_queries.load(Ordering::Relaxed)
    }

    /// Range-scan attempts that failed validation and re-traversed.
    pub fn range_retries(&self) -> u64 {
        self.range_retries.load(Ordering::Relaxed)
    }

    /// Always 0: batches run as point updates, so no batch element is
    /// installed by a merged SCX. Kept only because the benchmark's frozen
    /// `core.merged_keys_share` rung reads it; it goes when that rung does.
    pub fn merged_insert_keys(&self) -> u64 {
        0
    }
}

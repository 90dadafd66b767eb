//! Always-on operation counters, used by the benchmark harness and the
//! rebalancing-cost experiment (amortized-steps claim of Boyar et al.).

use std::sync::atomic::{AtomicU64, Ordering};

use llxscx::epoch::own_slot;

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

/// Counter stripes per tree. A thread bumps the stripe its llxscx slot id
/// names ([`own_slot`]), so the threads of one tree do not all write one
/// line. Ids are small and reused, so a few threads seldom share a stripe;
/// those that do contend on it but lose no count.
const STRIPES: usize = 8;

/// One stripe of every counter. `repr(align(128))`: a stripe starts on its
/// own pair of cache lines (the unit the adjacent-line prefetcher moves),
/// so neither another stripe nor a field of the tree around it shares them.
#[repr(align(128))]
#[derive(Default)]
struct Stripe {
    steps: [AtomicU64; 11],
    insert_retries: AtomicU64,
    delete_retries: AtomicU64,
    cleanup_passes: AtomicU64,
    violations_created: AtomicU64,
    range_queries: AtomicU64,
    range_retries: AtomicU64,
}

// `Stats` starts on a 128-byte boundary and, like every type, is a whole
// number of its alignments long, so the tree's other fields (the search's
// `entry` among them) never share a line with a counter.
const _: () = assert!(std::mem::align_of::<Stats>() == 128);

/// Counters for one tree instance, striped per thread: a bump is a relaxed
/// add to the calling thread's stripe, and a getter sums the stripes. All
/// relaxed: they are statistics, not synchronization.
#[derive(Default)]
pub struct Stats {
    stripes: [Stripe; STRIPES],
}

impl Stats {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The calling thread's stripe. A thread whose epoch state is gone
    /// (a thread-local destructor) bumps stripe 0.
    #[inline]
    fn mine(&self) -> &Stripe {
        &self.stripes[own_slot().unwrap_or(0) % STRIPES]
    }

    /// One counter, summed over the stripes.
    fn sum(&self, counter: impl Fn(&Stripe) -> &AtomicU64) -> u64 {
        // RELAXED: statistics read: sums one counter over the per-thread stripes; a Relaxed
        // load returns a recent count of each, which is all a report needs, and orders nothing
        self.stripes
            .iter()
            .map(|s| counter(s).load(Ordering::Relaxed))
            .sum()
    }

    pub(crate) fn bump_step(&self, step: Step) {
        // RELAXED: statistics counter: bumped on the calling thread's stripe, which threads past
        // STRIPES may share; Relaxed RMWs never lose an increment and the counts order nothing
        self.mine().steps[step as usize].fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn bump_insert_retries(&self) {
        // RELAXED: statistics counter: bumped on the calling thread's stripe, which threads past
        // STRIPES may share; Relaxed RMWs never lose an increment and the counts order nothing
        self.mine().insert_retries.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn bump_delete_retries(&self) {
        // RELAXED: statistics counter: bumped on the calling thread's stripe, which threads past
        // STRIPES may share; Relaxed RMWs never lose an increment and the counts order nothing
        self.mine().delete_retries.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn bump_cleanup_passes(&self) {
        // RELAXED: statistics counter: bumped on the calling thread's stripe, which threads past
        // STRIPES may share; Relaxed RMWs never lose an increment and the counts order nothing
        self.mine().cleanup_passes.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn bump_violations_created(&self) {
        // RELAXED: statistics counter: bumped on the calling thread's stripe, which threads
        // past STRIPES may share; Relaxed RMWs never lose an increment and the counts order
        // nothing
        self.mine()
            .violations_created
            .fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn bump_range_queries(&self) {
        // RELAXED: statistics counter: bumped on the calling thread's stripe, which threads past
        // STRIPES may share; Relaxed RMWs never lose an increment and the counts order nothing
        self.mine().range_queries.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn bump_range_retries(&self) {
        // RELAXED: statistics counter: bumped on the calling thread's stripe, which threads past
        // STRIPES may share; Relaxed RMWs never lose an increment and the counts order nothing
        self.mine().range_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Committed rebalancing steps, per transformation (see [`STEP_NAMES`]).
    pub fn steps(&self) -> [u64; 11] {
        std::array::from_fn(|i| self.sum(|s| &s.steps[i]))
    }

    /// Total committed rebalancing steps.
    pub fn total_steps(&self) -> u64 {
        self.steps().iter().sum()
    }

    /// Failed `TryInsert` attempts (each implies a retry).
    pub fn insert_retries(&self) -> u64 {
        self.sum(|s| &s.insert_retries)
    }

    /// Failed `TryDelete` attempts.
    pub fn delete_retries(&self) -> u64 {
        self.sum(|s| &s.delete_retries)
    }

    /// Root-to-violation walks performed by `Cleanup`.
    pub fn cleanup_passes(&self) -> u64 {
        self.sum(|s| &s.cleanup_passes)
    }

    /// Updates that created a violation.
    pub fn violations_created(&self) -> u64 {
        self.sum(|s| &s.violations_created)
    }

    /// Range queries started (each may take several validation attempts).
    pub fn range_queries(&self) -> u64 {
        self.sum(|s| &s.range_queries)
    }

    /// Range-scan attempts that failed validation and re-traversed.
    pub fn range_retries(&self) -> u64 {
        self.sum(|s| &s.range_retries)
    }

    /// Always 0: batches run as point updates, so no batch element is
    /// installed by a merged SCX. Kept only because the benchmark's frozen
    /// `core.merged_keys_share` rung reads it; it goes when that rung does.
    pub fn merged_insert_keys(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// More threads than stripes bump every counter at once, so some share
    /// a stripe: the getters still return the exact totals.
    #[test]
    fn totals_survive_striping() {
        const THREADS: usize = 2 * STRIPES + 1;
        const BUMPS: u64 = 1000;
        const ALL: [Step; 11] = [
            Step::Blk,
            Step::Rb1,
            Step::Rb2,
            Step::Push,
            Step::W1,
            Step::W2,
            Step::W3,
            Step::W4,
            Step::W5,
            Step::W6,
            Step::W7,
        ];
        let stats = Stats::new();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..BUMPS {
                        ALL.iter().for_each(|&step| stats.bump_step(step));
                        stats.bump_insert_retries();
                        stats.bump_delete_retries();
                        stats.bump_cleanup_passes();
                        stats.bump_violations_created();
                        stats.bump_range_queries();
                        stats.bump_range_retries();
                    }
                });
            }
        });
        let each = THREADS as u64 * BUMPS;
        assert_eq!(stats.steps(), [each; 11]);
        assert_eq!(stats.total_steps(), 11 * each);
        assert_eq!(stats.insert_retries(), each);
        assert_eq!(stats.delete_retries(), each);
        assert_eq!(stats.cleanup_passes(), each);
        assert_eq!(stats.violations_created(), each);
        assert_eq!(stats.range_queries(), each);
        assert_eq!(stats.range_retries(), each);
    }
}

//! The range-partitioned façade: a boundary table routing to per-shard
//! map instances.

use crate::map::ConcurrentMap;

/// A range-partitioned façade over `S` independent map instances.
///
/// The keyspace is split by a *boundary table* of `S - 1` sorted split
/// points: shard `i` owns keys in `[boundaries[i-1], boundaries[i])`
/// (shard 0 from the smallest key, the last shard to `u64::MAX`). `S` is
/// a power of two. Because the boundary table is immutable after
/// construction, routing is a wait-free count over it that never
/// synchronizes with other threads — all synchronization happens inside
/// the shard the operation lands on, where contention is `1/S`-th of the
/// unsharded structure's.
///
/// # Consistency scope
///
/// Point operations (`insert` / `remove` / `get`) are exactly as
/// consistent as the underlying shard type: each key maps to one shard,
/// so per-key linearizability of the shard is per-key linearizability of
/// the façade. `range` stitches the per-shard scans together in shard
/// order: each *shard's* slice of the result is an atomic snapshot (when
/// the shard's own `range` is atomic, as for the VLX-validated trees),
/// but slices from different shards may reflect different instants — the
/// same "per-key/per-segment linearizable, not globally atomic" scope the
/// suite's skip list documents for its scans. Callers that need an
/// atomic scan across a boundary must keep the interval inside one shard
/// (see [`ShardedMap::shard_of`]) or use an unsharded structure.
///
/// # Batched operations
///
/// The façade keeps the trait's default
/// [`insert_batch`](ConcurrentMap::insert_batch) and
/// [`remove_batch`](ConcurrentMap::remove_batch): each element is routed
/// to its shard's point op, in input order. Batches are *not* atomic: each
/// element linearizes individually, and a concurrent reader sees them
/// take effect in input order.
///
/// # Example
///
/// Any [`ConcurrentMap`] can be sharded — here a locked `BTreeMap`:
///
/// ```
/// use sharded::{ConcurrentMap, ShardedMap};
/// use std::collections::BTreeMap;
/// use std::sync::Mutex;
///
/// #[derive(Default)]
/// struct Locked(Mutex<BTreeMap<u64, u64>>);
///
/// impl ConcurrentMap for Locked {
///     fn name(&self) -> &'static str { "locked" }
///     fn insert(&self, k: u64, v: u64) -> Option<u64> { self.0.lock().unwrap().insert(k, v) }
///     fn remove(&self, k: &u64) -> Option<u64> { self.0.lock().unwrap().remove(k) }
///     fn get(&self, k: &u64) -> Option<u64> { self.0.lock().unwrap().get(k).copied() }
///     fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
///         self.0.lock().unwrap().range(lo..=hi).map(|(k, v)| (*k, *v)).collect()
///     }
///     fn len(&self) -> usize { self.0.lock().unwrap().len() }
/// }
///
/// // Four shards, keyspace [0, 400) split uniformly: [0,100), [100,200), ...
/// let map = ShardedMap::with_span(4, 400, |_| Locked::default());
/// assert_eq!(map.shard_of(99), 0);
/// assert_eq!(map.shard_of(100), 1);
///
/// // Point ops route by the boundary table; a batch is one point op per element.
/// let displaced = map.insert_batch(&[(1, 10), (150, 20), (399, 30)]);
/// assert_eq!(displaced, vec![None, None, None]);
/// assert_eq!(map.get(&150), Some(20));
///
/// // A cross-shard scan stitches the per-shard slices in key order.
/// assert_eq!(map.range(0, 400), vec![(1, 10), (150, 20), (399, 30)]);
/// ```
pub struct ShardedMap<M> {
    shards: Box<[M]>,
    /// `shards.len() - 1` sorted split points; `boundaries[i]` is the
    /// smallest key owned by shard `i + 1`.
    boundaries: Box<[u64]>,
}

impl<M> ShardedMap<M> {
    /// `shards` instances (a power of two) splitting `[0, span)`
    /// uniformly; keys at or above `span` land in the last shard.
    /// `factory(i)` builds shard `i`.
    ///
    /// # Panics
    ///
    /// If `shards` is not a power of two or `span < shards as u64` (the
    /// table could not be strictly increasing).
    pub fn with_span(shards: usize, span: u64, factory: impl FnMut(usize) -> M) -> Self {
        assert!(
            shards.is_power_of_two(),
            "shard count {shards} is not a power of two"
        );
        assert!(
            span >= shards as u64,
            "span {span} cannot be split into {shards} non-empty shards"
        );
        // Consecutive split points differ by at least ⌊span / shards⌋ ≥ 1,
        // so the table is strictly increasing by construction.
        let boundaries = (1..shards as u64)
            .map(|i| ((i as u128 * span as u128) / shards as u128) as u64)
            .collect();
        ShardedMap {
            shards: (0..shards).map(factory).collect(),
            boundaries,
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The boundary table: `boundaries()[i]` is the smallest key of shard
    /// `i + 1`.
    pub fn boundaries(&self) -> &[u64] {
        &self.boundaries
    }

    /// Index of the shard owning `k`: a wait-free search of the immutable
    /// boundary table.
    ///
    /// A branchless linear count of the boundaries ≤ `k`, which on a
    /// strictly increasing table is the shard index. For the shard counts
    /// the suite deploys (8 shards, 7 boundaries) it beats binary search:
    /// the comparisons pipeline with no data-dependent branches, where a
    /// binary search takes a misprediction per probe on random keys.
    #[inline]
    pub fn shard_of(&self, k: u64) -> usize {
        self.boundaries.iter().map(|&b| usize::from(b <= k)).sum()
    }

    /// The shard instance at `idx` (for per-shard inspection — stats,
    /// audits, targeted stress).
    pub fn shard(&self, idx: usize) -> &M {
        &self.shards[idx]
    }

    /// Iterates the shards in key order.
    pub fn shards(&self) -> impl Iterator<Item = &M> {
        self.shards.iter()
    }
}

impl<M: ConcurrentMap> ConcurrentMap for ShardedMap<M> {
    fn name(&self) -> &'static str {
        "sharded"
    }
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        self.shards[self.shard_of(k)].insert(k, v)
    }
    fn remove(&self, k: &u64) -> Option<u64> {
        self.shards[self.shard_of(*k)].remove(k)
    }
    fn get(&self, k: &u64) -> Option<u64> {
        self.shards[self.shard_of(*k)].get(k)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        // Shards partition the keyspace in key order, so concatenating the
        // per-shard scans in shard order yields a sorted, duplicate-free
        // result. Atomicity scope: per shard, not across shards (see the
        // type-level docs).
        let mut out = Vec::new();
        if lo > hi {
            return out;
        }
        for idx in self.shard_of(lo)..=self.shard_of(hi) {
            out.extend(self.shards[idx].range(lo, hi));
        }
        out
    }
    fn range_tier(&self) -> crate::RangeTier {
        // Stitching per-shard scans weakens an atomic shard to
        // per-shard atomicity; an already-weaker shard tier passes
        // through unchanged (the façade can't strengthen it).
        match self.shards[0].range_tier() {
            crate::RangeTier::Atomic => crate::RangeTier::PerShardAtomic,
            tier => tier,
        }
    }
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};

    /// Test shard: a locked BTreeMap (sequentially exact, so the façade's
    /// routing logic is isolated from tree concurrency).
    #[derive(Default)]
    struct Locked {
        map: Mutex<BTreeMap<u64, u64>>,
    }

    impl ConcurrentMap for Locked {
        fn name(&self) -> &'static str {
            "locked"
        }
        fn insert(&self, k: u64, v: u64) -> Option<u64> {
            self.map.lock().unwrap().insert(k, v)
        }
        fn remove(&self, k: &u64) -> Option<u64> {
            self.map.lock().unwrap().remove(k)
        }
        fn get(&self, k: &u64) -> Option<u64> {
            self.map.lock().unwrap().get(k).copied()
        }
        fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
            self.map
                .lock()
                .unwrap()
                .range(lo..=hi)
                .map(|(k, v)| (*k, *v))
                .collect()
        }
        fn range_tier(&self) -> crate::RangeTier {
            // The scan holds the lock, so it is an atomic snapshot.
            crate::RangeTier::Atomic
        }
        fn len(&self) -> usize {
            self.map.lock().unwrap().len()
        }
    }

    /// One call a [`Logged`] shard received: `(shard, method, key or batch
    /// length)`.
    type Call = (usize, &'static str, u64);

    /// Test shard that appends every call it receives to a log shared by
    /// all shards, so a test can read the order the façade issued them in.
    struct Logged {
        idx: usize,
        inner: Locked,
        log: Arc<Mutex<Vec<Call>>>,
    }

    impl Logged {
        fn record(&self, method: &'static str, k: u64) {
            self.log.lock().unwrap().push((self.idx, method, k));
        }
    }

    impl ConcurrentMap for Logged {
        fn name(&self) -> &'static str {
            "logged"
        }
        fn insert(&self, k: u64, v: u64) -> Option<u64> {
            self.record("insert", k);
            self.inner.insert(k, v)
        }
        fn remove(&self, k: &u64) -> Option<u64> {
            self.record("remove", *k);
            self.inner.remove(k)
        }
        fn get(&self, k: &u64) -> Option<u64> {
            self.record("get", *k);
            self.inner.get(k)
        }
        fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
            self.inner.range(lo, hi)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn insert_batch(&self, batch: &[(u64, u64)]) -> Vec<Option<u64>> {
            self.record("insert_batch", batch.len() as u64);
            self.inner.insert_batch(batch)
        }
        fn remove_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
            self.record("remove_batch", keys.len() as u64);
            self.inner.remove_batch(keys)
        }
    }

    fn locked_shards(n: usize, span: u64) -> ShardedMap<Locked> {
        ShardedMap::with_span(n, span, |_| Locked::default())
    }

    #[test]
    fn uniform_span_boundaries_and_routing() {
        let m = locked_shards(4, 400);
        assert_eq!(m.boundaries(), &[100, 200, 300]);
        assert_eq!(m.shard_of(0), 0);
        assert_eq!(m.shard_of(99), 0);
        assert_eq!(m.shard_of(100), 1);
        assert_eq!(m.shard_of(399), 3);
        // Keys beyond the span still route (to the last shard).
        assert_eq!(m.shard_of(u64::MAX), 3);
        // One shard has an empty table and owns every key.
        let one = locked_shards(1, 1);
        assert_eq!(one.boundaries(), &[] as &[u64]);
        assert_eq!(one.shard_of(u64::MAX), 0);

        // Every boundary key opens its shard and its predecessor closes the
        // one before, at the deployed table size and at a 63-boundary one.
        for (shards, span) in [(8, 10_000), (64, 6_400_000)] {
            let m = locked_shards(shards, span);
            let table = m.boundaries();
            assert_eq!(table.len(), shards - 1);
            assert!(table.windows(2).all(|w| w[0] < w[1]));
            for (i, &b) in table.iter().enumerate() {
                assert_eq!(m.shard_of(b), i + 1, "boundary {b} of {shards}");
                assert_eq!(m.shard_of(b - 1), i, "predecessor of {b} of {shards}");
            }
            assert_eq!(m.shard_of(u64::MAX), shards - 1);
        }
    }

    #[test]
    fn routing_counts_the_boundaries_at_or_below_the_key() {
        // Oracle: the number of split points ≤ k, found by binary search.
        // Keys: 0, u64::MAX, every boundary and its neighbours, and a
        // splitmix64 stream over the span and beyond it.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for shards in (0..8).map(|p| 1usize << p) {
            let span = 1_000_003;
            let m = locked_shards(shards, span);
            let table = m.boundaries();
            let mut keys = vec![0, span - 1, span, u64::MAX];
            for &b in table {
                keys.extend([b - 1, b, b + 1]);
            }
            keys.extend((0..500).map(|_| next() % (2 * span)));
            keys.extend((0..100).map(|_| next()));
            for k in keys {
                let expect = table.partition_point(|&b| b <= k);
                assert_eq!(m.shard_of(k), expect, "key {k} of {shards} shards");
            }
        }
    }

    #[test]
    fn a_whole_keyspace_span_splits_without_overflow() {
        // `i * span` overflows u64 for every i ≥ 2 here; the split is
        // computed in u128 and must be the exact floor of i · span / 8.
        let m = locked_shards(8, u64::MAX);
        let expect: Vec<u64> = (1..8u128)
            .map(|i| (i * u64::MAX as u128 / 8) as u64)
            .collect();
        assert_eq!(m.boundaries(), &expect[..]);
        assert_eq!(m.boundaries()[0], u64::MAX / 8);
        assert!(m.boundaries().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(m.shard_of(u64::MAX / 8 - 1), 0);
        assert_eq!(m.shard_of(u64::MAX), 7);
    }

    #[test]
    fn range_tier_weakens_atomic_shards_and_passes_weaker_ones_through() {
        // Stitched per-shard snapshots are atomic only per shard.
        assert_eq!(
            locked_shards(4, 400).range_tier(),
            crate::RangeTier::PerShardAtomic
        );
        // `Logged` keeps the trait's default, the weakest tier.
        let log = Arc::new(Mutex::new(Vec::new()));
        let weak = ShardedMap::with_span(2, 100, |idx| Logged {
            idx,
            inner: Locked::default(),
            log: Arc::clone(&log),
        });
        assert_eq!(weak.range_tier(), crate::RangeTier::PerKeyLinearizable);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn non_power_of_two_shard_count_is_rejected() {
        let _ = locked_shards(3, 300);
    }

    #[test]
    #[should_panic(expected = "cannot be split into 4 non-empty shards")]
    fn span_smaller_than_the_shard_count_is_rejected() {
        let _ = locked_shards(4, 3);
    }

    #[test]
    fn point_ops_and_len_route_correctly() {
        let m = locked_shards(8, 800);
        for k in (0..800).step_by(7) {
            assert_eq!(m.insert(k, k * 2), None);
        }
        for k in (0..800).step_by(7) {
            assert_eq!(m.get(&k), Some(k * 2));
        }
        assert_eq!(m.len(), (0..800).step_by(7).count());
        assert!(!m.is_empty());
        assert_eq!(m.remove(&0), Some(0));
        assert_eq!(m.remove(&0), None);
        // Every inserted key landed in the shard the table names.
        for k in (7..800).step_by(7) {
            assert_eq!(m.shard(m.shard_of(k)).get(&k), Some(k * 2));
        }
    }

    #[test]
    fn cross_shard_range_is_sorted_and_complete() {
        let m = locked_shards(4, 400);
        for k in 0..400 {
            m.insert(k, k);
        }
        let got = m.range(50, 350);
        assert_eq!(got.len(), 301);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(got.first(), Some(&(50, 50)));
        assert_eq!(got.last(), Some(&(350, 350)));
        // Inverted and empty windows.
        assert_eq!(m.range(10, 5), vec![]);
        let m2 = locked_shards(4, 400);
        assert_eq!(m2.range(0, 399), vec![]);
    }

    #[test]
    fn batches_match_sequential_application_in_input_order() {
        let m = locked_shards(4, 400);
        let model = Locked::default();
        // Duplicate keys in one batch: input order must be preserved.
        let batch = vec![(10, 1), (350, 2), (10, 3), (120, 4), (10, 5)];
        let got = m.insert_batch(&batch);
        let expect: Vec<_> = batch.iter().map(|&(k, v)| model.insert(k, v)).collect();
        assert_eq!(got, expect);
        assert_eq!(m.get(&10), Some(5), "last duplicate must win");

        let removals = vec![10, 10, 350];
        assert_eq!(
            m.remove_batch(&removals),
            removals.iter().map(|k| model.remove(k)).collect::<Vec<_>>()
        );
        assert_eq!(m.len(), model.len());
    }

    #[test]
    fn batches_run_as_point_ops_in_input_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let m = ShardedMap::with_span(4, 400, |idx| Logged {
            idx,
            inner: Locked::default(),
            log: Arc::clone(&log),
        });
        // Cross-shard keys, out of key order, with duplicates.
        let batch = [(350, 1), (10, 2), (120, 3), (10, 4), (5, 5)];
        assert_eq!(
            m.insert_batch(&batch),
            vec![None, None, None, Some(2), None]
        );
        let keys = [120, 10, 399, 120];
        assert_eq!(m.remove_batch(&keys), vec![Some(3), Some(4), None, None]);
        // One point call per element, in input order, and no shard batch
        // call.
        let expect: Vec<Call> = batch
            .iter()
            .map(|&(k, _)| (m.shard_of(k), "insert", k))
            .chain(keys.iter().map(|&k| (m.shard_of(k), "remove", k)))
            .collect();
        assert_eq!(*log.lock().unwrap(), expect);
    }

    #[test]
    fn boxed_batches_run_the_per_element_default() {
        // `Box` forwards only the point ops, so a batch through a box runs
        // the trait default: one point call per element, in input order.
        let log = Arc::new(Mutex::new(Vec::new()));
        let boxed: Box<dyn ConcurrentMap> = Box::new(Logged {
            idx: 0,
            inner: Locked::default(),
            log: Arc::clone(&log),
        });
        assert_eq!(boxed.insert_batch(&[(5, 1), (5, 2)]), vec![None, Some(1)]);
        assert_eq!(boxed.remove_batch(&[5, 6]), vec![Some(2), None]);
        let expect: Vec<Call> = vec![
            (0, "insert", 5),
            (0, "insert", 5),
            (0, "remove", 5),
            (0, "remove", 6),
        ];
        assert_eq!(*log.lock().unwrap(), expect);
    }

    #[test]
    fn empty_batches_are_noops() {
        let m = locked_shards(2, 100);
        assert_eq!(m.insert_batch(&[]), vec![]);
        assert_eq!(m.remove_batch(&[]), vec![]);
    }
}

//! The object-safe `u64 → u64` concurrent-map interface shared by the
//! whole suite.
//!
//! The trait historically lived in the `workload` crate next to the
//! structure adapters; it moved down here so the sharding façade
//! ([`ShardedMap`](crate::ShardedMap)) can *implement* it without a
//! `workload ↔ sharded` dependency cycle. `workload` re-exports it under
//! the old path, so `workload::ConcurrentMap` keeps working.

/// How much atomicity a structure's [`range`](ConcurrentMap::range)
/// guarantees — the contract the model oracles are allowed to assert.
///
/// The suite long had exactly one implicit tier ("atomic snapshot"),
/// with the skip list grandfathered in by never being sequentially
/// distinguishable from one. Making the tier explicit lets
/// `workload::check_against_model` assert exactly what each structure
/// promises, so a new per-key-linearizable structure (the hash tier,
/// the hybrid shard) doesn't inherit a too-strong assertion it would
/// only pass by accident.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RangeTier {
    /// The scan is a single atomic snapshot (the VLX-validated trees,
    /// the lock- and STM-based baselines).
    Atomic,
    /// Each shard's slice of the scan is atomic, but slices from
    /// different shards may reflect different instants (the sharded
    /// façade over atomic shards).
    PerShardAtomic,
    /// Only per-key linearizable: sorted, duplicate-free, no phantoms,
    /// and no missed key that was present for the whole scan — but keys
    /// may be observed at different instants (skip list, hash map,
    /// hybrid).
    PerKeyLinearizable,
}

/// Object-safe concurrent map interface used by the harness. Keys and
/// values are fixed to `u64` as in the paper's experiments.
pub trait ConcurrentMap: Send + Sync {
    /// Structure name as used in figures.
    fn name(&self) -> &'static str;
    /// Insert, returning the displaced value.
    fn insert(&self, k: u64, v: u64) -> Option<u64>;
    /// Remove, returning the removed value.
    fn remove(&self, k: &u64) -> Option<u64>;
    /// Lookup.
    fn get(&self, k: &u64) -> Option<u64>;
    /// Ordered scan of `[lo, hi]` (inclusive), sorted by key.
    ///
    /// Consistency is structure-dependent (and part of what the range
    /// workload measures): the template trees (`chromatic`, `nbbst`,
    /// `ravl`) return VLX-validated atomic snapshots, `lockavl` snapshots
    /// its persistent root, `rbstm` runs a read-only transaction and
    /// `rbglobal` holds the global lock; `skiplist` returns a non-atomic
    /// (per-key linearizable) scan, like `ConcurrentSkipListMap`, and
    /// `sharded` stitches per-shard atomic scans into a per-shard
    /// linearizable result (see the `sharded` crate docs).
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)>;
    /// The atomicity scope of [`range`](Self::range); what the model
    /// oracles may assert about a scan. Defaults to the **weakest** tier
    /// so a new structure must opt *in* to the strong assertion, never
    /// inherit it (see [`RangeTier`]).
    fn range_tier(&self) -> RangeTier {
        RangeTier::PerKeyLinearizable
    }
    /// O(n) size snapshot.
    fn len(&self) -> usize;
    /// Whether the map holds no keys (same caveats as [`len`](Self::len)).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a whole batch, returning the displaced value per element in
    /// input order.
    ///
    /// **Semantics (all implementations):** a batch is *not* a
    /// transaction. Each element is applied as a point op, in input
    /// order, and linearizes individually; the result vector is what
    /// sequential input-order application returns, so duplicate keys
    /// behave as if inserted one at a time (the last duplicate wins).
    /// Concurrent readers may observe a batch partially applied, but
    /// never an element applied before an earlier one.
    ///
    /// Every registered structure, the sharded façade included, uses this
    /// default.
    fn insert_batch(&self, batch: &[(u64, u64)]) -> Vec<Option<u64>> {
        batch.iter().map(|&(k, v)| self.insert(k, v)).collect()
    }

    /// Removes a whole batch of keys, returning the removed value per key
    /// in input order. Semantics as in
    /// [`insert_batch`](Self::insert_batch): per-element linearization,
    /// results equal to sequential input-order application.
    fn remove_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        keys.iter().map(|k| self.remove(k)).collect()
    }

    /// Looks up a whole batch of keys, returning the value per key in
    /// input order. Semantics as in
    /// [`insert_batch`](Self::insert_batch).
    fn get_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        keys.iter().map(|k| self.get(k)).collect()
    }
}

/// Boxed maps forward to their contents, so `ShardedMap<Box<dyn
/// ConcurrentMap>>` composes the façade over any registered structure.
impl<M: ConcurrentMap + ?Sized> ConcurrentMap for Box<M> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        (**self).insert(k, v)
    }
    fn remove(&self, k: &u64) -> Option<u64> {
        (**self).remove(k)
    }
    fn get(&self, k: &u64) -> Option<u64> {
        (**self).get(k)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        (**self).range(lo, hi)
    }
    fn range_tier(&self) -> RangeTier {
        (**self).range_tier()
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }
    // The batch methods have defaults, but a box must still forward them
    // explicitly — otherwise a boxed map that overrides one would
    // silently run the per-element default instead.
    fn insert_batch(&self, batch: &[(u64, u64)]) -> Vec<Option<u64>> {
        (**self).insert_batch(batch)
    }
    fn remove_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        (**self).remove_batch(keys)
    }
    fn get_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        (**self).get_batch(keys)
    }
}

/// `Arc`'d maps forward too: shared-ownership front ends (the batched
/// service) hand the same structure to many clients without re-boxing.
impl<M: ConcurrentMap + ?Sized> ConcurrentMap for std::sync::Arc<M> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        (**self).insert(k, v)
    }
    fn remove(&self, k: &u64) -> Option<u64> {
        (**self).remove(k)
    }
    fn get(&self, k: &u64) -> Option<u64> {
        (**self).get(k)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        (**self).range(lo, hi)
    }
    fn range_tier(&self) -> RangeTier {
        (**self).range_tier()
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }
    // As for `Box`: forward the batch methods explicitly so structure
    // overrides are not shadowed by the per-element defaults.
    fn insert_batch(&self, batch: &[(u64, u64)]) -> Vec<Option<u64>> {
        (**self).insert_batch(batch)
    }
    fn remove_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        (**self).remove_batch(keys)
    }
    fn get_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        (**self).get_batch(keys)
    }
}

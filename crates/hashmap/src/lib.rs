//! # A concurrent hopscotch-style hash map
//!
//! The suite's hash-accelerated point-op tier: [`HopMap`] answers
//! `get`/`insert`/`remove` in O(1) expected probes where the trees pay
//! O(log n) pointer chases, at the price of ordered-scan atomicity. The
//! narrative version of this design (and the hybrid composition with the
//! chromatic tree) is the `docs/HASHING.md` chapter of the book.
//!
//! ## Layout
//!
//! A table generation is a power-of-two array of *home buckets*, each
//! owning a **neighborhood** of [`HOP_RANGE`] consecutive slots
//! described by a per-bucket *hop bitmap* (one `u32`: bit `i` set ⇔ slot
//! `home + i` holds one of this bucket's entries). The physical slot
//! array carries [`ADD_RANGE`] overflow slots past the last bucket
//! instead of wrapping around, so a neighborhood is always a contiguous
//! ascending interval. A lookup hashes to the home bucket and probes
//! only the slots its bitmap names — at most `HOP_RANGE` reads, usually
//! one or two cache lines.
//!
//! An insert that finds its neighborhood full performs the classic
//! hopscotch *displacement*: find any free slot within `ADD_RANGE`,
//! then repeatedly move some entry from below the free slot up into it
//! (legal whenever the free slot is still within *that* entry's own
//! neighborhood), walking the hole home-ward until it lands inside the
//! inserting key's neighborhood. If no candidate can move, the table
//! **resizes**. This walk is written once: inserts and resize migration
//! both place entries through it.
//!
//! ## Concurrency protocol
//!
//! * **Writers** (insert/remove/displace) hold per-stripe locks — one
//!   `Mutex` per 64 physical slots — acquired in increasing index order
//!   only, which with the no-wraparound layout makes deadlock
//!   impossible. A neighborhood's hop word is frozen while its slots'
//!   stripes are held.
//! * **Readers** are lock-free. The one hazard is a displacement racing
//!   a lookup (the key is present but mid-move, visible under neither
//!   its old nor its new slot for a moment); a per-bucket **seqlock
//!   version** (odd = displacement in flight, CAS-acquired so two
//!   displacers of one bucket serialize) lets a missing lookup detect
//!   the race and retry. Plain insert/remove never bump versions — they
//!   publish or retract a key with a single atomic hop-bit edit that
//!   readers either see or don't.
//! * **Resize** takes every stripe (excluding all writers), re-checks it
//!   still owns the current generation, migrates entry *pointers* into a
//!   table of twice the capacity through the insert's displacement walk,
//!   publishes it with one store, and retires the old generation through
//!   the epoch. The new table is private until published, so migration
//!   takes all of its stripes once per attempt and contends with no one.
//!   The old table is never modified, so a reader that loaded it keeps
//!   probing a frozen, complete snapshot and linearizes at its
//!   table-pointer load.
//! * **Reclamation** is epoch-based via the suite's
//!   [`llxscx::guard_cache`]: every op takes the cached per-thread
//!   guard, with the same repin cadence (and the same documented
//!   reclamation-lag bound) as the trees. Retired entries and retired
//!   table generations are `defer_destroy`ed; a retired generation's
//!   drop frees only its arrays (the entries now belong to the
//!   successor).
//!
//! ## What `range` means here
//!
//! [`HopMap::sorted_range`] is a **per-key-linearizable sorted drain**,
//! not an atomic snapshot: each bucket is read as a seqlock-consistent
//! unit, so scans are sorted, duplicate-free, phantom-free and never
//! miss a key that stays present for the whole scan — but different
//! buckets may reflect different instants. This is the same scope the
//! suite's skip list documents; callers that need an atomic scan use a
//! VLX-validated tree (or the hybrid tier, which delegates scans to
//! one).

#![warn(missing_docs)]

mod hash;
mod map;

pub use hash::{FxBuildHasher, FxHasher};
pub use map::{AuditReport, HopMap, ADD_RANGE, HOP_RANGE};

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hasher};
    use std::panic::{self, AssertUnwindSafe};

    /// Identity hash: the key *is* the hash, so tests can aim keys at
    /// chosen home buckets and force displacement chains.
    #[derive(Clone, Copy, Default)]
    struct IdentityBuild;
    struct IdentityHasher(u64);
    impl Hasher for IdentityHasher {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, _: &[u8]) {
            unreachable!("u64 keys hash via write_u64");
        }
        fn write_u64(&mut self, n: u64) {
            self.0 = n;
        }
    }
    impl BuildHasher for IdentityBuild {
        type Hasher = IdentityHasher;
        fn build_hasher(&self) -> IdentityHasher {
            IdentityHasher(0)
        }
    }

    /// Constant hash: every key has the same full hash, so no capacity
    /// separates any two of them.
    #[derive(Clone, Copy, Default)]
    struct ConstBuild;
    struct ConstHasher;
    impl Hasher for ConstHasher {
        fn finish(&self) -> u64 {
            7
        }
        fn write(&mut self, _: &[u8]) {}
    }
    impl BuildHasher for ConstBuild {
        type Hasher = ConstHasher;
        fn build_hasher(&self) -> ConstHasher {
            ConstHasher
        }
    }

    #[test]
    fn point_ops_round_trip() {
        let m: HopMap<u64, u64> = HopMap::new();
        assert_eq!(m.get(&1), None);
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(2, 20), None);
        assert_eq!(m.get(&1), Some(10));
        assert_eq!(m.insert(1, 11), Some(10), "replace returns displaced");
        assert_eq!(m.get(&1), Some(11));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(&1), Some(11));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.get(&1), None);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn grows_and_keeps_everything() {
        let m: HopMap<u64, u64> = HopMap::with_capacity(64);
        let n = 10_000u64;
        for k in 0..n {
            assert_eq!(m.insert(k, k * 3), None);
        }
        assert!(m.resizes() >= 1, "10k keys into cap 64 must grow");
        assert_eq!(m.len(), n as usize);
        for k in 0..n {
            assert_eq!(m.get(&k), Some(k * 3), "key {k} lost across growth");
        }
        let report = m.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
        assert!(report.max_probe < HOP_RANGE);
    }

    #[test]
    fn sorted_drain_is_sorted_and_complete() {
        let m: HopMap<u64, u64> = HopMap::new();
        for k in (0..500u64).rev() {
            m.insert(k * 7, k);
        }
        let items = m.sorted_items();
        assert_eq!(items.len(), 500);
        assert!(items.windows(2).all(|w| w[0].0 < w[1].0));
        let mid = m.sorted_range(&70, &140);
        assert_eq!(
            mid,
            (10..=20).map(|k| (k * 7, k)).collect::<Vec<_>>(),
            "inclusive range [70, 140]"
        );
        assert_eq!(m.sorted_range(&10, &5), vec![], "inverted range is empty");
    }

    #[test]
    fn displacement_chain_keeps_keys_reachable() {
        // Identity hash: fill slots [0, 40) via homes 0..40, then insert
        // more keys homed at 0. The free slot is far from home, so the
        // insert must displace a chain of entries upward; every key must
        // stay reachable and the audit clean.
        let m: HopMap<u64, u64, IdentityBuild> = HopMap::with_hasher(IdentityBuild);
        let cap = m.capacity() as u64;
        for h in 0..40u64 {
            m.insert(h, h); // slot h, home h
        }
        // Keys ≡ 0 (mod cap) all home at bucket 0.
        for i in 1..=8u64 {
            m.insert(i * cap, 1000 + i);
        }
        for h in 0..40u64 {
            assert_eq!(m.get(&h), Some(h), "displaced key {h} lost");
        }
        for i in 1..=8u64 {
            assert_eq!(m.get(&(i * cap)), Some(1000 + i));
        }
        let report = m.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
        assert!(report.max_probe < HOP_RANGE, "bound exceeded");
    }

    #[test]
    fn same_neighborhood_overflow_forces_growth_not_corruption() {
        // More same-home keys than a neighborhood holds: displacement is
        // impossible (every candidate shares the home), so the map must
        // grow until the identity-hash residues spread out.
        let m: HopMap<u64, u64, IdentityBuild> = HopMap::with_hasher(IdentityBuild);
        let cap = m.capacity() as u64;
        let n = 3 * HOP_RANGE as u64;
        for i in 0..n {
            m.insert(i * cap, i); // all home 0 in the original table
        }
        assert!(m.resizes() >= 1, "same-home overflow must trigger growth");
        for i in 0..n {
            assert_eq!(m.get(&(i * cap)), Some(i));
        }
        let report = m.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn one_key_past_hop_range_with_one_hash_panics_instead_of_growing() {
        // HOP_RANGE keys with one full hash fill their home neighborhood
        // at every capacity; growing for one more would never end.
        let m: HopMap<u64, u64, ConstBuild> = HopMap::with_hasher(ConstBuild);
        let cap = m.capacity();
        let n = HOP_RANGE as u64;
        for k in 0..n {
            assert_eq!(m.insert(k, k), None);
        }
        let err = panic::catch_unwind(AssertUnwindSafe(|| m.insert(n, n)))
            .expect_err("one key past HOP_RANGE with the same hash must panic");
        let msg = err.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains("HOP_RANGE"), "panic message: {msg:?}");
        assert_eq!(m.capacity(), cap, "the failed insert grew the table");
        assert_eq!(m.resizes(), 0);
        assert_eq!(m.len(), HOP_RANGE);
        for k in 0..n {
            assert_eq!(m.get(&k), Some(k));
        }
        assert_eq!(m.get(&n), None);
        let report = m.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn audit_reports_probe_distance_and_occupancy() {
        let m: HopMap<u64, u64> = HopMap::with_capacity(256);
        for k in 0..100u64 {
            m.insert(k, k);
        }
        let report = m.audit();
        assert!(report.is_valid());
        assert_eq!(report.occupied, 100);
        assert_eq!(report.capacity, 256);
        assert!(report.max_probe < HOP_RANGE);
    }

    #[test]
    fn non_u64_keys_work() {
        // The suite drives u64 everywhere; keep the generic surface honest.
        let m: HopMap<String, String> = HopMap::new();
        assert_eq!(m.insert("alpha".into(), "a".into()), None);
        assert_eq!(m.insert("beta".into(), "b".into()), None);
        assert_eq!(m.get(&"alpha".to_string()), Some("a".to_string()));
        assert_eq!(m.insert("alpha".into(), "a2".into()), Some("a".to_string()));
        assert_eq!(m.remove(&"beta".to_string()), Some("b".to_string()));
        assert_eq!(m.len(), 1);
    }
}

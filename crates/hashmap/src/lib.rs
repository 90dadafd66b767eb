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
//! A table generation is one array of `cap + ADD_RANGE` 24-byte
//! **buckets**, each three `AtomicU64`s: a `word`, a `key` and a
//! `value`. The first `cap` buckets are *home buckets*; each owns a
//! **neighborhood** of [`HOP_RANGE`] consecutive slots, described by
//! the *hop bitmap* in the low 32 bits of its word (bit `i` set ⇔ slot
//! `home + i` holds one of this bucket's keys). The high 32 bits are the
//! bucket's version. Keys and values live inline in the slots,
//! so both are [`Word`] types: they convert to and from the `u64` an
//! atomic slot holds. The [`ADD_RANGE`] overflow slots past the last
//! home bucket replace wraparound, so a neighborhood is always a
//! contiguous ascending interval. A lookup hashes to the home bucket and
//! reads only the slots its bitmap names; a key in its home slot costs
//! one bucket.
//!
//! An insert that finds its neighborhood full performs the classic
//! hopscotch *displacement*: find any free slot within `ADD_RANGE`,
//! then repeatedly move some key from below the free slot up into it
//! (legal whenever the free slot is still within *that* key's own
//! neighborhood), walking the hole home-ward until it lands inside the
//! inserting key's neighborhood. If no candidate can move, the table
//! **resizes**. This walk is written once: inserts and resize migration
//! both place keys through it.
//!
//! ## Concurrency protocol
//!
//! * **Writers** (insert/remove/update/displace) hold per-stripe locks —
//!   one `Mutex` per 64 slots, guarding those slots' `u64` occupancy
//!   bitmap — acquired in increasing index order only, which with the
//!   no-wraparound layout makes deadlock impossible. Every edit of a
//!   slot owned by bucket `h` goes through `h`'s word, and is one store
//!   of it: a Release fence, the slot stores, then a Release store of
//!   the next version with the new hop bits. No edit stores into a slot
//!   the current bitmap names, except an in-place value update, which
//!   rewrites only the value word: an insert and each displacement step
//!   fill a free slot before the word store names it, and a remove only
//!   clears a bit. So the word store is the linearization point of an
//!   insert, a remove and a move, and the value store that of an update.
//!   Every writer of `h`'s word holds the stripe of slot `h`, so that
//!   lock orders them and the version needs no CAS.
//! * **Readers** are lock-free: they take no lock, write nothing and
//!   never wait for a writer. A lookup loads its home bucket's word,
//!   reads the named slots' `key`/`value` words, then fences and
//!   re-loads the word; an unchanged word means the copy is one
//!   consistent state of the bucket, otherwise it retries. The re-check
//!   is what keeps a reader from pairing one key with a value written
//!   for another key that reused the slot: the edit that vacated the
//!   slot released its stripe before the reusing writer took it, so the
//!   writer's Release fence and the reader's Acquire fence make the
//!   re-load see that edit. A retry therefore follows a *completed*
//!   edit of the bucket; a writer preempted mid-edit stalls no reader.
//! * **Resize** takes every stripe (excluding all writers), re-checks it
//!   still owns the current generation, copies key and value words into
//!   a table of twice the capacity through the insert's displacement
//!   walk, publishes it with one store, and retires the old generation
//!   through the epoch. The new table is private until published, so
//!   migration takes all of its stripes once per attempt and contends
//!   with no one. The old table is never modified, so a reader that
//!   loaded it keeps probing a frozen, complete snapshot and linearizes
//!   at its table-pointer load.
//! * **Reclamation** is epoch-based via the suite's
//!   [`llxscx::epoch`]: every op takes the cached per-thread
//!   guard, with the same repin cadence (and the same documented
//!   reclamation-lag bound) as the trees. Only retired table generations
//!   are reclaimed; there are no entries to retire, because no insert,
//!   update or remove allocates or frees anything.
//!
//! ## What `range` means here
//!
//! [`HopMap::sorted_range`] is a **per-key-linearizable sorted drain**,
//! not an atomic snapshot: each bucket is read, lock-free, as a
//! consistent unit, so scans are sorted, duplicate-free, phantom-free
//! and never miss a key that stays present for the whole scan — but
//! different buckets may reflect different instants. This is the same
//! scope the suite's skip list documents; callers that need an atomic
//! scan use a VLX-validated tree (or the hybrid tier, which delegates
//! scans to one).

#![warn(missing_docs)]

mod hash;
mod map;

pub use hash::{FxBuildHasher, FxHasher};
pub use map::{AuditReport, HopMap, Word, ADD_RANGE, HOP_RANGE};

#[cfg(test)]
mod tests {
    pub(crate) mod stall;

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

    /// Parity hash: every key hashes to 0 or 1, so all keys home at
    /// buckets 0 and 1 at every capacity, though their full hashes differ.
    #[derive(Clone, Copy, Default)]
    struct ParityBuild;
    struct ParityHasher(u64);
    impl Hasher for ParityHasher {
        fn finish(&self) -> u64 {
            self.0 & 1
        }
        fn write(&mut self, _: &[u8]) {
            unreachable!("u64 keys hash via write_u64");
        }
        fn write_u64(&mut self, n: u64) {
            self.0 = n;
        }
    }
    impl BuildHasher for ParityBuild {
        type Hasher = ParityHasher;
        fn build_hasher(&self) -> ParityHasher {
            ParityHasher(0)
        }
    }

    /// Top-bits hash: key `k` hashes to `(k % 32) << 59`, so keys differ
    /// only in hash bits that no table small enough to allocate indexes.
    #[derive(Clone, Copy, Default)]
    struct TopBuild;
    struct TopHasher(u64);
    impl Hasher for TopHasher {
        fn finish(&self) -> u64 {
            (self.0 % 32) << 59
        }
        fn write(&mut self, _: &[u8]) {
            unreachable!("u64 keys hash via write_u64");
        }
        fn write_u64(&mut self, n: u64) {
            self.0 = n;
        }
    }
    impl BuildHasher for TopBuild {
        type Hasher = TopHasher;
        fn build_hasher(&self) -> TopHasher {
            TopHasher(0)
        }
    }

    /// Straddle hash: keys 0 and 1 hash to 63, every other key to 64, so
    /// at every capacity they home at buckets 63 and 64, on either side
    /// of a stripe edge.
    #[derive(Clone, Copy, Default)]
    struct StraddleBuild;
    struct StraddleHasher(u64);
    impl Hasher for StraddleHasher {
        fn finish(&self) -> u64 {
            if self.0 < 2 {
                63
            } else {
                64
            }
        }
        fn write(&mut self, _: &[u8]) {
            unreachable!("u64 keys hash via write_u64");
        }
        fn write_u64(&mut self, n: u64) {
            self.0 = n;
        }
    }
    impl BuildHasher for StraddleBuild {
        type Hasher = StraddleHasher;
        fn build_hasher(&self) -> StraddleHasher {
            StraddleHasher(0)
        }
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = panic::catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
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
        let n = if cfg!(miri) { 300 } else { 10_000u64 };
        for k in 0..n {
            assert_eq!(m.insert(k, k * 3), None);
        }
        assert!(m.resizes() >= 1, "{n} keys into cap 64 must grow");
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
        let n = if cfg!(miri) { 60 } else { 500u64 };
        for k in (0..n).rev() {
            m.insert(k * 7, k);
        }
        let items = m.sorted_items();
        assert_eq!(items.len(), n as usize);
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
        let msg = panic_message(|| {
            m.insert(n, n);
        });
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
    fn adjacent_hash_cluster_panics_without_growing() {
        // Keys homed at buckets 0 and 1 fill slots 0..=32, all that their
        // neighborhoods span; one more cannot be placed. Their full hashes
        // differ, but they agree above every capacity's index bits, so a
        // doubling homes them exactly as before: the insert must panic
        // instead of doubling until allocation fails.
        let m: HopMap<u64, u64, ParityBuild> = HopMap::with_hasher(ParityBuild);
        let placed = (0..=HOP_RANGE as u64).collect::<Vec<_>>();
        for &k in &placed {
            assert_eq!(m.insert(k, !k), None);
        }
        assert_eq!(m.resizes(), 0, "33 slots hold the first 33 keys");
        let k = HOP_RANGE as u64 + 1;
        let msg = panic_message(|| {
            m.insert(k, !k);
        });
        assert!(msg.contains("HOP_RANGE"), "panic message: {msg:?}");
        assert_eq!(m.resizes(), 0, "the hopeless insert grew the table");
        assert_eq!(m.len(), placed.len());
        for &k in &placed {
            assert_eq!(m.get(&k), Some(!k));
        }
        assert_eq!(m.get(&k), None);
        let report = m.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn keys_split_only_by_unindexable_hash_bits_panic_without_growing() {
        // Keys 0..32 fill bucket 0's neighborhood: their hashes differ
        // only in bits 59 and up, and no bucket array that fits in memory
        // (at most 2^58 home buckets) indexes those, so they home at
        // bucket 0 at every capacity. The 33rd must panic instead of
        // doubling the table until allocation fails.
        let m: HopMap<u64, u64, TopBuild> = HopMap::with_hasher(TopBuild);
        let placed = (0..HOP_RANGE as u64).collect::<Vec<_>>();
        for &k in &placed {
            assert_eq!(m.insert(k, !k), None);
        }
        let k = HOP_RANGE as u64;
        let msg = panic_message(|| {
            m.insert(k, !k);
        });
        assert!(msg.contains("HOP_RANGE"), "panic message: {msg:?}");
        assert_eq!(m.resizes(), 0, "the hopeless insert grew the table");
        assert_eq!(m.len(), placed.len());
        for &k in &placed {
            assert_eq!(m.get(&k), Some(!k));
        }
        assert_eq!(m.get(&k), None);
        let report = m.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn a_hopeless_cluster_across_a_stripe_edge_panics_without_growing() {
        // Keys homed at buckets 63 and 64 fill slots 63..=95, all that
        // their neighborhoods span. Slot 63 lies in stripe 0 and the rest
        // in stripe 1, so the failed insert's own run, which starts at
        // home 64, sees only 32 of the 33 keys; the check must count the
        // whole table, or the insert doubles it until allocation fails.
        let m: HopMap<u64, u64, StraddleBuild> =
            HopMap::with_capacity_and_hasher(128, StraddleBuild);
        let placed = (0..=HOP_RANGE as u64).collect::<Vec<_>>();
        for &k in &placed {
            assert_eq!(m.insert(k, !k), None);
        }
        assert_eq!(m.resizes(), 0, "33 slots hold the first 33 keys");
        let k = HOP_RANGE as u64 + 1;
        let msg = panic_message(|| {
            m.insert(k, !k);
        });
        assert!(msg.contains("HOP_RANGE"), "panic message: {msg:?}");
        assert_eq!(m.resizes(), 0, "the hopeless insert grew the table");
        assert_eq!(m.len(), placed.len());
        for &k in &placed {
            assert_eq!(m.get(&k), Some(!k));
        }
        assert_eq!(m.get(&k), None);
        let report = m.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn keys_split_only_by_a_higher_hash_bit_grow_until_they_part() {
        // Identity hash: keys 128 * i home at bucket 0 at capacities 64
        // and 128, so the 33rd fails to place in both. Their hashes differ
        // in bit 7, which the 256-bucket table indexes: it homes them at 0
        // and 128, and every insert must succeed after two doublings.
        let m: HopMap<u64, u64, IdentityBuild> = HopMap::with_hasher(IdentityBuild);
        assert_eq!(m.capacity(), 64);
        let keys = (0..=HOP_RANGE as u64).map(|i| 128 * i).collect::<Vec<_>>();
        for &k in &keys {
            assert_eq!(m.insert(k, k + 1), None);
        }
        assert_eq!(m.resizes(), 2);
        assert_eq!(m.capacity(), 256);
        for &k in &keys {
            assert_eq!(m.get(&k), Some(k + 1));
        }
        let report = m.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn narrow_and_signed_words_round_trip() {
        // The suite stores u64 everywhere; keep the generic surface honest
        // with a second pair of word types, negative values included.
        let m: HopMap<u32, i64> = HopMap::new();
        assert_eq!(m.insert(7, -1), None);
        assert_eq!(m.insert(u32::MAX, i64::MIN), None);
        assert_eq!(m.insert(0, i64::MAX), None);
        assert_eq!(m.get(&7), Some(-1));
        assert_eq!(m.insert(7, -2), Some(-1));
        assert_eq!(m.remove(&u32::MAX), Some(i64::MIN));
        assert_eq!(m.get(&u32::MAX), None);
        assert_eq!(m.sorted_items(), vec![(0, i64::MAX), (7, -2)]);
        let s: HopMap<i64, u32> = HopMap::new();
        for k in -50..50 {
            s.insert(k, k.unsigned_abs() as u32);
        }
        assert_eq!(
            s.sorted_range(&-3, &2),
            vec![(-3, 3), (-2, 2), (-1, 1), (0, 0), (1, 1), (2, 2)],
            "signed keys sort by value, not by their words"
        );
        assert_eq!(m.len(), 2);
        assert!(m.audit().is_valid() && s.audit().is_valid());
    }
}

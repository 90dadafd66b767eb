//! Sequential model oracles: scripted operations applied to a map and to
//! a `BTreeMap` side by side, asserting identical results. Every
//! registered structure's point ops, batches and scans are checked
//! against these from the unit, integration and cross-crate suites.

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::{ConcurrentMap, KeyDist, KeySampler, RangeTier};

/// Sanity helper shared by tests: applies `ops` scripted operations to a
/// map and to `BTreeMap`, asserting identical results — including ordered
/// `range` scans, inverted windows among them, so every registered
/// structure's scan is oracle-checked.
///
/// The range assertion is **tiered** by [`ConcurrentMap::range_tier`]:
/// an [`RangeTier::Atomic`] scan must equal the model snapshot verbatim,
/// while a per-key-linearizable scan is held to exactly the properties
/// that tier promises (see [`assert_scan_per_key`]). Sequentially the
/// two are equivalent — the weak properties compose to set equality when
/// nothing runs concurrently — so splitting the oracle loses no
/// coverage; what it fixes is the *claim*: the old oracle asserted
/// snapshot atomicity for every structure, which the skip list only
/// passed because a single-threaded script can't distinguish the tiers
/// (and which a new weak-scan structure should not inherit).
pub fn check_against_model(map: &dyn ConcurrentMap, seed: u64, ops: u64, range: u64) {
    check_against_model_dist(map, seed, ops, range, KeyDist::Uniform);
}

/// [`check_against_model`] with keys drawn from an arbitrary [`KeyDist`]
/// instead of uniformly — what the skewed-workload tests use to show the
/// samplers feed structures keys they handle correctly (a zipfian stream
/// hammers the same hot keys through insert/remove/get/range in every
/// interleaving a sequential script can produce).
pub fn check_against_model_dist(
    map: &dyn ConcurrentMap,
    seed: u64,
    ops: u64,
    range: u64,
    dist: KeyDist,
) {
    use std::collections::BTreeMap;
    let sampler = KeySampler::new(dist, range);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = BTreeMap::new();
    for step in 0..ops {
        let k = sampler.sample(&mut rng);
        match rng.gen_range(0..4) {
            0 => assert_eq!(map.insert(k, step), model.insert(k, step), "insert {k}"),
            1 => assert_eq!(map.remove(&k), model.remove(&k), "remove {k}"),
            2 => assert_eq!(map.get(&k), model.get(&k).copied(), "get {k}"),
            _ => {
                // One scan in eight is inverted (`hi < lo`) and must come
                // back empty; `BTreeMap::range` panics on such a window, so
                // the model's answer is stated, not computed.
                let width = rng.gen_range(0..range / 4 + 1);
                let (lo, hi) = if rng.gen_range(0..8) == 0 {
                    (k + width + 1, k)
                } else {
                    (k, k + width)
                };
                let expect: Vec<(u64, u64)> = if lo <= hi {
                    model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect()
                } else {
                    vec![]
                };
                assert_range_matches(map, map.range(lo, hi), &expect, lo, hi);
            }
        }
    }
    assert_eq!(
        map.range(u64::MAX, 0),
        vec![],
        "{}: range [MAX, 0]",
        map.name()
    );
}

/// The tier dispatch behind the model oracles' range checks.
fn assert_range_matches(
    map: &dyn ConcurrentMap,
    got: Vec<(u64, u64)>,
    expect: &[(u64, u64)],
    lo: u64,
    hi: u64,
) {
    match map.range_tier() {
        RangeTier::Atomic => {
            assert_eq!(got, expect, "{}: range [{lo}, {hi}]", map.name());
        }
        RangeTier::PerShardAtomic | RangeTier::PerKeyLinearizable => {
            assert_scan_per_key(&got, expect, map.name(), lo, hi);
        }
    }
}

/// Asserts the properties a per-key-linearizable (or per-shard-atomic)
/// scan owes a **sequential** caller: strictly sorted, no phantom pair
/// (everything returned is in the model) and no missing pair (everything
/// in the model is returned). Together these are set equality — the same
/// coverage as the atomic oracle's `assert_eq` — but stated as the
/// properties the tier actually promises, so the same predicate remains
/// sound for concurrent callers (where the atomic claim would not be).
pub fn assert_scan_per_key(
    got: &[(u64, u64)],
    expect: &[(u64, u64)],
    name: &str,
    lo: u64,
    hi: u64,
) {
    assert!(
        got.windows(2).all(|w| w[0].0 < w[1].0),
        "{name}: range [{lo}, {hi}] not strictly sorted: {got:?}"
    );
    for pair in got {
        assert!(
            expect.binary_search(pair).is_ok(),
            "{name}: range [{lo}, {hi}] returned phantom {pair:?}"
        );
    }
    for pair in expect {
        assert!(
            got.binary_search(pair).is_ok(),
            "{name}: range [{lo}, {hi}] missed {pair:?}"
        );
    }
}

/// Oracle check for the trait-level batched entry points: applies random
/// interleaved batches (insert/remove) and point ops to any
/// [`ConcurrentMap`] and to `BTreeMap`, asserting identical per-item
/// results in input order. Mirrors the trait's documented duplicate-key
/// semantics (a batch behaves like sequential input-order application),
/// so the model is simply "apply the batch one element at a time", which
/// is also what every registered map does, and what an override must
/// match.
pub fn check_batches_against_model(map: &dyn ConcurrentMap, seed: u64, batches: u64, range: u64) {
    use std::collections::BTreeMap;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = BTreeMap::new();
    for step in 0..batches {
        let len = rng.gen_range(0..48usize);
        match rng.gen_range(0..3) {
            0 => {
                let batch: Vec<(u64, u64)> = (0..len)
                    .map(|i| (rng.gen_range(0..range), step * 1000 + i as u64))
                    .collect();
                let expect: Vec<_> = batch.iter().map(|&(k, v)| model.insert(k, v)).collect();
                assert_eq!(map.insert_batch(&batch), expect, "insert_batch {batch:?}");
            }
            1 => {
                let keys: Vec<u64> = (0..len).map(|_| rng.gen_range(0..range)).collect();
                let expect: Vec<_> = keys.iter().map(|k| model.remove(k)).collect();
                assert_eq!(map.remove_batch(&keys), expect, "remove_batch {keys:?}");
            }
            _ => {
                // Point ops and scans interleave with the batches so the
                // two entry-point families are checked against each other,
                // boundary-straddling ranges included.
                let k = rng.gen_range(0..range);
                assert_eq!(map.insert(k, step), model.insert(k, step));
                let hi = k + rng.gen_range(0..range / 2 + 1);
                let expect: Vec<(u64, u64)> = model.range(k..=hi).map(|(k, v)| (*k, *v)).collect();
                assert_range_matches(map, map.range(k, hi), &expect, k, hi);
            }
        }
    }
    assert_eq!(map.len(), model.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{make_map, make_sharded, SuiteConfig, ALL_MAPS};

    #[test]
    fn every_registered_map_matches_model() {
        let cfg = SuiteConfig::default();
        for name in ALL_MAPS {
            let map = make_map(name, &cfg).unwrap();
            check_against_model(map.as_ref(), 7, 3000, 128);
        }
    }

    #[test]
    fn sharded_batches_match_model() {
        // Boundaries every 16 keys: a range of 128 keys over 8 shards
        // keeps every batch and scan straddling shard boundaries.
        let map = make_sharded(&SuiteConfig::default().for_key_range(128));
        check_batches_against_model(&map, 11, 400, 128);
    }

    #[test]
    fn trait_batches_match_model_on_every_registered_map() {
        // The same oracle, through the trait object, on every registered
        // map.
        let cfg = SuiteConfig::default().for_key_range(128);
        for name in ALL_MAPS {
            let map = make_map(name, &cfg).unwrap();
            check_batches_against_model(map.as_ref(), 13, 150, 128);
        }
    }

    #[test]
    fn skewed_mixes_match_model_on_chromatic() {
        let cfg = SuiteConfig::default();
        let map = make_map("chromatic", &cfg).unwrap();
        check_against_model_dist(
            map.as_ref(),
            7,
            2000,
            128,
            KeyDist::Zipfian { theta_pct: 120 },
        );
        let map = make_map("chromatic", &cfg).unwrap();
        check_against_model_dist(
            map.as_ref(),
            9,
            2000,
            128,
            KeyDist::HotSet {
                keys_pct: 10,
                ops_pct: 90,
            },
        );
    }
}

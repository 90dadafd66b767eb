//! Model-based oracle for the hopscotch map: random point-op scripts,
//! runs of inserts and removes included, against `BTreeMap`, replayed at
//! the load factors the table is expected to sustain, plus adversarial
//! same-neighborhood key sets that force displacement chains and growth.

use hashmap::{HopMap, HOP_RANGE};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::hash::{BuildHasher, Hasher};

/// One scripted op: `(selector, key material, value material)`.
type Op = (u8, u64, u64);

/// Applies `script` to a [`HopMap`] prefilled to `prefill / cap` load
/// and to a `BTreeMap`, asserting identical results op for op, then
/// identical contents and a clean structural audit.
fn check_script(script: &[Op], cap: usize, prefill: u64) -> Result<(), TestCaseError> {
    let map: HopMap<u64, u64> = HopMap::with_capacity(cap);
    let mut model = BTreeMap::new();
    // Prefill to the target load factor with evenly spread keys.
    for k in 0..prefill {
        map.insert(k * 3, k);
        model.insert(k * 3, k);
    }
    // Ops hit a keyspace ~25% wider than the prefill, so the script
    // mixes hits, misses, overwrites and fresh inserts at that load.
    let keyspace = (prefill * 4).max(16);
    for &(sel, k_raw, v) in script {
        let k = k_raw % keyspace;
        match sel % 6 {
            0 | 1 => prop_assert_eq!(map.insert(k, v), model.insert(k, v)),
            2 => prop_assert_eq!(map.remove(&k), model.remove(&k)),
            3 => prop_assert_eq!(map.get(&k), model.get(&k).copied()),
            4 => {
                // A run of inserts derived from the op's material,
                // duplicate keys included.
                for i in 0..(v % 24) {
                    let (k, v) = ((k + i * i) % keyspace, v + i);
                    prop_assert_eq!(map.insert(k, v), model.insert(k, v));
                }
            }
            _ => {
                for i in 0..(v % 24) {
                    let k = (k + i * 7) % keyspace;
                    prop_assert_eq!(map.remove(&k), model.remove(&k));
                }
            }
        }
    }
    let expect: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    prop_assert_eq!(map.sorted_items(), expect);
    prop_assert_eq!(map.len(), model.len());
    let report = map.audit();
    prop_assert!(report.is_valid(), "audit: {:?}", report.errors);
    prop_assert!(report.max_probe < HOP_RANGE, "probe bound exceeded");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The load-factor sweep: the same random script replayed against a
    /// table at 0.5, 0.75 and 0.9 occupancy — the regimes where
    /// hopscotch displacement goes from rare to routine. (The vendored
    /// `proptest!` supports one binding, hence the tuple input.)
    #[test]
    fn scripts_match_btreemap_at_all_load_factors(
        input in (
            proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..120),
            any::<bool>(),
        )
    ) {
        let (script, _) = input;
        // cap 256 tables prefilled to 128 / 192 / 230 keys.
        check_script(&script, 256, 128)?; // load 0.50
        check_script(&script, 256, 192)?; // load 0.75
        check_script(&script, 256, 230)?; // load 0.90
    }
}

/// Identity hash: keys choose their own home bucket, so the test can
/// aim an arbitrary number of keys at one neighborhood.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Adversarial same-neighborhood sets: every key is drawn from a few
    /// residue classes mod the initial capacity, so inserts pile into a
    /// handful of home buckets and *must* displace (and eventually grow)
    /// to make room. The model oracle and the audit run as above.
    #[test]
    fn same_neighborhood_keys_force_displacement_chains(
        input in (
            proptest::collection::vec((any::<bool>(), any::<u8>(), any::<u8>()), 1..150),
            any::<u8>(),
        )
    ) {
        let (script, base) = input;
        let map: HopMap<u64, u64, IdentityBuild> = HopMap::with_hasher(IdentityBuild);
        let cap = map.capacity() as u64;
        let mut model = BTreeMap::new();
        // Keys: residue (base-derived home, spread over 3 adjacent
        // buckets) + multiple*cap — all collide in the original table.
        for (i, &(is_insert, residue, mult)) in script.iter().enumerate() {
            let home = (base as u64 + (residue % 3) as u64) % cap;
            let k = home + (mult as u64 % 48) * cap;
            if is_insert {
                prop_assert_eq!(map.insert(k, i as u64), model.insert(k, i as u64));
            } else {
                prop_assert_eq!(map.remove(&k), model.remove(&k));
            }
        }
        let expect: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(map.sorted_items(), expect);
        let report = map.audit();
        prop_assert!(report.is_valid(), "audit: {:?}", report.errors);
        prop_assert!(report.max_probe < HOP_RANGE);
    }
}

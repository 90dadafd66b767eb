//! Property-based oracle for the sharded façade over real chromatic-tree
//! shards: arbitrary interleavings of point ops, batched ops and range
//! scans match a sequential `BTreeMap` replay, with keys and windows
//! biased to *straddle shard boundaries* — the routing and stitching edge
//! cases (a key exactly at a boundary, a scan whose endpoints sit in
//! different shards, a batch whose elements land in several shards).

use std::collections::BTreeMap;

use proptest::prelude::*;
use sharded::{ConcurrentMap, ShardedMap};

/// Local adapter (the orphan rule requires one in this test crate) over
/// the real chromatic tree, so the proptest exercises the actual template
/// trees rather than a stand-in.
struct Chromatic(nbtree::ChromaticTree<u64, u64>);

impl ConcurrentMap for Chromatic {
    fn name(&self) -> &'static str {
        "chromatic"
    }
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        self.0.insert(k, v)
    }
    fn remove(&self, k: &u64) -> Option<u64> {
        self.0.remove(k)
    }
    fn get(&self, k: &u64) -> Option<u64> {
        self.0.get(k)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.0.range(lo..=hi)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

const SHARDS: usize = 4;
const SPAN: u64 = 256; // boundaries at 64, 128, 192

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    /// `[lo, lo + width]` — widths up to SPAN/2 cross 1–3 boundaries.
    Range(u64, u64),
    InsertBatch(Vec<(u64, u64)>),
    RemoveBatch(Vec<u64>),
    GetBatch(Vec<u64>),
}

/// Keys cluster around shard boundaries (±2) half the time, uniform over
/// the span (and slightly beyond it) otherwise. (The vendored proptest
/// has no range strategies, hence the modular-arithmetic idiom.)
fn key_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(b, d)| {
            let boundary = (1 + b % (SHARDS as u64 - 1)) * (SPAN / SHARDS as u64);
            (boundary + d % 5).saturating_sub(2)
        }),
        any::<u64>().prop_map(|k| k % (SPAN + 16)),
    ]
}

fn batch_keys() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(key_strategy(), 0..24)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (key_strategy(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        key_strategy().prop_map(Op::Remove),
        key_strategy().prop_map(Op::Get),
        (key_strategy(), any::<u64>()).prop_map(|(lo, w)| Op::Range(lo, w % (SPAN / 2))),
        proptest::collection::vec((key_strategy(), any::<u64>()), 0..24).prop_map(Op::InsertBatch),
        batch_keys().prop_map(Op::RemoveBatch),
        batch_keys().prop_map(Op::GetBatch),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched semantics are "sequential application in input order",
    /// which is exactly how the façade runs them and the model replays
    /// them.
    #[test]
    fn sharded_chromatic_equals_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let map = ShardedMap::with_span(SHARDS, SPAN, |_| {
            Chromatic(nbtree::ChromaticTree::new())
        });
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(map.insert(*k, *v), model.insert(*k, *v));
                }
                Op::Remove(k) => prop_assert_eq!(map.remove(k), model.remove(k)),
                Op::Get(k) => prop_assert_eq!(map.get(k), model.get(k).copied()),
                Op::Range(lo, w) => {
                    let hi = lo.saturating_add(*w);
                    let expect: Vec<(u64, u64)> =
                        model.range(*lo..=hi).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(map.range(*lo, hi), expect);
                }
                Op::InsertBatch(batch) => {
                    let expect: Vec<_> =
                        batch.iter().map(|&(k, v)| model.insert(k, v)).collect();
                    prop_assert_eq!(map.insert_batch(batch), expect);
                }
                Op::RemoveBatch(keys) => {
                    let expect: Vec<_> = keys.iter().map(|k| model.remove(k)).collect();
                    prop_assert_eq!(map.remove_batch(keys), expect);
                }
                Op::GetBatch(keys) => {
                    let expect: Vec<_> = keys.iter().map(|k| model.get(k).copied()).collect();
                    prop_assert_eq!(map.get_batch(keys), expect);
                }
            }
        }
        // Closing checks: sizes, full-universe stitching, and shard
        // residency all agree with the model.
        prop_assert_eq!(map.len(), model.len());
        let expect: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(map.range(0, u64::MAX), expect);
        for idx in 0..map.shard_count() {
            for (k, _) in map.shard(idx).range(0, u64::MAX) {
                prop_assert_eq!(map.shard_of(k), idx);
            }
        }
    }

    /// Boundary keys route deterministically: a key equal to a boundary
    /// belongs to the *upper* shard, one below it to the lower.
    #[test]
    fn boundary_keys_route_to_the_upper_shard(raw in any::<u64>()) {
        let b = 1 + (raw % (SHARDS as u64 - 1)) as usize;
        let map = ShardedMap::with_span(SHARDS, SPAN, |_| {
            Chromatic(nbtree::ChromaticTree::new())
        });
        let boundary = map.boundaries()[b - 1];
        prop_assert_eq!(map.shard_of(boundary), b);
        prop_assert_eq!(map.shard_of(boundary - 1), b - 1);
        map.insert(boundary, 1);
        map.insert(boundary - 1, 2);
        prop_assert_eq!(map.shard(b).get(&boundary), Some(1));
        prop_assert_eq!(map.shard(b - 1).get(&(boundary - 1)), Some(2));
    }
}

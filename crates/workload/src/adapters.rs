//! A uniform `u64 → u64` map interface over every structure in the suite.
//!
//! The [`ConcurrentMap`] trait itself lives in the `sharded` crate (the
//! sharding façade must implement it, and `workload` must register the
//! façade — re-exporting from the lower crate breaks the cycle); this
//! module provides the implementations for every structure plus the
//! `make_map` registry.

use hashmap::HopMap;
use nbbst::NbBst;
use nbskiplist::SkipListMap;
use nbtree::ChromaticTree;
use ravl::RelaxedAvl;
use seqrbt::RbGlobal;
use sharded::ShardedMap;
use std::sync::Mutex;
use tinystm::RbStm;

use crate::config::SuiteConfig;

pub use sharded::{ConcurrentMap, RangeTier};

/// All registered structure names, in the order figures print them.
pub const ALL_MAPS: &[&str] = &[
    "chromatic",
    "chromatic6",
    "nbbst",
    "ravl",
    "skiplist",
    "lockavl",
    "rbstm",
    "rbglobal",
    "sharded",
    "hashmap",
    "hybrid",
];

/// Violations a chromatic *tier* lets an update's search path hold before
/// the update runs `cleanup` (§5.6): the `k` of every tree inside a
/// composed registry entry: the `"sharded"` shards and the
/// [`Hybrid`]'s tree. 6 is the paper's Chromatic6.
///
/// A lazy tier skips about 99 % of the rebalancing steps, and the root
/// walks between them, that a `k = 0` update pays. Its quiescent height
/// bound loosens only by `k`, to `2⌈log2(n+1)⌉ + 2 + k`. The
/// `"chromatic"` entry stays at `k = 0`: it is the paper's cell.
pub const TIER_ALLOWED_VIOLATIONS: u32 = 6;

/// The chromatic tree behind the registry: the `"chromatic"` and
/// `"chromatic6"` entries and every shard of the `"sharded"` façade are
/// this one type, told apart by the name they report and the violation
/// allowance `k` they were built with.
///
/// A concrete type rather than `Box<dyn ConcurrentMap>` so the per-shard
/// hop is a static call: the façade behind `make_map("sharded", ..)`
/// already costs one virtual dispatch at the trait object boundary, and
/// paying a second one inside every shard was measurable on the point-op
/// hot path.
pub struct ChromaticShard {
    tree: ChromaticTree<u64, u64>,
    name: &'static str,
}

impl ChromaticShard {
    /// An empty tree reporting `name` and allowing `k` violations on a
    /// search path before an update cleans up (§5.6).
    pub fn new(name: &'static str, k: u32) -> Self {
        ChromaticShard {
            tree: ChromaticTree::with_allowed_violations(k),
            name,
        }
    }

    /// The shard's tree, read-only: for audits and `Stats` at quiescence.
    pub fn tree(&self) -> &ChromaticTree<u64, u64> {
        &self.tree
    }
}

impl ConcurrentMap for ChromaticShard {
    fn name(&self) -> &'static str {
        self.name
    }
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        self.tree.insert(k, v)
    }
    fn remove(&self, k: &u64) -> Option<u64> {
        self.tree.remove(k)
    }
    fn get(&self, k: &u64) -> Option<u64> {
        self.tree.get(k)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.tree.range(lo..=hi)
    }
    fn range_tier(&self) -> RangeTier {
        RangeTier::Atomic // VLX-validated snapshot
    }
    fn len(&self) -> usize {
        self.tree.len()
    }
}

/// A sharded façade over chromatic-tree shards: `cfg.shards()` instances
/// splitting `[0, cfg.shard_span())` uniformly, each a lazy tier allowing
/// [`TIER_ALLOWED_VIOLATIONS`]. The registry's `"sharded"` entry is
/// `make_sharded(cfg)` behind the trait object; tests that need the
/// concrete type (per-shard inspection) build it through this
/// constructor.
pub fn make_sharded(cfg: &SuiteConfig) -> ShardedMap<ChromaticShard> {
    let shards = cfg.shards();
    ShardedMap::with_span(shards, cfg.shard_span().max(shards as u64), |_| {
        ChromaticShard::new("chromatic-shard", TIER_ALLOWED_VIOLATIONS)
    })
}

/// Instantiates a map by name; `None` for unknown names.
///
/// The typed [`SuiteConfig`] is the only construction-time input, and its
/// key range is its only sizing input: binaries call
/// [`SuiteConfig::for_key_range`] per range block. The registry never
/// consults the environment, so two sweepers cannot disagree about how
/// the same `"sharded"` or `"hybrid"` entry is sized.
pub fn make_map(name: &str, cfg: &SuiteConfig) -> Option<Box<dyn ConcurrentMap>> {
    Some(match name {
        "chromatic" => Box::new(ChromaticShard::new("chromatic", 0)),
        "chromatic6" => Box::new(ChromaticShard::new("chromatic6", 6)),
        "nbbst" => Box::new(NbBstMap(NbBst::new())),
        "ravl" => Box::new(RelaxedAvlMap(RelaxedAvl::new())),
        "skiplist" => Box::new(SkipListAdapter(SkipListMap::new())),
        "lockavl" => Box::new(LockAvlMap(lockavl::LockAvl::new())),
        "rbstm" => Box::new(RbStmMap(RbStm::new())),
        "rbglobal" => Box::new(RbGlobalMap(RbGlobal::new())),
        "sharded" => Box::new(make_sharded(cfg)),
        "hashmap" => Box::new(HopShard::default()),
        "hybrid" => Box::new(Hybrid::new(cfg)),
        _ => return None,
    })
}

// `ConcurrentMap` is now a foreign trait (it lives in `sharded`), so the
// orphan rule requires a local newtype between it and each foreign
// structure type. The wrappers are private; `make_map` still hands out
// `Box<dyn ConcurrentMap>` exactly as before.
macro_rules! impl_map {
    ($wrapper:ident, $ty:ty, $name:literal, $tier:expr) => {
        struct $wrapper($ty);

        impl ConcurrentMap for $wrapper {
            fn name(&self) -> &'static str {
                $name
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
            fn range_tier(&self) -> RangeTier {
                $tier
            }
            fn len(&self) -> usize {
                self.0.len()
            }
        }
    };
}

// Scan-consistency tiers are declared per structure (see `RangeTier`):
// the template trees return VLX-validated snapshots, `lockavl` snapshots
// its persistent root, `rbstm`/`rbglobal` scan under transactions/the
// global lock — all atomic. The skip list's per-key-linearizable scan
// was previously *grandfathered* through the atomic oracle (sequentially
// indistinguishable); it now declares its real tier.
impl_map!(NbBstMap, NbBst<u64, u64>, "nbbst", RangeTier::Atomic);
impl_map!(RelaxedAvlMap, RelaxedAvl<u64, u64>, "ravl", RangeTier::Atomic);
impl_map!(
    SkipListAdapter,
    SkipListMap<u64, u64>,
    "skiplist",
    RangeTier::PerKeyLinearizable
);
impl_map!(
    LockAvlMap,
    lockavl::LockAvl<u64, u64>,
    "lockavl",
    RangeTier::Atomic
);
impl_map!(RbStmMap, RbStm<u64, u64>, "rbstm", RangeTier::Atomic);
impl_map!(RbGlobalMap, RbGlobal<u64, u64>, "rbglobal", RangeTier::Atomic);

/// The `"hashmap"` registry entry: the hopscotch table, unsharded.
///
/// Point ops go straight to [`HopMap`]; `range` is the
/// table's per-key-linearizable sorted drain (declared through
/// [`RangeTier::PerKeyLinearizable`], so the oracles assert exactly
/// that — see `workload::check_against_model`).
pub struct HopShard(HopMap<u64, u64>);

impl Default for HopShard {
    fn default() -> Self {
        HopShard(HopMap::new())
    }
}

impl ConcurrentMap for HopShard {
    fn name(&self) -> &'static str {
        "hashmap"
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
        self.0.sorted_range(&lo, &hi)
    }
    fn range_tier(&self) -> RangeTier {
        RangeTier::PerKeyLinearizable
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

/// Key-stripe latch count of the [`Hybrid`] (a power of two).
const HYBRID_LATCHES: usize = 64;

/// The `"hybrid"` registry entry: one hash tier answering the point ops,
/// dual-written with one chromatic tier that answers ordered scans. The
/// hash tier starts with at least one home bucket per key of the
/// config's key range, so a prefill never grows it; the tree is a lazy
/// tier allowing [`TIER_ALLOWED_VIOLATIONS`].
///
/// # Consistency scope
///
/// Every mutation, batch elements included, takes its key's stripe latch
/// and writes the hash tier first, then the tree, but only when the
/// hash tier's state for the key changed: a remove that found the key,
/// or an insert that displaced `None` or a different value. The latch
/// serializes writers *of the same key* (without it, two racing inserts
/// could commit in opposite orders in the two tiers and leave them
/// permanently disagreeing), so while a key's latch is free the tiers
/// agree on it, and under the latch the hash tier's answer is the tree's
/// state too: a write that changed nothing there has nothing to carry.
/// The tree pays one write per change of a key's state. Point reads take
/// no latch and linearize on the hash tier, which is therefore the
/// authoritative one. `range` reads only the tree tier: its scan is an
/// atomic snapshot *of the tree*, but because a concurrent mutation may
/// have committed to the hash tier and not yet to the tree, the
/// composed structure's scans are **per-key linearizable** — a scan can
/// run slightly behind the point-op truth, never ahead of it and never
/// torn within a key. When the map is quiescent the tiers agree
/// exactly (the dual-write consistency oracle in `tests/cross_crate.rs`
/// asserts this after a settled concurrent run).
pub struct Hybrid {
    hash: HopMap<u64, u64>,
    tree: ChromaticTree<u64, u64>,
    latches: Box<[Mutex<()>]>,
}

impl Hybrid {
    /// An empty hybrid sized for `cfg`'s key range
    /// ([`SuiteConfig::shard_span`]).
    pub fn new(cfg: &SuiteConfig) -> Self {
        Hybrid {
            hash: HopMap::with_capacity(cfg.shard_span() as usize),
            tree: ChromaticTree::with_allowed_violations(TIER_ALLOWED_VIOLATIONS),
            latches: (0..HYBRID_LATCHES).map(|_| Mutex::new(())).collect(),
        }
    }

    /// The map's chromatic tier, read-only: for audits and `Stats` at
    /// quiescence.
    pub fn tree(&self) -> &ChromaticTree<u64, u64> {
        &self.tree
    }

    fn latched<R>(&self, k: u64, f: impl FnOnce() -> R) -> R {
        // Fail-stop on poison: a write that trusted a poisoned stripe's
        // hash answer could skip the tree write that would have repaired
        // the disagreement.
        let _latch = self.latches[(k as usize) & (HYBRID_LATCHES - 1)]
            .lock()
            .expect("hybrid stripe latch poisoned: a tier panicked mid-write, so the tiers may disagree on this stripe");
        f()
    }
}

impl ConcurrentMap for Hybrid {
    fn name(&self) -> &'static str {
        "hybrid"
    }
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        self.latched(k, || {
            let displaced = self.hash.insert(k, v);
            if displaced == Some(v) {
                // Unchanged: the tree already holds (k, v).
                debug_assert_eq!(
                    self.tree.get(&k),
                    displaced,
                    "tiers diverged at insert({k})"
                );
            } else {
                let tree_displaced = self.tree.insert(k, v);
                debug_assert_eq!(displaced, tree_displaced, "tiers diverged at insert({k})");
            }
            displaced
        })
    }
    fn remove(&self, k: &u64) -> Option<u64> {
        self.latched(*k, || {
            let removed = self.hash.remove(k);
            if removed.is_none() {
                // Unchanged: the tree lacks k too.
                debug_assert_eq!(self.tree.get(k), None, "tiers diverged at remove({k})");
            } else {
                let tree_removed = self.tree.remove(k);
                debug_assert_eq!(removed, tree_removed, "tiers diverged at remove({k})");
            }
            removed
        })
    }
    fn get(&self, k: &u64) -> Option<u64> {
        self.hash.get(k) // no latch: reads linearize on the hash tier
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.tree.range(lo..=hi)
    }
    fn range_tier(&self) -> RangeTier {
        // The tree's scan is atomic, but it can lag a mutation committed
        // to the (authoritative) hash tier — per-key linearizable overall.
        RangeTier::PerKeyLinearizable
    }
    fn len(&self) -> usize {
        self.hash.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_writes_reach_the_tree_exactly_when_the_hash_tier_changed() {
        let hybrid = Hybrid::new(&SuiteConfig::default());
        let tree = |hybrid: &Hybrid| hybrid.tree().range(0..=u64::MAX);
        assert_eq!(hybrid.insert(7, 1), None);
        assert_eq!(
            hybrid.insert(7, 1),
            Some(1),
            "equal value: tree write skipped"
        );
        assert_eq!(tree(&hybrid), [(7, 1)]);
        assert_eq!(hybrid.insert(7, 2), Some(1), "changed value: tree written");
        assert_eq!(tree(&hybrid), [(7, 2)]);
        assert_eq!(hybrid.remove(&8), None, "absent key: tree write skipped");
        assert_eq!(tree(&hybrid), [(7, 2)]);
        assert_eq!(hybrid.remove(&7), Some(2));
        assert_eq!(tree(&hybrid), []);
    }

    #[test]
    fn a_hybrid_sized_for_its_key_range_never_grows_its_hash_tier() {
        let hybrid = Hybrid::new(&SuiteConfig::default().for_key_range(1 << 18));
        for k in 0..1u64 << 17 {
            hybrid.insert(2 * k, k);
        }
        assert_eq!(hybrid.len(), 1 << 17);
        assert_eq!(hybrid.hash.resizes(), 0);
    }
}

//! Batch updates (`ChromaticTree::insert_bulk` /
//! `ChromaticTree::remove_bulk`) against the sequential oracle and under
//! concurrency.
//!
//! A batch is its elements' point updates, in input order. The oracles
//! check the per-element results *and* the full structural audit
//! (path-sum equality included) after every scenario, the concurrent
//! tests run batches against each other and against point writers, and
//! one test checks from a concurrent reader that the elements take
//! effect in input order.

use nbtree::ChromaticTree;

/// Sequential oracle: bulk == BTreeMap replay, audit valid. Shared by the
/// unit scenarios and the proptest.
fn check_bulk_against_model(script: &[(bool, Vec<(u64, u64)>)], allowed_violations: u32) {
    use std::collections::BTreeMap;
    let tree = ChromaticTree::with_allowed_violations(allowed_violations);
    let mut model = BTreeMap::new();
    for (as_bulk, batch) in script {
        let expect: Vec<Option<u64>> = batch.iter().map(|&(k, v)| model.insert(k, v)).collect();
        if *as_bulk {
            assert_eq!(tree.insert_bulk(batch), expect, "bulk {batch:?}");
        } else {
            for (i, &(k, v)) in batch.iter().enumerate() {
                assert_eq!(tree.insert(k, v), expect[i], "point insert {k}");
            }
        }
    }
    let contents: Vec<(u64, u64)> = model.into_iter().collect();
    assert_eq!(tree.collect(), contents);
    let report = tree.audit();
    assert!(report.is_valid(), "{:?}", report.errors);
}

/// Mixed-op oracle: each script entry is `(mode % 4, batch)` — bulk
/// insert, point inserts, bulk remove (the batch's keys), point removes —
/// replayed against a `BTreeMap`. After every op the audit must be clean,
/// with the weighted-path-sum invariant explicitly present whenever the
/// dictionary is non-empty.
fn check_mixed_against_model(script: &[(u8, Vec<(u64, u64)>)], allowed_violations: u32) {
    use std::collections::BTreeMap;
    let tree = ChromaticTree::with_allowed_violations(allowed_violations);
    let mut model = BTreeMap::new();
    for (mode, batch) in script {
        match mode % 4 {
            0 => {
                let expect: Vec<Option<u64>> =
                    batch.iter().map(|&(k, v)| model.insert(k, v)).collect();
                assert_eq!(tree.insert_bulk(batch), expect, "insert_bulk {batch:?}");
            }
            1 => {
                for &(k, v) in batch {
                    assert_eq!(tree.insert(k, v), model.insert(k, v), "point insert {k}");
                }
            }
            2 => {
                let keys: Vec<u64> = batch.iter().map(|&(k, _)| k).collect();
                let expect: Vec<Option<u64>> = keys.iter().map(|k| model.remove(k)).collect();
                assert_eq!(tree.remove_bulk(&keys), expect, "remove_bulk {keys:?}");
            }
            _ => {
                for &(k, _) in batch {
                    assert_eq!(tree.remove(&k), model.remove(&k), "point remove {k}");
                }
            }
        }
        let report = tree.audit();
        assert!(
            report.is_valid(),
            "after {mode}/{batch:?}: {:?}",
            report.errors
        );
        if model.is_empty() {
            assert_eq!(report.weighted_path_sum, None, "empty tree has no paths");
        } else {
            assert!(report.weighted_path_sum.is_some(), "path sums must agree");
        }
    }
    let contents: Vec<(u64, u64)> = model.into_iter().collect();
    assert_eq!(tree.collect(), contents);
}

#[test]
fn bulk_batches_interleaved_with_point_inserts_match_model() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(7);
    for k in [0u32, 6] {
        let script: Vec<(bool, Vec<(u64, u64)>)> = (0..40)
            .map(|round| {
                let len = rng.gen_range(0..64usize);
                let batch = (0..len)
                    .map(|i| (rng.gen_range(0..500u64), round * 1000 + i as u64))
                    .collect();
                (rng.gen_bool(0.7), batch)
            })
            .collect();
        check_bulk_against_model(&script, k);
    }
}

#[test]
fn adversarial_shapes_match_model() {
    // Runs of identical keys, a fully ascending run, a descending input,
    // and a batch spanning the whole keyspace after a tight cluster.
    let same: Vec<(u64, u64)> = (0..100).map(|i| (42, i)).collect();
    let asc: Vec<(u64, u64)> = (0..1000).map(|k| (k, k)).collect();
    let desc: Vec<(u64, u64)> = (0..1000).rev().map(|k| (k, k + 1)).collect();
    let cluster: Vec<(u64, u64)> = (0..100)
        .map(|i| (500 + i % 10, i))
        .chain((0..20).map(|i| (i * 1_000_000, i)))
        .collect();
    for k in [0u32, 6] {
        check_bulk_against_model(
            &[
                (true, same.clone()),
                (true, asc.clone()),
                (true, desc.clone()),
                (true, cluster.clone()),
            ],
            k,
        );
    }
}

#[test]
fn adversarial_run_shapes_match_model() {
    // Whole batch destined for one leaf of an empty tree, alternating
    // runs (clusters interleaved with far-away singletons), and full
    // sweeps removing them again.
    let one_leaf: Vec<(u64, u64)> = (0..64).map(|k| (1000 + k, k)).collect();
    let alternating: Vec<(u64, u64)> = (0..8u64)
        .flat_map(|c| {
            let base = c * 10_000;
            (0..8u64)
                .map(move |i| (base + i, c))
                .chain(std::iter::once((base + 5_000, c)))
        })
        .collect();
    for k in [0u32, 6] {
        check_mixed_against_model(
            &[
                (0, one_leaf.clone()),
                (2, one_leaf.clone()),
                (0, alternating.clone()),
                (0, one_leaf.clone()),
                (2, alternating.clone()),
                (2, one_leaf.clone()),
            ],
            k,
        );
    }
}

#[test]
fn runs_straddling_pending_violations_match_model() {
    // Chromatic6 defers rebalancing, so after the ascending point inserts
    // the region is littered with pending violations; the clustered batch
    // then lands on leaves whose paths still carry them, and the removal
    // sweep contracts right through them. Every step re-audits.
    let evens: Vec<(u64, u64)> = (0..100u64).map(|k| (2 * k, k)).collect();
    let odds: Vec<(u64, u64)> = (0..100u64).map(|k| (2 * k + 1, k)).collect();
    let everything: Vec<(u64, u64)> = (0..200u64).map(|k| (k, 0)).collect();
    check_mixed_against_model(&[(1, evens), (0, odds), (2, everything)], 6);
}

mod bulk_proptest {
    use super::*;
    use proptest::prelude::*;

    /// Batches biased toward duplicates and clustered keys (modular
    /// arithmetic — the vendored proptest has no range strategies).
    fn batch_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
        proptest::collection::vec(
            (any::<u64>(), any::<u64>()).prop_map(|(k, v)| (k % 300, v)),
            0..80,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The batch oracle: `insert_bulk` matches `BTreeMap`
        /// sequential input-order application (duplicate keys: last one in
        /// batch order wins), interleaved bulk/point rounds included, and
        /// the tree's structural invariants survive. (The vendored
        /// `proptest!` supports one binding, hence the tuple input.)
        #[test]
        fn sorted_bulk_insert_matches_btreemap(
            input in (
                proptest::collection::vec((any::<bool>(), batch_strategy()), 1..12),
                any::<bool>(),
            )
        ) {
            let (script, allowed) = input;
            check_bulk_against_model(&script, if allowed { 6 } else { 0 });
        }

        /// Clustered batches (runs of consecutive keys over a narrow
        /// keyspace, so whole batches land in few leaves) driven through
        /// bulk/point inserts and removes, every step audit-checked for
        /// path-sum equality by `check_mixed_against_model`.
        #[test]
        fn clustered_run_bulk_ops_match_btreemap(
            input in (
                proptest::collection::vec((any::<u8>(), clustered_batch_strategy()), 1..10),
                any::<bool>(),
            )
        ) {
            let (script, allowed) = input;
            check_mixed_against_model(&script, if allowed { 6 } else { 0 });
        }
    }

    /// Batches made of runs of consecutive keys: a few (base, length)
    /// seeds expanded into `base..=base+len` clusters over a keyspace
    /// narrow enough that runs from different rounds straddle each other
    /// (and any violations a previous round left pending).
    fn clustered_batch_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
        proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>())
                .prop_map(|(base, len, v)| (base % 200, len % 16, v)),
            0..10,
        )
        .prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(base, len, v)| (0..=len).map(move |i| (base + i, v)))
                .collect()
        })
    }
}

#[test]
fn concurrent_bulk_writers_on_disjoint_stripes_settle_exactly() {
    // Each thread bulk-inserts its own key stripe (interleaved mod 4, so
    // consecutive keys of different threads are neighbors in the tree
    // and the writers' updates collide constantly), then removes a
    // deterministic subset with point ops. The final state is exactly
    // predictable.
    use std::collections::BTreeMap;
    use std::sync::Arc;
    let tree = Arc::new(ChromaticTree::<u64, u64>::new());
    std::thread::scope(|s| {
        for tid in 0..4u64 {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                for round in 0..10u64 {
                    let batch: Vec<(u64, u64)> = (0..200u64)
                        .map(|i| ((round * 200 + i) * 4 + tid, round))
                        .collect();
                    tree.insert_bulk(&batch);
                    for &(k, _) in batch.iter().step_by(3) {
                        tree.remove(&k);
                    }
                }
            });
        }
    });
    let mut model = BTreeMap::new();
    for tid in 0..4u64 {
        for round in 0..10u64 {
            let batch: Vec<(u64, u64)> = (0..200u64)
                .map(|i| ((round * 200 + i) * 4 + tid, round))
                .collect();
            for &(k, v) in &batch {
                model.insert(k, v);
            }
            for &(k, _) in batch.iter().step_by(3) {
                model.remove(&k);
            }
        }
    }
    let expect: Vec<(u64, u64)> = model.into_iter().collect();
    assert_eq!(tree.collect(), expect);
    let report = tree.audit();
    assert!(report.is_valid(), "{:?}", report.errors);
}

#[test]
fn concurrent_bulk_writers_on_contended_keys_stay_valid() {
    // All threads bulk-insert overlapping keys while a remover churns:
    // values are racy by design, but every key a bulk claims to have
    // inserted must exist afterwards unless removed, and the structure
    // must audit clean — this is the path where SCX failures make
    // batch elements retry over and over.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let tree = Arc::new(ChromaticTree::<u64, u64>::new());
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..3u64)
            .map(|tid| {
                let tree = Arc::clone(&tree);
                s.spawn(move || {
                    use rand::{rngs::StdRng, Rng, SeedableRng};
                    let mut rng = StdRng::seed_from_u64(tid);
                    for _ in 0..40 {
                        let batch: Vec<(u64, u64)> =
                            (0..128).map(|_| (rng.gen_range(0..256u64), tid)).collect();
                        let results = tree.insert_bulk(&batch);
                        assert_eq!(results.len(), batch.len());
                    }
                })
            })
            .collect();
        {
            let tree = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                use rand::{rngs::StdRng, Rng, SeedableRng};
                let mut rng = StdRng::seed_from_u64(99);
                // RELAXED: stop flag: guards no data; joined before results are read
                while !stop.load(Ordering::Relaxed) {
                    let k = rng.gen_range(0..256u64);
                    tree.remove(&k);
                }
            });
        }
        // The remover churns for as long as the bulk writers run, then is
        // told to stop (before scope exit joins it).
        for w in writers {
            w.join().unwrap();
        }
        // RELAXED: stop flag: guards no data; joined before results are read
        stop.store(true, Ordering::Relaxed);
    });
    let report = tree.audit();
    assert!(report.is_valid(), "{:?}", report.errors);
    // Quiescent sanity: the snapshot is sorted and duplicate-free.
    let snap = tree.collect();
    assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn concurrent_contended_bulk_runs_stay_valid() {
    // Writers bulk-insert overlapping *clustered* batches (consecutive
    // keys that share leaves, so their updates contend directly) while a
    // bulk remover sweeps the same clusters with consecutive keys. A
    // losing update must retry without losing or duplicating elements.
    use std::sync::Arc;
    let tree = Arc::new(ChromaticTree::<u64, u64>::new());
    tree.insert_bulk(&(0..64u64).map(|k| (k, 0)).collect::<Vec<_>>());
    std::thread::scope(|s| {
        for tid in 0..3u64 {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                use rand::{rngs::StdRng, Rng, SeedableRng};
                let mut rng = StdRng::seed_from_u64(tid);
                for _ in 0..30 {
                    let base = rng.gen_range(0..8u64) * 64;
                    let batch: Vec<(u64, u64)> = (base..base + 64).map(|k| (k, tid)).collect();
                    let results = tree.insert_bulk(&batch);
                    assert_eq!(results.len(), batch.len());
                }
            });
        }
        {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                use rand::{rngs::StdRng, Rng, SeedableRng};
                let mut rng = StdRng::seed_from_u64(77);
                for _ in 0..30 {
                    let base = rng.gen_range(0..8u64) * 64;
                    let keys: Vec<u64> = (base..base + 64).collect();
                    let removed = tree.remove_bulk(&keys);
                    assert_eq!(removed.len(), keys.len());
                }
            });
        }
    });
    let report = tree.audit();
    assert!(report.is_valid(), "{:?}", report.errors);
    let snap = tree.collect();
    assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn batch_elements_take_effect_in_input_order() {
    // One writer runs `insert_bulk`, then `remove_bulk`, over a
    // descending key list. A reader sweeps the keys from the batch's last
    // element to its first: once it sees one element take effect, every
    // element read after it comes earlier in the batch and must have
    // taken effect too. A sweep only counts when it started and ended in
    // the same phase.
    use std::sync::atomic::{AtomicU8, Ordering};
    const INSERTING: u8 = 0;
    const REMOVING: u8 = 1;
    const DONE: u8 = 2;
    let keys: Vec<u64> = (0..4096u64).rev().collect();
    let tree = ChromaticTree::<u64, u64>::new();
    let phase = AtomicU8::new(INSERTING);
    std::thread::scope(|s| {
        s.spawn(|| {
            let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
            tree.insert_bulk(&pairs);
            // SEQCST: test phase flag, set after insert_bulk returns: a reader that loads REMOVING
            // sees every insert of the batch
            phase.store(REMOVING, Ordering::SeqCst);
            tree.remove_bulk(&keys);
            // SEQCST: test phase flag, set after remove_bulk returns; ends the reader loop
            phase.store(DONE, Ordering::SeqCst);
        });
        loop {
            // SEQCST: test phase read before a sweep; SC orders it after the writer phase store it
            // observes
            let start = phase.load(Ordering::SeqCst);
            if start == DONE {
                break;
            }
            // Present while inserting, absent while removing.
            let changed = |k: &u64| tree.contains_key(k) == (start == INSERTING);
            let sweep: Vec<bool> = keys.iter().rev().map(changed).collect();
            // SEQCST: test phase re-read after a sweep; an unchanged phase means the whole sweep
            // ran inside that phase
            if phase.load(Ordering::SeqCst) != start {
                continue;
            }
            if let Some(first) = sweep.iter().position(|&c| c) {
                let late = sweep[first..].iter().position(|&c| !c);
                assert!(
                    late.is_none(),
                    "phase {start}: key {} took effect before key {}, which precedes it in the batch",
                    keys[keys.len() - 1 - first],
                    keys[keys.len() - 1 - (first + late.unwrap())],
                );
            }
        }
    });
    assert!(tree.is_empty());
}

//! Stress coverage for descriptor reuse: each thread's one reusable
//! `ScxRecord` (named in `info` words by slot and sequence number) must
//! leave every chromatic-tree invariant intact under heavy update churn,
//! single- and multi-threaded.
//!
//! The key range is kept small so each descriptor is reused for thousands
//! of SCXs on the same few records while other threads help them — the
//! regime where a broken sequence-number check (ABA on `info` fields) or a
//! helper acting on a finished incarnation would corrupt the tree or lose
//! updates.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nbtree::ChromaticTree;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Multi-thread mixed workload, then full structural audit plus a
/// key-by-key sanity pass. Four writers on a 256-key range reuse their
/// descriptors continuously (every insert/delete is a new incarnation).
#[test]
fn pooled_descriptors_survive_multithread_churn() {
    const THREADS: usize = 4;
    const OPS: u64 = 40_000;
    const RANGE: u64 = 256;

    let tree = Arc::new(ChromaticTree::<u64, u64>::new());
    let ticket = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for tid in 0..THREADS {
        let tree = Arc::clone(&tree);
        let ticket = Arc::clone(&ticket);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ tid as u64);
            for _ in 0..OPS {
                let k = rng.gen_range(0..RANGE);
                match rng.gen_range(0..10) {
                    0..=3 => {
                        // Values carry a globally unique ticket so torn or
                        // replayed updates would surface as impossible
                        // values below.
                        let v = ticket.fetch_add(1, Ordering::Relaxed);
                        tree.insert(k, v);
                    }
                    4..=6 => {
                        tree.remove(&k);
                    }
                    _ => {
                        if let Some(v) = tree.get(&k) {
                            assert!(v < u64::MAX / 2, "impossible value {v} read for key {k}");
                        }
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("stress worker panicked");
    }

    let report = tree.audit();
    assert!(
        report.is_valid(),
        "audit failed after descriptor churn: {report:?}"
    );
    // The dictionary must still behave like a map: deterministic follow-up
    // operations on every key.
    let snapshot = tree.collect();
    assert!(
        snapshot.windows(2).all(|w| w[0].0 < w[1].0),
        "keys unsorted"
    );
    for (k, v) in &snapshot {
        assert_eq!(tree.get(k), Some(*v), "snapshot key {k} not readable");
    }
    for k in 0..RANGE {
        tree.remove(&k);
    }
    assert!(tree.is_empty(), "tree not empty after removing every key");
    let report = tree.audit();
    assert!(report.is_valid(), "audit failed after drain: {report:?}");
}

/// Two threads hammer the *same two keys*: every SCX conflicts, so helpers
/// constantly read each other's descriptors while their owners move on to
/// the next incarnation — the tightest window for the sequence-number
/// check. The tree must end valid with only the two keys.
#[test]
fn contended_keys_maximize_descriptor_recycling() {
    const ROUNDS: u64 = 30_000;
    let tree = Arc::new(ChromaticTree::<u64, u64>::new());
    let t1 = {
        let tree = Arc::clone(&tree);
        std::thread::spawn(move || {
            for i in 0..ROUNDS {
                tree.insert(1, i);
                tree.remove(&2);
            }
        })
    };
    let t2 = {
        let tree = Arc::clone(&tree);
        std::thread::spawn(move || {
            for i in 0..ROUNDS {
                tree.insert(2, i);
                tree.remove(&1);
            }
        })
    };
    t1.join().unwrap();
    t2.join().unwrap();

    let report = tree.audit();
    assert!(
        report.is_valid(),
        "audit failed under contention: {report:?}"
    );
    for (k, v) in tree.collect() {
        assert!(k == 1 || k == 2, "phantom key {k}");
        assert!(v < ROUNDS, "phantom value {v}");
    }
}

/// Sequential interleaving against a model with constant descriptor
/// reuse: the single-thread analogue the proptest below randomizes.
#[test]
fn sequential_interleaving_matches_model_under_reuse() {
    let tree = ChromaticTree::<u64, u64>::new();
    let mut model = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(42);
    for step in 0..60_000u64 {
        let k = rng.gen_range(0..128);
        match rng.gen_range(0..3) {
            0 => assert_eq!(tree.insert(k, step), model.insert(k, step)),
            1 => assert_eq!(tree.remove(&k), model.remove(&k)),
            _ => assert_eq!(tree.get(&k), model.get(&k).copied()),
        }
        if step % 8192 == 0 {
            assert!(tree.audit().is_valid(), "audit failed at step {step}");
        }
    }
    assert!(tree.audit().is_valid());
    assert_eq!(
        tree.collect(),
        model.into_iter().collect::<Vec<_>>(),
        "final contents diverge from model"
    );
}

mod reuse_proptest {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u8, u16),
        Remove(u8),
        Get(u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Insert(k % 64, v)),
            any::<u8>().prop_map(|k| Op::Remove(k % 64)),
            any::<u8>().prop_map(|k| Op::Get(k % 64)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arbitrary insert/remove/get interleavings on a tiny key range —
        /// one descriptor serves every SCX of each case — must match
        /// the model exactly and keep every audit invariant (weights,
        /// ordering, leaf orientation). A single ABA on an `info` field
        /// (a stale freezing CAS succeeding against a later incarnation)
        /// would commit a lost or duplicated update and diverge here.
        #[test]
        fn interleavings_preserve_audit_invariants(ops in proptest::collection::vec(op(), 1..600)) {
            let tree = ChromaticTree::<u64, u64>::new();
            let mut model = BTreeMap::new();
            for op in &ops {
                match *op {
                    Op::Insert(k, v) => prop_assert_eq!(
                        tree.insert(k as u64, v as u64),
                        model.insert(k as u64, v as u64)
                    ),
                    Op::Remove(k) => prop_assert_eq!(
                        tree.remove(&(k as u64)),
                        model.remove(&(k as u64))
                    ),
                    Op::Get(k) => prop_assert_eq!(
                        tree.get(&(k as u64)),
                        model.get(&(k as u64)).copied()
                    ),
                }
            }
            let report = tree.audit();
            prop_assert!(report.is_valid(), "audit failed: {:?}", report);
            prop_assert_eq!(
                tree.collect(),
                model.into_iter().collect::<Vec<_>>()
            );
        }
    }
}

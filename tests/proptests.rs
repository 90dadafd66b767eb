//! Property-based tests (proptest): arbitrary operation sequences preserve
//! dictionary semantics and every structural invariant, on every structure.

use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u16),
    Remove(u16),
    Get(u16),
    Successor(u16),
    Predecessor(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u16>()).prop_map(|(k, v)| Op::Insert(k % 512, v)),
        any::<u16>().prop_map(|k| Op::Remove(k % 512)),
        any::<u16>().prop_map(|k| Op::Get(k % 512)),
        any::<u16>().prop_map(|k| Op::Successor(k % 512)),
        any::<u16>().prop_map(|k| Op::Predecessor(k % 512)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The chromatic tree is sequentially equivalent to BTreeMap under any
    /// op sequence, and is a valid violation-free chromatic tree afterward.
    #[test]
    fn chromatic_equals_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let t = nbtree::ChromaticTree::<u64, u64>::new();
        let mut model = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => prop_assert_eq!(t.insert(k as u64, v as u64), model.insert(k as u64, v as u64)),
                Op::Remove(k) => prop_assert_eq!(t.remove(&(k as u64)), model.remove(&(k as u64))),
                Op::Get(k) => prop_assert_eq!(t.get(&(k as u64)), model.get(&(k as u64)).copied()),
                Op::Successor(k) => {
                    let expect = model.range(k as u64 + 1..).next().map(|(a, b)| (*a, *b));
                    prop_assert_eq!(t.successor(&(k as u64)), expect);
                }
                Op::Predecessor(k) => {
                    let expect = model.range(..k as u64).next_back().map(|(a, b)| (*a, *b));
                    prop_assert_eq!(t.predecessor(&(k as u64)), expect);
                }
            }
        }
        let report = t.audit();
        prop_assert!(report.is_valid(), "errors: {:?}", report.errors);
        prop_assert_eq!(report.violations(), 0);
        let contents = t.collect();
        let expect: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(contents, expect);
    }

    /// Same with cleanup deferred (Chromatic6): structure must stay valid;
    /// violations may remain but are bounded by the updates performed.
    #[test]
    fn chromatic6_stays_valid(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let t = nbtree::ChromaticTree::<u64, u64>::with_allowed_violations(6);
        let mut model = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => prop_assert_eq!(t.insert(k as u64, v as u64), model.insert(k as u64, v as u64)),
                Op::Remove(k) => prop_assert_eq!(t.remove(&(k as u64)), model.remove(&(k as u64))),
                _ => {}
            }
        }
        let report = t.audit();
        prop_assert!(report.is_valid(), "errors: {:?}", report.errors);
        prop_assert!(report.violations() <= ops.len());
    }

    /// The template-driven plain BST has identical map semantics.
    #[test]
    fn nbbst_equals_model(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let t = nbbst::NbBst::<u64, u64>::new();
        let mut model = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => prop_assert_eq!(t.insert(k as u64, v as u64), model.insert(k as u64, v as u64)),
                Op::Remove(k) => prop_assert_eq!(t.remove(&(k as u64)), model.remove(&(k as u64))),
                Op::Get(k) => prop_assert_eq!(t.get(&(k as u64)), model.get(&(k as u64)).copied()),
                _ => {}
            }
        }
        prop_assert_eq!(t.collect(), model.into_iter().collect::<Vec<_>>());
    }

    /// Baselines: skip list, lock-AVL, STM RBT, global-lock RBT all agree
    /// with the model (and with each other, transitively), and the three
    /// trees keep their invariants.
    #[test]
    fn baselines_equal_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let sl = nbskiplist::SkipListMap::<u64, u64>::new();
        let avl = lockavl::LockAvl::<u64, u64>::new();
        let stm = tinystm::RbStm::<u64, u64>::new();
        let glb = seqrbt::RbGlobal::<u64, u64>::new();
        let mut model = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let expect = model.insert(k as u64, v as u64);
                    prop_assert_eq!(sl.insert(k as u64, v as u64), expect);
                    prop_assert_eq!(avl.insert(k as u64, v as u64), expect);
                    prop_assert_eq!(stm.insert(k as u64, v as u64), expect);
                    prop_assert_eq!(glb.insert(k as u64, v as u64), expect);
                }
                Op::Remove(k) => {
                    let expect = model.remove(&(k as u64));
                    prop_assert_eq!(sl.remove(&(k as u64)), expect);
                    prop_assert_eq!(avl.remove(&(k as u64)), expect);
                    prop_assert_eq!(stm.remove(&(k as u64)), expect);
                    prop_assert_eq!(glb.remove(&(k as u64)), expect);
                }
                Op::Get(k) => {
                    let expect = model.get(&(k as u64)).copied();
                    prop_assert_eq!(sl.get(&(k as u64)), expect);
                    prop_assert_eq!(avl.get(&(k as u64)), expect);
                    prop_assert_eq!(stm.get(&(k as u64)), expect);
                    prop_assert_eq!(glb.get(&(k as u64)), expect);
                }
                Op::Successor(k) => {
                    let expect = model.range(k as u64 + 1..).next().map(|(a, b)| (*a, *b));
                    prop_assert_eq!(sl.successor(&(k as u64)), expect);
                    prop_assert_eq!(avl.successor(&(k as u64)), expect);
                    prop_assert_eq!(stm.successor(&(k as u64)), expect);
                    prop_assert_eq!(glb.successor(&(k as u64)), expect);
                }
                Op::Predecessor(k) => {
                    let expect = model.range(..k as u64).next_back().map(|(a, b)| (*a, *b));
                    prop_assert_eq!(sl.predecessor(&(k as u64)), expect);
                    prop_assert_eq!(avl.predecessor(&(k as u64)), expect);
                    prop_assert_eq!(stm.predecessor(&(k as u64)), expect);
                    prop_assert_eq!(glb.predecessor(&(k as u64)), expect);
                }
            }
        }
        avl.check_invariants().map_err(TestCaseError::fail)?;
        stm.check_invariants().map_err(TestCaseError::fail)?;
        glb.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// The sequential red-black tree keeps its invariants under any
    /// sequence (black-height equality, no red-red, BST order).
    #[test]
    fn seqrbt_invariants(ops in proptest::collection::vec(op_strategy(), 1..500)) {
        let mut t = seqrbt::RbTree::<u64, u64>::new();
        let mut model = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => { prop_assert_eq!(t.insert(k as u64, v as u64), model.insert(k as u64, v as u64)); }
                Op::Remove(k) => { prop_assert_eq!(t.remove(&(k as u64)), model.remove(&(k as u64))); }
                _ => {}
            }
        }
        t.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(t.collect(), model.into_iter().collect::<Vec<_>>());
    }
}

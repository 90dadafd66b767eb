//! Linearizability stress tests for the VLX-validated range scan.
//!
//! The load-bearing check is the **pair invariant**: each writer owns
//! disjoint key pairs `(x, y)` placed far apart in key space and cycles
//! them through `insert(y); remove(x); insert(x); remove(y)` — so at every
//! instant *at least one* member of each pair is present. An atomic
//! snapshot must therefore contain ≥ 1 member of every pair. A non-atomic
//! scan (read x's region while only y is present, then y's region after y
//! was removed and x re-inserted) can observe a pair as wholly absent —
//! exactly the anomaly the VLX validation must rule out. The same harness
//! runs against every tree that shares the scan (`chromatic`, `nbbst`,
//! `ravl`).
//!
//! Alongside it: every returned snapshot must be strictly sorted,
//! duplicate-free, contain all never-touched permanent keys in range, and
//! contain no key that was never inserted; at quiescence the scan must
//! agree with the sequential in-order oracle (`audit_range`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nbtree::ChromaticTree;

/// The minimal map surface the harness needs, implemented by all three
/// template trees (a local trait avoids a dev-dependency cycle with the
/// `workload` crate).
trait RangeMap: Send + Sync + 'static {
    fn new_map() -> Self;
    fn insert(&self, k: u64, v: u64);
    fn remove(&self, k: &u64);
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)>;
}

impl RangeMap for ChromaticTree<u64, u64> {
    fn new_map() -> Self {
        ChromaticTree::new()
    }
    fn insert(&self, k: u64, v: u64) {
        ChromaticTree::insert(self, k, v);
    }
    fn remove(&self, k: &u64) {
        ChromaticTree::remove(self, k);
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        ChromaticTree::range(self, lo..=hi)
    }
}

impl RangeMap for nbbst::NbBst<u64, u64> {
    fn new_map() -> Self {
        nbbst::NbBst::new()
    }
    fn insert(&self, k: u64, v: u64) {
        nbbst::NbBst::insert(self, k, v);
    }
    fn remove(&self, k: &u64) {
        nbbst::NbBst::remove(self, k);
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        nbbst::NbBst::range(self, lo..=hi)
    }
}

impl RangeMap for ravl::RelaxedAvl<u64, u64> {
    fn new_map() -> Self {
        ravl::RelaxedAvl::new()
    }
    fn insert(&self, k: u64, v: u64) {
        ravl::RelaxedAvl::insert(self, k, v);
    }
    fn remove(&self, k: &u64) {
        ravl::RelaxedAvl::remove(self, k);
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        ravl::RelaxedAvl::range(self, lo..=hi)
    }
}

/// Pair layout: pair `i` is `(base(i), base(i) + SPREAD)` with `SPREAD`
/// large so the two members sit far apart in the scanned interval and a
/// torn scan has a wide window to miss both. Permanent keys interleave at
/// `base(i) + 1`.
const PAIRS: u64 = 24;
const SPREAD: u64 = 1000;
const STRIDE: u64 = 2 * SPREAD + 100;

fn pair_lo(i: u64) -> u64 {
    i * STRIDE
}
fn pair_hi(i: u64) -> u64 {
    i * STRIDE + SPREAD
}
fn permanent(i: u64) -> u64 {
    i * STRIDE + 1
}
const SPAN: u64 = PAIRS * STRIDE + SPREAD + 1;

fn scans() -> usize {
    // TSan (and debug builds generally) slow each scan down enormously;
    // keep the iteration count modest so the whole suite stays in budget.
    if cfg!(debug_assertions) {
        150
    } else {
        400
    }
}

fn check_snapshot(snap: &[(u64, u64)], lo: u64, hi: u64) {
    // Strictly sorted (implies duplicate-free) and inside the query.
    for w in snap.windows(2) {
        assert!(
            w[0].0 < w[1].0,
            "snapshot not strictly sorted: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    assert!(
        snap.iter().all(|(k, _)| (lo..=hi).contains(k)),
        "snapshot leaked keys outside [{lo}, {hi}]"
    );
    // No phantom keys: everything is a pair member or a permanent key.
    for (k, _) in snap {
        let i = k / STRIDE;
        assert!(
            *k == pair_lo(i) || *k == pair_hi(i) || *k == permanent(i),
            "phantom key {k} was never inserted"
        );
    }
    for i in 0..PAIRS {
        // Permanent keys: always present when fully covered by the query.
        if lo <= permanent(i) && permanent(i) <= hi {
            assert!(
                snap.binary_search_by_key(&permanent(i), |(k, _)| *k)
                    .is_ok(),
                "permanent key {} missing from [{lo}, {hi}]",
                permanent(i)
            );
        }
        // THE linearizability check: a pair wholly inside the query must
        // have at least one member in an atomic snapshot.
        if lo <= pair_lo(i) && pair_hi(i) <= hi {
            let has_lo = snap.binary_search_by_key(&pair_lo(i), |(k, _)| *k).is_ok();
            let has_hi = snap.binary_search_by_key(&pair_hi(i), |(k, _)| *k).is_ok();
            assert!(
                has_lo || has_hi,
                "pair {i} ({}, {}) wholly absent from snapshot of [{lo}, {hi}]: \
                 the scan was not atomic",
                pair_lo(i),
                pair_hi(i)
            );
        }
    }
}

fn pair_invariant_stress<M: RangeMap>() {
    let map = Arc::new(M::new_map());
    for i in 0..PAIRS {
        map.insert(permanent(i), i);
        map.insert(pair_lo(i), i); // start state: x present, y absent
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writers = 2u64;
    let scanners = 2u64;
    std::thread::scope(|s| {
        for w in 0..writers {
            let map = Arc::clone(&map);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                // Each writer owns the pairs with i % writers == w, so the
                // pair invariant (≥ 1 member present) is single-writer
                // exact: insert the absent member before removing the
                // present one.
                let mut present_lo = vec![true; PAIRS as usize];
                // RELAXED: stop flag: guards no data; joined before results are read
                while !stop.load(Ordering::Relaxed) {
                    for i in (w..PAIRS).step_by(writers as usize) {
                        let (add, del) = if present_lo[i as usize] {
                            (pair_hi(i), pair_lo(i))
                        } else {
                            (pair_lo(i), pair_hi(i))
                        };
                        map.insert(add, i);
                        map.remove(&del);
                        present_lo[i as usize] = !present_lo[i as usize];
                    }
                }
            });
        }
        // Scanners bound the test; writers churn until all scanners have
        // spent their budget, then get stopped.
        let scan_handles: Vec<_> = (0..scanners)
            .map(|t| {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    use rand::{rngs::StdRng, Rng, SeedableRng};
                    let mut rng = StdRng::seed_from_u64(900 + t);
                    for round in 0..scans() {
                        let (lo, hi) = if round % 3 == 0 {
                            (0, SPAN) // whole-universe scan
                        } else {
                            // Random window aligned to cover whole pairs.
                            let a = rng.gen_range(0..PAIRS);
                            let b = rng.gen_range(a..PAIRS);
                            (a * STRIDE, b * STRIDE + SPREAD)
                        };
                        let snap = map.range(lo, hi);
                        check_snapshot(&snap, lo, hi);
                    }
                })
            })
            .collect();
        // Stop the writers BEFORE propagating a scanner failure: the
        // writers poll `stop`, so panicking first would leave them spinning
        // and turn a failed assertion into a deadlocked test run.
        let results: Vec<_> = scan_handles.into_iter().map(|h| h.join()).collect();
        // RELAXED: stop flag: guards no data; joined before results are read
        stop.store(true, Ordering::Relaxed);
        for r in results {
            if let Err(panic) = r {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[test]
fn chromatic_range_snapshots_are_atomic() {
    pair_invariant_stress::<ChromaticTree<u64, u64>>();
}

#[test]
fn nbbst_range_snapshots_are_atomic() {
    pair_invariant_stress::<nbbst::NbBst<u64, u64>>();
}

#[test]
fn ravl_range_snapshots_are_atomic() {
    pair_invariant_stress::<ravl::RelaxedAvl<u64, u64>>();
}

/// After the storm: the scan agrees with the sequential in-order oracle,
/// and the structural audit is clean.
#[test]
fn range_agrees_with_oracle_at_quiescence() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let t = Arc::new(ChromaticTree::<u64, u64>::new());
    std::thread::scope(|s| {
        for tid in 0..4u64 {
            let t = Arc::clone(&t);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(tid);
                for step in 0..20_000u64 {
                    let k = rng.gen_range(0..2048);
                    if step % 3 == 0 {
                        t.remove(&k);
                    } else {
                        t.insert(k, step);
                    }
                }
            });
        }
    });
    let report = t.audit();
    assert!(report.is_valid(), "{:?}", report.errors);
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..64 {
        let lo = rng.gen_range(0..2048u64);
        let hi = lo + rng.gen_range(0..512u64);
        t.audit_range(&lo, &hi).expect("scan/oracle divergence");
    }
    // Degenerate intervals.
    t.audit_range(&0, &0).unwrap();
    t.audit_range(&5000, &6000).unwrap();
}

/// Retry accounting: the stats count every scan, and a scan of a
/// quiescent tree validates on its first attempt.
#[test]
fn range_stats_count_every_scan() {
    let t = ChromaticTree::<u64, u64>::new();
    for k in 0..512u64 {
        t.insert(k, k);
    }
    let before = t.stats().range_queries();
    assert_eq!(t.range(100..=199).len(), 100);
    assert_eq!(t.range(..).len(), 512);
    assert_eq!(t.stats().range_queries(), before + 2);
    assert_eq!(t.stats().range_retries(), 0);
}

/// Negative control: a deliberately torn scan (two half-scans stitched
/// together) must FAIL the pair invariant — proves the harness has teeth.
/// Trips within the first few scans in practice; 50 harness runs make the
/// "never observed a tear" outcome astronomically unlikely.
struct TornScan(ChromaticTree<u64, u64>);
impl RangeMap for TornScan {
    fn new_map() -> Self {
        TornScan(ChromaticTree::new())
    }
    fn insert(&self, k: u64, v: u64) {
        self.0.insert(k, v);
    }
    fn remove(&self, k: &u64) {
        self.0.remove(k);
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mid = lo + (hi - lo) / 2;
        let mut out = self.0.range(lo..mid);
        std::thread::yield_now();
        out.extend(self.0.range(mid..=hi));
        out
    }
}

#[test]
#[should_panic(expected = "wholly absent")]
fn torn_scan_fails_the_pair_invariant() {
    for _ in 0..50 {
        pair_invariant_stress::<TornScan>();
    }
}

//! `RBSTM`: a red-black tree where every operation is one coarse
//! transaction (the paper's STM baseline, §6).
//!
//! Nodes live in an append-only arena of [`TVar`] cells addressed by `u32`.
//! Each operation runs `seqrbt`'s CLRS code ([`seqrbt::clrs`]) unmodified
//! inside a transaction, through a store whose every node read and write is
//! a transactional read or write of a whole cell. An update therefore
//! reads the entire root-to-leaf path into its read set — precisely the
//! coarse-transaction behaviour that makes STM dictionaries abort each
//! other under contention and pay instrumentation costs without it.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use seqrbt::clrs::{self, Links, Node, Store, NIL};

use crate::tl2::{atomically, Retry, TVar, Tx};

/// One arena cell: a tree node, or `None` for an unused slot.
type Cell<K, V> = Option<Node<K, V>>;

/// The transactional cell arena: index-addressed so tree links are `u32`s.
type Arena<K, V> = RwLock<Vec<Arc<TVar<Cell<K, V>>>>>;

const LIVE: &str = "link to an unused cell";

/// A concurrent ordered map: sequential red-black tree algorithms executed
/// under TL2 transactions.
pub struct RbStm<K, V> {
    arena: Arena<K, V>,
    root: Arc<TVar<u32>>,
    free: Mutex<Vec<u32>>,
}

/// One transaction attempt's view of an [`RbStm`]: the store the shared
/// algorithms run through.
struct TxStore<'a, K, V> {
    map: &'a RbStm<K, V>,
    tx: RefCell<&'a mut Tx>,
    /// The node `node` read last, which a `pair` of the same node reuses
    /// so that a lookup reads the node it finds once.
    last: RefCell<Option<(u32, Node<K, V>)>>,
    /// The slot reserved for an insert, until `alloc` fills it.
    fresh: Option<u32>,
    /// The slot `free` emptied.
    freed: Option<u32>,
}

impl<K, V> TxStore<'_, K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn read(&self, i: u32) -> Result<Cell<K, V>, Retry> {
        self.tx.borrow_mut().read(&self.map.cell(i))
    }

    /// Reads cell `i`, lets `f` change it and writes it back. Forgets the
    /// node `node` read last, which the write may change.
    fn modify<R>(&mut self, i: u32, f: impl FnOnce(&mut Cell<K, V>) -> R) -> Result<R, Retry> {
        self.last.get_mut().take();
        let cell = self.map.cell(i);
        let tx = self.tx.get_mut();
        let mut c = tx.read(&cell)?;
        let r = f(&mut c);
        tx.write(&cell, c);
        Ok(r)
    }
}

impl<K, V> Store for TxStore<'_, K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    type Key = K;
    type Value = V;
    type Stop = Retry;

    fn root(&self) -> Result<u32, Retry> {
        self.tx.borrow_mut().read(&self.map.root)
    }

    fn node<R>(&self, i: u32, f: impl FnOnce(&K, Links) -> R) -> Result<R, Retry> {
        let n = self.read(i)?.expect(LIVE);
        let r = f(&n.key, n.links);
        *self.last.borrow_mut() = Some((i, n));
        Ok(r)
    }

    fn pair(&self, i: u32) -> Result<(K, V), Retry> {
        let n = match self.last.borrow_mut().take() {
            Some((j, n)) if j == i => n,
            _ => self.read(i)?.expect(LIVE),
        };
        Ok((n.key, n.value))
    }

    fn set_root(&mut self, i: u32) {
        self.tx.get_mut().write(&self.map.root, i);
    }

    fn update<R>(&mut self, i: u32, f: impl FnOnce(&mut Links) -> R) -> Result<R, Retry> {
        self.modify(i, |c| f(&mut c.as_mut().expect(LIVE).links))
    }

    fn replace(&mut self, i: u32, value: V) -> Result<V, Retry> {
        self.modify(i, |c| {
            std::mem::replace(&mut c.as_mut().expect(LIVE).value, value)
        })
    }

    fn alloc(&mut self, node: Node<K, V>) -> u32 {
        let i = self.fresh.take().expect("insert reserved no slot");
        self.tx.get_mut().write(&self.map.cell(i), Some(node));
        i
    }

    fn free(&mut self, i: u32) -> Result<V, Retry> {
        self.freed = Some(i);
        self.modify(i, |c| c.take().expect(LIVE).value)
    }
}

impl<K, V> Default for RbStm<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> RbStm<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// An empty map.
    pub fn new() -> Self {
        RbStm {
            arena: RwLock::new(Vec::new()),
            root: TVar::new(NIL),
            free: Mutex::new(Vec::new()),
        }
    }

    fn cell(&self, i: u32) -> Arc<TVar<Cell<K, V>>> {
        self.arena.read().unwrap_or_else(PoisonError::into_inner)[i as usize].clone()
    }

    fn free_slots(&self) -> std::sync::MutexGuard<'_, Vec<u32>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A slot for an insert, taken outside the transaction so retries
    /// reuse it.
    fn reserve(&self) -> u32 {
        if let Some(i) = self.free_slots().pop() {
            return i;
        }
        let mut arena = self.arena.write().unwrap_or_else(PoisonError::into_inner);
        arena.push(TVar::new(None));
        (arena.len() - 1) as u32
    }

    /// Runs `op` as one transaction over the tree, with `fresh` reserved
    /// for an insert. After the commit, returns the slot the operation
    /// freed, or the reserved one if it went unused, to the free list.
    fn run<R>(
        &self,
        fresh: Option<u32>,
        mut op: impl FnMut(&mut TxStore<'_, K, V>) -> Result<R, Retry>,
    ) -> R {
        let (result, unused, freed) = atomically(|tx| {
            let mut s = TxStore {
                map: self,
                tx: RefCell::new(tx),
                last: RefCell::new(None),
                fresh,
                freed: None,
            };
            let result = op(&mut s)?;
            Ok((result, s.fresh, s.freed))
        });
        self.free_slots().extend(unused.into_iter().chain(freed));
        result
    }

    /// Looks up `key`.
    pub fn get(&self, key: &K) -> Option<V> {
        self.run(None, |s| {
            let found = clrs::find(s, key)?;
            found.map(|i| Ok(s.pair(i)?.1)).transpose()
        })
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    fn neighbour(&self, key: &K, toward: Ordering) -> Option<(K, V)> {
        self.run(None, |s| {
            let found = clrs::neighbour(s, key, toward)?;
            found.map(|i| s.pair(i)).transpose()
        })
    }

    /// Smallest key strictly greater than `key`.
    pub fn successor(&self, key: &K) -> Option<(K, V)> {
        self.neighbour(key, Ordering::Greater)
    }

    /// Largest key strictly smaller than `key`.
    pub fn predecessor(&self, key: &K) -> Option<(K, V)> {
        self.neighbour(key, Ordering::Less)
    }

    /// Inserts `key → value`; returns the previous value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        let fresh = self.reserve();
        self.run(Some(fresh), |s| clrs::insert(s, key.clone(), value.clone()))
    }

    /// Removes `key`; returns its value.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.run(None, |s| clrs::remove(s, key))
    }

    /// Number of keys (one read-only transaction).
    pub fn len(&self) -> usize {
        self.range(..).len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.run(None, |s| Ok(s.root()? == NIL))
    }

    /// Sorted snapshot of the contents (one transaction: a true atomic
    /// snapshot, unlike the lock-free structures' traversals).
    pub fn collect(&self) -> Vec<(K, V)> {
        self.range(..)
    }

    /// All pairs with keys in `bounds`, sorted. One read-only transaction,
    /// so the result is an atomic snapshot (the TL2 read-set validation
    /// plays the role the VLX plays for the template trees); the pruned
    /// walk keeps the read set proportional to the result size plus the
    /// boundary paths, not the whole tree.
    pub fn range<B: std::ops::RangeBounds<K>>(&self, bounds: B) -> Vec<(K, V)> {
        self.run(None, |s| clrs::range(s, &bounds))
    }

    /// Checks the red-black invariants ([`clrs::check`]) in one read-only
    /// transaction; returns the black height or an error description.
    pub fn check_invariants(&self) -> Result<usize, String> {
        self.run(None, |s| clrs::check(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn basics() {
        let t = RbStm::new();
        assert_eq!(t.insert(1, 10), None);
        assert_eq!(t.insert(1, 11), Some(10));
        assert_eq!(t.get(&1), Some(11));
        assert_eq!(t.remove(&1), Some(11));
        assert_eq!(t.remove(&1), None);
        assert!(t.is_empty());
    }

    #[test]
    fn random_against_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let t = RbStm::new();
        let mut model = BTreeMap::new();
        for step in 0..6000u64 {
            let k = rng.gen_range(0..300u64);
            match rng.gen_range(0..3) {
                0 => assert_eq!(t.insert(k, step), model.insert(k, step)),
                1 => assert_eq!(t.remove(&k), model.remove(&k)),
                _ => assert_eq!(t.get(&k), model.get(&k).copied()),
            }
            if step % 512 == 0 {
                t.check_invariants().unwrap();
            }
        }
        t.check_invariants().unwrap();
        assert_eq!(t.collect(), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn successor_and_predecessor() {
        let t = RbStm::new();
        for k in [5u64, 10, 15] {
            t.insert(k, k);
        }
        assert_eq!(t.successor(&5), Some((10, 10)));
        assert_eq!(t.predecessor(&5), None);
        assert_eq!(t.predecessor(&20), Some((15, 15)));
    }

    #[test]
    fn range_matches_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(47);
        let t = RbStm::new();
        let mut model = BTreeMap::new();
        for step in 0..1500u64 {
            let k = rng.gen_range(0..200u64);
            if rng.gen_bool(0.7) {
                t.insert(k, step);
                model.insert(k, step);
            } else {
                t.remove(&k);
                model.remove(&k);
            }
            let lo = rng.gen_range(0..200u64);
            let hi = lo + rng.gen_range(0..48u64);
            let expect: Vec<_> = model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(t.range(lo..=hi), expect, "[{lo}, {hi}]");
        }
        assert_eq!(t.range(..), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_stripes() {
        use std::sync::Arc;
        let t = Arc::new(RbStm::new());
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    let base = tid * 500;
                    for i in 0..500 {
                        assert_eq!(t.insert(base + i, i), None);
                    }
                    for i in (0..500).step_by(2) {
                        assert_eq!(t.remove(&(base + i)), Some(i));
                    }
                });
            }
        });
        assert_eq!(t.len(), 4 * 250);
        t.check_invariants().unwrap();
        let snap = t.collect();
        for w in snap.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn concurrent_shared_contention() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::sync::Arc;
        let t = Arc::new(RbStm::new());
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(tid);
                    for i in 0..3000u64 {
                        let k = rng.gen_range(0..32u64);
                        if i % 2 == 0 {
                            t.insert(k, i);
                        } else {
                            t.remove(&k);
                        }
                    }
                });
            }
        });
        t.check_invariants().unwrap();
        let snap = t.collect();
        for w in snap.windows(2) {
            assert!(w[0].0 < w[1].0, "BST order broken: {:?}", snap);
        }
        assert!(snap.iter().all(|(k, _)| *k < 32));
    }

    #[test]
    fn removed_entries_are_dropped() {
        let value = Arc::new(7u64);
        let t = RbStm::new();
        t.insert(1u64, Arc::clone(&value));
        t.insert(2, Arc::new(8));
        drop(t.remove(&1));
        assert_eq!(Arc::strong_count(&value), 1);
    }
}

//! `RBSTM`: a red-black tree where every operation is one coarse
//! transaction (the paper's STM baseline, §6).
//!
//! Nodes live in an append-only arena of [`TVar`] cells addressed by `u32`;
//! the sequential CLRS insert/delete algorithms run unmodified inside a
//! transaction, reading and writing whole node cells. An update therefore
//! reads the entire root-to-leaf path into its read set — precisely the
//! coarse-transaction behaviour that makes STM dictionaries abort each
//! other under contention and pay instrumentation costs without it.

use std::sync::Arc;

use std::sync::{Mutex, PoisonError, RwLock};

use crate::tl2::{atomically, Retry, TVar, Tx};

const NIL: u32 = u32::MAX;

/// One arena cell: a red-black tree node (or an unused slot).
#[derive(Clone)]
pub(crate) struct Cell<K, V> {
    key: Option<K>,
    value: Option<V>,
    left: u32,
    right: u32,
    parent: u32,
    red: bool,
}

impl<K, V> Cell<K, V> {
    fn free() -> Self {
        Cell {
            key: None,
            value: None,
            left: NIL,
            right: NIL,
            parent: NIL,
            red: false,
        }
    }
}

/// The transactional cell arena: index-addressed so tree links are `u32`s.
type Arena<K, V> = RwLock<Vec<Arc<TVar<Cell<K, V>>>>>;

/// A concurrent ordered map: sequential red-black tree algorithms executed
/// under TL2 transactions.
pub struct RbStm<K, V> {
    arena: Arena<K, V>,
    root: Arc<TVar<u32>>,
    free: Mutex<Vec<u32>>,
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

    fn read(&self, tx: &mut Tx, i: u32) -> Result<Cell<K, V>, Retry> {
        tx.read(&self.cell(i))
    }

    fn write(&self, tx: &mut Tx, i: u32, c: Cell<K, V>) {
        tx.write(&self.cell(i), c);
    }

    fn is_red(&self, tx: &mut Tx, i: u32) -> Result<bool, Retry> {
        if i == NIL {
            Ok(false)
        } else {
            Ok(self.read(tx, i)?.red)
        }
    }

    fn alloc(&self) -> u32 {
        if let Some(i) = self
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
        {
            return i;
        }
        let mut arena = self.arena.write().unwrap_or_else(PoisonError::into_inner);
        arena.push(TVar::new(Cell::free()));
        (arena.len() - 1) as u32
    }

    fn release(&self, i: u32) {
        self.free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(i);
    }

    /// Rotate around `x` (`dir = 0`: left, `dir = 1`: right), updating
    /// parent pointers; transactional port of the sequential rotation.
    fn rotate(&self, tx: &mut Tx, x: u32, dir: usize) -> Result<(), Retry> {
        let mut xc = self.read(tx, x)?;
        let y = if dir == 0 { xc.right } else { xc.left };
        let mut yc = self.read(tx, y)?;
        let y_inner = if dir == 0 { yc.left } else { yc.right };
        if dir == 0 {
            xc.right = y_inner;
        } else {
            xc.left = y_inner;
        }
        if y_inner != NIL {
            let mut ic = self.read(tx, y_inner)?;
            ic.parent = x;
            self.write(tx, y_inner, ic);
        }
        yc.parent = xc.parent;
        if xc.parent == NIL {
            tx.write(&self.root, y);
        } else {
            let p = xc.parent;
            let mut pc = self.read(tx, p)?;
            if pc.left == x {
                pc.left = y;
            } else {
                pc.right = y;
            }
            self.write(tx, p, pc);
        }
        if dir == 0 {
            yc.left = x;
        } else {
            yc.right = x;
        }
        xc.parent = y;
        self.write(tx, x, xc);
        self.write(tx, y, yc);
        Ok(())
    }

    /// Looks up `key`.
    pub fn get(&self, key: &K) -> Option<V> {
        atomically(|tx| {
            let mut cur = tx.read(&self.root)?;
            while cur != NIL {
                let c = self.read(tx, cur)?;
                match key.cmp(c.key.as_ref().expect("live node has key")) {
                    std::cmp::Ordering::Less => cur = c.left,
                    std::cmp::Ordering::Greater => cur = c.right,
                    std::cmp::Ordering::Equal => return Ok(c.value),
                }
            }
            Ok(None)
        })
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Smallest key strictly greater than `key`.
    pub fn successor(&self, key: &K) -> Option<(K, V)> {
        atomically(|tx| {
            let mut cur = tx.read(&self.root)?;
            let mut best = None;
            while cur != NIL {
                let c = self.read(tx, cur)?;
                let k = c.key.as_ref().expect("live node has key");
                if k > key {
                    best = Some((k.clone(), c.value.clone().unwrap()));
                    cur = c.left;
                } else {
                    cur = c.right;
                }
            }
            Ok(best)
        })
    }

    /// Largest key strictly smaller than `key`.
    pub fn predecessor(&self, key: &K) -> Option<(K, V)> {
        atomically(|tx| {
            let mut cur = tx.read(&self.root)?;
            let mut best = None;
            while cur != NIL {
                let c = self.read(tx, cur)?;
                let k = c.key.as_ref().expect("live node has key");
                if k < key {
                    best = Some((k.clone(), c.value.clone().unwrap()));
                    cur = c.right;
                } else {
                    cur = c.left;
                }
            }
            Ok(best)
        })
    }

    /// Inserts `key → value`; returns the previous value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        // Pre-allocate outside the transaction so retries reuse the slot.
        let fresh = self.alloc();
        let (old, used) = atomically(|tx| {
            let mut parent = NIL;
            let mut cur = tx.read(&self.root)?;
            while cur != NIL {
                parent = cur;
                let c = self.read(tx, cur)?;
                match key.cmp(c.key.as_ref().expect("live node has key")) {
                    std::cmp::Ordering::Less => cur = c.left,
                    std::cmp::Ordering::Greater => cur = c.right,
                    std::cmp::Ordering::Equal => {
                        let mut c2 = c.clone();
                        let old = c2.value.replace(value.clone());
                        self.write(tx, cur, c2);
                        return Ok((old, false));
                    }
                }
            }
            self.write(
                tx,
                fresh,
                Cell {
                    key: Some(key.clone()),
                    value: Some(value.clone()),
                    left: NIL,
                    right: NIL,
                    parent,
                    red: true,
                },
            );
            if parent == NIL {
                tx.write(&self.root, fresh);
            } else {
                let mut pc = self.read(tx, parent)?;
                if &key < pc.key.as_ref().expect("live node has key") {
                    pc.left = fresh;
                } else {
                    pc.right = fresh;
                }
                self.write(tx, parent, pc);
            }
            self.insert_fixup(tx, fresh)?;
            Ok((None, true))
        });
        if !used {
            self.release(fresh);
        }
        old
    }

    fn insert_fixup(&self, tx: &mut Tx, mut z: u32) -> Result<(), Retry> {
        loop {
            let zc = self.read(tx, z)?;
            let zp = zc.parent;
            if zp == NIL || !self.is_red(tx, zp)? {
                break;
            }
            let zpc = self.read(tx, zp)?;
            let zpp = zpc.parent;
            // A red node always has a (black) grandparent: the root is black.
            let zppc = self.read(tx, zpp)?;
            let parent_is_left = zppc.left == zp;
            let uncle = if parent_is_left {
                zppc.right
            } else {
                zppc.left
            };
            if self.is_red(tx, uncle)? {
                let mut a = self.read(tx, zp)?;
                a.red = false;
                self.write(tx, zp, a);
                let mut b = self.read(tx, uncle)?;
                b.red = false;
                self.write(tx, uncle, b);
                let mut c = self.read(tx, zpp)?;
                c.red = true;
                self.write(tx, zpp, c);
                z = zpp;
            } else {
                let mut z2 = z;
                if parent_is_left {
                    if self.read(tx, zp)?.right == z2 {
                        z2 = zp;
                        self.rotate(tx, z2, 0)?;
                    }
                    let zp2 = self.read(tx, z2)?.parent;
                    let zpp2 = self.read(tx, zp2)?.parent;
                    let mut a = self.read(tx, zp2)?;
                    a.red = false;
                    self.write(tx, zp2, a);
                    let mut b = self.read(tx, zpp2)?;
                    b.red = true;
                    self.write(tx, zpp2, b);
                    self.rotate(tx, zpp2, 1)?;
                } else {
                    if self.read(tx, zp)?.left == z2 {
                        z2 = zp;
                        self.rotate(tx, z2, 1)?;
                    }
                    let zp2 = self.read(tx, z2)?.parent;
                    let zpp2 = self.read(tx, zp2)?.parent;
                    let mut a = self.read(tx, zp2)?;
                    a.red = false;
                    self.write(tx, zp2, a);
                    let mut b = self.read(tx, zpp2)?;
                    b.red = true;
                    self.write(tx, zpp2, b);
                    self.rotate(tx, zpp2, 0)?;
                }
                break;
            }
        }
        let r = tx.read(&self.root)?;
        if r != NIL {
            let mut rc = self.read(tx, r)?;
            if rc.red {
                rc.red = false;
                self.write(tx, r, rc);
            }
        }
        Ok(())
    }

    /// Removes `key`; returns its value.
    pub fn remove(&self, key: &K) -> Option<V> {
        let (old, freed) = atomically(|tx| {
            let mut z = tx.read(&self.root)?;
            while z != NIL {
                let c = self.read(tx, z)?;
                match key.cmp(c.key.as_ref().expect("live node has key")) {
                    std::cmp::Ordering::Less => z = c.left,
                    std::cmp::Ordering::Greater => z = c.right,
                    std::cmp::Ordering::Equal => break,
                }
            }
            if z == NIL {
                return Ok((None, Vec::new()));
            }
            let zc = self.read(tx, z)?;
            let removed = zc.value.clone();

            let (fix_at, fix_parent, y_was_black);
            if zc.left == NIL {
                fix_at = zc.right;
                fix_parent = zc.parent;
                y_was_black = !zc.red;
                self.transplant(tx, z, zc.right)?;
            } else if zc.right == NIL {
                fix_at = zc.left;
                fix_parent = zc.parent;
                y_was_black = !zc.red;
                self.transplant(tx, z, zc.left)?;
            } else {
                // y = minimum of right subtree replaces z.
                let mut y = zc.right;
                loop {
                    let yc = self.read(tx, y)?;
                    if yc.left == NIL {
                        break;
                    }
                    y = yc.left;
                }
                let yc = self.read(tx, y)?;
                y_was_black = !yc.red;
                fix_at = yc.right;
                if yc.parent == z {
                    fix_parent = y;
                    if fix_at != NIL {
                        let mut fc = self.read(tx, fix_at)?;
                        fc.parent = y;
                        self.write(tx, fix_at, fc);
                    }
                } else {
                    fix_parent = yc.parent;
                    self.transplant(tx, y, yc.right)?;
                    let zc2 = self.read(tx, z)?;
                    let mut yc2 = self.read(tx, y)?;
                    yc2.right = zc2.right;
                    self.write(tx, y, yc2);
                    let mut rc = self.read(tx, zc2.right)?;
                    rc.parent = y;
                    self.write(tx, zc2.right, rc);
                }
                self.transplant(tx, z, y)?;
                let zc3 = self.read(tx, z)?;
                let mut yc3 = self.read(tx, y)?;
                yc3.left = zc3.left;
                yc3.red = zc3.red;
                self.write(tx, y, yc3);
                let mut lc = self.read(tx, zc3.left)?;
                lc.parent = y;
                self.write(tx, zc3.left, lc);
            }
            self.write(tx, z, Cell::free());
            if y_was_black {
                self.delete_fixup(tx, fix_at, fix_parent)?;
            }
            Ok((removed, vec![z]))
        });
        for i in freed {
            self.release(i);
        }
        old
    }

    fn transplant(&self, tx: &mut Tx, u: u32, v: u32) -> Result<(), Retry> {
        let up = self.read(tx, u)?.parent;
        if up == NIL {
            tx.write(&self.root, v);
        } else {
            let mut pc = self.read(tx, up)?;
            if pc.left == u {
                pc.left = v;
            } else {
                pc.right = v;
            }
            self.write(tx, up, pc);
        }
        if v != NIL {
            let mut vc = self.read(tx, v)?;
            vc.parent = up;
            self.write(tx, v, vc);
        }
        Ok(())
    }

    fn delete_fixup(&self, tx: &mut Tx, mut x: u32, mut xp: u32) -> Result<(), Retry> {
        loop {
            let root = tx.read(&self.root)?;
            if x == root || self.is_red(tx, x)? || xp == NIL {
                break;
            }
            let xpc = self.read(tx, xp)?;
            let x_is_left = xpc.left == x;
            let mut w = if x_is_left { xpc.right } else { xpc.left };
            if w == NIL {
                break;
            }
            if self.is_red(tx, w)? {
                let mut wc = self.read(tx, w)?;
                wc.red = false;
                self.write(tx, w, wc);
                let mut pc = self.read(tx, xp)?;
                pc.red = true;
                self.write(tx, xp, pc);
                self.rotate(tx, xp, if x_is_left { 0 } else { 1 })?;
                let xpc2 = self.read(tx, xp)?;
                w = if x_is_left { xpc2.right } else { xpc2.left };
            }
            let wc = self.read(tx, w)?;
            let (near, far) = if x_is_left {
                (wc.left, wc.right)
            } else {
                (wc.right, wc.left)
            };
            if !self.is_red(tx, near)? && !self.is_red(tx, far)? {
                let mut wc2 = self.read(tx, w)?;
                wc2.red = true;
                self.write(tx, w, wc2);
                x = xp;
                xp = self.read(tx, x)?.parent;
            } else {
                if !self.is_red(tx, far)? {
                    if near != NIL {
                        let mut nc = self.read(tx, near)?;
                        nc.red = false;
                        self.write(tx, near, nc);
                    }
                    let mut wc2 = self.read(tx, w)?;
                    wc2.red = true;
                    self.write(tx, w, wc2);
                    self.rotate(tx, w, if x_is_left { 1 } else { 0 })?;
                    let xpc2 = self.read(tx, xp)?;
                    w = if x_is_left { xpc2.right } else { xpc2.left };
                }
                let xpc2 = self.read(tx, xp)?;
                let mut wc2 = self.read(tx, w)?;
                wc2.red = xpc2.red;
                self.write(tx, w, wc2);
                let mut pc = self.read(tx, xp)?;
                pc.red = false;
                self.write(tx, xp, pc);
                let wc3 = self.read(tx, w)?;
                let far2 = if x_is_left { wc3.right } else { wc3.left };
                if far2 != NIL {
                    let mut fc = self.read(tx, far2)?;
                    fc.red = false;
                    self.write(tx, far2, fc);
                }
                self.rotate(tx, xp, if x_is_left { 0 } else { 1 })?;
                break;
            }
        }
        if x != NIL {
            let mut xc = self.read(tx, x)?;
            if xc.red {
                xc.red = false;
                self.write(tx, x, xc);
            }
        }
        Ok(())
    }

    /// Number of keys (one read-only transaction).
    pub fn len(&self) -> usize {
        atomically(|tx| {
            let mut count = 0usize;
            let mut stack = vec![tx.read(&self.root)?];
            while let Some(i) = stack.pop() {
                if i == NIL {
                    continue;
                }
                let c = self.read(tx, i)?;
                count += 1;
                stack.push(c.left);
                stack.push(c.right);
            }
            Ok(count)
        })
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        atomically(|tx| Ok(tx.read(&self.root)? == NIL))
    }

    /// Sorted snapshot of the contents (one transaction: a true atomic
    /// snapshot, unlike the lock-free structures' traversals).
    pub fn collect(&self) -> Vec<(K, V)> {
        atomically(|tx| {
            let mut out = Vec::new();
            let root = tx.read(&self.root)?;
            self.collect_rec(tx, root, &mut out)?;
            Ok(out)
        })
    }

    fn collect_rec(&self, tx: &mut Tx, i: u32, out: &mut Vec<(K, V)>) -> Result<(), Retry> {
        if i == NIL {
            return Ok(());
        }
        let c = self.read(tx, i)?;
        self.collect_rec(tx, c.left, out)?;
        out.push((c.key.clone().unwrap(), c.value.clone().unwrap()));
        self.collect_rec(tx, c.right, out)?;
        Ok(())
    }

    /// All pairs with keys in `bounds`, sorted. One read-only transaction,
    /// so the result is an atomic snapshot (the TL2 read-set validation
    /// plays the role the VLX plays for the template trees); the pruned
    /// walk keeps the read set proportional to the result size plus the
    /// boundary paths, not the whole tree.
    pub fn range<B: std::ops::RangeBounds<K>>(&self, bounds: B) -> Vec<(K, V)> {
        atomically(|tx| {
            let mut out = Vec::new();
            let root = tx.read(&self.root)?;
            self.range_rec(tx, root, &bounds, &mut out)?;
            Ok(out)
        })
    }

    fn range_rec<B: std::ops::RangeBounds<K>>(
        &self,
        tx: &mut Tx,
        i: u32,
        bounds: &B,
        out: &mut Vec<(K, V)>,
    ) -> Result<(), Retry> {
        use std::ops::Bound;
        if i == NIL {
            return Ok(());
        }
        let c = self.read(tx, i)?;
        let k = c.key.as_ref().expect("live node has key");
        let descend_left = match bounds.start_bound() {
            Bound::Unbounded => true,
            Bound::Included(lo) | Bound::Excluded(lo) => lo < k,
        };
        let descend_right = match bounds.end_bound() {
            Bound::Unbounded => true,
            Bound::Included(hi) | Bound::Excluded(hi) => hi > k,
        };
        if descend_left {
            self.range_rec(tx, c.left, bounds, out)?;
        }
        if bounds.contains(k) {
            out.push((k.clone(), c.value.clone().expect("live node has value")));
        }
        if descend_right {
            self.range_rec(tx, c.right, bounds, out)?;
        }
        Ok(())
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
        }
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
        let snap = t.collect();
        for w in snap.windows(2) {
            assert!(w[0].0 < w[1].0, "BST order broken: {:?}", snap);
        }
        assert!(snap.iter().all(|(k, _)| *k < 32));
    }
}

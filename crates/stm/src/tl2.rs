//! The TL2 algorithm: transactional variables, transactions, commit.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use std::sync::{PoisonError, RwLock};

/// The global version clock. Incremented once per writing commit.
static GLOBAL_CLOCK: AtomicU64 = AtomicU64::new(0);

/// A transactional variable holding a `Clone` value.
///
/// The version-lock word encodes `(version << 1) | locked`: writers hold the
/// lock (odd) only during commit. Values are additionally protected by an
/// `RwLock` so that readers never observe torn data (a pure seqlock read of
/// non-`Copy` data would be UB in Rust); the version word remains the
/// transactional truth — the `RwLock` is uncontended except when a commit is
/// writing this very variable.
pub struct TVar<T> {
    version_lock: AtomicU64,
    value: RwLock<T>,
}

impl<T: Clone + Send + Sync + 'static> TVar<T> {
    /// A new transactional variable.
    pub fn new(value: T) -> Arc<Self> {
        Arc::new(TVar {
            // SEQCST: TL2 global clock and version locks need a single total order.
            version_lock: AtomicU64::new(GLOBAL_CLOCK.load(Ordering::SeqCst) << 1),
            value: RwLock::new(value),
        })
    }

    /// Reads the value outside any transaction (racy snapshot; for tests
    /// and single-threaded setup only).
    pub fn load_raw(&self) -> T {
        self.value
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn sample_version(&self) -> u64 {
        // SEQCST: TL2 global clock and version locks need a single total order.
        self.version_lock.load(Ordering::SeqCst)
    }
}

/// Internal type-erased view of a `TVar` used by the commit protocol.
trait ErasedVar: Send + Sync {
    fn addr(&self) -> usize;
    fn try_lock(&self) -> Option<u64>;
    fn unlock_restore(&self, old: u64);
    fn write_and_release(&self, value: Box<dyn Any>, new_version: u64);
    fn version_word(&self) -> u64;
}

impl<T: Clone + Send + Sync + 'static> ErasedVar for TVar<T> {
    fn addr(&self) -> usize {
        self as *const _ as *const () as usize
    }
    fn try_lock(&self) -> Option<u64> {
        // SEQCST: TL2 global clock and version locks need a single total order.
        let cur = self.version_lock.load(Ordering::SeqCst);
        if cur & 1 == 1 {
            return None;
        }
        // SEQCST: TL2 global clock and version locks need a single total order.
        self.version_lock
            .compare_exchange(cur, cur | 1, Ordering::SeqCst, Ordering::SeqCst)
            .ok()
    }
    fn unlock_restore(&self, old: u64) {
        // SEQCST: TL2 global clock and version locks need a single total order.
        self.version_lock.store(old, Ordering::SeqCst);
    }
    fn write_and_release(&self, value: Box<dyn Any>, new_version: u64) {
        let v = *value.downcast::<T>().expect("write-set type mismatch");
        *self.value.write().unwrap_or_else(PoisonError::into_inner) = v;
        // SEQCST: TL2 global clock and version locks need a single total order.
        self.version_lock.store(new_version << 1, Ordering::SeqCst);
    }
    fn version_word(&self) -> u64 {
        // SEQCST: TL2 global clock and version locks need a single total order.
        self.version_lock.load(Ordering::SeqCst)
    }
}

/// Returned by [`Tx::read`]/[`Tx::write`] when the transaction observed a
/// conflict and must be re-executed. Propagate it with `?`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retry;

/// A buffered write: the variable and the value it receives at commit.
type WriteEntry = (Arc<dyn ErasedVar>, Box<dyn Any>);

/// An executing transaction: read version, read set, buffered write set.
pub struct Tx {
    rv: u64,
    reads: Vec<(Arc<dyn ErasedVar>, u64)>,
    /// addr → buffered write. Lazy versioning: writes are invisible
    /// until commit.
    writes: HashMap<usize, WriteEntry>,
    /// Statistics: aborts suffered by this `atomically` call so far.
    pub aborts: u64,
}

impl Tx {
    fn new() -> Self {
        Tx {
            // SEQCST: TL2 global clock and version locks need a single total order.
            rv: GLOBAL_CLOCK.load(Ordering::SeqCst),
            reads: Vec::new(),
            writes: HashMap::new(),
            aborts: 0,
        }
    }

    fn reset(&mut self) {
        // SEQCST: TL2 global clock and version locks need a single total order.
        self.rv = GLOBAL_CLOCK.load(Ordering::SeqCst);
        self.reads.clear();
        self.writes.clear();
    }

    /// Transactional read. Returns `Err(Retry)` if the variable is locked
    /// or newer than this transaction's read version (TL2 invariant: every
    /// value read was committed no later than `rv`).
    pub fn read<T: Clone + Send + Sync + 'static>(
        &mut self,
        var: &Arc<TVar<T>>,
    ) -> Result<T, Retry> {
        let addr = var.as_ref().addr();
        if let Some((_, buffered)) = self.writes.get(&addr) {
            return Ok(buffered
                .downcast_ref::<T>()
                .expect("write-set type mismatch")
                .clone());
        }
        let v1 = var.sample_version();
        if v1 & 1 == 1 || (v1 >> 1) > self.rv {
            return Err(Retry);
        }
        let value = var
            .value
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let v2 = var.sample_version();
        if v1 != v2 {
            return Err(Retry);
        }
        self.reads.push((var.clone() as Arc<dyn ErasedVar>, v1));
        Ok(value)
    }

    /// Transactional write (buffered until commit).
    pub fn write<T: Clone + Send + Sync + 'static>(&mut self, var: &Arc<TVar<T>>, value: T) {
        let addr = var.as_ref().addr();
        self.writes
            .insert(addr, (var.clone() as Arc<dyn ErasedVar>, Box::new(value)));
    }

    /// Attempts to commit; `true` on success.
    fn commit(&mut self) -> bool {
        if self.writes.is_empty() {
            // Read-only transactions are already consistent (each read
            // validated against rv at read time).
            return true;
        }
        // Acquire write locks in address order to avoid deadlock.
        let mut locked: Vec<(Arc<dyn ErasedVar>, u64)> = Vec::with_capacity(self.writes.len());
        let mut addrs: Vec<usize> = self.writes.keys().copied().collect();
        addrs.sort_unstable();
        for addr in &addrs {
            let (var, _) = &self.writes[addr];
            match var.try_lock() {
                Some(old) => locked.push((var.clone(), old)),
                None => {
                    for (v, old) in locked {
                        v.unlock_restore(old);
                    }
                    return false;
                }
            }
        }
        // Increment the clock, then validate the read set: every read
        // version must still be current and unlocked (or locked by us).
        // SEQCST: TL2 global clock and version locks need a single total order.
        let wv = GLOBAL_CLOCK.fetch_add(1, Ordering::SeqCst) + 1;
        if wv != self.rv + 1 {
            // Someone committed since we started: validate reads.
            for (var, seen) in &self.reads {
                let cur = var.version_word();
                let locked_by_us = self.writes.contains_key(&var.addr());
                let unlocked_ok = cur & 1 == 0 && cur == *seen;
                let locked_ok =
                    locked_by_us && (cur | 1) == (*seen | 1) && (cur >> 1) == (*seen >> 1);
                if !(unlocked_ok || locked_ok) {
                    for (v, old) in locked {
                        v.unlock_restore(old);
                    }
                    return false;
                }
            }
        }
        // Write back and release with the new version.
        for (addr, (var, value)) in self.writes.drain() {
            let _ = addr;
            var.write_and_release(value, wv);
        }
        true
    }
}

/// Runs `f` transactionally until it commits, returning its result.
///
/// `f` may be re-executed arbitrarily many times; it must be a pure function
/// of transactional state (no irrevocable side effects).
pub fn atomically<R>(mut f: impl FnMut(&mut Tx) -> Result<R, Retry>) -> R {
    let mut tx = Tx::new();
    let mut backoff = 0u32;
    loop {
        if let Ok(result) = f(&mut tx) {
            if tx.commit() {
                return result;
            }
        }
        tx.aborts += 1;
        // Bounded exponential backoff keeps livelock at bay under heavy
        // conflict (TL2 is lock-based at commit, not obstruction-free).
        for _ in 0..(1u32 << backoff.min(8)) {
            std::hint::spin_loop();
        }
        backoff = backoff.wrapping_add(1);
        tx.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let v = TVar::new(1u64);
        atomically(|tx| {
            let x = tx.read(&v)?;
            tx.write(&v, x + 1);
            Ok(())
        });
        assert_eq!(v.load_raw(), 2);
    }

    #[test]
    fn read_your_own_writes() {
        let v = TVar::new(10u64);
        let out = atomically(|tx| {
            tx.write(&v, 42);
            tx.read(&v)
        });
        assert_eq!(out, 42);
        assert_eq!(v.load_raw(), 42);
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let v = TVar::new(0u64);
        let threads = 4;
        let per = 5000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let v = v.clone();
                s.spawn(move || {
                    for _ in 0..per {
                        atomically(|tx| {
                            let x = tx.read(&v)?;
                            tx.write(&v, x + 1);
                            Ok(())
                        });
                    }
                });
            }
        });
        assert_eq!(v.load_raw(), threads * per);
    }

    #[test]
    fn atomic_swap_of_two_vars() {
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (a, b) = (a.clone(), b.clone());
                s.spawn(move || {
                    for _ in 0..2000 {
                        atomically(|tx| {
                            let x = tx.read(&a)?;
                            let y = tx.read(&b)?;
                            tx.write(&a, y);
                            tx.write(&b, x);
                            Ok(())
                        });
                    }
                });
            }
        });
        let (x, y) = (a.load_raw(), b.load_raw());
        // Invariant: the multiset {1, 2} is preserved.
        assert_eq!(x + y, 3);
        assert_ne!(x, y);
    }
}

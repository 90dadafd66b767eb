//! Tagged atomic pointers whose loads borrow a [`Guard`]: the links out of
//! which the lock-free structures are built.

use std::fmt;
use std::marker::PhantomData;
use std::mem;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};

use super::Guard;

/// Mask of the pointer bits available for tags: the low bits guaranteed
/// zero by `T`'s alignment.
fn low_bits<T>() -> usize {
    mem::align_of::<T>() - 1
}

fn decompose<T>(data: usize) -> (*const T, usize) {
    (
        (data & !low_bits::<T>()) as *const T,
        data & low_bits::<T>(),
    )
}

/// Types that can be converted into a tagged pointer word and back; the
/// bound on [`Atomic::store`] and [`Atomic::compare_exchange`] new values.
pub trait Pointer<T> {
    /// Consumes `self`, returning the tagged pointer word.
    fn into_usize(self) -> usize;
    /// Rebuilds `Self` from a tagged pointer word.
    ///
    /// # Safety
    ///
    /// `data` must have come from `into_usize` of the same `Self` type and
    /// ownership must transfer (for `Owned`, exactly one reconstruction).
    unsafe fn from_usize(data: usize) -> Self;
}

/// An atomic, taggable pointer to `T`.
pub struct Atomic<T> {
    data: AtomicUsize,
    _marker: PhantomData<*mut T>,
}

// SAFETY: an `Atomic` is a word; sharing it shares the `T` behind it,
// which the bounds require to be thread-safe.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
// SAFETY: as for `Send`; every access to the word is atomic.
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// A null pointer.
    pub fn null() -> Self {
        Atomic {
            data: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    /// Allocates `value` on the heap and points at it.
    pub fn new(value: T) -> Self {
        Self::from(Owned::new(value))
    }

    /// Loads the current (tagged) pointer.
    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared::from_data(self.data.load(ord))
    }

    /// Stores a new (tagged) pointer.
    pub fn store<P: Pointer<T>>(&self, new: P, ord: Ordering) {
        self.data.store(new.into_usize(), ord);
    }

    /// Single-word CAS. On failure the error carries both the value
    /// actually found and ownership of the attempted new value.
    pub fn compare_exchange<'g, P: Pointer<T>>(
        &self,
        current: Shared<'_, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        let new_data = new.into_usize();
        // The caller's orderings, audited at each caller's call site.
        match AtomicUsize::compare_exchange(&self.data, current.data, new_data, success, failure) {
            Ok(_) => Ok(Shared::from_data(new_data)),
            Err(found) => Err(CompareExchangeError {
                current: Shared::from_data(found),
                // SAFETY: round-trip of the `new` we just consumed; the CAS
                // failed so ownership never transferred to the atomic.
                new: unsafe { P::from_usize(new_data) },
            }),
        }
    }
}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> From<Owned<T>> for Atomic<T> {
    fn from(owned: Owned<T>) -> Self {
        Atomic {
            data: AtomicUsize::new(owned.into_usize()),
            _marker: PhantomData,
        }
    }
}

impl<T> fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // RELAXED: Debug formatting of an Atomic: a racy snapshot for printing, never dereferenced
        let (raw, tag) = decompose::<T>(self.data.load(Ordering::Relaxed));
        f.debug_struct("Atomic")
            .field("raw", &raw)
            .field("tag", &tag)
            .finish()
    }
}

/// The error returned by a failed [`Atomic::compare_exchange`].
pub struct CompareExchangeError<'g, T, P: Pointer<T>> {
    /// The value the atomic actually held.
    pub current: Shared<'g, T>,
    /// Ownership of the proposed new value, handed back to the caller.
    pub new: P,
}

/// An owned heap allocation, the `Box` of this module.
pub struct Owned<T> {
    data: usize,
    _marker: PhantomData<Box<T>>,
}

impl<T> Owned<T> {
    /// Allocates `value` on the heap.
    pub fn new(value: T) -> Self {
        Owned {
            data: Box::into_raw(Box::new(value)) as usize,
            _marker: PhantomData,
        }
    }

    /// Converts into a [`Shared`], transferring the allocation to the
    /// epoch-managed heap.
    pub fn into_shared<'g>(self, _guard: &'g Guard) -> Shared<'g, T> {
        Shared::from_data(self.into_usize())
    }

    /// Converts back into a `Box`.
    pub fn into_box(self) -> Box<T> {
        let (raw, _) = decompose::<T>(self.into_usize());
        // SAFETY: `Owned` always holds a unique Box allocation.
        unsafe { Box::from_raw(raw as *mut T) }
    }

    /// Returns the same allocation with the tag bits set to `tag`.
    pub fn with_tag(self, tag: usize) -> Self {
        let data = self.into_usize();
        Owned {
            data: (data & !low_bits::<T>()) | (tag & low_bits::<T>()),
            _marker: PhantomData,
        }
    }
}

impl<T> Pointer<T> for Owned<T> {
    fn into_usize(self) -> usize {
        let data = self.data;
        mem::forget(self);
        data
    }

    /// # Safety
    ///
    /// As for [`Pointer::from_usize`].
    unsafe fn from_usize(data: usize) -> Self {
        Owned {
            data,
            _marker: PhantomData,
        }
    }
}

impl<T> Deref for Owned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        let (raw, _) = decompose::<T>(self.data);
        // SAFETY: `Owned` holds a live unique allocation.
        unsafe { &*raw }
    }
}

impl<T> DerefMut for Owned<T> {
    fn deref_mut(&mut self) -> &mut T {
        let (raw, _) = decompose::<T>(self.data);
        // SAFETY: `Owned` holds a live unique allocation.
        unsafe { &mut *(raw as *mut T) }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        let (raw, _) = decompose::<T>(self.data);
        // SAFETY: `Owned` holds a live unique allocation.
        unsafe { drop(Box::from_raw(raw as *mut T)) }
    }
}

impl<T: fmt::Debug> fmt::Debug for Owned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A tagged shared pointer valid for the lifetime of a [`Guard`].
pub struct Shared<'g, T> {
    data: usize,
    _marker: PhantomData<(&'g (), *const T)>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<'_, T> {}

impl<'g, T> Shared<'g, T> {
    fn from_data(data: usize) -> Self {
        Shared {
            data,
            _marker: PhantomData,
        }
    }

    /// The null pointer (tag 0).
    pub fn null() -> Self {
        Self::from_data(0)
    }

    /// Whether the pointer part (ignoring the tag) is null.
    pub fn is_null(&self) -> bool {
        self.as_raw().is_null()
    }

    /// The raw pointer with the tag stripped.
    pub fn as_raw(&self) -> *const T {
        decompose::<T>(self.data).0
    }

    /// Dereferences the pointer.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null and the pointee alive for `'g` (which
    /// epoch reclamation guarantees for pointers loaded under the guard).
    pub unsafe fn deref(&self) -> &'g T {
        &*self.as_raw()
    }

    /// `Some(&T)` unless null.
    ///
    /// # Safety
    ///
    /// As for [`deref`](Self::deref).
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        self.as_raw().as_ref()
    }

    /// Reclaims ownership of the allocation.
    ///
    /// # Safety
    ///
    /// The caller must have unique access; no other thread may reach this
    /// pointer any more.
    pub unsafe fn into_owned(self) -> Owned<T> {
        debug_assert!(!self.is_null(), "into_owned on a null Shared");
        Owned {
            data: self.data,
            _marker: PhantomData,
        }
    }

    /// The tag stored in the alignment bits.
    pub fn tag(&self) -> usize {
        decompose::<T>(self.data).1
    }

    /// The same pointer with the tag bits set to `tag`.
    pub fn with_tag(&self, tag: usize) -> Shared<'g, T> {
        Self::from_data((self.data & !low_bits::<T>()) | (tag & low_bits::<T>()))
    }
}

impl<T> Pointer<T> for Shared<'_, T> {
    fn into_usize(self) -> usize {
        self.data
    }

    /// # Safety
    ///
    /// As for [`Pointer::from_usize`].
    unsafe fn from_usize(data: usize) -> Self {
        Self::from_data(data)
    }
}

impl<T> From<*const T> for Shared<'_, T> {
    fn from(raw: *const T) -> Self {
        Self::from_data(raw as usize)
    }
}

impl<T> PartialEq for Shared<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}
impl<T> Eq for Shared<'_, T> {}

impl<T> fmt::Debug for Shared<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (raw, tag) = decompose::<T>(self.data);
        f.debug_struct("Shared")
            .field("raw", &raw)
            .field("tag", &tag)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::with_guard;

    #[test]
    fn tag_roundtrip() {
        with_guard(|guard| {
            let p = Owned::new(42u64).into_shared(guard);
            assert_eq!(p.tag(), 0);
            let t = p.with_tag(1);
            assert_eq!(t.tag(), 1);
            assert_eq!(t.as_raw(), p.as_raw());
            // SAFETY: `p` is a live allocation this test alone holds.
            assert_eq!(unsafe { *t.deref() }, 42);
            // SAFETY: as above; freed exactly once.
            unsafe { drop(p.into_owned()) };
        })
    }

    #[test]
    fn cas_failure_returns_ownership() {
        with_guard(|guard| {
            let a = Atomic::new(1u64);
            // RELAXED: unit test on a thread-local Atomic that no other thread sees
            let cur = a.load(Ordering::Relaxed, guard);
            let stale = Shared::null();
            let attempt = Owned::new(2u64);
            // RELAXED: unit test on a thread-local Atomic that no other thread sees
            let err = a
                .compare_exchange(stale, attempt, Ordering::Relaxed, Ordering::Relaxed, guard)
                .unwrap_err();
            assert_eq!(err.current, cur);
            drop(err.new); // ownership came back; no leak, no double free

            // RELAXED: unit test on a thread-local Atomic that no other thread sees
            // SAFETY: `a` never left this test; its pointee is freed once.
            unsafe { drop(a.load(Ordering::Relaxed, guard).into_owned()) };
        })
    }
}

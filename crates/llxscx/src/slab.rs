//! Thread-local slot caches for Data-record allocations.
//!
//! The tree update template allocates fresh records on every update (PC7)
//! and retires the replaced ones through the [`epoch`](crate::epoch)
//! collector — a steady-state flow of same-layout allocate/free pairs. With
//! cache-aligned records (`#[repr(align(64))]`), every one of those
//! allocations takes the allocator's *aligned* slow path, which on glibc is
//! ~5× the cost of a plain small malloc and dominates the update hot path.
//!
//! This module short-circuits the flow: freed record slots are pushed onto
//! a **thread-local** freelist (the link pointer is written into the free
//! slot itself, so there is no per-slot header), and the next allocation of
//! the same layout pops one — two `Cell` operations, no atomics, no
//! allocator. Only a cache miss calls `std::alloc::alloc` and only a full
//! cache calls `std::alloc::dealloc`.
//!
//! Slots are plain global-allocator memory: a slot obtained here may be
//! freed by `Box::from_raw` (same allocator, same layout) and a `Box`
//! allocation may be released here — the two are interchangeable, so
//! callers that bypass the cache stay correct.
//!
//! Frees land on the thread that *retired* the record — the epoch
//! collector runs a deferred disposal on the thread that deferred it — so
//! in steady state a thread's frees refill the cache its own next
//! allocations pop from. That thread need not be the one that allocated
//! the slot (a remove retires records other threads inserted), and an
//! exited or parked thread's leftovers are disposed of by whichever thread
//! adopts them. Both are fine: the freelist is purely local, so slots
//! simply migrate between threads' caches; a skewed flow (one thread only
//! frees) is bounded by [`SLAB_CAP`] and spills to the real allocator.

use std::alloc::Layout;
use std::cell::RefCell;

use crate::epoch::{Owned, Pointer};

/// Maximum cached slots per (thread, layout). Epoch collection returns
/// retirements in bursts — when the epoch stalls a burst spans a whole
/// scheduler rotation (tens of thousands of records) — so the cap is sized
/// for bursts, not steady state; beyond it, slots go back to the global
/// allocator. 4096 × 64-byte tree nodes = 256 KiB per thread, the price
/// of keeping the update path allocator-free through a worst-case burst.
pub const SLAB_CAP: usize = 4096;

struct SlabClass {
    layout: Layout,
    /// Head of the intrusive freelist: each free slot's first word holds
    /// the pointer to the next free slot.
    head: *mut u8,
    len: usize,
}

thread_local! {
    static SLABS: RefCell<Vec<SlabClass>> = const { RefCell::new(Vec::new()) };
}

impl Drop for SlabClass {
    fn drop(&mut self) {
        // Thread exit: every cached slot belongs to this thread alone.
        let mut p = self.head;
        while !p.is_null() {
            // SAFETY: `p` is a free slot we own; its first word is the link.
            unsafe {
                let next = *(p as *mut *mut u8);
                std::alloc::dealloc(p, self.layout);
                p = next;
            }
        }
    }
}

/// Allocates a slot of `layout`, reusing a thread-locally cached one when
/// available. The returned memory is uninitialized.
///
/// `layout.size()` must be at least a pointer (the freelist link lives in
/// the slot); all Data-records easily clear that bar.
pub fn alloc_slot(layout: Layout) -> *mut u8 {
    debug_assert!(layout.size() >= std::mem::size_of::<*mut u8>());
    let cached = SLABS.try_with(|slabs| {
        let mut slabs = slabs.borrow_mut();
        let class = slabs.iter_mut().find(|c| c.layout == layout)?;
        if class.head.is_null() {
            return None;
        }
        let slot = class.head;
        // SAFETY: free slots store their successor in the first word.
        class.head = unsafe { *(slot as *mut *mut u8) };
        class.len -= 1;
        Some(slot)
    });
    if let Ok(Some(slot)) = cached {
        return slot;
    }
    // Miss (or thread teardown): the real allocator.
    // SAFETY: layout is non-zero-size (checked by debug_assert + callers).
    let p = unsafe { std::alloc::alloc(layout) };
    assert!(!p.is_null(), "record allocation failed");
    p
}

/// Releases a slot of `layout` into the thread-local cache, or to the
/// global allocator when the cache is full (or TLS is tearing down).
///
/// # Safety
/// `ptr` must have been allocated with `layout` from the global allocator
/// (directly, via `Box`, or via [`alloc_slot`]) and must not be referenced
/// any more.
pub unsafe fn free_slot(ptr: *mut u8, layout: Layout) {
    let cached = SLABS.try_with(|slabs| {
        let mut slabs = slabs.borrow_mut();
        let class = match slabs.iter_mut().find(|c| c.layout == layout) {
            Some(c) => c,
            None => {
                slabs.push(SlabClass {
                    layout,
                    head: std::ptr::null_mut(),
                    len: 0,
                });
                slabs.last_mut().expect("just pushed")
            }
        };
        if class.len >= SLAB_CAP {
            return false;
        }
        *(ptr as *mut *mut u8) = class.head;
        class.head = ptr;
        class.len += 1;
        true
    });
    if !matches!(cached, Ok(true)) {
        std::alloc::dealloc(ptr, layout);
    }
}

/// Allocates `value` through the slot cache, returning an
/// [`Owned`] indistinguishable from `Owned::new` (same allocator contract).
///
/// This is the record-construction fast path: the tree update template
/// replaces nodes on every update, and the freed slots round-trip through
/// the cache instead of the allocator's aligned slow path.
pub fn alloc_owned<T>(value: T) -> Owned<T> {
    let ptr = alloc_slot(Layout::new::<T>()) as *mut T;
    // SAFETY: fresh uninitialized slot of T's layout; write then hand
    // ownership to Owned (whose representation is the raw pointer).
    unsafe {
        ptr.write(value);
        <Owned<T> as Pointer<T>>::from_usize(ptr as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_round_trip_through_cache() {
        let layout = Layout::new::<[u64; 16]>();
        let a = alloc_slot(layout);
        // SAFETY: `a` came from `alloc_slot` with the same layout.
        unsafe { free_slot(a, layout) };
        let b = alloc_slot(layout);
        assert_eq!(a, b, "cache must hand back the freed slot");
        // SAFETY: `b` came from `alloc_slot` with the same layout.
        unsafe { free_slot(b, layout) };
    }

    #[test]
    fn distinct_layouts_use_distinct_classes() {
        let l1 = Layout::new::<[u64; 8]>();
        let l2 = Layout::new::<[u64; 16]>();
        let a = alloc_slot(l1);
        // SAFETY: `a` came from `alloc_slot` with layout `l1`.
        unsafe { free_slot(a, l1) };
        let b = alloc_slot(l2);
        assert_ne!(a, b);
        // SAFETY: `b` came from `alloc_slot` with layout `l2`.
        unsafe { free_slot(b, l2) };
    }

    #[test]
    fn box_interop() {
        // A Box allocation may be released into the cache and come back
        // out as a slot (same allocator, same layout).
        let boxed: *mut [u64; 16] = Box::into_raw(Box::new([7u64; 16]));
        let layout = Layout::new::<[u64; 16]>();
        // SAFETY: `boxed` came from the global allocator with exactly `layout`.
        unsafe { free_slot(boxed as *mut u8, layout) };
        let again = alloc_slot(layout);
        assert_eq!(again, boxed as *mut u8);
        // SAFETY: `again` came from `alloc_slot` with the same layout.
        unsafe { free_slot(again, layout) };
    }

    #[test]
    fn owned_from_cache_drops_cleanly() {
        let owned = alloc_owned(vec![1u8, 2, 3]);
        assert_eq!(&**owned, &[1, 2, 3]);
        drop(owned.into_box()); // Box::from_raw path — interchangeable
    }
}

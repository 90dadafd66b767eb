//! `HopMap` point writes allocate nothing. A counting global allocator,
//! which counts per thread, sees no allocation across 10^4 inserts and
//! removes that never grow the table. The allocator is process-wide, so
//! this file is a test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hashmap::HopMap;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A const-initialized `Cell` has no destructor, so this access never
    // allocates; `try_with` only fails while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract for `alloc`, passed on to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    // SAFETY: the caller's contract for `alloc_zeroed`, passed on to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    // SAFETY: the caller's contract for `realloc`, passed on to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: the caller's contract for `dealloc`, passed on to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Keys present throughout; the churn adds at most one more, so with a
/// capacity of eight times this no insert grows the table.
const KEYS: u64 = 1024;

/// `pairs` inserts of keys the map does not hold, each removed right
/// after: `2 * pairs` point writes, starting at key `from`.
fn churn(map: &HopMap<u64, u64>, from: u64, pairs: u64) {
    for k in from..from + pairs {
        assert_eq!(map.insert(k, k), None);
        assert_eq!(map.remove(&k), Some(k));
    }
}

#[test]
fn inserts_and_removes_that_do_not_grow_allocate_nothing() {
    let map = HopMap::<u64, u64>::with_capacity(8 * KEYS as usize);
    for k in 0..KEYS {
        map.insert(k, k);
    }
    // Warm-up: the thread's epoch state, slot and limbo list.
    churn(&map, KEYS, 1000);
    let (resizes, before) = (map.resizes(), allocs());
    churn(&map, 2 * KEYS, 5000);
    let after = allocs();
    assert_eq!(map.resizes(), resizes, "the table grew");
    assert_eq!(after - before, 0, "point writes allocated");
}

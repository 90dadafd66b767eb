//! Memory reclamation for records.
//!
//! The PODC'13/PPoPP'14 papers assume garbage collection. Only records need
//! a stand-in for it here: SCX descriptors are never freed (each thread
//! reuses one, see [`descriptor`](crate::descriptor)), so the one thing to
//! reclaim is a record that an SCX removed from the structure.
//!
//! **When.** Epoch-based reclamation (the crate's [`epoch`](crate::epoch)
//! collector): a record unlinked from the shared structure is freed only after every
//! thread pinned at unlink time has unpinned, so concurrent traversals
//! through removed nodes (correctness property C3 of the paper) stay safe.
//! This also covers helpers: a helper reads an SCX's record pointers only
//! after seeing that SCX in progress under its pin, and the records the SCX
//! removes are retired only after it commits, so they outlive the helper's
//! pin.
//!
//! **Who.** The records in `R` of a committed SCX are retired by the one
//! thread whose CAS committed it; a record the SCX replaced without
//! finalizing (a child it unlinked) is retired by the caller whose SCX
//! returned `true`. Either way each record is retired exactly once, through
//! [`defer_dispose_record`].
//!
//! **Why descriptors need nothing.** A record's `info` word names a
//! descriptor by slot and sequence number, never by address, so a record
//! can outlive every SCX that froze it without keeping anything alive, and
//! a stale `info` word can never match a newer SCX's (sequence numbers
//! never repeat).

use crate::epoch::Guard;

use crate::record::Record;

/// Frees a record: drops it in place and returns its memory to the
/// thread-local [`slab`](crate::slab). Child pointers are *not* followed —
/// the tree update template guarantees that every removed record is retired
/// exactly once, and fringe children remain in the tree.
///
/// # Safety
/// `ptr` must be a record allocated via `Box` or the slab that is no longer
/// reachable by any thread (typically: called from an epoch-deferred closure
/// scheduled after the record was finalized and unlinked, or during
/// structure drop).
pub unsafe fn dispose_record<N: Record>(ptr: *const N) {
    // Box-allocated records are interchangeable with slab slots (same
    // allocator, same layout).
    std::ptr::drop_in_place(ptr as *mut N);
    crate::slab::free_slot(ptr as *mut u8, std::alloc::Layout::new::<N>());
}

/// Schedules an epoch-deferred [`dispose_record`].
///
/// # Safety
/// `ptr` must have been unlinked from the shared structure (finalized) and
/// must be retired exactly once.
pub unsafe fn defer_dispose_record<N: Record>(ptr: *const N, guard: &Guard) {
    let p = ptr as usize;
    guard.defer_unchecked(move || dispose_record::<N>(p as *const N));
}

//! # LLX / SCX / VLX: multi-word synchronization primitives from single-word CAS
//!
//! This crate implements the *load-link extended* (LLX), *store-conditional
//! extended* (SCX) and *validate-extended* (VLX) primitives of Brown, Ellen
//! and Ruppert, "Pragmatic primitives for non-blocking data structures"
//! (PODC 2013). They are the substrate for the *tree update template* of
//! "A General Technique for Non-blocking Trees" (PPoPP 2014), implemented in
//! the `nbtree` crate.
//!
//! ## Data-records
//!
//! The primitives operate on **Data-records**: heap nodes with a fixed set of
//! *mutable* fields (child pointers, at most [`MAX_ARITY`]) and arbitrarily
//! many *immutable* fields (keys, values, weights, ...). A type opts in by
//! implementing [`Record`] and embedding a [`RecordHeader`], which carries
//! the per-node synchronization metadata: an `info` word naming the last
//! SCX that froze the node (its thread's [descriptor](descriptor::ScxRecord)
//! and sequence number), and a `marked` bit indicating the node is
//! *finalized* (logically deleted).
//!
//! ## Semantics (informal)
//!
//! * [`llx`] attempts to snapshot the mutable fields of a record. It returns
//!   [`Llx::Snapshot`] with an [`LlxHandle`], [`Llx::Fail`] if a concurrent
//!   SCX interfered, or [`Llx::Finalized`] if the record was removed.
//! * [`scx`] takes a sequence `V` of handles (from *linked* LLXs, i.e. the
//!   most recent LLX on each record by this thread under the same epoch
//!   guard), a subset `R ⊆ V` to finalize, a mutable field of one record in
//!   `V`, and a new value. It atomically (at its linearization point) stores
//!   the new value and finalizes `R`, provided none of the records in `V`
//!   changed since their linked LLXs; otherwise it fails.
//! * [`vlx`] returns `true` only if none of the records in `V` changed since
//!   their linked LLXs; it can be used to obtain an atomic snapshot of
//!   several records.
//!
//! Linking is enforced *statically*: an [`LlxHandle`] borrows the epoch
//! [`Guard`] it was created under, so a handle cannot
//! outlive the guard, and `scx`/`vlx` demand handles tied to the same guard.
//! This replaces the per-process "last LLX table" of the paper.
//!
//! ## Progress and the caller's obligations
//!
//! The implementation is lock-free: helping ensures that whenever primitives
//! are performed infinitely often, some SCX succeeds. The *caller* must obey
//! the constraints of the PPoPP paper for this to hold:
//!
//! 1. every SCX stores a value the field never previously contained (use
//!    freshly allocated nodes — template postcondition PC7);
//! 2. in quiescent periods, all `V` sequences are sorted consistently with a
//!    fixed tree traversal (PC8);
//! 3. records are finalized exactly when they are removed from the tree
//!    (constraint 3).
//!
//! ## Memory reclamation
//!
//! The PODC/PPoPP papers assume a garbage collector. Two things stand in
//! for it here:
//!
//! * **Descriptors are reused, never reclaimed.** Each thread owns one
//!   SCX-record for its whole life and rewrites it for every SCX (the weak
//!   descriptors of Arbel-Raviv and Brown, "Reuse, Don't Recycle", DISC
//!   2017). A record's `info` holds a `(descriptor id, sequence number)`
//!   word rather than a pointer, so no `info` value is ever installed
//!   twice, and a helper that reads a descriptor re-checks the sequence
//!   number afterwards and abandons the help if the owner moved on. See
//!   [`descriptor`].
//! * **Records are reclaimed through epochs** (the vendored
//!   crossbeam-epoch). Records finalized by a committed SCX are retired by
//!   the unique thread that wins the commit transition. See [`reclaim`].

#![warn(missing_docs)]

pub mod descriptor;
pub mod guard_cache;
pub mod ops;
pub mod pool;
pub mod reclaim;
pub mod record;
pub mod slab;

pub use descriptor::ScxRecord;
pub use guard_cache::{with_guard, with_guard_weighted};
pub use ops::{llx, scx, vlx, Llx, LlxHandle, ScxArgs};
pub use record::{Record, RecordHeader, MAX_ARITY, MAX_V};

pub use crossbeam_epoch as epoch;
pub use crossbeam_epoch::{pin, Atomic, Guard, Owned, Shared};

#[cfg(test)]
mod tests;

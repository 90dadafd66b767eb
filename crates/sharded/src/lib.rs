//! # Range-partitioned sharding
//!
//! The PPoPP'14 trees are presented as *building blocks* for larger
//! systems. This crate is the first such system layer in the suite: a
//! façade that splits the keyspace across `S` independent map instances
//! behind an immutable boundary table, so `S` mostly-disjoint working
//! sets stop contending on one root, one balancing scheme and one epoch
//! of garbage.
//!
//! Two pieces:
//!
//! * [`ConcurrentMap`] — the suite-wide object-safe map interface
//!   (relocated here from `workload`, which re-exports it, so the façade
//!   can implement the same trait it composes over). Its
//!   `insert_batch` / `remove_batch` / `get_batch` methods default to one
//!   point op per element, in input order, so any map in the suite can
//!   be driven by whole request groups.
//! * [`ShardedMap`] — the façade: power-of-two shard counts, uniform or
//!   *learned* split points ([`ShardedMap::from_sample`]), wait-free
//!   boundary-table routing, and cross-shard `range` stitching with a
//!   documented per-shard atomicity scope. It keeps the batch defaults,
//!   so each batch element is routed to its shard's point op.
//!
//! Shard counts and the boundary-table span are plumbed in by the caller
//! — deployments use `workload::SuiteConfig` (parsed from the
//! environment once at binary startup) rather than reading env vars at
//! construction time. See `docs/SHARDING.md` in the repository for the
//! full design chapter.

#![warn(missing_docs)]

pub mod map;
pub mod shard;

pub use map::{ConcurrentMap, RangeTier};
pub use shard::ShardedMap;

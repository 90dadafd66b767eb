//! What is left of the per-thread descriptor pools: their statistics.
//!
//! SCX descriptors used to be checked out of per-thread pools and returned
//! through reference counts. Each thread now reuses one descriptor for
//! every SCX it performs (see [`descriptor`](crate::descriptor)), so there
//! is nothing to pool; [`local_stats`] stays for callers that read it.

use crate::record::Record;

/// Descriptor allocations made on behalf of the calling thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Descriptors allocated through a pool and not yet freed. Always 0:
    /// descriptors live in a process-wide table, one per thread, and no
    /// SCX allocates one.
    pub allocated: usize,
}

/// Statistics for record type `N` on the calling thread. SCXs allocate no
/// descriptors, so every count is 0.
pub fn local_stats<N: Record>() -> PoolStats {
    PoolStats::default()
}

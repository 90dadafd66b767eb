//! The old path of [`epoch::flush`](crate::epoch::flush), kept only
//! because the `benchmark/` crate still calls
//! `llxscx::guard_cache::flush`. Everything else names
//! [`epoch`](crate::epoch) directly; the benchmark's next upkeep change
//! points its calls there and deletes this module.

pub use crate::epoch::flush;

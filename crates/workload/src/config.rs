//! Typed suite configuration: how the registry ([`make_map`](crate::make_map))
//! sizes its two sharded entries (`"sharded"` and `"hybrid"`).
//!
//! The key range is the only sizing input a sweep supplies: binaries start
//! from [`SuiteConfig::default`], call
//! [`for_key_range`](SuiteConfig::for_key_range) once per range block, and
//! thread the value through [`make_map`](crate::make_map) /
//! [`measure`](crate::measure). The config that built a map is the config
//! the map used; nothing in the suite reads or mutates the environment to
//! size a structure.

/// Construction-time configuration for the structure registry
/// ([`make_map`](crate::make_map)) and the harness entry points: the
/// sharded façade's shard count and the keyspace span its uniform
/// boundary table splits.
///
/// # Examples
///
/// ```
/// use workload::SuiteConfig;
///
/// // 4 shards over [0, 400). Counts round to a power of two.
/// let cfg = SuiteConfig::default().with_shards(4).for_key_range(400);
/// assert_eq!(cfg.shards(), 4);
/// assert_eq!(cfg.shard_span(), 400);
///
/// // Each range block of a sweep re-sizes the span.
/// assert_eq!(cfg.for_key_range(1_000_000).shard_span(), 1_000_000);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuiteConfig {
    shards: usize,
    shard_span: u64,
}

/// Default shard count of the `"sharded"` registry entry.
pub const DEFAULT_SHARDS: usize = 8;

/// Default keyspace span split by the `"sharded"` entry's boundary table
/// (the default bench key range).
pub const DEFAULT_SHARD_SPAN: u64 = 10_000;

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            shards: DEFAULT_SHARDS,
            shard_span: DEFAULT_SHARD_SPAN,
        }
    }
}

impl SuiteConfig {
    /// Sets the shard count, rounded up to a power of two and clamped to
    /// `[1, 1024]` (the boundary-table constructors require a power of
    /// two; the clamp keeps a typo from allocating a million trees).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.clamp(1, 1024).next_power_of_two();
        self
    }

    /// Sizes the span to the key range `[0, range)` a sweep is about to
    /// use (zero rounds up to 1: a span must be non-empty). Without it, a
    /// sweep over a range much smaller than the default span piles every
    /// key into the first shard and the sharded cells measure a
    /// misconfiguration.
    pub fn for_key_range(mut self, range: u64) -> Self {
        self.shard_span = range.max(1);
        self
    }

    /// Shard count of the `"sharded"` registry entry (always a power of
    /// two in `[1, 1024]`).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Keyspace span `[0, span)` split uniformly by the `"sharded"`
    /// entry's boundary table (always ≥ 1).
    pub fn shard_span(&self) -> u64 {
        self.shard_span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let cfg = SuiteConfig::default();
        assert_eq!(cfg.shards(), DEFAULT_SHARDS);
        assert_eq!(cfg.shard_span(), DEFAULT_SHARD_SPAN);
    }

    #[test]
    fn shard_counts_clamp_and_round_to_powers_of_two() {
        assert_eq!(SuiteConfig::default().with_shards(8).shards(), 8);
        assert_eq!(SuiteConfig::default().with_shards(5).shards(), 8);
        assert_eq!(SuiteConfig::default().with_shards(0).shards(), 1);
        assert_eq!(SuiteConfig::default().with_shards(1).shards(), 1);
        assert_eq!(SuiteConfig::default().with_shards(9999).shards(), 1024);
        assert_eq!(SuiteConfig::default().with_shards(1000).shards(), 1024);
    }

    #[test]
    fn for_key_range_sets_the_span_every_time() {
        let cfg = SuiteConfig::default().for_key_range(100);
        assert_eq!(cfg.shard_span(), 100);
        // A later range block re-sizes it again; the shard count stays.
        let next = cfg.with_shards(4).for_key_range(1_000_000);
        assert_eq!((next.shards(), next.shard_span()), (4, 1_000_000));
        // A degenerate range still yields a legal span.
        assert_eq!(SuiteConfig::default().for_key_range(0).shard_span(), 1);
    }
}

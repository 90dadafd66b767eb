//! Typed suite configuration: how the registry ([`make_map`](crate::make_map))
//! sizes the two entries that depend on the key range: `"sharded"`, whose
//! boundary table splits it, and `"hybrid"`, whose hash tier starts with
//! at least one home bucket per key of it. No other entry reads it.
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
/// keyspace span the sharded façade's uniform boundary table splits into
/// [`DEFAULT_SHARDS`] shards, and the hybrid's hash tier is sized for.
///
/// # Examples
///
/// ```
/// use workload::SuiteConfig;
///
/// // 8 shards over [0, 400).
/// let cfg = SuiteConfig::default().for_key_range(400);
/// assert_eq!(cfg.shards(), 8);
/// assert_eq!(cfg.shard_span(), 400);
///
/// // Each range block of a sweep re-sizes the span.
/// assert_eq!(cfg.for_key_range(1_000_000).shard_span(), 1_000_000);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuiteConfig {
    shard_span: u64,
}

/// Shard count of the `"sharded"` registry entry.
pub const DEFAULT_SHARDS: usize = 8;

/// Default keyspace span split by the `"sharded"` entry's boundary table
/// and sizing the `"hybrid"` entry's hash tier (the default bench key
/// range).
pub const DEFAULT_SHARD_SPAN: u64 = 10_000;

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            shard_span: DEFAULT_SHARD_SPAN,
        }
    }
}

impl SuiteConfig {
    /// Sizes the span to the key range `[0, range)` a sweep is about to
    /// use (zero rounds up to 1: a span must be non-empty). Without it, a
    /// sweep over a range much smaller than the default span piles every
    /// key into the first shard and the sharded cells measure a
    /// misconfiguration.
    pub fn for_key_range(mut self, range: u64) -> Self {
        self.shard_span = range.max(1);
        self
    }

    /// Shard count of the `"sharded"` registry entry: always
    /// [`DEFAULT_SHARDS`].
    pub fn shards(&self) -> usize {
        DEFAULT_SHARDS
    }

    /// Keyspace span `[0, span)` split uniformly by the `"sharded"`
    /// entry's boundary table and sizing the `"hybrid"` entry's hash tier
    /// (always ≥ 1).
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
    fn for_key_range_sets_the_span_every_time() {
        let cfg = SuiteConfig::default().for_key_range(100);
        assert_eq!(cfg.shard_span(), 100);
        // A later range block re-sizes it again; the shard count stays.
        let next = cfg.for_key_range(1_000_000);
        assert_eq!(
            (next.shards(), next.shard_span()),
            (DEFAULT_SHARDS, 1_000_000)
        );
        // A degenerate range still yields a legal span.
        assert_eq!(SuiteConfig::default().for_key_range(0).shard_span(), 1);
    }
}

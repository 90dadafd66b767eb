//! Test-only hashing shared by the integration tests.

use std::hash::{BuildHasher, Hasher};

/// Identity hash: a `u64` key *is* its hash, so a test can aim keys at
/// chosen home buckets and force displacement chains.
#[derive(Clone, Copy, Default)]
pub struct IdentityBuild;

/// The [`IdentityBuild`] hasher.
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("u64 keys hash via write_u64");
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

impl BuildHasher for IdentityBuild {
    type Hasher = IdentityHasher;
    fn build_hasher(&self) -> IdentityHasher {
        IdentityHasher(0)
    }
}

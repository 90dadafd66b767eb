//! # tinystm: a TL2-style software transactional memory
//!
//! Stand-in for DeuceSTM in the paper's evaluation (the `RBSTM` and
//! `SkipListSTM` baselines). Implements the TL2 algorithm of Dice, Shalev
//! and Shavit: a global version clock, per-[`TVar`] versioned write locks,
//! lazy write buffering, and commit-time read-set validation.
//!
//! The paper uses STM baselines to show what *coarse* transactions cost:
//! every dictionary operation is one transaction that reads an entire
//! root-to-leaf path, so any two conflicting updates abort each other and
//! instrumentation overhead burdens even uncontended runs. [`rbtree::RbStm`]
//! reproduces exactly that: the sequential red-black tree algorithms of
//! [`seqrbt::clrs`], the code `seqrbt::RbTree` runs, execute unmodified
//! inside a transaction.
//!
//! ```
//! use tinystm::{atomically, TVar};
//!
//! let balance = TVar::new(100i64);
//! atomically(|tx| {
//!     let b = tx.read(&balance)?;
//!     tx.write(&balance, b + 20);
//!     Ok(())
//! });
//! assert_eq!(atomically(|tx| tx.read(&balance)), 120);
//! ```

#![warn(missing_docs)]

pub mod rbtree;
pub mod tl2;

pub use rbtree::RbStm;
pub use tl2::{atomically, Retry, TVar, Tx};

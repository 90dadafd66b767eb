//! `nblint` — the workspace concurrency-protocol static analyzer.
//!
//! The suite's correctness rests on hand-maintained protocols: the
//! ordering audit in `docs/PERFORMANCE.md`, the guard-cache pinning
//! discipline, the slot-ownership argument for hop-bit RMWs. Stress tests
//! and TSan catch the interleavings we happen to run; this crate
//! machine-checks that the *code still matches the written protocols*, so
//! the gaps between runs stay covered too. Four first-party rule families
//! (see `docs/ANALYSIS.md` for the catalog):
//!
//! 1. **unsafe coverage** — every `unsafe` block/fn/impl/trait carries a
//!    `// SAFETY:` comment stating its invariant.
//! 2. **ordering audit** — every atomic call site names an explicit
//!    `Ordering` and has a justified row in `docs/ordering_audit.toml`
//!    (drift checked both ways); `SeqCst` needs a `// SEQCST:` comment.
//! 3. **epoch-guard discipline** — `pin()` only inside
//!    `llxscx::guard_cache`; `defer_destroy`/`into_owned` only in
//!    allowlisted reclamation modules; no `Guard` stored in type bodies.
//! 4. **suppression hygiene** — every `#[allow(…)]` carries `// ALLOW:`.
//!
//! Plus the configuration gates (environment-mutation tokens,
//! `run_trial` hot-loop discipline).
//!
//! Everything is hand-rolled and dependency-free (same offline-vendor
//! policy as the rest of the workspace): a byte-level token-surface lexer
//! ([`lexer`]), line-context helpers ([`syntax`]), a TOML-subset manifest
//! reader ([`manifest`]) and the rule engine ([`rules`], [`driver`]).

#![warn(missing_docs)]

pub mod cfg;
pub mod driver;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod syntax;
pub mod walk;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (`unsafe-safety`, `ordering-manifest`, …).
    pub rule: &'static str,
    /// Repo-relative file path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description with the fix direction.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

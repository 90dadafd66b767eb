//! The four first-party rule families (see `docs/ANALYSIS.md`):
//!
//! * **unsafe-safety** — every `unsafe` token (block, fn, impl, trait)
//!   must carry a `// SAFETY:` justification comment.
//! * **ordering** — every atomic call site must name an explicit
//!   `Ordering`; `SeqCst` additionally needs a `// SEQCST:` comment. Site
//!   extraction here also feeds the manifest cross-check in the driver.
//! * **epoch** — `pin()` only inside `guard_cache`; `defer_destroy` /
//!   `into_owned` only in allowlisted reclamation modules; no `Guard`
//!   stored in a struct/enum body outside the allowlist. Test code
//!   (`tests/` files and `#[cfg(test)]` modules) is exempt: substrate
//!   unit tests pin directly by design.
//! * **allow-justify** — every `#[allow(…)]` needs a trailing `// ALLOW:`
//!   justification.

use std::path::Path;

use crate::lexer::Scanned;
use crate::manifest::context_hash;
use crate::syntax::{has_marker, FileCtx};
use crate::Finding;

/// Atomic methods whose call sites the ordering audit tracks, plus the
/// free function `fence`, which is called without a receiver.
pub const ATOMIC_METHODS: &[&str] = &[
    "fence",
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// Methods that are unambiguously atomic even without an `Ordering`
/// argument in sight — a call missing one is an explicitness violation.
/// (`load`/`store`/`swap` without an ordering are *not* flagged: slices
/// have `swap`, loaders have `load` — the lint stays false-positive-free
/// and the manifest's both-ways check still catches real drift.)
const STRICT_ATOMIC_METHODS: &[&str] = &[
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// The five memory-ordering variant names. `std::cmp::Ordering`'s variants
/// (`Less`/`Equal`/`Greater`) do not collide, so comparator code never
/// trips the audit.
pub const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Files allowed to call `epoch::pin()` directly: the guard cache is the
/// single place a pin may originate so that repin cadence, flush
/// quiescence and the weighted batch amortization stay centralized.
pub const PIN_ALLOWLIST: &[&str] = &["crates/llxscx/src/guard_cache.rs"];

/// Reclamation modules allowed to call `defer_destroy` / `into_owned` on
/// epoch pointers: each owns a documented retire protocol.
pub const RECLAIM_ALLOWLIST: &[&str] = &[
    // llxscx's record retirement: the thread that commits an SCX retires
    // its finalized records; dispose_record is the one free site.
    "crates/llxscx/src/reclaim.rs",
    // The hopscotch table's entry retirement (remove + growth): slots are
    // nulled before the entry is deferred, generations freeze on publish.
    "crates/hashmap/src/map.rs",
    // Drop paths that drain whole structures while externally quiesced.
    "crates/lockavl/src/lib.rs",
    "crates/skiplist/src/lib.rs",
];

/// Files allowed to store a `Guard` in a struct field: only the guard
/// cache's thread-local slot. Everywhere else guards must stay borrowed
/// (`&Guard`) so a repin can never invalidate a live snapshot.
pub const GUARD_FIELD_ALLOWLIST: &[&str] = &["crates/llxscx/src/guard_cache.rs"];

fn rel_str(path: &Path) -> String {
    path.to_string_lossy().replace('\\', "/")
}

fn in_allowlist(path: &Path, allow: &[&str]) -> bool {
    let rel = rel_str(path);
    allow.iter().any(|a| rel == *a)
}

/// Whether `path` is test code at the file level: an integration-test or
/// benchmark tree (`tests/`, `benches/`) rather than `src/`.
fn is_test_file(path: &Path) -> bool {
    path.components().any(|c| {
        let s = c.as_os_str().to_string_lossy();
        s == "tests" || s == "benches"
    })
}

// --- rule 1: unsafe coverage ----------------------------------------------

/// Every `unsafe` token needs a `// SAFETY:` comment (trailing, or in the
/// contiguous comment block above, attributes skipped). One comment covers
/// all `unsafe` tokens on its line. An `unsafe fn`/`unsafe trait`
/// *declaration* may instead carry a doc block with a `# Safety` section —
/// the caller-facing contract lives in rustdoc there (the shape clippy's
/// `missing_safety_doc` enforces), and duplicating it as a `// SAFETY:`
/// comment would just drift.
pub fn check_unsafe(path: &Path, sc: &Scanned, ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut last_line = 0usize;
    for off in sc.code_word_offsets("unsafe") {
        let line = sc.line_of(off);
        if line == last_line {
            continue;
        }
        last_line = line;
        let rest = sc.code()[off + "unsafe".len()..].trim_start();
        // `unsafe fn(..)` / `unsafe extern "C" fn(..)` with no name is a
        // function-pointer *type*; the obligation lives at call sites, not
        // at the type mention.
        let after_extern = rest
            .strip_prefix("extern")
            .map(|a| a.trim_start()) // ABI string is blanked in the projection
            .unwrap_or(rest);
        if after_extern
            .strip_prefix("fn")
            .is_some_and(|a| a.trim_start().starts_with('('))
        {
            continue;
        }
        // `unsafe fn` / `unsafe trait` declaration? Then a `# Safety` doc
        // section above also satisfies the rule.
        let is_decl =
            rest.starts_with("fn ") || rest.starts_with("extern ") || rest.starts_with("trait ");
        if is_decl && has_marker(sc, ctx, line, "# Safety") {
            continue;
        }
        if !has_marker(sc, ctx, line, "SAFETY:") {
            out.push(Finding {
                rule: "unsafe-safety",
                file: rel_str(path),
                line,
                message: "`unsafe` without an immediately preceding `// SAFETY:` comment".into(),
            });
        }
    }
    out
}

// --- rule 2: ordering audit -----------------------------------------------

/// One explicit-ordering atomic call site.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// Repo-relative file, forward slashes.
    pub file: String,
    /// 1-based line of the method token (the anchor line).
    pub line: usize,
    /// Comma-joined orderings in order of appearance, e.g. `"AcqRel,Acquire"`.
    pub ordering: String,
    /// Context hash of the anchor line's code text.
    pub hash: String,
    /// Trimmed code text of the anchor line (for diagnostics and manifest
    /// seeding).
    pub context: String,
    /// Last line of the (possibly multi-line) call, for SEQCST comment
    /// placement.
    pub end_line: usize,
}

/// Extracts atomic call sites and explicitness violations from one file.
pub fn atomic_sites(path: &Path, sc: &Scanned) -> (Vec<AtomicSite>, Vec<Finding>) {
    let code = sc.code();
    let bytes = code.as_bytes();
    let mut sites = Vec::new();
    let mut findings = Vec::new();
    for method in ATOMIC_METHODS {
        for off in sc.code_word_offsets(method) {
            // Must be a method call: `.method(` (receiver dot right before,
            // whitespace allowed after the name). `fence` is a free
            // function, so any call of it counts.
            if *method != "fence" && (off == 0 || bytes[off - 1] != b'.') {
                continue;
            }
            let mut j = off + method.len();
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if j >= bytes.len() || bytes[j] != b'(' {
                continue;
            }
            // Balanced-paren argument span (code projection: parens in
            // strings/comments are blanked, so balance is reliable).
            let mut depth = 0usize;
            let mut end = j;
            while end < bytes.len() {
                match bytes[end] {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                end += 1;
            }
            let args = &code[j..end.min(code.len())];
            let mut orderings: Vec<&str> = Vec::new();
            for (at, _) in args.match_indices(|c: char| c.is_ascii_uppercase()) {
                for ord in ORDERINGS {
                    if args[at..].starts_with(ord) {
                        let before_ok = at == 0
                            || !args.as_bytes()[at - 1].is_ascii_alphanumeric()
                                && args.as_bytes()[at - 1] != b'_';
                        let after = at + ord.len();
                        let after_ok = after >= args.len()
                            || !args.as_bytes()[after].is_ascii_alphanumeric()
                                && args.as_bytes()[after] != b'_';
                        if before_ok && after_ok {
                            orderings.push(ord);
                        }
                    }
                }
            }
            let line = sc.line_of(off);
            if orderings.is_empty() {
                if STRICT_ATOMIC_METHODS.contains(method) {
                    findings.push(Finding {
                        rule: "ordering-explicit",
                        file: rel_str(path),
                        line,
                        message: format!(
                            "`.{method}(…)` names no explicit memory ordering — pass an \
                             `Ordering::*` literal at the call site"
                        ),
                    });
                }
                continue;
            }
            sites.push(AtomicSite {
                file: rel_str(path),
                line,
                ordering: orderings.join(","),
                hash: context_hash(sc.code_line(line)),
                context: sc.line_text(line).trim().to_string(),
                end_line: sc.line_of(end.min(code.len().saturating_sub(1))),
            });
        }
    }
    sites.sort_by_key(|s| (s.line, s.ordering.clone()));
    findings.sort_by_key(|f| f.line);
    (sites, findings)
}

/// `SeqCst` sites additionally need a `// SEQCST:` justification comment:
/// trailing on any line of the call, or in the comment block above it.
pub fn check_seqcst(sc: &Scanned, ctx: &FileCtx, sites: &[AtomicSite]) -> Vec<Finding> {
    let mut out = Vec::new();
    for site in sites {
        if !site.ordering.contains("SeqCst") {
            continue;
        }
        let trailing = (site.line..=site.end_line).any(|l| sc.line_comment_contains(l, "SEQCST:"));
        if !trailing && !has_marker(sc, ctx, site.line, "SEQCST:") {
            out.push(Finding {
                rule: "seqcst-justify",
                file: site.file.clone(),
                line: site.line,
                message: "SeqCst ordering without a `// SEQCST:` justification comment".into(),
            });
        }
    }
    out
}

// --- rule 3: epoch-guard discipline ---------------------------------------

/// Qualifier idents that make a `pin(` call *not* the epoch pin.
const PIN_FALSE_QUALIFIERS: &[&str] = &["Box", "Pin", "pin"]; // std::pin::pin!

/// Epoch-discipline checks. Skipped wholesale for test files; `#[cfg(test)]`
/// module bodies are skipped per site.
pub fn check_epoch(path: &Path, sc: &Scanned, ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    if is_test_file(path) {
        return out;
    }
    let code = sc.code();
    let bytes = code.as_bytes();

    if !in_allowlist(path, PIN_ALLOWLIST) {
        for off in sc.code_word_offsets("pin") {
            let line = sc.line_of(off);
            if ctx.in_test_mod(line) {
                continue;
            }
            // Must be a call: `pin` followed by `(`.
            let mut j = off + 3;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if j >= bytes.len() || bytes[j] != b'(' {
                continue;
            }
            // Method calls `.pin(` and foreign qualifiers `Box::pin(` are
            // not the epoch pin.
            if off > 0 && bytes[off - 1] == b'.' {
                continue;
            }
            if off >= 2 && &code[off - 2..off] == "::" {
                let q_end = off - 2;
                let mut q_start = q_end;
                while q_start > 0 && {
                    let b = bytes[q_start - 1];
                    b.is_ascii_alphanumeric() || b == b'_'
                } {
                    q_start -= 1;
                }
                // `crossbeam_epoch::pin` / `epoch::pin` / `llxscx::pin` are
                // the real thing; `Box::pin` / `Pin::…` / `pin::pin` are
                // std machinery.
                if PIN_FALSE_QUALIFIERS.contains(&&code[q_start..q_end]) {
                    continue;
                }
            }
            out.push(Finding {
                rule: "epoch-pin",
                file: rel_str(path),
                line,
                message: "direct `epoch::pin()` outside `llxscx::guard_cache` — use \
                          `guard_cache::with_guard` so pinning stays amortized and flushable"
                    .into(),
            });
        }
    }

    if !in_allowlist(path, RECLAIM_ALLOWLIST) {
        for word in ["defer_destroy", "into_owned"] {
            // `into_owned` also exists on `Cow`; only scan files that
            // actually use the epoch crate.
            if word == "into_owned"
                && !code.contains("crossbeam_epoch")
                && !code.contains("epoch::")
            {
                continue;
            }
            for off in sc.code_word_offsets(word) {
                let line = sc.line_of(off);
                if ctx.in_test_mod(line) {
                    continue;
                }
                let mut j = off + word.len();
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                if j >= bytes.len() || bytes[j] != b'(' {
                    continue;
                }
                out.push(Finding {
                    rule: "epoch-reclaim",
                    file: rel_str(path),
                    line,
                    message: format!(
                        "`{word}` outside the reclamation allowlist — retirement must go \
                         through a module with a documented retire protocol"
                    ),
                });
            }
        }
    }

    if !in_allowlist(path, GUARD_FIELD_ALLOWLIST) {
        for (start, end) in type_body_spans(sc) {
            for off in sc.code_word_offsets("Guard") {
                if off <= start || off >= end {
                    continue;
                }
                let line = sc.line_of(off);
                if ctx.in_test_mod(line) {
                    continue;
                }
                out.push(Finding {
                    rule: "guard-field",
                    file: rel_str(path),
                    line,
                    message: "`Guard` stored in a struct/enum body — guards must stay \
                              borrowed so a guard-cache repin cannot invalidate a live \
                              snapshot"
                        .into(),
                });
            }
        }
    }

    out.sort_by_key(|f| f.line);
    out
}

/// Byte spans of `struct`/`enum`/`union` `{ … }` bodies (braced only;
/// tuple and unit structs cannot store a named `Guard` field worth
/// flagging — a tuple field is caught by the same `Guard`-word scan when
/// the span extends over `( … )`? No: tuple structs end at `;` and are
/// skipped here; the repo has none storing guards, and the fixture corpus
/// pins this decision down).
fn type_body_spans(sc: &Scanned) -> Vec<(usize, usize)> {
    let code = sc.code();
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for kw in ["struct", "enum", "union"] {
        for off in sc.code_word_offsets(kw) {
            let mut i = off + kw.len();
            // Find the body `{` before any `;` or `(` (unit/tuple struct).
            let mut open = None;
            while i < bytes.len() {
                match bytes[i] {
                    b'{' => {
                        open = Some(i);
                        break;
                    }
                    b';' | b'(' => break,
                    _ => i += 1,
                }
            }
            let Some(open) = open else { continue };
            let mut depth = 0usize;
            let mut end = open;
            while end < bytes.len() {
                match bytes[end] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                end += 1;
            }
            out.push((open, end));
        }
    }
    out
}

// --- rule 4: suppression hygiene ------------------------------------------

/// Every `#[allow(…)]` / `#![allow(…)]` must carry an `// ALLOW:` comment
/// on its first or last line.
pub fn check_allow(path: &Path, sc: &Scanned) -> Vec<Finding> {
    let code = sc.code();
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(rel) = code[i..].find("allow") {
        let at = i + rel;
        i = at + 5;
        // Preceding `#[` or `#![` (whitespace tolerated).
        let mut k = at;
        let mut seen_bracket = false;
        let mut seen_bang = false;
        let mut seen_hash = false;
        while k > 0 {
            k -= 1;
            let b = bytes[k];
            if b.is_ascii_whitespace() {
                continue;
            }
            if b == b'[' && !seen_bracket {
                seen_bracket = true;
                continue;
            }
            if b == b'!' && seen_bracket && !seen_bang {
                seen_bang = true;
                continue;
            }
            if b == b'#' && seen_bracket {
                seen_hash = true;
            }
            break;
        }
        let _ = seen_bang;
        if !seen_hash {
            continue;
        }
        // Following `(` then the attribute's closing `]`.
        let mut j = at + 5;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if j >= bytes.len() || bytes[j] != b'(' {
            continue;
        }
        let mut depth = 0usize;
        let mut end = k; // start from the `#`
        while end < bytes.len() {
            match bytes[end] {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        let first = sc.line_of(at);
        let last = sc.line_of(end.min(bytes.len().saturating_sub(1)));
        let justified =
            sc.line_comment_contains(first, "ALLOW:") || sc.line_comment_contains(last, "ALLOW:");
        if !justified {
            out.push(Finding {
                rule: "allow-justify",
                file: rel_str(path),
                line: first,
                message: "`#[allow(…)]` without a trailing `// ALLOW:` justification — \
                          justify the suppression or fix the lint"
                    .into(),
            });
        }
        i = end.max(i);
    }
    out
}

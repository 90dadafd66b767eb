//! The four first-party rule families (see `docs/ANALYSIS.md`):
//!
//! * **unsafe-safety** — every `unsafe` token (block, fn, impl, trait)
//!   must carry a `// SAFETY:` justification comment.
//! * **ordering** — every atomic call site must name an explicit
//!   `Ordering` and carry a `// <ORDERINGS>: <text>` marker comment naming
//!   those orderings; a marker no site claims is reported too.
//! * **epoch** — `defer_destroy` / `into_owned` only in allowlisted
//!   reclamation modules; no `Guard` stored in a struct/enum body. Test
//!   code (`tests/` files and `#[cfg(test)]` modules) is exempt: substrate
//!   unit tests free their own nodes by design. (Pinning needs no rule:
//!   `llxscx::with_guard` is the only way to get a pinned `Guard`.)
//! * **allow-justify** — every `#[allow(…)]` needs a trailing `// ALLOW:`
//!   justification.

use std::path::Path;

use crate::lexer::Scanned;
use crate::syntax::{chain_head, comment_block_above, has_marker, FileCtx};
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
/// have `swap`, loaders have `load` — the lint stays false-positive-free,
/// and a marker left behind by a literal turned into a variable is still
/// reported as an orphan.)
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

/// Reclamation modules allowed to call `defer_destroy` / `into_owned` on
/// epoch pointers: each owns a documented retire protocol.
pub const RECLAIM_ALLOWLIST: &[&str] = &[
    // llxscx's record retirement: the thread that commits an SCX retires
    // its finalized records; dispose_record is the one free site.
    "crates/llxscx/src/reclaim.rs",
    // The epoch pointer types, which define `into_owned`.
    "crates/llxscx/src/epoch/atomic.rs",
    // The hopscotch table's generation retirement (growth) and its Drop:
    // a generation freezes before its successor is published.
    "crates/hashmap/src/map.rs",
    // Drop paths that drain whole structures while externally quiesced.
    "crates/lockavl/src/lib.rs",
    "crates/skiplist/src/lib.rs",
];

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
    /// The site's distinct orderings in order of appearance, upper-cased
    /// and `/`-joined: the `<ORDERINGS>` its marker must name, e.g.
    /// `"ACQREL/ACQUIRE"` for a compare_exchange pair, `"SEQCST"` for a
    /// `SeqCst, SeqCst` one.
    pub orderings: String,
    /// Last line of the (possibly multi-line) call: a trailing marker may
    /// sit on any line from `line` to here.
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
            let mut orderings: Vec<String> = Vec::new();
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
                        let upper = ord.to_ascii_uppercase();
                        if before_ok && after_ok && !orderings.contains(&upper) {
                            orderings.push(upper);
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
                orderings: orderings.join("/"),
                end_line: sc.line_of(end.min(code.len().saturating_sub(1))),
            });
        }
    }
    sites.sort_by_key(|s| (s.line, s.orderings.clone()));
    findings.sort_by_key(|f| f.line);
    (sites, findings)
}

/// Parses the ordering marker `// <ORDERINGS>: <text>` on 1-based `line`,
/// returning its `/`-joined orderings and its trimmed text. `<ORDERINGS>`
/// is one or more upper-cased [`ORDERINGS`] names joined by `/`; only a
/// plain line comment counts (not a doc comment, block comment or string).
fn ordering_marker(sc: &Scanned, line: usize) -> Option<(&str, &str)> {
    let (names, text) = sc.line_comment(line)?.trim_start().split_once(':')?;
    let is_name = |n: &str| {
        !n.bytes().any(|b| b.is_ascii_lowercase())
            && ORDERINGS.iter().any(|o| o.eq_ignore_ascii_case(n))
    };
    names.split('/').all(is_name).then(|| (names, text.trim()))
}

/// Both directions of the ordering justification:
///
/// * `ordering-justify` — a site without a marker that names exactly its
///   orderings and has text. A marker counts when it trails any line of
///   the call or sits in the comment block above the anchor line or, for
///   a `.method(` split onto a line of its own, above the chain's first
///   line (`syntax::chain_head`).
/// * `ordering-orphan` — a marker that no site claims, reported at the
///   marker's line: its site changed orderings, lost its literal, or is
///   gone.
pub fn check_orderings(
    path: &Path,
    sc: &Scanned,
    ctx: &FileCtx,
    sites: &[AtomicSite],
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut claimed = vec![false; sc.line_count() + 1];
    for site in sites {
        let mut texts = Vec::new();
        let above_chain = chain_head(sc, site.line).map(|h| comment_block_above(sc, ctx, h));
        for l in (site.line..=site.end_line)
            .chain(comment_block_above(sc, ctx, site.line))
            .chain(above_chain.into_iter().flatten())
        {
            if let Some((names, text)) = ordering_marker(sc, l) {
                if names == site.orderings {
                    claimed[l] = true;
                    texts.push(text);
                }
            }
        }
        if texts.iter().any(|t| !t.is_empty()) {
            continue;
        }
        let problem = if texts.is_empty() {
            "has no"
        } else {
            "has an empty"
        };
        out.push(Finding {
            rule: "ordering-justify",
            file: rel_str(path),
            line: site.line,
            message: format!(
                "atomic site {problem} `// {}: <why>` marker — write the one-line \
                 protocol argument at the site",
                site.orderings
            ),
        });
    }
    for (line, _) in claimed.iter().enumerate().skip(1).filter(|(_, c)| !**c) {
        if let Some((names, _)) = ordering_marker(sc, line) {
            out.push(Finding {
                rule: "ordering-orphan",
                file: rel_str(path),
                line,
                message: format!(
                    "`// {names}:` marker claimed by no atomic site — the site changed \
                     its orderings or was removed; re-justify it or delete the comment"
                ),
            });
        }
    }
    out.sort_by_key(|f| f.line);
    out
}

// --- rule 3: epoch-guard discipline ---------------------------------------

/// Epoch-discipline checks. Skipped wholesale for test files; `#[cfg(test)]`
/// module bodies are skipped per site.
pub fn check_epoch(path: &Path, sc: &Scanned, ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    if is_test_file(path) {
        return out;
    }
    let code = sc.code();
    let bytes = code.as_bytes();

    if !in_allowlist(path, RECLAIM_ALLOWLIST) {
        for word in ["defer_destroy", "into_owned"] {
            // `into_owned` also exists on `Cow`; only scan files that name
            // the epoch pointers' paths (`llxscx::…`, `epoch::…`).
            if word == "into_owned" && !["llxscx::", "epoch::"].iter().any(|p| code.contains(p)) {
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

    // Guards stay borrowed (`&Guard`), so no snapshot outlives the
    // `with_guard` call whose pin protects it.
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
                message: "`Guard` stored in a struct/enum body — guards must stay borrowed \
                          so no snapshot outlives the pin that protects it"
                    .into(),
            });
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_grammar_is_upper_case_names_joined_by_slashes() {
        let src = "// ACQREL/ACQUIRE: a pair\n//SEQCST:\n// Relaxed: lower case\n\
                   // RELAXED/: trailing slash\n// NOTE: other word\n// see RELAXED: later\n";
        let sc = Scanned::new(src);
        assert_eq!(ordering_marker(&sc, 1), Some(("ACQREL/ACQUIRE", "a pair")));
        assert_eq!(ordering_marker(&sc, 2), Some(("SEQCST", "")));
        for line in 3..=6 {
            assert_eq!(ordering_marker(&sc, line), None, "line {line}");
        }
    }

    fn findings(src: &str) -> Vec<(usize, &'static str)> {
        let path = Path::new("crates/fake/src/lib.rs");
        let sc = Scanned::new(src);
        let ctx = FileCtx::new(&sc);
        let (sites, _) = atomic_sites(path, &sc);
        let f = check_orderings(path, &sc, &ctx, &sites);
        f.iter().map(|f| (f.line, f.rule)).collect()
    }

    #[test]
    fn one_marker_serves_every_site_that_reaches_it() {
        // Two same-ordering sites on one line share a trailing marker.
        assert!(
            findings("a.load(Ordering::Relaxed) + b.load(Ordering::Relaxed); // RELAXED: x\n")
                .is_empty()
        );
        // Different orderings on one line each need their own marker.
        let src = "// RELAXED: counter\n// ACQUIRE: flag\n\
                   a.load(Ordering::Relaxed) + b.load(Ordering::Acquire);\n";
        assert!(findings(src).is_empty());
        let src = "// RELAXED: counter\na.load(Ordering::Relaxed) + b.load(Ordering::Acquire);\n";
        assert_eq!(findings(src), vec![(2, "ordering-justify")]);
    }

    #[test]
    fn a_trailing_marker_does_not_reach_the_next_line() {
        let src = "a.load(Ordering::Relaxed); // RELAXED: counter\nb.load(Ordering::Relaxed);\n";
        assert_eq!(findings(src), vec![(2, "ordering-justify")]);
    }

    #[test]
    fn a_marker_inside_a_method_chain_belongs_to_the_method_below_it() {
        let src =
            "let w = self\n    .word\n    // RELEASE: publish\n    .store(1, Ordering::Release);\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn a_marker_above_a_split_chain_belongs_to_its_methods() {
        let src = "// RELEASE: publish\nself.word\n    .store(1, Ordering::Release);\n";
        assert!(findings(src).is_empty());
        // Nested in a statement: the block above the chain's first line.
        let src = "// SEQCST: total order\nif node.next[0]\n    .compare_exchange(a, b, \
                   Ordering::SeqCst, Ordering::SeqCst)\n    .is_ok()\n{}\n";
        assert!(findings(src).is_empty());
        // Above the previous statement it reaches nothing.
        let src = "// RELEASE: publish\nlet x = 1;\nself.word\n    .store(1, Ordering::Release);\n";
        assert_eq!(
            findings(src),
            vec![(1, "ordering-orphan"), (4, "ordering-justify")]
        );
    }
}

//! Line-level syntactic context over a [`Scanned`] file: attribute spans,
//! `#[cfg(test)]` module ranges, and the "justification comment" walk that
//! the SAFETY and memory-ordering rules share.

use crate::lexer::Scanned;

/// Per-file context computed once and shared by all rules.
pub struct FileCtx {
    /// 1-based line → whether any part of the line lies inside an
    /// attribute (`#[…]` / `#![…]`), including multi-line attributes.
    attr_lines: Vec<bool>,
    /// 1-based inclusive line ranges of `#[cfg(test)] mod … { … }` bodies.
    test_ranges: Vec<(usize, usize)>,
}

impl FileCtx {
    /// Builds the context for `sc`.
    pub fn new(sc: &Scanned) -> Self {
        FileCtx {
            attr_lines: attr_lines(sc),
            test_ranges: test_ranges(sc),
        }
    }

    /// Whether 1-based `line` is (part of) an attribute.
    pub fn is_attr_line(&self, line: usize) -> bool {
        self.attr_lines
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// Whether 1-based `line` falls inside a `#[cfg(test)]` module body.
    pub fn in_test_mod(&self, line: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(s, e)| line >= s && line <= e)
    }
}

/// Marks every line that intersects an attribute. Attributes are found in
/// the code projection (`#` + optional `!` + `[`), and extend to the
/// matching `]` with nesting (`#[cfg_attr(feature = "x", allow(dead_code))]`
/// and multi-line `#[allow(\n clippy::… \n)]` both work).
fn attr_lines(sc: &Scanned) -> Vec<bool> {
    let code = sc.code().as_bytes();
    let mut out = vec![false; sc.line_count()];
    let mut i = 0usize;
    while i < code.len() {
        if code[i] != b'#' {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < code.len() && code[j].is_ascii_whitespace() {
            j += 1;
        }
        if j < code.len() && code[j] == b'!' {
            j += 1;
            while j < code.len() && code[j].is_ascii_whitespace() {
                j += 1;
            }
        }
        if j >= code.len() || code[j] != b'[' {
            i += 1;
            continue;
        }
        // Balanced bracket scan (code projection: brackets in strings and
        // comments are already blanked).
        let mut depth = 0usize;
        let mut end = j;
        while end < code.len() {
            match code[end] {
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
        let (ls, le) = (sc.line_of(i), sc.line_of(end.min(code.len() - 1)));
        for slot in &mut out[ls - 1..le.min(sc.line_count())] {
            *slot = true;
        }
        i = end + 1;
    }
    out
}

/// Finds `#[cfg(test)] mod … { … }` bodies. The epoch-discipline rules
/// exempt them: unit tests of the reclamation substrate itself pin the
/// epoch directly by design, and test scaffolding is not a hot path.
fn test_ranges(sc: &Scanned) -> Vec<(usize, usize)> {
    let code = sc.code();
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut search_from = 0usize;
    while let Some(rel) = code[search_from..].find("cfg(test)") {
        let at = search_from + rel;
        search_from = at + 1;
        // Must be inside an attribute on this line (e.g. `#[cfg(test)]`,
        // `#[cfg_attr(test, …)]` is close enough for an exemption scan).
        let line = sc.line_of(at);
        let lt = sc.code_line(line);
        if !lt.trim_start().starts_with('#') {
            continue;
        }
        // Scan forward for `mod` then its `{ … }` body.
        let mut i = at + "cfg(test)".len();
        // Skip to the end of the attribute.
        while i < bytes.len() && bytes[i] != b']' {
            i += 1;
        }
        let Some(rel_mod) = code[i..].find("mod ") else {
            continue;
        };
        // `mod` must follow closely (whitespace/attributes only between).
        let between = &code[i + 1..i + rel_mod];
        if !between.chars().all(|c| {
            c.is_whitespace()
                || c == '#'
                || c == '['
                || c == ']'
                || c.is_alphanumeric()
                || c == '_'
                || c == '('
                || c == ')'
                || c == ','
                || c == ':'
                || c == '"'
        }) {
            continue;
        }
        let Some(rel_brace) = code[i + rel_mod..].find('{') else {
            continue;
        };
        let open = i + rel_mod + rel_brace;
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
        out.push((line, sc.line_of(end.min(bytes.len() - 1))));
        search_from = end;
    }
    out
}

/// Whether the site at 1-based `line` carries a justification comment with
/// `marker` (e.g. `SAFETY:`): either trailing on the line itself, or in
/// the contiguous comment block immediately above it
/// (`comment_block_above`).
pub fn has_marker(sc: &Scanned, ctx: &FileCtx, line: usize, marker: &str) -> bool {
    std::iter::once(line)
        .chain(comment_block_above(sc, ctx, line))
        .any(|l| sc.line_comment_contains(l, marker))
}

/// The 1-based lines of the contiguous comment block immediately above
/// `line`, nearest first. Attribute lines between the block and the site
/// are skipped, so in
///
/// ```text
/// // SAFETY: the pool owns this slot
/// #[inline]
/// unsafe fn claim(&self) { … }
/// ```
///
/// the comment belongs to the `unsafe fn` line. A blank line or a code
/// line ends the block.
pub(crate) fn comment_block_above(sc: &Scanned, ctx: &FileCtx, line: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut k = line.saturating_sub(1);
    while k >= 1 {
        if !ctx.is_attr_line(k) {
            let code = sc.code_line(k).trim();
            let raw = sc.line_text(k).trim();
            if !(code.is_empty() && raw.starts_with("//")) {
                break; // blank line or code: the block (if any) ended
            }
            out.push(k);
        }
        k -= 1;
    }
    out
}

/// The first line of the method chain that 1-based `line` continues, or
/// `None` when `line` does not start with `.`. `rustfmt` splits a long
/// chain one `.method(` per line under its receiver; walking up over those
/// `.`-led lines and over comment lines reaches the chain's first line,
/// the one that starts the statement:
///
/// ```text
/// // RELEASE: publish the slots before the word
/// self.word
///     .store(next, Ordering::Release);
/// ```
///
/// A blank line ends the walk with `None`.
pub(crate) fn chain_head(sc: &Scanned, line: usize) -> Option<usize> {
    if !sc.code_line(line).trim_start().starts_with('.') {
        return None;
    }
    for k in (1..line).rev() {
        let code = sc.code_line(k).trim();
        if code.is_empty() {
            if !sc.line_text(k).trim().starts_with("//") {
                return None; // a blank line
            }
        } else if !code.starts_with('.') {
            return Some(k);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> (Scanned, FileCtx) {
        let sc = Scanned::new(src);
        let c = FileCtx::new(&sc);
        (sc, c)
    }

    #[test]
    fn single_and_multi_line_attributes_are_marked() {
        let (_, c) = ctx("#[inline]\nfn f() {}\n#[allow(\n    dead_code,\n)]\nfn g() {}\n");
        assert!(c.is_attr_line(1));
        assert!(!c.is_attr_line(2));
        assert!(c.is_attr_line(3));
        assert!(c.is_attr_line(4));
        assert!(c.is_attr_line(5));
        assert!(!c.is_attr_line(6));
    }

    #[test]
    fn cfg_test_mod_bodies_are_ranged() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let (_, c) = ctx(src);
        assert!(!c.in_test_mod(1));
        assert!(c.in_test_mod(3));
        assert!(c.in_test_mod(4));
        assert!(c.in_test_mod(5));
        assert!(!c.in_test_mod(6));
    }

    #[test]
    fn marker_trailing_or_in_block_above() {
        let src = "// SAFETY: slot is owned\nunsafe { go() };\nlet x = unsafe { f() }; // SAFETY: inline\n\nunsafe { bare() };\n";
        let (sc, c) = ctx(src);
        assert!(has_marker(&sc, &c, 2, "SAFETY:"));
        assert!(has_marker(&sc, &c, 3, "SAFETY:"));
        assert!(!has_marker(&sc, &c, 5, "SAFETY:"));
    }

    #[test]
    fn marker_survives_attributes_and_multi_line_comment_blocks() {
        let src = "// SAFETY: the incarnation tag\n// guards this read.\n#[inline]\n#[allow(\n  unused,\n)]\nunsafe fn f() {}\n";
        let (sc, c) = ctx(src);
        assert!(has_marker(&sc, &c, 7, "SAFETY:"));
    }

    #[test]
    fn comment_block_above_is_nearest_first_and_skips_attributes() {
        let src = "let a = 1;\n// two\n// one\n#[inline]\nfn f() {}\n";
        let (sc, c) = ctx(src);
        assert_eq!(comment_block_above(&sc, &c, 5), vec![3, 2]);
        assert_eq!(comment_block_above(&sc, &c, 2), Vec::<usize>::new());
    }

    #[test]
    fn chain_head_walks_up_over_dotted_and_comment_lines() {
        let src = "let a = 1;\nlet v = self\n    .word\n    // note\n    .load(o);\n\n    .x();\n";
        let (sc, _) = ctx(src);
        assert_eq!(chain_head(&sc, 5), Some(2));
        assert_eq!(chain_head(&sc, 3), Some(2));
        assert_eq!(chain_head(&sc, 2), None, "not a continuation");
        assert_eq!(chain_head(&sc, 7), None, "a blank line ends the walk");
    }

    #[test]
    fn blank_line_breaks_the_block() {
        let src = "// SAFETY: stale\n\nunsafe { f() };\n";
        let (sc, c) = ctx(src);
        assert!(!has_marker(&sc, &c, 3, "SAFETY:"));
    }

    #[test]
    fn marker_in_string_does_not_count() {
        let src = "let s = \"SAFETY: fake\";\nunsafe { f() };\n";
        let (sc, c) = ctx(src);
        assert!(!has_marker(&sc, &c, 2, "SAFETY:"));
    }
}

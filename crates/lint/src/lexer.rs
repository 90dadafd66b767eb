//! A hand-rolled Rust *token-surface* scanner.
//!
//! `nblint`'s rules are textual ("an `unsafe` token must be preceded by a
//! `// SAFETY:` comment"), but naive text search lies: `unsafe` appears in
//! strings, doc comments, and `#[doc]` attributes all over a concurrency
//! codebase. This module classifies every byte of a source file as
//! [`Kind::Code`], [`Kind::Comment`] or [`Kind::Str`], handling the lexical
//! shapes that defeat grep:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */` — Rust block comments nest, unlike C),
//! * string literals with escapes (`"\""`), byte strings (`b"…"`),
//! * raw strings with arbitrary hash fences (`r#"…"#`, `br##"…"##`) — but
//!   not raw *identifiers* (`r#fn`), which stay code,
//! * char literals incl. escapes (`'\''`, `'\u{1F980}'`) vs lifetimes
//!   (`'static`, `<'a>`) and loop labels (`'outer:`).
//!
//! The scanner is byte-oriented; multi-byte UTF-8 sequences never collide
//! with the ASCII delimiters it switches on, so it is UTF-8 clean without
//! decoding.

/// Lexical class of one byte of source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Real code: identifiers, punctuation, whitespace between tokens.
    Code,
    /// Inside a `//…` or `/* … */` comment (delimiters included).
    Comment,
    /// Inside a string, raw string, byte string or char literal.
    Str,
}

/// A scanned source file: the raw text plus a per-byte [`Kind`] map and a
/// code-only projection used for token search.
pub struct Scanned {
    text: String,
    kinds: Vec<Kind>,
    /// `text` with every non-[`Kind::Code`] byte replaced by a space
    /// (newlines preserved), so byte offsets and line numbers agree with
    /// the original and substring search only ever hits code.
    code: String,
    /// Byte offset where each 0-based line starts.
    line_starts: Vec<usize>,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

impl Scanned {
    /// Scans `text`, classifying every byte.
    pub fn new(text: &str) -> Self {
        let bytes = text.as_bytes();
        let n = bytes.len();
        let mut kinds = vec![Kind::Code; n];
        let mut i = 0usize;
        while i < n {
            let b = bytes[i];
            match b {
                b'/' if i + 1 < n && bytes[i + 1] == b'/' => {
                    let end = memchr_newline(bytes, i);
                    fill(&mut kinds, i, end, Kind::Comment);
                    i = end;
                }
                b'/' if i + 1 < n && bytes[i + 1] == b'*' => {
                    // Nested block comment.
                    let mut depth = 1usize;
                    let start = i;
                    i += 2;
                    while i < n && depth > 0 {
                        if bytes[i] == b'/' && i + 1 < n && bytes[i + 1] == b'*' {
                            depth += 1;
                            i += 2;
                        } else if bytes[i] == b'*' && i + 1 < n && bytes[i + 1] == b'/' {
                            depth -= 1;
                            i += 2;
                        } else {
                            i += 1;
                        }
                    }
                    fill(&mut kinds, start, i, Kind::Comment);
                }
                b'"' => {
                    let end = scan_string(bytes, i);
                    fill(&mut kinds, i, end, Kind::Str);
                    i = end;
                }
                b'r' | b'b' if !prev_is_ident(bytes, i) => {
                    // Possible r"…", r#"…"#, b"…", br#"…"#, b'…' prefixes.
                    if let Some(end) = scan_prefixed_literal(bytes, i) {
                        fill(&mut kinds, i, end, Kind::Str);
                        i = end;
                    } else {
                        i += 1;
                    }
                }
                b'\'' => {
                    if let Some(end) = scan_char_literal(bytes, i) {
                        fill(&mut kinds, i, end, Kind::Str);
                        i = end;
                    } else {
                        // Lifetime or label: the quote and ident stay code.
                        i += 1;
                    }
                }
                _ => i += 1,
            }
        }
        let code = text
            .bytes()
            .zip(kinds.iter())
            .map(|(b, k)| {
                if *k == Kind::Code || b == b'\n' {
                    b
                } else {
                    b' '
                }
            })
            .collect::<Vec<u8>>();
        // SAFETY-free reconstruction: every replaced byte is ASCII space and
        // multi-byte sequences are replaced wholesale, so this is valid
        // UTF-8 — but go through the checked constructor anyway.
        let code = String::from_utf8(code).expect("masking preserves UTF-8");
        let mut line_starts = vec![0usize];
        for (at, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(at + 1);
            }
        }
        Scanned {
            text: text.to_string(),
            kinds,
            code,
            line_starts,
        }
    }

    /// The original text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The code-only projection (non-code bytes blanked, offsets preserved).
    pub fn code(&self) -> &str {
        &self.code
    }

    /// Number of lines.
    pub fn line_count(&self) -> usize {
        self.line_starts.len()
    }

    /// 1-based line containing byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= offset)
    }

    /// Byte range of 1-based `line` (without the trailing newline).
    fn line_span(&self, line: usize) -> (usize, usize) {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map(|&s| s.saturating_sub(1))
            .unwrap_or(self.text.len());
        (start, end)
    }

    /// Raw text of 1-based `line`.
    pub fn line_text(&self, line: usize) -> &str {
        let (s, e) = self.line_span(line);
        &self.text[s..e]
    }

    /// Code-only text of 1-based `line`.
    pub fn code_line(&self, line: usize) -> &str {
        let (s, e) = self.line_span(line);
        &self.code[s..e]
    }

    /// Whether 1-based `line` carries a comment containing `marker`
    /// (`SAFETY:`, `SEQCST:`, `ALLOW:` …). Only [`Kind::Comment`] bytes
    /// count: the marker inside a string literal does not satisfy a rule.
    pub fn line_comment_contains(&self, line: usize, marker: &str) -> bool {
        let (s, e) = self.line_span(line);
        self.text[s..e]
            .match_indices(marker)
            .any(|(at, _)| self.kinds[s + at] == Kind::Comment)
    }

    /// Iterator over word-boundary occurrences of `word` in the code
    /// projection, yielding byte offsets.
    pub fn code_word_offsets<'a>(&'a self, word: &'a str) -> impl Iterator<Item = usize> + 'a {
        let bytes = self.code.as_bytes();
        self.code.match_indices(word).filter_map(move |(at, _)| {
            // `r#word` is a raw identifier, not the keyword/method token.
            let raw_ident = at >= 2
                && bytes[at - 1] == b'#'
                && bytes[at - 2] == b'r'
                && (at == 2 || !is_ident(bytes[at - 3]));
            let before_ok = !raw_ident && (at == 0 || !is_ident(bytes[at - 1]));
            let end = at + word.len();
            let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
            (before_ok && after_ok).then_some(at)
        })
    }
}

fn fill(kinds: &mut [Kind], from: usize, to: usize, k: Kind) {
    let to = to.min(kinds.len());
    for slot in &mut kinds[from..to] {
        *slot = k;
    }
}

fn memchr_newline(bytes: &[u8], from: usize) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|p| from + p)
        .unwrap_or(bytes.len())
}

fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && is_ident(bytes[i - 1])
}

/// Scans a plain `"…"` string starting at the opening quote; returns the
/// offset one past the closing quote.
fn scan_string(bytes: &[u8], start: usize) -> usize {
    let n = bytes.len();
    let mut i = start + 1;
    while i < n {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    n
}

/// Scans `r"…"`, `r#"…"#`, `b"…"`, `br##"…"##` or `b'…'` starting at the
/// `r`/`b` prefix. Returns `None` if this is not actually a literal (raw
/// identifier `r#fn`, or a bare `r`/`b` identifier).
fn scan_prefixed_literal(bytes: &[u8], start: usize) -> Option<usize> {
    let n = bytes.len();
    let mut i = start;
    let mut raw = false;
    if bytes[i] == b'b' {
        i += 1;
        if i < n && bytes[i] == b'\'' {
            // Byte char literal b'x' / b'\n'.
            return scan_char_literal(bytes, i).or(Some((i + 2).min(n)));
        }
        if i < n && bytes[i] == b'r' {
            raw = true;
            i += 1;
        }
    } else {
        // bytes[start] == b'r'
        raw = true;
        i += 1;
    }
    let mut hashes = 0usize;
    if raw {
        while i < n && bytes[i] == b'#' {
            hashes += 1;
            i += 1;
        }
    }
    if i >= n || bytes[i] != b'"' {
        return None; // raw identifier or plain `r`/`b` ident
    }
    if !raw {
        return Some(scan_string(bytes, i));
    }
    // Raw string: no escapes; ends at `"` followed by `hashes` hashes.
    let mut j = i + 1;
    while j < n {
        if bytes[j] == b'"'
            && bytes[j + 1..]
                .iter()
                .take(hashes)
                .filter(|&&b| b == b'#')
                .count()
                == hashes
        {
            return Some(j + 1 + hashes);
        }
        j += 1;
    }
    Some(n)
}

/// Scans a char literal starting at the opening `'`; returns the offset one
/// past the closing quote, or `None` if this is a lifetime/label.
fn scan_char_literal(bytes: &[u8], start: usize) -> Option<usize> {
    let n = bytes.len();
    let i = start + 1;
    if i >= n {
        return None;
    }
    if bytes[i] == b'\\' {
        // Escaped: scan to the closing quote ('\n', '\'', '\u{…}').
        let mut j = i + 1;
        while j < n {
            match bytes[j] {
                b'\\' => j += 2,
                b'\'' => return Some(j + 1),
                b'\n' => return None, // malformed; treat as lifetime-ish
                _ => j += 1,
            }
        }
        return None;
    }
    // One UTF-8 char (1–4 bytes) then a closing quote ⇒ char literal;
    // anything else (identifier run, `<`, `,`, …) ⇒ lifetime or label.
    let len = utf8_len(bytes[i]);
    let j = i + len;
    if j < n && bytes[j] == b'\'' && bytes[i] != b'\'' {
        Some(j + 1)
    } else {
        None
    }
}

fn utf8_len(b: u8) -> usize {
    match b {
        _ if b < 0x80 => 1,
        _ if b & 0xE0 == 0xC0 => 2,
        _ if b & 0xF0 == 0xE0 => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> String {
        Scanned::new(src).code().to_string()
    }

    #[test]
    fn line_comments_are_masked() {
        let c = code_of("let x = 1; // unsafe here\nlet y = 2;");
        assert!(!c.contains("unsafe"));
        assert!(c.contains("let y = 2;"));
    }

    #[test]
    fn nested_block_comments_are_masked_to_the_outer_close() {
        let c = code_of("a /* outer /* inner unsafe */ still comment */ b");
        assert!(!c.contains("unsafe"));
        assert!(!c.contains("still"));
        assert!(c.starts_with('a'));
        assert!(c.trim_end().ends_with('b'));
    }

    #[test]
    fn strings_and_escapes_are_masked() {
        let c = code_of(r#"let s = "unsafe \" still string"; let t = 1;"#);
        assert!(!c.contains("unsafe"));
        assert!(!c.contains("still"));
        assert!(c.contains("let t = 1;"));
    }

    #[test]
    fn raw_strings_with_hash_fences_are_masked() {
        let c = code_of(r###"let s = r#"unsafe " not closed yet"# ; let u = 2;"###);
        assert!(!c.contains("unsafe"));
        assert!(c.contains("let u = 2;"));
        let c = code_of("let s = r\"unsafe\"; done();");
        assert!(!c.contains("unsafe"));
        assert!(c.contains("done();"));
    }

    #[test]
    fn byte_strings_and_byte_chars_are_masked() {
        let c = code_of(r#"let b = b"unsafe"; let ch = b'u'; go();"#);
        assert!(!c.contains("unsafe"));
        assert!(c.contains("go();"));
    }

    #[test]
    fn raw_identifiers_stay_code() {
        let c = code_of("fn r#unsafe() {} call(r#fn);");
        // The raw-identifier *keyword text* stays visible — it is code —
        // and nothing after it is swallowed as a string.
        assert!(c.contains("call(r#fn);"));
        // But word search must not mistake `r#unsafe` for the keyword.
        let sc = Scanned::new("fn r#unsafe() {}\nunsafe { f() };\n");
        let hits: Vec<usize> = sc.code_word_offsets("unsafe").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(sc.line_of(hits[0]), 2);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let c = code_of("let q = '\"'; let l: &'static str = x; let c2 = 'a'; 'outer: loop {}");
        // The quote char literal must not open a string that swallows the rest.
        assert!(c.contains("let l:"));
        assert!(c.contains("&'static str"), "lifetimes stay code: {c}");
        assert!(!c.contains("'a'"), "char literal masked");
        assert!(c.contains("'outer: loop"), "labels stay code");
    }

    #[test]
    fn escaped_char_literals() {
        let c = code_of(r"let a = '\''; let b = '\u{1F980}'; end();");
        assert!(c.contains("end();"));
        assert!(!c.contains("1F980"));
    }

    #[test]
    fn unicode_in_strings_and_comments() {
        let c = code_of("let s = \"日本語 unsafe\"; // コメント unsafe\nok();");
        assert!(!c.contains("unsafe"));
        assert!(c.contains("ok();"));
    }

    #[test]
    fn line_numbers_and_line_text() {
        let sc = Scanned::new("first\nsecond // c\nthird");
        assert_eq!(sc.line_count(), 3);
        assert_eq!(sc.line_text(2), "second // c");
        assert_eq!(sc.code_line(2).trim_end(), "second");
        let off = sc.text().find("third").unwrap();
        assert_eq!(sc.line_of(off), 3);
    }

    #[test]
    fn comment_marker_detection_ignores_strings() {
        let sc = Scanned::new("let x = \"SAFETY: fake\"; // real comment\n");
        assert!(!sc.line_comment_contains(1, "SAFETY:"));
        let sc = Scanned::new("let y = 1; // SAFETY: the real thing\n");
        assert!(sc.line_comment_contains(1, "SAFETY:"));
    }

    #[test]
    fn word_boundary_search() {
        let sc = Scanned::new("unsafe_code unsafe fn f() {} my_unsafe\n");
        let hits: Vec<usize> = sc.code_word_offsets("unsafe").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(sc.line_of(hits[0]), 1);
    }

    #[test]
    fn doc_comments_and_doc_attrs() {
        let src = "/// doc unsafe\n//! inner unsafe\n#[doc = \"attr unsafe\"]\nfn f() {}\n";
        let c = code_of(src);
        assert!(!c.contains("unsafe"));
        assert!(c.contains("fn f() {}"));
    }
}

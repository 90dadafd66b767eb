//! The ordering-audit manifest: `docs/ordering_audit.toml`.
//!
//! Every explicit-ordering atomic call site in first-party code must have
//! a row here carrying a hand-written one-line justification; `nblint
//! --check` verifies the manifest against the code in both directions
//! (site with no row, row with no site). Rows are keyed by `(file, hash,
//! ordering)` where `hash` is a whitespace-normalized FNV-1a of the site
//! line's *code* text — so moving a line (or editing its comments) does
//! not invalidate its row, while changing the code or the ordering does.
//!
//! The file is regenerated by `nblint --update-manifest`, which preserves
//! existing justifications for surviving `(file, hash, ordering)` keys
//! and orders rows by each site's current line without storing it (a
//! stored line would drift with every edit above the site, and nothing
//! could check it).
//! The format is a deliberate TOML subset (`[[site]]` tables of string /
//! integer keys) so the zero-dependency reader below can parse it.

/// One manifest row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 16-hex-digit FNV-1a of the normalized code text of the site line.
    pub hash: String,
    /// Comma-joined orderings the site names, in order of appearance
    /// (e.g. `"AcqRel,Acquire"` for a compare_exchange pair).
    pub ordering: String,
    /// Hand-written one-line justification. `--check` rejects empty ones.
    pub justification: String,
}

/// FNV-1a 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// The line-anchored context hash: all whitespace is dropped before
/// hashing, so re-indenting or re-spacing a line does not count as drift
/// but any code change does.
pub fn context_hash(code_line: &str) -> String {
    let norm: String = code_line.chars().filter(|c| !c.is_whitespace()).collect();
    format!("{:016x}", fnv1a(norm.as_bytes()))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Renders rows to manifest text (stable order is the caller's concern;
/// `--update-manifest` sorts by each site's file and current line).
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "# Ordering audit manifest — generated by `cargo run -p lint --bin nblint -- --update-manifest`.\n\
         # One [[site]] per explicit-ordering atomic call site in first-party code.\n\
         # `hash` anchors the row to the site line's code text; `justification`\n\
         # is hand-written and preserved across regenerations. See docs/ANALYSIS.md.\n",
    );
    for row in rows {
        out.push_str("\n[[site]]\n");
        out.push_str(&format!("file = \"{}\"\n", escape(&row.file)));
        out.push_str(&format!("hash = \"{}\"\n", row.hash));
        out.push_str(&format!("ordering = \"{}\"\n", escape(&row.ordering)));
        out.push_str(&format!(
            "justification = \"{}\"\n",
            escape(&row.justification)
        ));
    }
    out
}

/// Parses manifest text into rows, each paired with the 1-based manifest
/// line of its `[[site]]` header (where a finding about the row points).
/// Errors carry the offending line number.
pub fn parse(text: &str) -> Result<Vec<(usize, Row)>, String> {
    let mut rows: Vec<(usize, Row)> = Vec::new();
    let mut cur: Option<(usize, PartialRow)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lno = idx + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[site]]" {
            if let Some((at, p)) = cur.take() {
                rows.push((at, p.finish(lno)?));
            }
            cur = Some((lno, PartialRow::default()));
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(format!("manifest line {lno}: expected `key = value`"));
        };
        let key = line[..eq].trim();
        let value = line[eq + 1..].trim();
        let Some((_, p)) = cur.as_mut() else {
            return Err(format!(
                "manifest line {lno}: `{key}` outside a [[site]] table"
            ));
        };
        match key {
            "file" | "hash" | "ordering" | "justification" => {
                if !(value.starts_with('"') && value.ends_with('"') && value.len() >= 2) {
                    return Err(format!(
                        "manifest line {lno}: `{key}` must be a double-quoted string"
                    ));
                }
                let v = unescape(&value[1..value.len() - 1]);
                match key {
                    "file" => p.file = Some(v),
                    "hash" => p.hash = Some(v),
                    "ordering" => p.ordering = Some(v),
                    _ => p.justification = Some(v),
                }
            }
            other => {
                return Err(format!("manifest line {lno}: unknown key `{other}`"));
            }
        }
    }
    if let Some((at, p)) = cur.take() {
        rows.push((at, p.finish(text.lines().count())?));
    }
    Ok(rows)
}

#[derive(Default)]
struct PartialRow {
    file: Option<String>,
    hash: Option<String>,
    ordering: Option<String>,
    justification: Option<String>,
}

impl PartialRow {
    fn finish(self, at: usize) -> Result<Row, String> {
        Ok(Row {
            file: self
                .file
                .ok_or_else(|| format!("manifest: [[site]] before line {at} missing `file`"))?,
            hash: self
                .hash
                .ok_or_else(|| format!("manifest: [[site]] before line {at} missing `hash`"))?,
            ordering: self
                .ordering
                .ok_or_else(|| format!("manifest: [[site]] before line {at} missing `ordering`"))?,
            justification: self.justification.ok_or_else(|| {
                format!("manifest: [[site]] before line {at} missing `justification`")
            })?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Row {
        Row {
            file: "crates/x/src/lib.rs".into(),
            hash: context_hash("flag.store(true, Ordering::Release);"),
            ordering: "Release".into(),
            justification: "publishes the init; pairs with the Acquire load in get()".into(),
        }
    }

    #[test]
    fn round_trip() {
        let rows = vec![
            row(),
            Row {
                ordering: "AcqRel,Acquire".into(),
                justification: "CAS success publishes; failure re-reads — \"both\" sides".into(),
                ..row()
            },
        ];
        let text = render(&rows);
        let back = parse(&text).unwrap();
        let (at, back): (Vec<usize>, Vec<Row>) = back.into_iter().unzip();
        assert_eq!(back, rows);
        // Each row points at its own `[[site]]` header.
        for n in at {
            assert_eq!(text.lines().nth(n - 1), Some("[[site]]"));
        }
    }

    #[test]
    fn hash_is_whitespace_insensitive_but_code_sensitive() {
        let a = context_hash("  x.load(Ordering::Acquire)  ");
        let b = context_hash("x.load( Ordering::Acquire )");
        let c = context_hash("x.load(Ordering::Relaxed)");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        assert!(parse("[[site]]\nfile = unquoted\n")
            .unwrap_err()
            .contains("line 2"));
        assert!(parse("file = \"x\"\n").unwrap_err().contains("outside"));
        assert!(parse("[[site]]\nfile = \"x\"\n")
            .unwrap_err()
            .contains("missing `hash`"));
        // A `line` key is no longer part of the format.
        assert!(parse("[[site]]\nline = 1\n")
            .unwrap_err()
            .contains("unknown key `line`"));
        assert!(parse("[[site]]\nwat = 1\n")
            .unwrap_err()
            .contains("unknown key"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header\n\n[[site]]\n# inner\nfile = \"f.rs\"\nhash = \"00\"\nordering = \"Relaxed\"\njustification = \"j\"\n";
        assert_eq!(parse(text).unwrap().len(), 1);
    }
}

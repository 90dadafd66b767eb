//! Markdown link extraction and intra-repo resolution for the `linkcheck`
//! binary (the docs CI gate). Grep-grade on purpose: no network, no
//! markdown AST — scan for `](target)` inline links and `[label]: target`
//! reference definitions, skip external schemes, and check that relative
//! targets exist on disk.

use std::path::{Component, Path, PathBuf};

/// One link occurrence in a markdown file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    /// Link target as written (before stripping `#fragment`).
    pub target: String,
    /// 1-based line number of the occurrence.
    pub line: usize,
}

/// Extracts link targets from markdown text: inline `[text](target)`
/// links and images, plus `[label]: target` reference definitions.
/// Fenced code blocks are skipped (they hold example syntax, not links).
pub fn extract_links(text: &str) -> Vec<Link> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        // Inline links: every `](...)` occurrence. Inline code spans are
        // not special-cased; a false positive there fails loudly in CI
        // and gets the doc fixed, which is the cheap kind of error.
        let bytes = line.as_bytes();
        let mut i = 0;
        while i + 1 < bytes.len() {
            if bytes[i] == b']' && bytes[i + 1] == b'(' {
                if let Some(close) = line[i + 2..].find(')') {
                    let target = line[i + 2..i + 2 + close].trim();
                    // `[x](url "title")` — drop the title part.
                    let target = target.split_whitespace().next().unwrap_or("");
                    if !target.is_empty() {
                        out.push(Link {
                            target: target.to_string(),
                            line: idx + 1,
                        });
                    }
                    i += 2 + close;
                    continue;
                }
            }
            i += 1;
        }
        // Reference definitions: `[label]: target` at line start.
        if let Some(rest) = trimmed.strip_prefix('[') {
            if let Some(end) = rest.find("]:") {
                let target = rest[end + 2..].split_whitespace().next();
                if let Some(target) = target.filter(|t| !t.is_empty()) {
                    out.push(Link {
                        target: target.to_string(),
                        line: idx + 1,
                    });
                }
            }
        }
    }
    out
}

/// Whether a target points outside the repo (external scheme or
/// pure-fragment/in-page anchor) and is therefore not checked.
pub fn is_external(target: &str) -> bool {
    target.starts_with('#')
        || target.contains("://")
        || target.starts_with("mailto:")
        || target.starts_with("data:")
}

/// Resolves `target` (as written in a file at `from`) to a repo path and
/// checks existence. Returns `None` when the link is fine (external,
/// anchor-only, or resolves to an existing file/dir), `Some(resolved)`
/// with the path that does not exist otherwise.
pub fn broken_target(repo_root: &Path, from: &Path, target: &str) -> Option<PathBuf> {
    if is_external(target) {
        return None;
    }
    // Strip `#fragment`; heading anchors are not verified (grep-grade).
    let path_part = target.split('#').next().unwrap_or("");
    if path_part.is_empty() {
        return None;
    }
    let base = if let Some(abs) = path_part.strip_prefix('/') {
        // Root-relative: resolve against the repo root.
        repo_root.join(abs)
    } else {
        from.parent().unwrap_or(repo_root).join(path_part)
    };
    // Normalize `..` components without touching the filesystem, so the
    // reported path is readable and escape attempts don't panic.
    let mut normalized = PathBuf::new();
    for comp in base.components() {
        match comp {
            Component::ParentDir => {
                normalized.pop();
            }
            Component::CurDir => {}
            other => normalized.push(other),
        }
    }
    if normalized.exists() {
        None
    } else {
        Some(normalized)
    }
}

/// Collects every `*.md` under `root`, skipping `target/`, `vendor/`,
/// `.git/` and hidden directories (vendored crates' docs are not ours to
/// gate).
pub fn markdown_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name.starts_with('.') || name == "target" || name == "vendor" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".md") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// The changelog's entry lines (`- **PR <n> …`) whose PR number is not
/// strictly greater than the previous entry's, as `(line, number)` with
/// 1-based lines. `CHANGES.md` is append-only and numbered after git's
/// `PR <n>:` commits, so a duplicate or out-of-order number is an entry
/// filed under the wrong PR.
pub fn changelog_out_of_order(text: &str) -> Vec<(usize, u32)> {
    let mut out = Vec::new();
    let mut last = None;
    for (idx, line) in text.lines().enumerate() {
        let Some(rest) = line.strip_prefix("- **PR ") else {
            continue;
        };
        let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
        let Some(n) = digits.and_then(|d| d.parse::<u32>().ok()) else {
            continue;
        };
        if last.is_some_and(|prev| n <= prev) {
            out.push((idx + 1, n));
        }
        last = Some(n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn changelog_numbers_must_strictly_increase() {
        let ok = "# CHANGES\n\n- **PR 1 — a**\n- **PR 2 — b**\n- **PR 19 — c**\nprose PR 3\n";
        assert_eq!(changelog_out_of_order(ok), vec![]);
        let bad =
            "- **PR 6 — a**\n# CHANGES\n- **PR 5 — b**\n- **PR 7 — c**\n- **PR 7 (ISSUE 9) — d**\n";
        assert_eq!(changelog_out_of_order(bad), vec![(3, 5), (5, 7)]);
    }

    #[test]
    fn extracts_inline_and_reference_links() {
        let md = "\
See [arch](docs/ARCHITECTURE.md) and [perf](docs/PERFORMANCE.md#knobs).
![fig](assets/fig8.png)
Two on one line: [a](x.md) then [b](y.md \"titled\").
[ref]: ../up.md
```
[not a link](skipped/in/fence.md)
```
External [site](https://example.com) and [anchor](#local).";
        let links = extract_links(md);
        let targets: Vec<&str> = links.iter().map(|l| l.target.as_str()).collect();
        assert_eq!(
            targets,
            vec![
                "docs/ARCHITECTURE.md",
                "docs/PERFORMANCE.md#knobs",
                "assets/fig8.png",
                "x.md",
                "y.md",
                "../up.md",
                "https://example.com",
                "#local",
            ]
        );
        assert_eq!(links[0].line, 1);
        assert_eq!(links[5].line, 4);
    }

    #[test]
    fn externals_and_anchors_are_skipped() {
        assert!(is_external("https://a.b/c"));
        assert!(is_external("http://a"));
        assert!(is_external("mailto:x@y.z"));
        assert!(is_external("#section"));
        assert!(!is_external("docs/X.md"));
        assert!(!is_external("../X.md"));
    }

    #[test]
    fn resolves_relative_to_file_and_reports_broken() {
        let tmp = std::env::temp_dir().join(format!("linkcheck-test-{}", std::process::id()));
        std::fs::create_dir_all(tmp.join("docs")).unwrap();
        std::fs::write(tmp.join("README.md"), "x").unwrap();
        std::fs::write(tmp.join("docs/A.md"), "x").unwrap();

        let from = tmp.join("docs/A.md");
        // Sibling, with fragment.
        assert_eq!(broken_target(&tmp, &from, "A.md#frag"), None);
        // Up-and-over.
        assert_eq!(broken_target(&tmp, &from, "../README.md"), None);
        // Root-relative.
        assert_eq!(broken_target(&tmp, &from, "/README.md"), None);
        // Broken.
        let missing = broken_target(&tmp, &from, "missing.md");
        assert_eq!(missing, Some(tmp.join("docs/missing.md")));
        // Fragment-only and external are never broken.
        assert_eq!(broken_target(&tmp, &from, "#x"), None);
        assert_eq!(broken_target(&tmp, &from, "https://x"), None);

        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn walk_skips_vendor_and_target() {
        let tmp = std::env::temp_dir().join(format!("linkwalk-test-{}", std::process::id()));
        for d in ["docs", "vendor/x", "target/doc", ".git"] {
            std::fs::create_dir_all(tmp.join(d)).unwrap();
        }
        std::fs::write(tmp.join("README.md"), "x").unwrap();
        std::fs::write(tmp.join("docs/A.md"), "x").unwrap();
        std::fs::write(tmp.join("vendor/x/README.md"), "x").unwrap();
        std::fs::write(tmp.join("target/doc/B.md"), "x").unwrap();
        std::fs::write(tmp.join(".git/C.md"), "x").unwrap();

        let files = markdown_files(&tmp);
        let names: Vec<String> = files
            .iter()
            .map(|p| p.strip_prefix(&tmp).unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec!["README.md".to_string(), "docs/A.md".to_string()]
        );

        std::fs::remove_dir_all(&tmp).unwrap();
    }
}

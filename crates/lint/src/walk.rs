//! First-party source discovery: every `*.rs` under the repo root except
//! `vendor/` (not ours to lint), `target/`, hidden directories, and the
//! lint's own `tests/fixtures/` corpora (which contain deliberate
//! violations as test data).

use std::path::{Path, PathBuf};

/// Collects first-party `*.rs` files under `root`, sorted.
pub fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        let dir_name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name.starts_with('.') || name == "target" || name == "vendor" {
                    continue;
                }
                if name == "fixtures" && dir_name == "tests" {
                    continue; // lint test corpora: deliberate violations
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_skips_vendor_target_and_fixtures() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap();
        let files = rust_files(root);
        assert!(!files.is_empty());
        for f in &files {
            let s = f.to_string_lossy();
            assert!(!s.contains("/vendor/"), "vendored file walked: {s}");
            assert!(!s.contains("/target/"), "build artifact walked: {s}");
            assert!(!s.contains("/tests/fixtures/"), "fixture walked: {s}");
        }
        // The walk must cover every first-party crate layer.
        for needle in [
            "crates/llxscx/src/ops.rs",
            "crates/llxscx/src/epoch/mod.rs",
            "crates/core/src/node.rs",
            "crates/lint/src/lexer.rs",
            "tests/cross_crate.rs",
        ] {
            assert!(
                files.iter().any(|f| f.to_string_lossy().ends_with(needle)),
                "missing {needle}"
            );
        }
    }
}

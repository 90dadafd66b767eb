//! Repo-local markdown link integrity: walks every `*.md` outside
//! `vendor/`/`target/`/hidden dirs, resolves intra-repo link targets and
//! exits non-zero listing any that point at nothing. No network —
//! external URLs and in-page anchors are skipped. Also asserts that the
//! root `CHANGES.md` lists its PR numbers in strictly increasing order.
//! CI runs this in the `analysis` job; locally:
//!
//! ```sh
//! cargo run --release -p bench --bin linkcheck [ROOT]
//! ```

use bench::links::{broken_target, changelog_out_of_order, extract_links, markdown_files};

fn main() {
    let root = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let root = root.canonicalize().unwrap_or_else(|e| {
        eprintln!("linkcheck: cannot resolve root {}: {e}", root.display());
        std::process::exit(2);
    });

    let files = markdown_files(&root);
    let mut checked = 0usize;
    let mut broken = 0usize;
    for file in &files {
        let Ok(text) = std::fs::read_to_string(file) else {
            eprintln!("linkcheck: unreadable {}", file.display());
            broken += 1;
            continue;
        };
        for link in extract_links(&text) {
            checked += 1;
            if let Some(resolved) = broken_target(&root, file, &link.target) {
                broken += 1;
                eprintln!(
                    "{}:{}: broken link `{}` -> {}",
                    file.strip_prefix(&root).unwrap_or(file).display(),
                    link.line,
                    link.target,
                    resolved.display()
                );
            }
        }
    }
    eprintln!(
        "linkcheck: {} markdown file(s), {checked} link(s), {broken} broken",
        files.len()
    );
    if let Ok(changes) = std::fs::read_to_string(root.join("CHANGES.md")) {
        for (line, n) in changelog_out_of_order(&changes) {
            broken += 1;
            eprintln!("CHANGES.md:{line}: PR {n} does not follow the entry above it");
        }
    }
    if broken > 0 {
        std::process::exit(1);
    }
}

//! The `nblint` driver: runs every rule family over the first-party
//! sources, cross-checks the ordering manifest in both directions, and
//! (in update mode) regenerates the manifest preserving hand-written
//! justifications.

use std::collections::HashMap;
use std::path::Path;

use crate::lexer::Scanned;
use crate::manifest::{self, Row};
use crate::rules::{self, AtomicSite};
use crate::syntax::FileCtx;
use crate::{walk, Finding};

/// Repo-relative path of the ordering-audit manifest.
pub const MANIFEST_PATH: &str = "docs/ordering_audit.toml";

/// Scans every first-party file, returning all per-file findings plus the
/// extracted atomic sites (for the manifest cross-check).
fn scan_files(root: &Path) -> Result<(Vec<Finding>, Vec<AtomicSite>), String> {
    let mut findings = Vec::new();
    let mut sites = Vec::new();
    for file in walk::rust_files(root) {
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let sc = Scanned::new(&text);
        let ctx = FileCtx::new(&sc);
        findings.extend(rules::check_unsafe(&rel, &sc, &ctx));
        let (file_sites, ord_findings) = rules::atomic_sites(&rel, &sc);
        findings.extend(ord_findings);
        findings.extend(rules::check_seqcst(&sc, &ctx, &file_sites));
        findings.extend(rules::check_epoch(&rel, &sc, &ctx));
        findings.extend(rules::check_allow(&rel, &sc));
        sites.extend(file_sites);
    }
    Ok((findings, sites))
}

/// Multiset key a site or row contributes to the cross-check under.
fn key(file: &str, hash: &str, ordering: &str) -> (String, String, String) {
    (file.to_string(), hash.to_string(), ordering.to_string())
}

/// Cross-checks sites against manifest rows, reporting drift both ways.
pub fn check_manifest(sites: &[AtomicSite], rows: &[Row]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut by_key: HashMap<(String, String, String), Vec<&Row>> = HashMap::new();
    for row in rows {
        by_key
            .entry(key(&row.file, &row.hash, &row.ordering))
            .or_default()
            .push(row);
        if row.justification.trim().is_empty() {
            findings.push(Finding {
                rule: "ordering-justify",
                file: row.file.clone(),
                line: row.line,
                message: format!(
                    "manifest row for ordering `{}` has an empty justification — write the \
                     one-line protocol argument in {MANIFEST_PATH}",
                    row.ordering
                ),
            });
        }
    }
    for site in sites {
        let k = key(&site.file, &site.hash, &site.ordering);
        match by_key.get_mut(&k) {
            Some(v) if !v.is_empty() => {
                v.pop();
            }
            _ => {
                findings.push(Finding {
                    rule: "ordering-manifest",
                    file: site.file.clone(),
                    line: site.line,
                    message: format!(
                        "atomic site (`{}`) not in {MANIFEST_PATH} — run `nblint \
                         --update-manifest` and write its justification",
                        site.context
                    ),
                });
            }
        }
    }
    for leftover in by_key.values().flatten() {
        findings.push(Finding {
            rule: "ordering-manifest",
            file: leftover.file.clone(),
            line: leftover.line,
            message: format!(
                "stale manifest row (ordering `{}`, hash {}) matches no code site — the \
                 site changed or moved; run `nblint --update-manifest`",
                leftover.ordering, leftover.hash
            ),
        });
    }
    findings
}

/// Runs the full check over a repo root: the four rule families, the
/// manifest cross-check, and the absorbed configuration/hot-loop gates.
/// `Err` is an infrastructure failure (unreadable file, missing manifest,
/// missing hot-loop markers); `Ok` carries the findings, empty on a clean
/// repo.
pub fn check(root: &Path) -> Result<Vec<Finding>, String> {
    let (mut findings, sites) = scan_files(root)?;

    let manifest_path = root.join(MANIFEST_PATH);
    let manifest_text = std::fs::read_to_string(&manifest_path).map_err(|e| {
        format!("cannot read {MANIFEST_PATH}: {e} — generate it with `nblint --update-manifest`")
    })?;
    let rows = manifest::parse(&manifest_text)?;
    findings.extend(check_manifest(&sites, &rows));

    // Configuration rules: environment-mutation tokens and the
    // run_trial hot-loop discipline.
    for hit in crate::cfg::scan_repo(root) {
        findings.push(Finding {
            rule: "cfg-env",
            file: hit.path.to_string_lossy().replace('\\', "/"),
            line: hit.line,
            message: format!(
                "forbidden configuration idiom `{}` — suite-construction knobs flow \
                 through workload::SuiteConfig, never the environment",
                hit.token
            ),
        });
    }
    for hit in crate::cfg::scan_hotloop_repo(root)? {
        findings.push(Finding {
            rule: "cfg-hotloop",
            file: hit.path.to_string_lossy().replace('\\', "/"),
            line: hit.line,
            message: format!(
                "`{}` inside run_trial's measured loop — the hot path must stay clock-, \
                 RNG- and allocation-free",
                hit.token
            ),
        });
    }

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(findings)
}

/// Regenerates the manifest text from the current code, preserving the
/// justification of every surviving `(file, hash, ordering)` key (matched
/// in order for duplicate keys). New sites get a seeded justification
/// from the site line's trailing comment when one exists, else empty
/// (which `--check` then rejects until a human writes it).
pub fn update_manifest(root: &Path) -> Result<String, String> {
    let (_, mut sites) = scan_files(root)?;
    sites.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));

    let old: Vec<Row> = match std::fs::read_to_string(root.join(MANIFEST_PATH)) {
        Ok(text) => manifest::parse(&text)?,
        Err(_) => Vec::new(),
    };
    let mut surviving: HashMap<(String, String, String), Vec<String>> = HashMap::new();
    for row in &old {
        surviving
            .entry(key(&row.file, &row.hash, &row.ordering))
            .or_default()
            .push(row.justification.clone());
    }

    let rows: Vec<Row> = sites
        .iter()
        .map(|site| {
            let justification = surviving
                .get_mut(&key(&site.file, &site.hash, &site.ordering))
                .and_then(|v| (!v.is_empty()).then(|| v.remove(0)))
                .unwrap_or_else(|| seed_justification(&site.context));
            Row {
                file: site.file.clone(),
                line: site.line,
                hash: site.hash.clone(),
                ordering: site.ordering.clone(),
                justification,
            }
        })
        .collect();
    Ok(manifest::render(&rows))
}

/// Seeds a fresh row's justification from the site's trailing comment, if
/// any: lines like `x.store(v, Release); // publish: pairs with load` are
/// already self-documenting.
fn seed_justification(context: &str) -> String {
    context
        .split_once("//")
        .map(|(_, c)| c.trim_start_matches(['/', '!', ' ']).trim().to_string())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(file: &str, line: usize, hash: &str, ordering: &str) -> AtomicSite {
        AtomicSite {
            file: file.into(),
            line,
            ordering: ordering.into(),
            hash: hash.into(),
            context: "ctx".into(),
            end_line: line,
        }
    }

    fn row(file: &str, line: usize, hash: &str, ordering: &str) -> Row {
        Row {
            file: file.into(),
            line,
            hash: hash.into(),
            ordering: ordering.into(),
            justification: "why".into(),
        }
    }

    #[test]
    fn matched_sites_and_rows_are_clean() {
        let sites = vec![site("a.rs", 3, "h1", "Acquire")];
        let rows = vec![row("a.rs", 3, "h1", "Acquire")];
        assert!(check_manifest(&sites, &rows).is_empty());
    }

    #[test]
    fn line_moves_do_not_drift_but_code_changes_do() {
        // Same hash on a different line: still matched.
        let sites = vec![site("a.rs", 9, "h1", "Acquire")];
        let rows = vec![row("a.rs", 3, "h1", "Acquire")];
        assert!(check_manifest(&sites, &rows).is_empty());
        // Different hash: both directions reported.
        let sites = vec![site("a.rs", 9, "h2", "Acquire")];
        let f = check_manifest(&sites, &rows);
        assert_eq!(f.len(), 2);
        assert!(f.iter().any(|x| x.message.contains("not in")));
        assert!(f.iter().any(|x| x.message.contains("stale manifest row")));
    }

    #[test]
    fn ordering_change_is_drift_in_both_directions() {
        let sites = vec![site("a.rs", 3, "h1", "Relaxed")];
        let rows = vec![row("a.rs", 3, "h1", "Acquire")];
        let f = check_manifest(&sites, &rows);
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn duplicate_sites_need_duplicate_rows() {
        // Two identical lines in one file ⇒ two sites with the same hash;
        // one row only covers one of them.
        let sites = vec![
            site("a.rs", 3, "h1", "Relaxed"),
            site("a.rs", 7, "h1", "Relaxed"),
        ];
        let rows = vec![row("a.rs", 3, "h1", "Relaxed")];
        let f = check_manifest(&sites, &rows);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ordering-manifest");
        let rows2 = vec![
            row("a.rs", 3, "h1", "Relaxed"),
            row("a.rs", 7, "h1", "Relaxed"),
        ];
        assert!(check_manifest(&sites, &rows2).is_empty());
    }

    #[test]
    fn empty_justifications_are_rejected() {
        let sites = vec![site("a.rs", 3, "h1", "SeqCst")];
        let mut rows = vec![row("a.rs", 3, "h1", "SeqCst")];
        rows[0].justification = "  ".into();
        let f = check_manifest(&sites, &rows);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ordering-justify");
    }

    #[test]
    fn seed_justification_takes_trailing_comments() {
        assert_eq!(
            seed_justification("x.store(v, Ordering::Release); // publish: pairs with get"),
            "publish: pairs with get"
        );
        assert_eq!(seed_justification("x.load(Ordering::Acquire)"), "");
    }
}

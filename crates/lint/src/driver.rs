//! The `nblint` driver: runs every rule family over the first-party
//! sources, then the configuration and hot-loop gates.

use std::path::Path;

use crate::lexer::Scanned;
use crate::rules;
use crate::syntax::FileCtx;
use crate::{walk, Finding};

/// Runs the full check over a repo root: the four rule families and the
/// absorbed configuration/hot-loop gates. `Err` is an infrastructure
/// failure (unreadable file, missing hot-loop markers); `Ok` carries the
/// findings, empty on a clean repo.
pub fn check(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    for file in walk::rust_files(root) {
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let sc = Scanned::new(&text);
        let ctx = FileCtx::new(&sc);
        findings.extend(rules::check_unsafe(&rel, &sc, &ctx));
        let (sites, explicit) = rules::atomic_sites(&rel, &sc);
        findings.extend(explicit);
        findings.extend(rules::check_orderings(&rel, &sc, &ctx, &sites));
        findings.extend(rules::check_epoch(&rel, &sc, &ctx));
        findings.extend(rules::check_allow(&rel, &sc));
    }

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

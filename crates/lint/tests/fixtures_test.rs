//! Integration tests over the fixture corpus in `tests/fixtures/`: each
//! rule family must report exactly the planted violations (file:line
//! precise) and nothing on the clean corpus — then a self-scan over the
//! real repository must come back clean.
//!
//! Fixtures are *not* compiled (the walk excludes `tests/fixtures/`), so
//! they can contain deliberate violations and even non-compiling shapes.

use std::path::{Path, PathBuf};

use lint::lexer::Scanned;
use lint::syntax::FileCtx;
use lint::{driver, manifest, rules, Finding};

fn fixture(name: &str) -> (Scanned, FileCtx) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap();
    let sc = Scanned::new(&text);
    let ctx = FileCtx::new(&sc);
    (sc, ctx)
}

/// Synthetic first-party path: not test code, not on any allowlist.
fn fake() -> PathBuf {
    PathBuf::from("crates/fake/src/lib.rs")
}

fn lines(findings: &[Finding], rule: &str) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

// --- unsafe coverage -------------------------------------------------------

#[test]
fn unsafe_clean_corpus_has_zero_findings() {
    let (sc, ctx) = fixture("unsafe_clean.rs");
    let f = rules::check_unsafe(&fake(), &sc, &ctx);
    assert!(f.is_empty(), "false positives: {f:?}");
}

#[test]
fn unsafe_bad_corpus_is_caught_at_exact_lines() {
    let (sc, ctx) = fixture("unsafe_bad.rs");
    let f = rules::check_unsafe(&fake(), &sc, &ctx);
    assert_eq!(lines(&f, "unsafe-safety"), vec![5, 10, 16, 20, 26], "{f:?}");
    for finding in &f {
        assert_eq!(finding.file, "crates/fake/src/lib.rs");
    }
}

// --- ordering audit --------------------------------------------------------

#[test]
fn ordering_clean_corpus_extracts_sites_without_findings() {
    let (sc, ctx) = fixture("ordering_clean.rs");
    let (sites, f) = rules::atomic_sites(&fake(), &sc);
    assert!(f.is_empty(), "false explicitness findings: {f:?}");
    let got: Vec<(usize, &str)> = sites
        .iter()
        .map(|s| (s.line, s.ordering.as_str()))
        .collect();
    assert_eq!(
        got,
        vec![
            (7, "Acquire"),
            (8, "Release"),
            (9, "Relaxed"),
            (10, "AcqRel,Acquire"),
            (12, "SeqCst"),
            (13, "SeqCst"),
            (14, "SeqCst,Relaxed"),
            (20, "Release"),
            (21, "Acquire"),
        ]
    );
    let f = rules::check_seqcst(&sc, &ctx, &sites);
    assert!(f.is_empty(), "false SEQCST findings: {f:?}");
}

#[test]
fn ordering_bad_corpus_is_caught_at_exact_lines() {
    let (sc, ctx) = fixture("ordering_bad.rs");
    let (sites, f) = rules::atomic_sites(&fake(), &sc);
    // An ordering hidden behind a const/alias is an explicitness violation
    // on the strict methods.
    assert_eq!(lines(&f, "ordering-explicit"), vec![9, 10, 11], "{f:?}");
    // Only the literal-ordering sites are extracted for the manifest.
    let got: Vec<usize> = sites.iter().map(|s| s.line).collect();
    assert_eq!(got, vec![12, 13]);
    let f = rules::check_seqcst(&sc, &ctx, &sites);
    assert_eq!(lines(&f, "seqcst-justify"), vec![12, 13], "{f:?}");
}

// --- epoch-guard discipline ------------------------------------------------

#[test]
fn epoch_clean_corpus_has_zero_findings() {
    let (sc, ctx) = fixture("epoch_clean.rs");
    let f = rules::check_epoch(&fake(), &sc, &ctx);
    assert!(f.is_empty(), "false positives: {f:?}");
}

#[test]
fn epoch_bad_corpus_is_caught_at_exact_lines() {
    let (sc, ctx) = fixture("epoch_bad.rs");
    let f = rules::check_epoch(&fake(), &sc, &ctx);
    assert_eq!(lines(&f, "epoch-reclaim"), vec![9, 10], "{f:?}");
    assert_eq!(lines(&f, "guard-field"), vec![14], "{f:?}");
}

#[test]
fn epoch_rules_exempt_test_files() {
    let (sc, ctx) = fixture("epoch_bad.rs");
    let f = rules::check_epoch(Path::new("crates/fake/tests/stress.rs"), &sc, &ctx);
    assert!(f.is_empty(), "test files must be exempt: {f:?}");
}

// --- suppression hygiene ---------------------------------------------------

#[test]
fn allow_corpus_is_caught_at_exact_lines() {
    let (sc, _) = fixture("allow_bad.rs");
    let f = rules::check_allow(&fake(), &sc);
    assert_eq!(lines(&f, "allow-justify"), vec![3, 5, 8], "{f:?}");
}

// --- manifest drift, end to end --------------------------------------------

#[test]
fn manifest_drift_is_reported_both_ways_with_exact_location() {
    let src_v1 = "fn f(a: &A) { a.store(1, Ordering::Release); }\n";
    let (sites, f) = rules::atomic_sites(&fake(), &Scanned::new(src_v1));
    assert!(f.is_empty());
    assert_eq!(sites.len(), 1);

    // Seed a manifest from the v1 site, round-trip it through the real
    // renderer and parser, and confirm the cross-check is clean.
    let rows: Vec<manifest::Row> = sites
        .iter()
        .map(|s| manifest::Row {
            file: s.file.clone(),
            line: s.line,
            hash: s.hash.clone(),
            ordering: s.ordering.clone(),
            justification: "publishes the handoff".into(),
        })
        .collect();
    let rows = manifest::parse(&manifest::render(&rows)).unwrap();
    assert!(driver::check_manifest(&sites, &rows).is_empty());

    // The code's ordering weakens without the manifest changing: drift
    // must be reported in BOTH directions, each with exact file:line.
    let src_v2 = "fn f(a: &A) { a.store(1, Ordering::Relaxed); }\n";
    let (sites2, _) = rules::atomic_sites(&fake(), &Scanned::new(src_v2));
    let f = driver::check_manifest(&sites2, &rows);
    assert_eq!(f.len(), 2, "{f:?}");
    let missing = f.iter().find(|x| x.message.contains("not in")).unwrap();
    assert_eq!(missing.rule, "ordering-manifest");
    assert_eq!(
        (missing.file.as_str(), missing.line),
        ("crates/fake/src/lib.rs", 1)
    );
    let stale = f
        .iter()
        .find(|x| x.message.contains("stale manifest row"))
        .unwrap();
    assert_eq!(stale.rule, "ordering-manifest");
    assert_eq!(
        (stale.file.as_str(), stale.line),
        ("crates/fake/src/lib.rs", 1)
    );
}

// --- the real repository must be clean -------------------------------------

#[test]
fn self_scan_of_the_repository_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap();
    let findings = driver::check(root).expect("nblint infrastructure");
    assert!(
        findings.is_empty(),
        "the repo must pass its own lint:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

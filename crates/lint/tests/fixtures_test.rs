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
use lint::{driver, rules, Finding};

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
        .map(|s| (s.line, s.orderings.as_str()))
        .collect();
    assert_eq!(
        got,
        vec![
            (7, "ACQUIRE"),
            (9, "RELEASE"),
            (10, "RELAXED"),
            (12, "ACQREL/ACQUIRE"),
            (14, "SEQCST"),
            (15, "SEQCST/RELAXED"),
            (23, "RELEASE"),
            (26, "ACQUIRE"),
            (28, "RELAXED"),
            (30, "RELAXED"),
            (42, "ACQUIRE"),
        ]
    );
    let f = rules::check_orderings(&fake(), &sc, &ctx, &sites);
    assert!(f.is_empty(), "false ordering findings: {f:?}");
}

#[test]
fn ordering_bad_corpus_is_caught_at_exact_lines() {
    let (sc, ctx) = fixture("ordering_bad.rs");
    let (sites, f) = rules::atomic_sites(&fake(), &sc);
    // An ordering hidden behind a const/alias is an explicitness violation
    // on the strict methods.
    assert_eq!(lines(&f, "ordering-explicit"), vec![9, 10, 11], "{f:?}");
    // Only the literal-ordering sites are extracted.
    let got: Vec<usize> = sites.iter().map(|s| s.line).collect();
    assert_eq!(got, vec![12, 14, 15, 22]);
    let f = rules::check_orderings(&fake(), &sc, &ctx, &sites);
    // Missing, wrong-ordering, empty-text and doc-comment markers.
    assert_eq!(lines(&f, "ordering-justify"), vec![12, 14, 15, 22], "{f:?}");
    let empty = f.iter().find(|x| x.line == 15).unwrap();
    assert!(empty.message.contains("empty"), "{empty:?}");
    // The wrong-ordering marker, the one whose literal became a variable
    // and the one whose site is gone.
    assert_eq!(lines(&f, "ordering-orphan"), vec![13, 17, 19], "{f:?}");
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

// --- a weakened ordering, end to end -----------------------------------

#[test]
fn weakened_ordering_is_reported_at_the_site_and_at_its_stale_marker() {
    let check = |src: &str| {
        let sc = Scanned::new(src);
        let ctx = FileCtx::new(&sc);
        let (sites, explicit) = rules::atomic_sites(&fake(), &sc);
        assert!(explicit.is_empty());
        rules::check_orderings(&fake(), &sc, &ctx, &sites)
    };
    let v1 = "fn f(a: &A) {\n    // RELEASE: publishes the handoff\n    \
              a.store(1, Ordering::Release);\n}\n";
    assert!(check(v1).is_empty());

    // The code's ordering weakens and its comment stays: the site is
    // unjustified and the stale marker is reported at its own line.
    let v2 = v1.replace("Ordering::Release", "Ordering::Relaxed");
    let f = check(&v2);
    assert_eq!(f.len(), 2, "{f:?}");
    assert_eq!(lines(&f, "ordering-justify"), vec![3]);
    assert_eq!(lines(&f, "ordering-orphan"), vec![2]);
    assert!(f.iter().all(|x| x.file == "crates/fake/src/lib.rs"));
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

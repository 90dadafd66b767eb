//! The CI bench gate: compares two labeled runs of a bench artifact
//! (`BENCH_fig8.json` schema) and flags throughput regressions — and,
//! when both runs carry latency percentiles, p99 tail regressions.
//!
//! The gate is deliberately coarse — CI machines are noisy, so the default
//! tolerance is a large 30% and the comparison is per *(structure, mix,
//! threads)* point rather than aggregate, which catches a mix-specific
//! cliff (e.g. a range-scan change tanking only `0i-0d`) that an average
//! would smear out. Only the run's own structure is gated — `chromatic`
//! for a `figures` run, which measures every structure (see
//! [`crate::structure_rows`]). The tail comparison is coarser still: percentiles
//! come from power-of-two histogram buckets, so a single-bucket shift is
//! already a 2× step — the default p99 tolerance (1.0, i.e. "may double")
//! flags only a jump past one whole bucket.

use crate::json::Json;

/// One compared throughput point.
#[derive(Debug, Clone)]
pub struct GatePoint {
    /// `structure/mix@threads` identifier for messages.
    pub key: String,
    /// Baseline throughput (Mops/s).
    pub base: f64,
    /// Candidate throughput (Mops/s).
    pub cand: f64,
    /// `cand / base - 1`, negative for slowdowns.
    pub delta: f64,
    /// Whether the slowdown exceeds the tolerance.
    pub regressed: bool,
    /// Baseline `(p50, p99, p999)` in ns, when the row carries them.
    pub base_lat: Option<(f64, f64, f64)>,
    /// Candidate `(p50, p99, p999)` in ns, when the row carries them.
    pub cand_lat: Option<(f64, f64, f64)>,
    /// Whether the candidate p99 exceeds the baseline p99 beyond the
    /// tail tolerance (always `false` when tail gating is off or either
    /// side lacks percentiles — old artifacts never fail the tail gate).
    pub tail_regressed: bool,
}

/// Result of a gate comparison.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Every point present in both runs.
    pub points: Vec<GatePoint>,
    /// Baseline points with no candidate counterpart. A dropped point is
    /// a gate failure: a candidate sweep that lost a (structure, mix,
    /// threads) cell — a panic mid-sweep, a changed default — must not
    /// pass just because the surviving cells look fine.
    pub missing: Vec<String>,
    /// Points excluded because either side ran oversubscribed (row field
    /// `"oversubscribed": true`, written by the artifact bins when a cell
    /// used more worker threads than host cores). Such cells measure the
    /// scheduler, not the structure, so they neither pass, fail, nor
    /// count as missing.
    pub skipped: Vec<String>,
}

impl GateReport {
    /// The points that regressed beyond tolerance (throughput or tail).
    pub fn regressions(&self) -> Vec<&GatePoint> {
        self.points
            .iter()
            .filter(|p| p.regressed || p.tail_regressed)
            .collect()
    }

    /// Whether the gate passes: no regressed point (mean or tail) and no
    /// baseline point missing from the candidate.
    pub fn passed(&self) -> bool {
        self.regressions().is_empty() && self.missing.is_empty()
    }

    /// Whether *every* candidate cell was skipped as oversubscribed —
    /// i.e. the gate compared nothing at all. `passed()` is vacuously
    /// true then, so callers (the `bench_gate` bin) must check this and
    /// fail distinctly: a starved host must not green-light a PR.
    pub fn all_skipped(&self) -> bool {
        self.points.is_empty() && !self.skipped.is_empty()
    }

    /// Renders the comparison as a GitHub-flavored markdown table (the
    /// CI step summary): per cell, mean throughput on both sides and the
    /// candidate's latency percentiles, with the baseline p99 alongside
    /// so tail movement is visible at a glance.
    pub fn render_summary(&self, baseline: &str, candidate: &str) -> String {
        use std::fmt::Write as _;
        let fmt_lat = |lat: Option<(f64, f64, f64)>| match lat {
            Some((p50, p99, p999)) => format!(
                "{} / {} / {}",
                crate::fmt_ns(p50 as u64),
                crate::fmt_ns(p99 as u64),
                crate::fmt_ns(p999 as u64)
            ),
            None => "—".into(),
        };
        let mut s = String::new();
        let _ = writeln!(s, "### Bench gate: `{baseline}` → `{candidate}`\n");
        let _ = writeln!(
            s,
            "| point | base Mops | cand Mops | Δ | base p50/p99/p999 | cand p50/p99/p999 | status |"
        );
        let _ = writeln!(s, "|---|---:|---:|---:|---:|---:|---|");
        for p in &self.points {
            let status = match (p.regressed, p.tail_regressed) {
                (false, false) => "ok",
                (true, false) => "**regressed**",
                (false, true) => "**tail regressed**",
                (true, true) => "**regressed (mean+tail)**",
            };
            let _ = writeln!(
                s,
                "| {} | {:.3} | {:.3} | {:+.1}% | {} | {} | {} |",
                p.key,
                p.base,
                p.cand,
                p.delta * 100.0,
                fmt_lat(p.base_lat),
                fmt_lat(p.cand_lat),
                status
            );
        }
        for k in &self.skipped {
            let _ = writeln!(s, "| {k} | — | — | — | — | — | skipped (oversubscribed) |");
        }
        for k in &self.missing {
            let _ = writeln!(s, "| {k} | — | — | — | — | — | **missing** |");
        }
        s
    }
}

fn find_run<'a>(doc: &'a Json, label: &str) -> Option<&'a Json> {
    doc.get("runs")?
        .items()
        .iter()
        .find(|r| r.get("label").and_then(Json::as_str) == Some(label))
}

/// Everything the gate reads out of one artifact result row.
#[derive(Debug, Clone)]
struct RowInfo {
    key: String,
    mops: f64,
    over: bool,
    lat: Option<(f64, f64, f64)>,
}

/// The gated rows of `run`: those of the structure it reports on
/// ([`crate::structure_rows`]). A run of `figures` measures every
/// registered structure, and each extra noisy cell is another chance to
/// fail on noise, so the gate compares its `chromatic` cells only.
fn gated_rows(run: &Json) -> Vec<RowInfo> {
    let (structure, rows) = crate::structure_rows(run);
    rows.into_iter()
        .filter_map(|r| row_info(structure, r))
        .collect()
}

fn row_info(structure: &str, result: &Json) -> Option<RowInfo> {
    let mix = result.get("mix")?.as_str()?;
    let threads = result.get("threads")?.as_f64()?;
    let mops = result.get("mops")?.as_f64()?;
    // Absent field means "not oversubscribed": older artifacts carry no
    // provenance.
    let over = result
        .get("oversubscribed")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    // Latency percentiles are optional (older artifacts): all-or-nothing.
    let lat = (|| {
        Some((
            result.get("p50_ns")?.as_f64()?,
            result.get("p99_ns")?.as_f64()?,
            result.get("p999_ns")?.as_f64()?,
        ))
    })();
    Some(RowInfo {
        key: format!("{structure}/{mix}@{threads}"),
        mops,
        over,
        lat,
    })
}

/// Compares the runs labeled `baseline` and `candidate` in `doc`. A point
/// regresses when `cand < base * (1 - tolerance)`; with
/// `p99_tolerance = Some(t)` a point also regresses when both sides carry
/// percentiles and `cand_p99 > base_p99 * (1 + t)`. Points below
/// `min_mops` in the baseline are compared but never flagged (too noisy to
/// gate on — the same floor guards the tail check); points oversubscribed
/// on either side are skipped outright (see [`GateReport::skipped`]).
/// Errors when either label is missing or no points overlap.
pub fn compare(
    doc: &Json,
    baseline: &str,
    candidate: &str,
    tolerance: f64,
    min_mops: f64,
    p99_tolerance: Option<f64>,
) -> Result<GateReport, String> {
    let base_run = find_run(doc, baseline).ok_or_else(|| format!("no run labeled `{baseline}`"))?;
    let cand_run =
        find_run(doc, candidate).ok_or_else(|| format!("no run labeled `{candidate}`"))?;
    let base_rows = gated_rows(base_run);
    let mut report = GateReport::default();
    for cand in gated_rows(cand_run) {
        let Some(base) = base_rows.iter().find(|b| b.key == cand.key) else {
            continue;
        };
        if base.over || cand.over {
            report.skipped.push(cand.key);
            continue;
        }
        let delta = if base.mops > 0.0 {
            cand.mops / base.mops - 1.0
        } else {
            0.0
        };
        let gated = base.mops >= min_mops;
        let regressed = gated && cand.mops < base.mops * (1.0 - tolerance);
        // Percentiles are bucket upper edges, 2^b - 1 ns, so the ratio is
        // taken on edge + 1: one bucket up (511 -> 1023) is exactly 2x.
        let tail_regressed = match (p99_tolerance, base.lat, cand.lat) {
            (Some(t), Some((_, bp99, _)), Some((_, cp99, _))) => {
                gated && cp99 + 1.0 > (bp99 + 1.0) * (1.0 + t)
            }
            _ => false,
        };
        report.points.push(GatePoint {
            key: cand.key,
            base: base.mops,
            cand: cand.mops,
            delta,
            regressed,
            base_lat: base.lat,
            cand_lat: cand.lat,
            tail_regressed,
        });
    }
    if report.points.is_empty() && report.skipped.is_empty() {
        return Err(format!(
            "runs `{baseline}` and `{candidate}` share no comparable points"
        ));
    }
    report.missing = base_rows
        .iter()
        .filter(|b| {
            !report.points.iter().any(|p| p.key == b.key) && !report.skipped.contains(&b.key)
        })
        .map(|b| b.key.clone())
        .collect();
    // Deterministic display order, `@threads` compared numerically:
    // JSON result order would interleave merged runs, and a plain string
    // sort puts `@16` before `@2`.
    report.points.sort_by_key(|p| key_order(&p.key));
    report.skipped.sort_by_key(|k| key_order(k));
    report.missing.sort_by_key(|k| key_order(k));
    Ok(report)
}

/// Sort key for a `structure/mix@threads` point key: (structure, mix,
/// numeric threads). Unparseable keys sort by their text with threads 0,
/// so they group stably at the front of their name.
fn key_order(key: &str) -> (String, String, u64) {
    let (name, threads) = match key.rsplit_once('@') {
        Some((name, t)) => (name, t.parse().unwrap_or(0)),
        None => (key, 0),
    };
    let (structure, mix) = name.split_once('/').unwrap_or((name, ""));
    (structure.to_string(), mix.to_string(), threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-run artifact, runs `baseline` and `pr`, both on `chromatic`.
    fn runs(base: Vec<Json>, cand: Vec<Json>) -> Json {
        let run = |label: &str, rows| {
            Json::obj(vec![
                ("label", Json::Str(label.into())),
                ("structure", Json::Str("chromatic".into())),
                ("results", Json::Arr(rows)),
            ])
        };
        Json::obj(vec![(
            "runs",
            Json::Arr(vec![run("baseline", base), run("pr", cand)]),
        )])
    }

    /// One result row, with `extra` fields beside mix, threads and Mops.
    fn row(mix: &str, threads: f64, mops: f64, extra: Vec<(&str, Json)>) -> Json {
        let mut fields = vec![
            ("mix", Json::Str(mix.to_string())),
            ("threads", Json::Num(threads)),
            ("mops", Json::Num(mops)),
        ];
        fields.extend(extra);
        Json::obj(fields)
    }

    /// 2-thread `(mix, Mops)` rows.
    fn doc(base: &[(&str, f64)], cand: &[(&str, f64)]) -> Json {
        let rows = |points: &[(&str, f64)]| {
            points
                .iter()
                .map(|&(mix, mops)| row(mix, 2.0, mops, vec![]))
                .collect()
        };
        runs(rows(base), rows(cand))
    }

    /// 2-thread `(mix, Mops, p99)` rows that carry latency percentiles.
    fn doc_with_lat(base: &[(&str, f64, f64)], cand: &[(&str, f64, f64)]) -> Json {
        let rows = |points: &[(&str, f64, f64)]| {
            points
                .iter()
                .map(|&(mix, mops, p99)| {
                    let lat = vec![
                        ("p50_ns", Json::Num(p99 / 4.0)),
                        ("p99_ns", Json::Num(p99)),
                        ("p999_ns", Json::Num(p99 * 4.0)),
                    ];
                    row(mix, 2.0, mops, lat)
                })
                .collect()
        };
        runs(rows(base), rows(cand))
    }

    /// Rows that carry their own structure, as `figures` writes them:
    /// `(structure, mix, threads, baseline Mops, candidate Mops)`, a
    /// candidate of `None` dropping the cell from the candidate run.
    fn doc_multi(rows: &[(&str, &str, f64, f64, Option<f64>)]) -> Json {
        let structure = |s: &str| vec![("structure", Json::Str(s.to_string()))];
        let base = rows
            .iter()
            .map(|&(s, mix, t, mops, _)| row(mix, t, mops, structure(s)))
            .collect();
        let cand = rows
            .iter()
            .filter_map(|&(s, mix, t, _, mops)| Some(row(mix, t, mops?, structure(s))))
            .collect();
        runs(base, cand)
    }

    #[test]
    fn report_points_sort_by_structure_mix_then_numeric_threads() {
        // Jumbled input order, including the lexicographic trap: as
        // strings, "@16" sorts before "@2". (A run is gated on one
        // structure, so every key here starts `chromatic/`.)
        let d = doc_multi(&[
            ("chromatic", "50i-50d", 2.0, 1.0, Some(1.0)),
            ("chromatic", "0i-0d", 16.0, 1.0, Some(1.0)),
            ("chromatic", "50i-50d", 4.0, 1.0, Some(1.0)),
            ("chromatic", "0i-0d", 2.0, 1.0, Some(1.0)),
        ]);
        let r = compare(&d, "baseline", "pr", 0.30, 0.0, None).unwrap();
        let keys: Vec<&str> = r.points.iter().map(|p| p.key.as_str()).collect();
        assert_eq!(
            keys,
            vec![
                "chromatic/0i-0d@2",
                "chromatic/0i-0d@16",
                "chromatic/50i-50d@2",
                "chromatic/50i-50d@4",
            ]
        );
    }

    #[test]
    fn a_multi_structure_run_gates_only_its_chromatic_cells() {
        // The other structures' cells regress 10x or vanish; neither
        // counts. The chromatic cell alone decides.
        let d = doc_multi(&[
            ("lockavl", "50i-50d", 2.0, 1.0, Some(0.1)),
            ("chromatic", "50i-50d", 2.0, 1.0, Some(0.9)),
            ("rbstm", "50i-50d", 2.0, 1.0, None),
        ]);
        let r = compare(&d, "baseline", "pr", 0.30, 0.0, None).unwrap();
        assert!(r.passed(), "{:?} {:?}", r.regressions(), r.missing);
        let keys: Vec<&str> = r.points.iter().map(|p| p.key.as_str()).collect();
        assert_eq!(keys, vec!["chromatic/50i-50d@2"]);
        let d = doc_multi(&[
            ("lockavl", "50i-50d", 2.0, 1.0, Some(1.0)),
            ("chromatic", "50i-50d", 2.0, 1.0, Some(0.5)),
        ]);
        assert!(!compare(&d, "baseline", "pr", 0.30, 0.0, None)
            .unwrap()
            .passed());
    }

    #[test]
    fn passes_within_tolerance() {
        let d = doc(
            &[("0i-0d", 1.0), ("50i-50d", 2.0)],
            &[("0i-0d", 0.8), ("50i-50d", 2.4)],
        );
        let r = compare(&d, "baseline", "pr", 0.30, 0.0, None).unwrap();
        assert!(r.passed(), "{:?}", r.regressions());
        assert_eq!(r.points.len(), 2);
    }

    #[test]
    fn flags_regression_beyond_tolerance() {
        let d = doc(
            &[("0i-0d", 1.0), ("50i-50d", 2.0)],
            &[("0i-0d", 0.6), ("50i-50d", 2.0)],
        );
        let r = compare(&d, "baseline", "pr", 0.30, 0.0, None).unwrap();
        assert!(!r.passed());
        let regs = r.regressions();
        assert_eq!(regs.len(), 1);
        assert!(regs[0].key.contains("0i-0d"));
        assert!(regs[0].delta < -0.30);
    }

    #[test]
    fn tiny_baselines_are_never_flagged() {
        let d = doc(&[("0i-0d", 0.001)], &[("0i-0d", 0.0001)]);
        let r = compare(&d, "baseline", "pr", 0.30, 0.01, None).unwrap();
        assert!(r.passed());
    }

    #[test]
    fn missing_label_is_an_error() {
        let d = doc(&[("0i-0d", 1.0)], &[("0i-0d", 1.0)]);
        assert!(compare(&d, "baseline", "nope", 0.3, 0.0, None).is_err());
        assert!(compare(&d, "nope", "pr", 0.3, 0.0, None).is_err());
    }

    #[test]
    fn disjoint_points_are_an_error() {
        let d = doc(&[("0i-0d", 1.0)], &[("50i-50d", 1.0)]);
        assert!(compare(&d, "baseline", "pr", 0.3, 0.0, None).is_err());
    }

    #[test]
    fn oversubscribed_cells_are_skipped_not_gated_and_not_missing() {
        let row = |threads: f64, mops: f64, over: bool| {
            let provenance = vec![
                ("cores", Json::Num(1.0)),
                ("oversubscribed", Json::Bool(over)),
            ];
            row("0i-0d", threads, mops, provenance)
        };
        // The 4-thread cell collapsed by 10x — but it ran oversubscribed
        // on a 1-core host, so it is skipped rather than flagged, and not
        // reported missing.
        let d = runs(
            vec![row(1.0, 1.0, false), row(4.0, 2.0, true)],
            vec![row(1.0, 1.0, false), row(4.0, 0.2, true)],
        );
        let r = compare(&d, "baseline", "pr", 0.30, 0.0, None).unwrap();
        assert!(r.passed(), "{:?}", r.regressions());
        assert!(!r.all_skipped());
        assert_eq!(r.points.len(), 1);
        assert_eq!(r.skipped, vec!["chromatic/0i-0d@4".to_string()]);
        assert!(r.missing.is_empty());
        // One-sided oversubscription (host changed between runs) still
        // skips: the cell is incomparable either way.
        let d = runs(vec![row(4.0, 2.0, true)], vec![row(4.0, 0.2, false)]);
        let r = compare(&d, "baseline", "pr", 0.30, 0.0, None).unwrap();
        assert!(r.passed());
        // Nothing was compared — the bin must treat this as a distinct
        // failure, not a pass.
        assert!(r.all_skipped());
        assert_eq!(r.skipped.len(), 1);
    }

    #[test]
    fn rows_without_provenance_still_gate() {
        // Pre-provenance artifacts (no `oversubscribed` field) keep the
        // old behavior: every cell is compared.
        let d = doc(&[("0i-0d", 1.0)], &[("0i-0d", 0.5)]);
        let r = compare(&d, "baseline", "pr", 0.30, 0.0, None).unwrap();
        assert!(!r.passed());
        assert!(r.skipped.is_empty());
    }

    #[test]
    fn dropped_baseline_points_fail_the_gate() {
        // The candidate lost a whole cell (panic mid-sweep, changed
        // defaults): the surviving cells pass, the gate must not.
        let d = doc(
            &[("0i-0d", 1.0), ("50i-50d", 2.0)],
            &[("0i-0d", 1.0)], // 50i-50d vanished
        );
        let r = compare(&d, "baseline", "pr", 0.30, 0.0, None).unwrap();
        assert!(r.regressions().is_empty());
        assert!(!r.passed());
        assert_eq!(r.missing, vec!["chromatic/50i-50d@2".to_string()]);
        // Extra candidate-only points are fine (a new cell is not a loss).
        let d = doc(&[("0i-0d", 1.0)], &[("0i-0d", 1.0), ("50i-50d", 2.0)]);
        assert!(compare(&d, "baseline", "pr", 0.30, 0.0, None)
            .unwrap()
            .passed());
    }

    #[test]
    fn tail_regression_fails_only_with_p99_gating_on() {
        // Throughput held; p99 jumped 4× (two histogram buckets).
        let d = doc_with_lat(&[("0i-0d", 1.0, 1000.0)], &[("0i-0d", 1.0, 4100.0)]);
        // Tail gating off: passes.
        let r = compare(&d, "baseline", "pr", 0.30, 0.0, None).unwrap();
        assert!(r.passed());
        // Tail gating on (tolerance 1.0 = may double): fails.
        let r = compare(&d, "baseline", "pr", 0.30, 0.0, Some(1.0)).unwrap();
        assert!(!r.passed());
        let regs = r.regressions();
        assert_eq!(regs.len(), 1);
        assert!(regs[0].tail_regressed && !regs[0].regressed);
        // A within-tolerance tail move (exactly one bucket, 2×) passes.
        let d = doc_with_lat(&[("0i-0d", 1.0, 1000.0)], &[("0i-0d", 1.0, 2000.0)]);
        let r = compare(&d, "baseline", "pr", 0.30, 0.0, Some(1.0)).unwrap();
        assert!(r.passed(), "{:?}", r.regressions());
    }

    #[test]
    fn one_bucket_up_between_real_bucket_edges_is_within_a_doubling() {
        // Histogram percentiles are bucket edges 2^b - 1: 511 -> 1023 is
        // one bucket, although 1023 > 2 × 511.
        let d = doc_with_lat(&[("0i-0d", 1.0, 511.0)], &[("0i-0d", 1.0, 1023.0)]);
        let r = compare(&d, "baseline", "pr", 0.30, 0.0, Some(1.0)).unwrap();
        assert!(r.passed(), "{:?}", r.regressions());
        // Two buckets up is a regression.
        let d = doc_with_lat(&[("0i-0d", 1.0, 511.0)], &[("0i-0d", 1.0, 2047.0)]);
        let r = compare(&d, "baseline", "pr", 0.30, 0.0, Some(1.0)).unwrap();
        assert!(!r.passed());
    }

    #[test]
    fn rows_without_percentiles_never_tail_fail() {
        // Old artifacts (no latency fields) stay comparable under
        // --p99-tolerance: the tail check simply doesn't apply.
        let d = doc(&[("0i-0d", 1.0)], &[("0i-0d", 1.0)]);
        let r = compare(&d, "baseline", "pr", 0.30, 0.0, Some(1.0)).unwrap();
        assert!(r.passed());
        assert!(r.points[0].cand_lat.is_none());
    }

    #[test]
    fn tiny_baselines_are_never_tail_flagged() {
        let d = doc_with_lat(&[("0i-0d", 0.001, 100.0)], &[("0i-0d", 0.001, 99000.0)]);
        let r = compare(&d, "baseline", "pr", 0.30, 0.01, Some(1.0)).unwrap();
        assert!(r.passed());
    }

    #[test]
    fn summary_renders_every_cell_and_flags_tails() {
        let d = doc_with_lat(&[("0i-0d", 1.0, 1000.0)], &[("0i-0d", 1.0, 9000.0)]);
        let r = compare(&d, "baseline", "pr", 0.30, 0.0, Some(1.0)).unwrap();
        let s = r.render_summary("baseline", "pr");
        assert!(s.contains("chromatic/0i-0d@2"));
        assert!(s.contains("tail regressed"));
        assert!(s.contains("9.0µs"), "{s}");
    }
}

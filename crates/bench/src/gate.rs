//! The CI bench gate: compares the Figure 8 artifacts of two commits
//! (`bench_fig8/v1`, one run each, written by `figures fig8 --out`) and
//! flags throughput and p99 tail regressions.
//!
//! The gate is deliberately coarse — CI machines are noisy, so the
//! tolerance is a large 30% and the comparison is per *(mix, threads)*
//! point rather than aggregate, which catches a mix-specific cliff (e.g.
//! a range-scan change tanking only `0i-0d`) that an average would smear
//! out. Only the [`crate::REPORTED_STRUCTURE`] cells are gated. The tail
//! comparison is coarser still: percentiles come from power-of-two
//! histogram buckets, so a single-bucket shift is already a 2× step —
//! [`P99_TOLERANCE`] (1.0, i.e. "may double") flags only a jump past one
//! whole bucket.

use crate::json::Json;

/// A point regresses when its change-side Mops/s falls below the base's
/// by more than this fraction.
pub const TOLERANCE: f64 = 0.30;

/// A point regresses when its change-side p99 exceeds the base's by more
/// than this fraction: 1.0 lets it double, one histogram bucket.
pub const P99_TOLERANCE: f64 = 1.0;

/// Base points slower than this (Mops/s) are reported but never fail the
/// gate: at CI smoke budgets they are dominated by noise.
pub const MIN_MOPS: f64 = 0.01;

/// One compared throughput point.
#[derive(Debug, Clone)]
pub struct GatePoint {
    /// `structure/mix@threads` identifier for messages.
    pub key: String,
    /// Base throughput (Mops/s).
    pub base: f64,
    /// Change throughput (Mops/s).
    pub cand: f64,
    /// `cand / base - 1`, negative for slowdowns.
    pub delta: f64,
    /// Whether the slowdown exceeds [`TOLERANCE`].
    pub regressed: bool,
    /// Base `(p50, p99, p999)` in ns.
    pub base_lat: (f64, f64, f64),
    /// Change `(p50, p99, p999)` in ns.
    pub cand_lat: (f64, f64, f64),
    /// Whether the change p99 exceeds the base p99 beyond
    /// [`P99_TOLERANCE`].
    pub tail_regressed: bool,
}

/// Result of a gate comparison.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Every point present in both runs.
    pub points: Vec<GatePoint>,
    /// Base points with no change-side counterpart. A dropped point is
    /// a gate failure: a sweep that lost a (mix, threads) cell — a panic
    /// mid-sweep, a changed default — must not pass just because the
    /// surviving cells look fine.
    pub missing: Vec<String>,
    /// Points excluded because either side ran oversubscribed (row field
    /// `"oversubscribed": true`, written when a cell used more worker
    /// threads than host cores). Such cells measure the scheduler, not
    /// the structure, so they neither pass, fail, nor count as missing.
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
    /// base point missing from the change.
    pub fn passed(&self) -> bool {
        self.regressions().is_empty() && self.missing.is_empty()
    }

    /// Whether *every* change-side cell was skipped as oversubscribed —
    /// i.e. the gate compared nothing at all. `passed()` is vacuously
    /// true then, so callers (the `bench_gate` bin) must check this and
    /// fail distinctly: a starved host must not green-light a PR.
    pub fn all_skipped(&self) -> bool {
        self.points.is_empty() && !self.skipped.is_empty()
    }

    /// Renders the comparison as a GitHub-flavored markdown table (the
    /// CI step summary): per cell, mean throughput on both sides and the
    /// change's latency percentiles, with the base p99 alongside so tail
    /// movement is visible at a glance.
    pub fn render_summary(&self, base: &str, change: &str) -> String {
        use std::fmt::Write as _;
        let fmt_lat = |(p50, p99, p999): (f64, f64, f64)| {
            format!(
                "{} / {} / {}",
                crate::fmt_ns(p50 as u64),
                crate::fmt_ns(p99 as u64),
                crate::fmt_ns(p999 as u64)
            )
        };
        let mut s = String::new();
        let _ = writeln!(s, "### Bench gate: `{base}` → `{change}`\n");
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

/// Everything the gate reads out of one artifact result row.
#[derive(Debug, Clone)]
struct RowInfo {
    key: String,
    mops: f64,
    over: bool,
    lat: (f64, f64, f64),
}

/// The gated rows of `doc`'s one run ([`crate::fig8_run`]). Every row
/// `figures` writes carries its percentiles and its `oversubscribed`
/// provenance, so a row without them is a malformed artifact.
fn gated_rows(doc: &Json) -> Result<Vec<RowInfo>, String> {
    let (_, rows) = crate::fig8_run(doc)?;
    rows.into_iter().map(row_info).collect()
}

fn row_info(row: &Json) -> Result<RowInfo, String> {
    let field = |name: &str| {
        row.get(name)
            .ok_or_else(|| format!("a row without `{name}`"))
    };
    let num = |name: &str| {
        field(name)?
            .as_f64()
            .ok_or_else(|| format!("`{name}` is not a number"))
    };
    let mix = field("mix")?.as_str().ok_or("`mix` is not a string")?;
    Ok(RowInfo {
        key: format!("{}/{mix}@{}", crate::REPORTED_STRUCTURE, num("threads")?),
        mops: num("mops")?,
        over: field("oversubscribed")?
            .as_bool()
            .ok_or("`oversubscribed` is not a boolean")?,
        lat: (num("p50_ns")?, num("p99_ns")?, num("p999_ns")?),
    })
}

/// Compares the one run of `base` with the one run of `change`. A point
/// regresses when `cand < base * (1 - TOLERANCE)` or
/// `cand_p99 > base_p99 * (1 + P99_TOLERANCE)`. Points below [`MIN_MOPS`]
/// in the base are compared but never flagged; points oversubscribed on
/// either side are skipped outright (see [`GateReport::skipped`]).
/// Errors when either document is malformed or no points overlap.
pub fn compare(base: &Json, change: &Json) -> Result<GateReport, String> {
    let base_rows = gated_rows(base).map_err(|e| format!("base: {e}"))?;
    let change_rows = gated_rows(change).map_err(|e| format!("change: {e}"))?;
    let mut report = GateReport::default();
    for cand in change_rows {
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
        let gated = base.mops >= MIN_MOPS;
        // Percentiles are bucket upper edges, 2^b - 1 ns, so the ratio is
        // taken on edge + 1: one bucket up (511 -> 1023) is exactly 2x.
        let (bp99, cp99) = (base.lat.1, cand.lat.1);
        report.points.push(GatePoint {
            key: cand.key,
            base: base.mops,
            cand: cand.mops,
            delta,
            regressed: gated && cand.mops < base.mops * (1.0 - TOLERANCE),
            base_lat: base.lat,
            cand_lat: cand.lat,
            tail_regressed: gated && cp99 + 1.0 > (bp99 + 1.0) * (1.0 + P99_TOLERANCE),
        });
    }
    if report.points.is_empty() && report.skipped.is_empty() {
        return Err("the two runs share no comparable points".into());
    }
    report.missing = base_rows
        .iter()
        .filter(|b| {
            !report.points.iter().any(|p| p.key == b.key) && !report.skipped.contains(&b.key)
        })
        .map(|b| b.key.clone())
        .collect();
    // Deterministic display order, `@threads` compared numerically: a
    // plain string sort puts `@16` before `@2`.
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

    /// A one-run document, as `figures fig8 --out` writes it.
    fn doc(rows: Vec<Json>) -> Json {
        let run = Json::obj(vec![
            ("range", Json::Num(10_000.0)),
            ("results", Json::Arr(rows)),
        ]);
        Json::obj(vec![
            ("schema", Json::Str("bench_fig8/v1".into())),
            ("runs", Json::Arr(vec![run])),
        ])
    }

    /// A chromatic row as `figures` writes it: `mops` at `threads`, p99
    /// `p99` ns (p50 a quarter of it, p999 four times it), on one core
    /// and not oversubscribed.
    fn row(mix: &str, threads: f64, mops: f64, p99: f64) -> Json {
        Json::obj(vec![
            ("structure", Json::Str("chromatic".into())),
            ("mix", Json::Str(mix.into())),
            ("threads", Json::Num(threads)),
            ("mops", Json::Num(mops)),
            ("p50_ns", Json::Num(p99 / 4.0)),
            ("p99_ns", Json::Num(p99)),
            ("p999_ns", Json::Num(p99 * 4.0)),
            ("cores", Json::Num(1.0)),
            ("oversubscribed", Json::Bool(false)),
        ])
    }

    /// `row` with `name` set to `value`, or removed when `value` is `None`.
    fn with(row: Json, name: &str, value: Option<Json>) -> Json {
        let Json::Obj(mut fields) = row else {
            unreachable!("rows are objects")
        };
        match value {
            Some(v) => fields.insert(name.into(), v),
            None => fields.remove(name),
        };
        Json::Obj(fields)
    }

    /// Both documents of 2-thread `(mix, Mops)` rows with a 1 µs p99.
    fn pair(base: &[(&str, f64)], change: &[(&str, f64)]) -> (Json, Json) {
        let rows = |points: &[(&str, f64)]| {
            doc(points
                .iter()
                .map(|&(mix, mops)| row(mix, 2.0, mops, 1000.0))
                .collect())
        };
        (rows(base), rows(change))
    }

    /// Both documents of one 2-thread `0i-0d` cell, `(Mops, p99)` per side.
    fn tail(base: (f64, f64), change: (f64, f64)) -> GateReport {
        let side = |(mops, p99)| doc(vec![row("0i-0d", 2.0, mops, p99)]);
        compare(&side(base), &side(change)).unwrap()
    }

    #[test]
    fn report_points_sort_by_structure_mix_then_numeric_threads() {
        // Jumbled input order, including the lexicographic trap: as
        // strings, "@16" sorts before "@2".
        let d = doc(vec![
            row("50i-50d", 2.0, 1.0, 1000.0),
            row("0i-0d", 16.0, 1.0, 1000.0),
            row("50i-50d", 4.0, 1.0, 1000.0),
            row("0i-0d", 2.0, 1.0, 1000.0),
        ]);
        let r = compare(&d, &d).unwrap();
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
        let other = |s: &str, mops| {
            with(
                row("50i-50d", 2.0, mops, 1000.0),
                "structure",
                Some(Json::Str(s.into())),
            )
        };
        let base = doc(vec![
            other("lockavl", 1.0),
            row("50i-50d", 2.0, 1.0, 1000.0),
            other("rbstm", 1.0),
        ]);
        let change = doc(vec![
            other("lockavl", 0.1),
            row("50i-50d", 2.0, 0.9, 1000.0),
        ]);
        let r = compare(&base, &change).unwrap();
        assert!(r.passed(), "{:?} {:?}", r.regressions(), r.missing);
        let keys: Vec<&str> = r.points.iter().map(|p| p.key.as_str()).collect();
        assert_eq!(keys, vec!["chromatic/50i-50d@2"]);
        let base = doc(vec![
            other("lockavl", 1.0),
            row("50i-50d", 2.0, 1.0, 1000.0),
        ]);
        let change = doc(vec![
            other("lockavl", 1.0),
            row("50i-50d", 2.0, 0.5, 1000.0),
        ]);
        assert!(!compare(&base, &change).unwrap().passed());
    }

    #[test]
    fn passes_within_tolerance() {
        let (base, change) = pair(
            &[("0i-0d", 1.0), ("50i-50d", 2.0)],
            &[("0i-0d", 0.8), ("50i-50d", 2.4)],
        );
        let r = compare(&base, &change).unwrap();
        assert!(r.passed(), "{:?}", r.regressions());
        assert_eq!(r.points.len(), 2);
    }

    #[test]
    fn flags_regression_beyond_tolerance() {
        let (base, change) = pair(
            &[("0i-0d", 1.0), ("50i-50d", 2.0)],
            &[("0i-0d", 0.6), ("50i-50d", 2.0)],
        );
        let r = compare(&base, &change).unwrap();
        assert!(!r.passed());
        let regs = r.regressions();
        assert_eq!(regs.len(), 1);
        assert!(regs[0].key.contains("0i-0d"));
        assert!(regs[0].delta < -TOLERANCE);
    }

    #[test]
    fn tiny_baselines_are_never_flagged() {
        let (base, change) = pair(&[("0i-0d", 0.001)], &[("0i-0d", 0.0001)]);
        assert!(compare(&base, &change).unwrap().passed());
    }

    #[test]
    fn disjoint_points_are_an_error() {
        let (base, change) = pair(&[("0i-0d", 1.0)], &[("50i-50d", 1.0)]);
        assert!(compare(&base, &change).is_err());
    }

    #[test]
    fn oversubscribed_cells_are_skipped_not_gated_and_not_missing() {
        let row = |threads: f64, mops: f64, over: bool| {
            with(
                row("0i-0d", threads, mops, 1000.0),
                "oversubscribed",
                Some(Json::Bool(over)),
            )
        };
        // The 4-thread cell collapsed by 10x — but it ran oversubscribed
        // on a 1-core host, so it is skipped rather than flagged, and not
        // reported missing.
        let base = doc(vec![row(1.0, 1.0, false), row(4.0, 2.0, true)]);
        let change = doc(vec![row(1.0, 1.0, false), row(4.0, 0.2, true)]);
        let r = compare(&base, &change).unwrap();
        assert!(r.passed(), "{:?}", r.regressions());
        assert!(!r.all_skipped());
        assert_eq!(r.points.len(), 1);
        assert_eq!(r.skipped, vec!["chromatic/0i-0d@4".to_string()]);
        assert!(r.missing.is_empty());
        // One-sided oversubscription (host changed between runs) still
        // skips: the cell is incomparable either way.
        let r = compare(
            &doc(vec![row(4.0, 2.0, true)]),
            &doc(vec![row(4.0, 0.2, false)]),
        )
        .unwrap();
        assert!(r.passed());
        // Nothing was compared — the bin must treat this as a distinct
        // failure, not a pass.
        assert!(r.all_skipped());
        assert_eq!(r.skipped.len(), 1);
    }

    #[test]
    fn dropped_baseline_points_fail_the_gate() {
        // The change lost a whole cell (panic mid-sweep, changed
        // defaults): the surviving cells pass, the gate must not.
        let (base, change) = pair(&[("0i-0d", 1.0), ("50i-50d", 2.0)], &[("0i-0d", 1.0)]);
        let r = compare(&base, &change).unwrap();
        assert!(r.regressions().is_empty());
        assert!(!r.passed());
        assert_eq!(r.missing, vec!["chromatic/50i-50d@2".to_string()]);
        // Extra change-only points are fine (a new cell is not a loss).
        let (base, change) = pair(&[("0i-0d", 1.0)], &[("0i-0d", 1.0), ("50i-50d", 2.0)]);
        assert!(compare(&base, &change).unwrap().passed());
    }

    #[test]
    fn a_p99_past_one_doubling_fails_the_gate() {
        // Throughput held; p99 jumped 4× (two histogram buckets).
        let r = tail((1.0, 1000.0), (1.0, 4100.0));
        assert!(!r.passed());
        let regs = r.regressions();
        assert_eq!(regs.len(), 1);
        assert!(regs[0].tail_regressed && !regs[0].regressed);
        // A within-tolerance tail move (exactly one bucket, 2×) passes.
        let r = tail((1.0, 1000.0), (1.0, 2000.0));
        assert!(r.passed(), "{:?}", r.regressions());
    }

    #[test]
    fn one_bucket_up_between_real_bucket_edges_is_within_a_doubling() {
        // Histogram percentiles are bucket edges 2^b - 1: 511 -> 1023 is
        // one bucket, although 1023 > 2 × 511.
        let r = tail((1.0, 511.0), (1.0, 1023.0));
        assert!(r.passed(), "{:?}", r.regressions());
        // Two buckets up is a regression.
        assert!(!tail((1.0, 511.0), (1.0, 2047.0)).passed());
    }

    #[test]
    fn tiny_baselines_are_never_tail_flagged() {
        assert!(tail((0.001, 100.0), (0.001, 99000.0)).passed());
    }

    #[test]
    fn summary_renders_every_cell_and_flags_tails() {
        let s = tail((1.0, 1000.0), (1.0, 9000.0)).render_summary("base.json", "change.json");
        assert!(s.contains("`base.json` → `change.json`"), "{s}");
        assert!(s.contains("chromatic/0i-0d@2"));
        assert!(s.contains("tail regressed"));
        assert!(s.contains("9.0µs"), "{s}");
    }

    #[test]
    fn a_parent_format_file_is_read_on_either_side() {
        // `figures fig8 --out` before run labels were dropped: one run
        // labelled `current`, beside the envelope's `host_threads`.
        let parent = Json::parse(
            r#"{"host_threads": 2, "schema": "bench_fig8/v1", "runs": [
              {"label": "current", "range": 10000, "duration_secs": 0.3, "trials": 2,
               "results": [
                {"structure": "lockavl", "mix": "0i-0d", "threads": 2, "mops": 9.0,
                 "p50_ns": 127, "p99_ns": 511, "p999_ns": 2047,
                 "cores": 2, "oversubscribed": false},
                {"structure": "chromatic", "mix": "0i-0d", "threads": 2, "mops": 1.0,
                 "p50_ns": 255, "p99_ns": 1023, "p999_ns": 4095,
                 "cores": 2, "oversubscribed": false}]}]}"#,
        )
        .unwrap();
        let held = doc(vec![row("0i-0d", 2.0, 1.0, 1023.0)]);
        let cut = doc(vec![row("0i-0d", 2.0, 0.5, 1023.0)]);
        for (base, change) in [(&parent, &held), (&held, &parent)] {
            let r = compare(base, change).unwrap();
            assert!(r.passed(), "{:?}", r.regressions());
            assert_eq!(r.points.len(), 1);
        }
        assert!(!compare(&parent, &cut).unwrap().passed());
    }

    #[test]
    fn rows_without_p99_or_oversubscribed_are_rejected() {
        let good = doc(vec![row("0i-0d", 2.0, 1.0, 1000.0)]);
        for field in ["p99_ns", "oversubscribed"] {
            let bad = doc(vec![with(row("0i-0d", 2.0, 1.0, 1000.0), field, None)]);
            for (base, change) in [(&good, &bad), (&bad, &good)] {
                let e = compare(base, change).unwrap_err();
                assert!(e.contains(field), "{e}");
            }
        }
    }

    #[test]
    fn a_document_must_hold_exactly_one_run() {
        let good = doc(vec![row("0i-0d", 2.0, 1.0, 1000.0)]);
        let run = good.get("runs").unwrap().items()[0].clone();
        for runs in [vec![], vec![run.clone(), run]] {
            let bad = Json::obj(vec![("runs", Json::Arr(runs))]);
            assert!(compare(&good, &bad).is_err());
            assert!(compare(&bad, &good).is_err());
        }
    }
}

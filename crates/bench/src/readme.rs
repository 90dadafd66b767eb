//! Generates the "Current numbers" table in `README.md` from
//! `BENCH_fig8.json`, so the checked-in baseline and the prose can never
//! drift: the table lives between marker comments and is *only* written
//! by the `readme_table` binary (CI's `analysis` job runs it with
//! `--check`).

use crate::json::Json;

/// Marker opening the generated region in `README.md`.
pub const BEGIN_MARK: &str = "<!-- readme_table:begin (generated by `readme_table`) -->";
/// Marker closing the generated region in `README.md`.
pub const END_MARK: &str = "<!-- readme_table:end -->";

/// Renders the markdown table for the one run of a `bench_fig8/v1`
/// artifact ([`crate::fig8_run`]): rows are mixes in artifact order,
/// columns are thread counts.
pub fn bench_table(doc: &Json) -> Result<String, String> {
    let (run, results) = crate::fig8_run(doc)?;
    let structure = crate::REPORTED_STRUCTURE;
    if results.is_empty() {
        return Err(format!("run has no `{structure}` result rows"));
    }

    // Column/row orders follow first appearance in the artifact.
    let mut mixes: Vec<&str> = Vec::new();
    let mut threads: Vec<u64> = Vec::new();
    for r in &results {
        let mix = r
            .get("mix")
            .and_then(Json::as_str)
            .ok_or("result row without `mix`")?;
        let t = r
            .get("threads")
            .and_then(Json::as_f64)
            .ok_or("result row without `threads`")? as u64;
        if !mixes.contains(&mix) {
            mixes.push(mix);
        }
        if !threads.contains(&t) {
            threads.push(t);
        }
    }
    threads.sort_unstable();

    let row_of = |mix: &str, t: u64| {
        results.iter().find(|r| {
            r.get("mix").and_then(Json::as_str) == Some(mix)
                && r.get("threads").and_then(Json::as_f64) == Some(t as f64)
        })
    };
    let cell = |mix: &str, t: u64| -> String {
        row_of(mix, t)
            .and_then(|r| r.get("mops").and_then(Json::as_f64))
            .map(|m| format!("{m:.2}"))
            .unwrap_or_else(|| "—".into())
    };
    // The p99 column reads the lowest thread count's row: the least
    // scheduler-shadowed cell, and the one comparable across hosts.
    let min_t = threads[0];
    let p99_cell = |mix: &str| -> String {
        row_of(mix, min_t)
            .and_then(|r| r.get("p99_ns").and_then(Json::as_f64))
            .map(|ns| crate::fmt_ns(ns as u64))
            .unwrap_or_else(|| "—".into())
    };

    let range = run.get("range").and_then(Json::as_f64).unwrap_or(0.0);
    let secs = run
        .get("duration_secs")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let trials = run.get("trials").and_then(Json::as_f64).unwrap_or(0.0);

    let mut out = String::new();
    out.push_str(&format!(
        "Throughput in Mops/s, structure `{structure}`, key range {range:.0}, \
         {trials:.0} × {secs}s trials — regenerate with \
         `cargo run --release -p bench --bin readme_table`:\n\n"
    ));
    out.push_str("| mix \\ threads |");
    for t in &threads {
        out.push_str(&format!(" {t} |"));
    }
    out.push_str(&format!(" p99 @{min_t}T |"));
    out.push_str("\n|---|");
    for _ in &threads {
        out.push_str("---|");
    }
    out.push_str("---|");
    out.push('\n');
    for mix in &mixes {
        out.push_str(&format!("| `{mix}` |"));
        for &t in &threads {
            out.push_str(&format!(" {} |", cell(mix, t)));
        }
        out.push_str(&format!(" {} |", p99_cell(mix)));
        out.push('\n');
    }
    Ok(out)
}

/// Replaces the marked region of `readme` with `table`. Errors when the
/// markers are missing or inverted (the region is the contract — losing
/// it silently would let the table go stale).
pub fn splice(readme: &str, table: &str) -> Result<String, String> {
    let begin = readme
        .find(BEGIN_MARK)
        .ok_or_else(|| format!("README is missing the `{BEGIN_MARK}` marker"))?;
    let end = readme
        .find(END_MARK)
        .ok_or_else(|| format!("README is missing the `{END_MARK}` marker"))?;
    if end < begin {
        return Err("README markers are inverted".into());
    }
    let mut out = String::with_capacity(readme.len() + table.len());
    out.push_str(&readme[..begin + BEGIN_MARK.len()]);
    out.push('\n');
    out.push_str(table);
    out.push_str(&readme[end..]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_mixes_by_thread_count_with_missing_cells_as_dashes() {
        let doc = Json::parse(
            r#"{"schema": "bench_fig8/v1", "runs": [
              {"range": 10000, "duration_secs": 0.4, "trials": 3, "results": [
                {"structure": "chromatic", "mix": "50i-50d", "threads": 1, "mops": 1.756},
                {"structure": "chromatic", "mix": "50i-50d", "threads": 2, "mops": 0.72},
                {"structure": "chromatic", "mix": "0i-0d", "threads": 1, "mops": 8.5}]}]}"#,
        )
        .unwrap();
        let t = bench_table(&doc).unwrap();
        assert!(t.contains("key range 10000, 3 × 0.4s trials"), "{t}");
        assert!(t.contains("| `50i-50d` | 1.76 | 0.72 |"), "{t}");
        // `0i-0d` has no 2-thread row: the missing cell renders as —.
        assert!(t.contains("| `0i-0d` | 8.50 | — |"), "{t}");
        // A file holding other than one run is malformed.
        let two = Json::parse(r#"{"runs": [{"results": []}, {"results": []}]}"#).unwrap();
        assert!(bench_table(&two).is_err());
    }

    #[test]
    fn p99_column_renders_from_the_lowest_thread_row() {
        let doc = Json::parse(
            r#"{"runs": [{"range": 10000, "duration_secs": 0.4, "trials": 3, "results": [
                {"structure": "chromatic", "mix": "50i-50d", "threads": 1, "mops": 1.0,
                 "p50_ns": 511, "p99_ns": 2047, "p999_ns": 8191},
                {"structure": "chromatic", "mix": "50i-50d", "threads": 2, "mops": 0.7,
                 "p50_ns": 2047, "p99_ns": 8191, "p999_ns": 32767}]}]}"#,
        )
        .unwrap();
        let t = bench_table(&doc).unwrap();
        // Header names the thread count the column reads; the cell is the
        // 1-thread p99, not the 2-thread one.
        assert!(t.contains("p99 @1T"), "{t}");
        assert!(t.contains("| `50i-50d` | 1.00 | 0.70 | 2.0µs |"), "{t}");
    }

    #[test]
    fn a_multi_structure_run_renders_its_chromatic_rows() {
        let doc = Json::parse(
            r#"{"runs": [{"range": 10000, "duration_secs": 0.3, "trials": 2, "results": [
                {"structure": "lockavl", "mix": "50i-50d", "threads": 1, "mops": 9.0},
                {"structure": "chromatic", "mix": "50i-50d", "threads": 1, "mops": 1.5},
                {"structure": "chromatic6", "mix": "50i-50d", "threads": 1, "mops": 7.0},
                {"structure": "chromatic", "mix": "0i-0d", "threads": 1, "mops": 8.25}]}]}"#,
        )
        .unwrap();
        let t = bench_table(&doc).unwrap();
        assert!(t.contains("structure `chromatic`"), "{t}");
        assert!(t.contains("| `50i-50d` | 1.50 |"), "{t}");
        assert!(t.contains("| `0i-0d` | 8.25 |"), "{t}");
        assert!(!t.contains("9.00") && !t.contains("7.00"), "{t}");
    }

    #[test]
    fn splice_replaces_only_the_marked_region() {
        let readme = format!("# Title\n\nprose\n\n{BEGIN_MARK}\nOLD\n{END_MARK}\n\ntail\n");
        let out = splice(&readme, "NEW TABLE\n").unwrap();
        assert!(out.contains("NEW TABLE"));
        assert!(!out.contains("OLD"));
        assert!(out.starts_with("# Title"));
        assert!(out.ends_with("tail\n"));
        // Idempotent: splicing the same table twice changes nothing.
        assert_eq!(splice(&out, "NEW TABLE\n").unwrap(), out);
        // Missing markers are an error, not a silent no-op.
        assert!(splice("no markers here", "T").is_err());
    }
}

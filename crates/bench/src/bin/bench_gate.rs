//! The CI throughput gate: compares two labeled runs inside one bench
//! artifact (written by `figures fig8 --out`, which label-merges)
//! and exits non-zero when any chromatic *(mix, threads)* point slowed
//! down by more than the tolerance — or, with `--p99-tolerance`, when a
//! point's p99 latency grew past the tail tolerance. It prints the
//! per-point markdown table, and appends it to `--summary PATH` too.
//!
//! ```text
//! cargo run -p bench --bin figures -- fig8 --label baseline --out gate.json   # at the base ref
//! cargo run -p bench --bin figures -- fig8 --label pr       --out gate.json   # at the PR head
//! cargo run -p bench --bin bench_gate -- --file gate.json --baseline baseline --candidate pr \
//!     --p99-tolerance 1.0 --summary summary.md
//! ```
//!
//! Exit codes: `0` pass, `1` regression or dropped point, `2` usage /
//! unreadable artifact, `3` every cell skipped (oversubscribed host) —
//! distinct so CI can't silently pass on a starved runner.

use bench::gate::compare;
use bench::json::Json;

fn main() {
    let mut file = String::from("BENCH_fig8.json");
    let mut baseline = String::from("baseline");
    let mut candidate = String::from("pr");
    let mut tolerance = 0.30f64;
    // Baseline points slower than this (Mops/s) are reported but never
    // fail the gate: with CI smoke budgets they are dominated by noise.
    let mut min_mops = 0.01f64;
    // Off unless asked for: old artifacts carry no percentiles, and the
    // tail check is meaningful only when the caller knows both runs do.
    let mut p99_tolerance: Option<f64> = None;
    // Markdown destination for the rendered per-cell table (appended —
    // CI passes $GITHUB_STEP_SUMMARY).
    let mut summary: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--file" => file = args.next().expect("--file needs a value"),
            "--baseline" => baseline = args.next().expect("--baseline needs a value"),
            "--candidate" => candidate = args.next().expect("--candidate needs a value"),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--tolerance needs a float")
            }
            "--min-mops" => {
                min_mops = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--min-mops needs a float")
            }
            "--p99-tolerance" => {
                p99_tolerance = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--p99-tolerance needs a float"),
                )
            }
            "--summary" => summary = Some(args.next().expect("--summary needs a path")),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: bench_gate [--file PATH] [--baseline LABEL] [--candidate LABEL] \
                     [--tolerance FRACTION] [--min-mops MOPS] [--p99-tolerance FRACTION] \
                     [--summary PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    let text = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("cannot parse {file}: {e}"));
    let report = match compare(
        &doc,
        &baseline,
        &candidate,
        tolerance,
        min_mops,
        p99_tolerance,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            std::process::exit(2);
        }
    };

    // The console and the CI step summary get the same markdown table.
    let table = report.render_summary(&baseline, &candidate);
    println!("{table}");
    if let Some(path) = summary {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("cannot open {path}: {e}"));
        f.write_all(table.as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    }

    if report.all_skipped() {
        println!(
            "gate INCONCLUSIVE: all {} cells skipped as oversubscribed — nothing compared",
            report.skipped.len()
        );
        std::process::exit(3);
    }
    if report.passed() {
        println!(
            "gate PASSED: {} points compared, {} skipped",
            report.points.len(),
            report.skipped.len()
        );
    } else {
        println!(
            "gate FAILED: {} of {} points regressed (tolerance {:.0}%), {} dropped",
            report.regressions().len(),
            report.points.len(),
            tolerance * 100.0,
            report.missing.len()
        );
        std::process::exit(1);
    }
}

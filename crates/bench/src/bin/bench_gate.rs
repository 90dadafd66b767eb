//! The CI throughput gate: compares the Figure 8 artifacts of two
//! commits, each written by `figures fig8 --out`, and exits non-zero when
//! any chromatic *(mix, threads)* point slowed down by more than 30 % or
//! its p99 latency more than doubled (the constants in `bench::gate`).
//! It prints the per-point markdown table, and appends it to
//! `--summary PATH` too.
//!
//! ```text
//! cargo run -p bench --bin figures -- fig8 --out base.json     # at the base ref
//! cargo run -p bench --bin figures -- fig8 --out change.json   # at the change
//! cargo run -p bench --bin bench_gate -- base.json change.json --summary summary.md
//! ```
//!
//! Exit codes: `0` pass, `1` regression or dropped point, `2` usage /
//! unreadable or malformed artifact, `3` every cell skipped
//! (oversubscribed host) — distinct so CI can't silently pass on a
//! starved runner.

use bench::gate::{compare, TOLERANCE};
use bench::json::Json;

const USAGE: &str = "usage: bench_gate BASE.json CHANGE.json [--summary PATH]";

fn main() {
    let mut files = Vec::new();
    // Markdown destination for the rendered per-cell table (appended —
    // CI passes $GITHUB_STEP_SUMMARY).
    let mut summary: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--summary" => {
                summary = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--summary needs a path")),
                )
            }
            flag if flag.starts_with("--") => usage(&format!("unknown argument `{flag}`")),
            _ => files.push(a),
        }
    }
    let [base, change] = &files[..] else {
        usage("expected two artifact files")
    };
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
    };
    let report = read(base)
        .and_then(|b| compare(&b, &read(change)?))
        .unwrap_or_else(|e| fail(&e));

    // The console and the CI step summary get the same markdown table.
    let table = report.render_summary(base, change);
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
            TOLERANCE * 100.0,
            report.missing.len()
        );
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    fail(&format!("{msg}\n{USAGE}"))
}

fn fail(msg: &str) -> ! {
    eprintln!("bench_gate: {msg}");
    std::process::exit(2)
}

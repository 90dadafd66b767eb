//! The `bench_gate` binary's exit codes, which CI reads: 0 pass, 1
//! regression or dropped cell, 2 usage error or malformed artifact, 3
//! every cell skipped as oversubscribed.

use std::path::PathBuf;
use std::process::Command;

/// A one-run artifact holding one chromatic `0i-0d` cell at 2 threads.
fn artifact(mops: f64, p99: u64, oversubscribed: bool) -> String {
    format!(
        r#"{{"schema": "bench_fig8/v1", "runs": [{{"range": 10000, "results": [
          {{"structure": "chromatic", "mix": "0i-0d", "threads": 2, "mops": {mops},
            "p50_ns": 255, "p99_ns": {p99}, "p999_ns": 4095,
            "cores": 2, "oversubscribed": {oversubscribed}}}]}}]}}"#
    )
}

/// Writes `text` to a file of this test process and returns its path.
fn file(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("bench_gate_{}_{name}.json", std::process::id()));
    std::fs::write(&path, text).expect("temp dir is writable");
    path
}

fn gate<S: AsRef<std::ffi::OsStr>>(args: &[S]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .args(args)
        .output()
        .expect("bench_gate runs")
        .status
        .code()
        .expect("bench_gate exits, not killed")
}

#[test]
fn exit_codes_follow_the_comparison() {
    let base = file("base", &artifact(1.0, 1023, false));
    let held = file("held", &artifact(0.9, 2047, false));
    let slower = file("slower", &artifact(0.6, 1023, false));
    let tail = file("tail", &artifact(1.0, 4095, false));
    let over = file("over", &artifact(1.0, 1023, true));
    let two_runs = file(
        "two_runs",
        r#"{"runs": [{"results": []}, {"results": []}]}"#,
    );
    let missing = std::env::temp_dir().join("bench_gate_no_such_file.json");

    assert_eq!(gate(&[&base, &held]), 0);
    assert_eq!(gate(&[&base, &slower]), 1);
    assert_eq!(gate(&[&base, &tail]), 1);
    assert_eq!(gate(&[&over, &base]), 3);
    assert_eq!(gate(&[&base, &two_runs]), 2);
    assert_eq!(gate(&[&missing, &base]), 2);
    assert_eq!(gate(&[&base]), 2);

    // `--summary` appends the per-cell table to its file.
    let summary = file("summary", "");
    assert_eq!(
        gate(&[
            base.as_os_str(),
            held.as_os_str(),
            "--summary".as_ref(),
            summary.as_os_str()
        ]),
        0
    );
    let table = std::fs::read_to_string(&summary).expect("summary written");
    assert!(table.contains("| chromatic/0i-0d@2 |"), "{table}");

    for path in [base, held, slower, tail, over, two_runs, summary] {
        let _ = std::fs::remove_file(path);
    }
}

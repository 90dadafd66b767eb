//! Shared configuration and table printing for the `figures` binary (the
//! paper's §6 experiments with their claims checked), the bench gate
//! (`bench_gate`) and the docs-gate bins (`linkcheck`, `readme_table`);
//! the static-analysis gate is `nblint --check` in the `lint` crate.
//!
//! The knobs parsed here are the *bench* family, four in all:
//! `NBTREE_BENCH_SECS`, `NBTREE_BENCH_TRIALS`, `NBTREE_BENCH_RANGES` and
//! `NBTREE_BENCH_THREADS`. A malformed value is a usage error: the binary
//! says which knob and exits 2 instead of running a sweep the caller did
//! not ask for. No knob sizes a structure: the binaries build
//! `workload::SuiteConfig::default().for_key_range(range)` per key range
//! and thread it through `make_map`/`measure` as a value — no binary
//! reads or mutates the environment for it, and `nblint --check` keeps
//! it that way.

pub mod claims;
pub mod gate;
pub mod json;
pub mod links;
pub mod readme;

use std::str::FromStr;
use std::time::Duration;

/// Per-trial duration: `NBTREE_BENCH_SECS` (seconds, float), default
/// 0.5 s. The paper used 5 s × 5 trials: `NBTREE_BENCH_SECS=5
/// NBTREE_BENCH_TRIALS=5`.
pub fn trial_duration() -> Duration {
    Duration::from_secs_f64(knob("NBTREE_BENCH_SECS", 0.5, parse_secs))
}

/// Trials per configuration: `NBTREE_BENCH_TRIALS`, default 1.
pub fn trials() -> usize {
    knob("NBTREE_BENCH_TRIALS", 1, parse_positive)
}

/// The paper's key ranges: 1e2 (high contention), 1e4 (moderate), 1e6
/// (low). Override with `NBTREE_BENCH_RANGES=100,10000` for quicker runs.
pub fn key_ranges() -> Vec<u64> {
    knob(
        "NBTREE_BENCH_RANGES",
        vec![100, 10_000, 1_000_000],
        parse_list,
    )
}

/// Thread counts to sweep: `NBTREE_BENCH_THREADS=1,2` overrides the
/// caller's default (the CI jobs pin it to stay within budget).
pub fn bench_threads(default: &[usize]) -> Vec<usize> {
    knob("NBTREE_BENCH_THREADS", default.to_vec(), parse_list)
}

/// Reads knob `name`: `default` when unset, the parsed value when
/// well-formed, and otherwise a message on stderr and exit code 2.
fn knob<T>(name: &str, default: T, parse: impl Fn(&str) -> Result<T, String>) -> T {
    let parsed = match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => return default,
        Err(std::env::VarError::NotUnicode(raw)) => Err(format!("{raw:?} is not unicode")),
        Ok(s) => parse(&s).map_err(|e| format!("{s:?}: {e}")),
    };
    parsed.unwrap_or_else(|e| {
        eprintln!("{name}={e}");
        std::process::exit(2)
    })
}

/// A positive, finite number of seconds.
fn parse_secs(s: &str) -> Result<f64, String> {
    match s.trim().parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err("expected a positive number of seconds".into()),
    }
}

/// A positive integer.
fn parse_positive<T: FromStr + Default + PartialOrd>(s: &str) -> Result<T, String> {
    match s.trim().parse::<T>() {
        Ok(v) if v > T::default() => Ok(v),
        _ => Err(format!("`{}` is not a positive integer", s.trim())),
    }
}

/// A comma-separated list of positive integers; every entry must parse,
/// so the list is never empty.
fn parse_list<T: FromStr + Default + PartialOrd>(s: &str) -> Result<Vec<T>, String> {
    s.split(',').map(parse_positive).collect()
}

/// Parallelism of the host as reported by the OS (1 when unknown) — the
/// provenance every artifact row carries so a reader (human or gate) can
/// tell which cells were measured with real parallelism.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The host-provenance fields appended to every artifact result row:
/// the measuring host's core count and whether the cell ran more worker
/// threads than cores. An oversubscribed cell's Mops/s is
/// scheduler-dominated — comparable across runs only on the same host
/// and kernel — so the bench gate skips those cells instead of gating on
/// them.
pub fn provenance(threads: usize) -> Vec<(&'static str, json::Json)> {
    let cores = host_cores();
    vec![
        ("cores", json::Json::Num(cores as f64)),
        ("oversubscribed", json::Json::Bool(threads > cores)),
    ]
}

/// The latency-percentile fields appended to every artifact result row:
/// `p50_ns`/`p99_ns`/`p999_ns` of the run's trials merged.
pub fn latency_fields(trials: &[workload::TrialResult]) -> Vec<(&'static str, json::Json)> {
    let mut all = workload::Histogram::new();
    for t in trials {
        all.merge(&t.latency);
    }
    vec![
        ("p50_ns", json::Json::Num(all.p50() as f64)),
        ("p99_ns", json::Json::Num(all.p99() as f64)),
        ("p999_ns", json::Json::Num(all.p999() as f64)),
    ]
}

/// The structure whose Figure 8 cells the README table renders and the
/// bench gate compares. A `figures` run measures every registered
/// structure, and each extra noisy cell is one more chance to fail on
/// noise, so both read this one.
pub const REPORTED_STRUCTURE: &str = "chromatic";

/// The one run of a `bench_fig8/v1` document (`figures fig8 --out`
/// writes exactly one), with its [`REPORTED_STRUCTURE`] rows in file
/// order. A document without exactly one run is malformed.
pub fn fig8_run(doc: &json::Json) -> Result<(&json::Json, Vec<&json::Json>), String> {
    use json::Json;
    let [run] = doc.get("runs").ok_or("no `runs`")?.items() else {
        return Err("expected exactly one run".into());
    };
    let rows = run
        .get("results")
        .ok_or("run has no `results`")?
        .items()
        .iter()
        .filter(|r| r.get("structure").and_then(Json::as_str) == Some(REPORTED_STRUCTURE))
        .collect();
    Ok((run, rows))
}

/// Human-readable nanoseconds (`850ns`, `3.4µs`, `1.2ms`) for tables.
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Prints one row of a fixed-width table.
pub fn print_row(first: &str, cells: &[String]) {
    print!("{first:<12}");
    for c in cells {
        print!(" {c:>10}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_must_be_positive_and_finite() {
        assert_eq!(parse_secs("0.05"), Ok(0.05));
        assert_eq!(parse_secs(" 5 "), Ok(5.0));
        for bad in ["", "abc", "0", "-1", "inf", "NaN", "1s"] {
            assert!(parse_secs(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn trial_counts_must_be_positive_integers() {
        assert_eq!(parse_positive::<usize>("5"), Ok(5));
        for bad in ["", "abc", "0", "-1", "2.5", "1,2"] {
            assert!(parse_positive::<usize>(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn lists_reject_any_malformed_entry() {
        assert_eq!(parse_list::<u64>("100"), Ok(vec![100]));
        assert_eq!(parse_list::<u64>("100, 10000"), Ok(vec![100, 10_000]));
        assert_eq!(parse_list::<usize>("1,2"), Ok(vec![1, 2]));
        // The old parser dropped what it could not read, so `abc` became
        // an empty sweep and `100,abc` silently lost a cell.
        for bad in ["", "abc", "100,abc", "1,,2", "0", "-5", "1.5"] {
            assert!(parse_list::<u64>(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn the_error_names_the_bad_entry() {
        let e = parse_list::<usize>("1,x").unwrap_err();
        assert!(e.contains("`x`"), "{e}");
    }
}

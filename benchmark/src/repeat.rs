//! `repeat <k>`: the benchmark measuring itself. Two interleaved sets of
//! `k` runs of the same code (A, B, B, A, …), every run its own process
//! and its own seed; for each workload × end-to-end metric the two set
//! medians must agree within the metric's bound. Prints a Markdown table
//! (checked in as `REPEATABILITY.md`) and exits non-zero on any breach.
//! A cell whose `2k` runs spread wider than its bound is marked
//! `unresolved`: there a difference the size of the bound between two
//! commits cannot be told from the runs' own scatter.

use std::process::{Command, ExitCode};

use bench::json::Json;

use crate::contract::{self, Declared};
use crate::run::median;
use crate::spec::WORKLOADS;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the acceptance check uses.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values.iter().copied())
}

/// Runs one workload in a child process and returns its result line.
fn child_run(workload: &str, seed: usize, passthrough: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(passthrough)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("no output")?;
    eprintln!("{workload} seed {seed}: {line}");
    Json::parse(line)
}

/// `passthrough` is appended to every child's command line (`--quick`,
/// `--seconds`), so the procedure itself can be tried in seconds.
pub fn repeat(k: usize, passthrough: &[String]) -> ExitCode {
    let metrics: Vec<Declared> = match contract::declared("end_to_end") {
        Ok(metrics) => metrics,
        Err(err) => {
            eprintln!("BENCHMARK.json: {err}");
            return ExitCode::from(2);
        }
    };
    // results[set][workload][metric] = one value per run
    let mut results = vec![vec![vec![Vec::new(); metrics.len()]; WORKLOADS.len()]; 2];
    let mut seed = 0;
    for i in 0..k {
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            seed += 1;
            for (w, spec) in WORKLOADS.iter().enumerate() {
                let line = match child_run(spec.name, seed, passthrough) {
                    Ok(line) => line,
                    Err(msg) => {
                        eprintln!("{msg}");
                        return ExitCode::from(1);
                    }
                };
                for (m, metric) in metrics.iter().enumerate() {
                    match contract::metric_value(&line, &metric.name) {
                        Some(v) => results[set][w][m].push(v),
                        None => {
                            eprintln!("{} missing from the result line", metric.name);
                            return ExitCode::from(1);
                        }
                    }
                }
            }
        }
    }

    println!("| workload | metric | unit | median A | median B | B vs A | IQR/median A | IQR/median B | IQR/median A∪B | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    let mut breaches = 0;
    for (w, spec) in WORKLOADS.iter().enumerate() {
        for (m, metric) in metrics.iter().enumerate() {
            let (a, b) = (&results[0][w][m], &results[1][w][m]);
            let both: Vec<f64> = a.iter().chain(b).copied().collect();
            let (med_a, med_b) = (median(a.iter().copied()), median(b.iter().copied()));
            let diff = (med_b - med_a) / med_a;
            let bound = metric.bound.unwrap_or(0.0);
            let verdict = if diff.abs() > bound {
                breaches += 1;
                "DIFFERENT"
            } else if spread(&both) > bound {
                "unresolved"
            } else {
                "same"
            };
            println!(
                "| {} | {} | {} | {:.4} | {:.4} | {:+.2} % | {:.2} % | {:.2} % | {:.2} % | {:.0} % | {} |",
                spec.name,
                metric.name,
                metric.unit,
                med_a,
                med_b,
                diff * 100.0,
                spread(a) * 100.0,
                spread(b) * 100.0,
                spread(&both) * 100.0,
                bound * 100.0,
                verdict
            );
        }
    }
    if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{breaches} workload × metric cells with set medians further apart than the bound"
        );
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }
}

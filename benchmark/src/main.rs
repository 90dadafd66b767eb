//! The repo benchmark. See `benchmark/README.md` for what each workload
//! and metric is for; `BENCHMARK.json` at the repo root is the contract.
//!
//! ```text
//! nbtree-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--quick]
//! nbtree-benchmark repeat <k> [--quick] [--seconds <s>]
//! ```

mod affinity;
mod check;
mod contract;
mod hist;
mod ladder;
mod repeat;
mod run;
mod span;
mod spec;
#[cfg(test)]
mod tests;

use std::process::ExitCode;
use std::time::Duration;

use run::Metric;
use spec::{Inputs, Spec};

/// Seconds a run measures unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// A run that has not finished by now is wedged (a lost wake-up, a
/// livelocked retry loop): say so and exit non-zero instead of hanging
/// whoever started it.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|s| s.name).collect();
    format!(
        "usage: --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1] [--quick]\n       repeat <k> [--quick] [--seconds <s>]",
        names.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be in (0, 60], not {}",
            args.seconds
        ));
    }
    Ok(args)
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, values printed with every digit measured.
fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, k, passthrough @ ..] = &argv[..] {
        if cmd == "repeat" {
            return match k.parse::<usize>() {
                Ok(k) if k >= 2 => repeat::repeat(k, passthrough),
                _ => {
                    eprintln!("repeat takes a run count of at least 2");
                    ExitCode::from(2)
                }
            };
        }
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(mut spec) = Spec::named(&args.workload) else {
        eprintln!("unknown workload {:?}\n{}", args.workload, usage());
        return ExitCode::from(2);
    };
    if args.quick {
        spec = spec.quick();
    }
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("watchdog: no result after {WATCHDOG:?}, giving up");
        std::process::exit(3);
    });

    let mut inputs = Inputs::generate(&spec, args.seed);
    println!(
        "workload {} seed {} stream_hash {:016x}",
        spec.name,
        args.seed,
        inputs.hash()
    );
    let (attempted, failed, metrics) = if args.trace {
        // A quick trace keeps out of the way of a full one's spans.
        let file = if args.quick { "quick-trace" } else { "trace" };
        let path = ladder::out_path(&format!("{file}-{}.json", spec.name));
        let out = ladder::trace(&spec, &inputs, args.seconds, &path);
        println!(
            "spans {} written to {}\npinned {}",
            out.spans,
            path.display(),
            out.pinned
        );
        (out.attempted, out.failed, out.metrics)
    } else {
        let out = run::run(&spec, &mut inputs, args.seconds);
        for (i, r) in out.rounds.iter().enumerate() {
            println!(
                "round {i}: {:.4} Mops/s p50 {:.0} ns p99 {:.0} ns over {} ops, setup {:.3} s, peak {:.1} MiB, failed {}",
                r.mops, r.p50_ns, r.p99_ns, r.ops, r.setup_s, r.peak_rss_mib, r.failed
            );
        }
        println!(
            "threads {} host_cpus {} pinned {}",
            spec.threads,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            out.pinned
        );
        (out.attempted, out.failed, out.metrics)
    };
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("ops_attempted {attempted}\nops_failed {failed}");
    println!("{}", result_json(attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

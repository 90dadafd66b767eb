//! `nblint` — workspace concurrency-protocol static analyzer.
//!
//! ```sh
//! cargo run --release -p lint --bin nblint -- --check
//! ```
//!
//! `--check` (the only mode, also the default) walks every first-party
//! `*.rs`, runs the four rule families plus the absorbed configuration
//! gates, and exits non-zero listing `file:line: [rule] message` for every
//! finding. `--root <path>` lints another checkout.

use std::path::PathBuf;

fn usage() -> ! {
    eprintln!("usage: nblint [--check] [--root <path>]");
    std::process::exit(2);
}

fn main() {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {}
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => usage(),
            },
            _ => usage(),
        }
    }
    // Repo root: two levels above this crate's manifest dir.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .expect("lint crate sits two levels under the repo root")
            .to_path_buf()
    });

    match lint::driver::check(&root) {
        Ok(findings) if findings.is_empty() => {
            println!(
                "nblint: clean — unsafe/SAFETY coverage, ordering audit, epoch-guard \
                 discipline, suppression hygiene and configuration gates all hold"
            );
        }
        Ok(findings) => {
            for f in &findings {
                eprintln!("{f}");
            }
            eprintln!("nblint: {} finding(s)", findings.len());
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("nblint: {e}");
            std::process::exit(2);
        }
    }
}

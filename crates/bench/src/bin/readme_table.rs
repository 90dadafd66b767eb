//! Regenerates (or, with `--check`, verifies) the "Current numbers"
//! table in `README.md` from the one run in the checked-in
//! `BENCH_fig8.json`, so the recorded baseline and the prose never
//! drift. The table lives between `readme_table:begin`/`end` marker
//! comments; everything else in the README is untouched.
//!
//! ```sh
//! cargo run --release -p bench --bin readme_table              # rewrite
//! cargo run --release -p bench --bin readme_table -- --check   # CI gate
//! ```

use bench::json::Json;
use bench::readme::{bench_table, splice};

const ARTIFACT: &str = "BENCH_fig8.json";
const README: &str = "README.md";

fn main() {
    let check = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--check") if std::env::args().len() == 2 => true,
        _ => {
            eprintln!("usage: readme_table [--check]");
            std::process::exit(2);
        }
    };

    let run = || -> Result<(), String> {
        let artifact_text = std::fs::read_to_string(ARTIFACT)
            .map_err(|e| format!("cannot read {ARTIFACT}: {e}"))?;
        let doc = Json::parse(&artifact_text).map_err(|e| format!("{ARTIFACT}: {e}"))?;
        let table = bench_table(&doc).map_err(|e| format!("{ARTIFACT}: {e}"))?;
        let current =
            std::fs::read_to_string(README).map_err(|e| format!("cannot read {README}: {e}"))?;
        let updated = splice(&current, &table)?;
        if updated == current {
            eprintln!("readme_table: {README} is up to date with {ARTIFACT}");
        } else if check {
            return Err(format!(
                "{README} is stale relative to {ARTIFACT}; \
                 run `cargo run --release -p bench --bin readme_table` and commit"
            ));
        } else {
            std::fs::write(README, &updated).map_err(|e| format!("cannot write {README}: {e}"))?;
            eprintln!("readme_table: rewrote the Current-numbers table in {README}");
        }
        Ok(())
    };
    if let Err(e) = run() {
        eprintln!("readme_table: {e}");
        std::process::exit(1);
    }
}

//! Grep-grade configuration gate (part of `nblint --check`): fails CI if
//! the retired environment-mutation idioms reappear anywhere in
//! first-party Rust sources.
//!
//! The suite used to size the `"sharded"` registry entry through
//! `NBTREE_SHARD_SPAN`, which forced every sweeper to *pin* the variable
//! with `std::env` mutation before building maps. That discipline was
//! replaced wholesale by the typed `workload::SuiteConfig` (parsed from
//! the environment once at binary startup and threaded by value), so any
//! reappearance of the old idioms is a regression: environment mutation
//! is a process-global data race (and `unsafe` from edition 2024), and a
//! span knob read at `make_map` time silently reintroduces the
//! mis-sized-boundary-table failure mode.
//!
//! The gate scans every `*.rs` file outside `vendor/`, `target/` and
//! hidden directories for the forbidden tokens, allowing them only in
//! the config module itself (`crates/workload/src/config.rs`, whose docs
//! narrate the history). Like `linkcheck`, it is a plain text scan — no
//! network, no parser — so it runs in milliseconds in the `analysis`
//! job.

use std::path::{Path, PathBuf};

/// The forbidden tokens. Assembled from halves so this module does not
/// itself contain the contiguous spellings it polices (the gate must
/// pass over its own source, and reviewers grep for the same strings).
pub fn forbidden_tokens() -> Vec<String> {
    [
        ("set_", "var"),             // std::env mutation
        ("pin_shard", "_span"),      // the retired helper…
        ("ShardSpan", "Pinner"),     // …and its multi-range sibling
        ("NBTREE_SHARD", "S\""),     // env parsing of the shard count…
        ("NBTREE_SHARD", "_SPAN\""), // …and span, outside the config module
    ]
    .iter()
    .map(|(a, b)| format!("{a}{b}"))
    .collect()
}

/// Whether `path` (repo-relative) may legitimately contain the tokens:
/// only the typed-config module, the single place the suite-construction
/// environment variables are parsed.
pub fn is_allowed(path: &Path) -> bool {
    path.ends_with(Path::new("crates/workload/src/config.rs"))
}

/// One offending line.
#[derive(Debug, PartialEq, Eq)]
pub struct Hit {
    /// Repo-relative path of the offending file.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The token found.
    pub token: String,
}

/// Whether `line` contains `token` as a whole word: at each end of the
/// match where the token itself has an identifier character, the
/// adjacent character must not be one — so a benign identifier that
/// merely embeds a token as a substring (an offset variable, say) never
/// trips the env-mutation token. Ends where the token has punctuation
/// (`.collect(`, `vec!`) need no boundary: punctuation is its own edge.
fn contains_word(line: &str, token: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let head_ident = token.chars().next().is_some_and(is_ident);
    let tail_ident = token.chars().next_back().is_some_and(is_ident);
    line.match_indices(token).any(|(at, _)| {
        let before_ok = !head_ident || line[..at].chars().next_back().is_none_or(|c| !is_ident(c));
        let after_ok = !tail_ident
            || line[at + token.len()..]
                .chars()
                .next()
                .is_none_or(|c| !is_ident(c));
        before_ok && after_ok
    })
}

/// Scans one file's text for forbidden tokens. `path` is repo-relative
/// and used both for the allowlist and for reporting.
pub fn scan_text(path: &Path, text: &str, tokens: &[String]) -> Vec<Hit> {
    if is_allowed(path) {
        return Vec::new();
    }
    let mut hits = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        for token in tokens {
            if contains_word(line, token) {
                hits.push(Hit {
                    path: path.to_path_buf(),
                    line: idx + 1,
                    token: token.clone(),
                });
            }
        }
    }
    hits
}

/// Runs the whole gate over a repo root, returning every hit.
pub fn scan_repo(root: &Path) -> Vec<Hit> {
    let tokens = forbidden_tokens();
    let mut hits = Vec::new();
    for file in crate::walk::rust_files(root) {
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        let rel = file.strip_prefix(root).unwrap_or(&file);
        hits.extend(scan_text(rel, &text, &tokens));
    }
    hits
}

// --- hot-loop gate ---------------------------------------------------------

/// Opens a measured hot-loop region (a `//` comment in `run_trial`).
pub const HOTLOOP_BEGIN: &str = "cfgcheck:hotloop:begin";
/// Closes a measured hot-loop region.
pub const HOTLOOP_END: &str = "cfgcheck:hotloop:end";

/// The file whose marked regions the hot-loop gate scans, repo-relative:
/// the harness's `run_trial` lives here.
pub const HOTLOOP_FILE: &str = "crates/workload/src/lib.rs";

/// Tokens forbidden inside the measured loops of `run_trial`: per-op
/// timestamping through the OS clock and allocation/formatting idioms.
/// The latency design (pre-generated streams, `rdtsc` ticks, fixed
/// `u64` buckets) exists precisely so none of these appear between the
/// barrier and the stop flag — this gate keeps the measured path honest
/// against well-meaning edits. Scanned only between the markers, so the
/// spellings are plain (the rest of the repo may use them freely).
pub fn hotloop_tokens() -> Vec<String> {
    [
        "Instant::now",
        "SystemTime",
        "Vec::new",
        "vec!",
        "with_capacity",
        "to_string",
        "to_vec",
        "to_owned",
        "String::",
        "format!",
        "println!",
        "Box::new",
        ".collect(",
        ".clone(",
        "gen_range",
        "next_u64",
        ".sample(",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Scans the `cfgcheck:hotloop` regions of one file's text for the
/// forbidden hot-loop tokens. Line comments are stripped before matching
/// (prose may *discuss* an idiom; code may not use it). Errors when the
/// text contains no complete region — deleting the markers must read as
/// gate evasion, not as a pass.
pub fn scan_hotloop(path: &Path, text: &str) -> Result<Vec<Hit>, String> {
    let tokens = hotloop_tokens();
    let mut hits = Vec::new();
    let mut in_region = false;
    let mut regions = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if line.contains(HOTLOOP_BEGIN) {
            if in_region {
                return Err(format!(
                    "{}:{}: nested hot-loop begin",
                    path.display(),
                    idx + 1
                ));
            }
            in_region = true;
            continue;
        }
        if line.contains(HOTLOOP_END) {
            if !in_region {
                return Err(format!(
                    "{}:{}: unmatched hot-loop end",
                    path.display(),
                    idx + 1
                ));
            }
            in_region = false;
            regions += 1;
            continue;
        }
        if !in_region {
            continue;
        }
        let code = line.split("//").next().unwrap_or(line);
        for token in &tokens {
            if contains_word(code, token) {
                hits.push(Hit {
                    path: path.to_path_buf(),
                    line: idx + 1,
                    token: token.clone(),
                });
            }
        }
    }
    if in_region {
        return Err(format!("{}: unterminated hot-loop region", path.display()));
    }
    if regions == 0 {
        return Err(format!(
            "{}: no `{HOTLOOP_BEGIN}` regions found — run_trial's measured \
             loops must stay marked",
            path.display()
        ));
    }
    Ok(hits)
}

/// Runs the hot-loop gate over a repo root: scans the marked regions of
/// [`HOTLOOP_FILE`]. Errors if the file is unreadable or unmarked.
pub fn scan_hotloop_repo(root: &Path) -> Result<Vec<Hit>, String> {
    let rel = Path::new(HOTLOOP_FILE);
    let text = std::fs::read_to_string(root.join(rel))
        .map_err(|e| format!("cannot read {HOTLOOP_FILE}: {e}"))?;
    scan_hotloop(rel, &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_cover_the_retired_idioms() {
        let tokens = forbidden_tokens();
        // The env-mutation call and the two retired helpers, spelled out
        // here only via the same split-halves trick the module uses.
        for halves in [
            ("set_", "var"),
            ("pin_shard", "_span"),
            ("ShardSpan", "Pinner"),
        ] {
            let spelled = format!("{}{}", halves.0, halves.1);
            assert!(tokens.contains(&spelled), "missing token {spelled}");
        }
    }

    #[test]
    fn offending_lines_are_reported_with_positions() {
        let needle = format!("std::env::{}{}", "set_", "var");
        let text = format!("fn main() {{\n    {needle}(\"X\", \"1\");\n}}\n");
        let hits = scan_text(
            Path::new("crates/foo/src/main.rs"),
            &text,
            &forbidden_tokens(),
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 2);
        assert_eq!(hits[0].token, format!("{}{}", "set_", "var"));
    }

    #[test]
    fn env_parsing_outside_the_config_module_is_flagged() {
        let text = format!(
            "let s = std::env::var(\"{}{}\");\n",
            "NBTREE_SHARD", "_SPAN"
        );
        let hits = scan_text(
            Path::new("crates/workload/src/adapters.rs"),
            &text,
            &forbidden_tokens(),
        );
        assert_eq!(hits.len(), 1, "span parsing must live in the config module");
    }

    #[test]
    fn the_config_module_is_allowed() {
        let needle = format!("std::env::{}{}", "set_", "var");
        let text = format!("//! docs may mention {needle} freely\n");
        let hits = scan_text(
            Path::new("crates/workload/src/config.rs"),
            &text,
            &forbidden_tokens(),
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn clean_text_passes() {
        let text = "fn main() { let cfg = workload::SuiteConfig::from_env(); }\n";
        assert!(scan_text(Path::new("src/main.rs"), text, &forbidden_tokens()).is_empty());
    }

    #[test]
    fn identifiers_merely_containing_a_token_pass() {
        // Word-boundary matching: these contain the env-mutation token as
        // a substring but are benign identifiers/strings. (Built from
        // halves so this file itself stays clean under a plain
        // `grep -rn` for the token — same trick as `forbidden_tokens`.)
        let embed = format!("{}{}", "set_", "var");
        let text = format!("let off{embed} = 1;\nlet un{embed}_cache = 2;\nre{embed}s();\n");
        assert!(
            scan_text(Path::new("src/main.rs"), &text, &forbidden_tokens()).is_empty(),
            "substring-only matches must not trip the gate"
        );
        // But the real call still does, in any qualification style.
        for call in [
            "std::env::{}(\"X\", \"1\");",
            "env::{}(\"X\", \"1\");",
            "{}(\"X\", \"1\");",
        ] {
            let needle = format!("{}{}", "set_", "var");
            let text = call.replace("{}", &needle);
            assert_eq!(
                scan_text(Path::new("src/main.rs"), &text, &forbidden_tokens()).len(),
                1,
                "missed: {text}"
            );
        }
    }

    #[test]
    fn the_repo_itself_is_clean() {
        // The gate's own acceptance criterion, run as a unit test too:
        // CARGO_MANIFEST_DIR is crates/bench, two levels below the root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap()
            .to_path_buf();
        let hits = scan_repo(&root);
        assert!(
            hits.is_empty(),
            "forbidden config idioms in first-party sources: {hits:?}"
        );
    }

    fn hotloop_text(body: &str) -> String {
        format!(
            "fn run() {{\n    setup();\n    // {HOTLOOP_BEGIN}\n{body}    // {HOTLOOP_END}\n}}\n"
        )
    }

    #[test]
    fn clean_hotloop_region_passes() {
        let text = hotloop_text(
            "    while !stop.load(Ordering::Relaxed) {\n        \
             let k = keys[cursor & MASK];\n        \
             let t0 = latency::now();\n        \
             map.insert(k, k);\n        \
             hist.record(kind, latency::elapsed_ns(t0));\n    }\n",
        );
        let hits = scan_hotloop(Path::new("lib.rs"), &text).unwrap();
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn timing_and_allocation_idioms_in_the_hotloop_are_flagged() {
        for bad in [
            "let t = std::time::Instant::now();\n",
            "let v: Vec<u64> = Vec::new();\n",
            "let v = keys.to_vec();\n",
            "let s = k.to_string();\n",
            "let v: Vec<u64> = it.collect();\n",
            "let k = rng.gen_range(0..range);\n",
            "let k = sampler.sample(&mut rng);\n",
        ] {
            let text = hotloop_text(&format!("    {bad}"));
            let hits = scan_hotloop(Path::new("lib.rs"), &text).unwrap();
            assert_eq!(hits.len(), 1, "missed in hot loop: {bad}");
        }
    }

    #[test]
    fn idioms_outside_the_region_or_in_comments_pass() {
        // The same idioms are fine in setup code before the marker...
        let text = format!(
            "fn run() {{\n    let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..r)).collect();\n    \
             // {HOTLOOP_BEGIN}\n    map.get(&k);\n    // {HOTLOOP_END}\n}}\n"
        );
        assert!(scan_hotloop(Path::new("lib.rs"), &text).unwrap().is_empty());
        // ...and in comments inside the region.
        let text = hotloop_text("    map.get(&k); // no Instant::now() here, by design\n");
        assert!(scan_hotloop(Path::new("lib.rs"), &text).unwrap().is_empty());
    }

    #[test]
    fn missing_or_unbalanced_markers_are_an_error() {
        assert!(scan_hotloop(Path::new("lib.rs"), "fn run() {}\n").is_err());
        let unterminated = format!("// {HOTLOOP_BEGIN}\nmap.get(&k);\n");
        assert!(scan_hotloop(Path::new("lib.rs"), &unterminated).is_err());
        let unmatched = format!("map.get(&k);\n// {HOTLOOP_END}\n");
        assert!(scan_hotloop(Path::new("lib.rs"), &unmatched).is_err());
    }

    #[test]
    fn the_repo_hotloop_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap()
            .to_path_buf();
        let hits = scan_hotloop_repo(&root).expect("run_trial must carry hotloop markers");
        assert!(
            hits.is_empty(),
            "timing/allocation idioms inside run_trial's measured loops: {hits:?}"
        );
    }
}

//! The `nblint` command line: one mode, `--check`, plus `--root`.

use std::process::Command;

#[test]
fn only_check_and_root_are_accepted() {
    let out = Command::new(env!("CARGO_BIN_EXE_nblint"))
        .arg("--write")
        .output()
        .expect("nblint runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "an unknown flag is a usage error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage: nblint [--check] [--root <path>]"),
        "{stderr}"
    );
}

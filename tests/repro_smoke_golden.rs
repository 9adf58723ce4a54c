//! Golden copy of `repro --smoke all`.
//!
//! The smoke run regenerates every table and figure plus the three
//! ablations through the same code paths as the paper-scale run. The
//! feature-family ablation is the only caller of the `lexical_only`,
//! `without_syntactic` and `without_dataflow` extractor
//! configurations, so this file is what pins them.
//!
//! The run must print the same bytes at one worker and at the default
//! worker count. When a change alters the output on purpose, the
//! failure message carries the whole fresh output: replace
//! `tests/golden/repro_smoke.txt` with it, and the diff is the review
//! record of what moved.

use std::process::Command;

const GOLDEN: &str = include_str!("golden/repro_smoke.txt");

/// Runs `repro --smoke all`, with `SYNTHATTR_WORKERS` set to `workers`
/// or unset, and returns its stdout.
fn smoke_all(workers: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(["--smoke", "all"]);
    match workers {
        Some(w) => cmd.env("SYNTHATTR_WORKERS", w),
        None => cmd.env_remove("SYNTHATTR_WORKERS"),
    };
    let out = cmd.output().expect("repro runs");
    assert!(
        out.status.success(),
        "repro --smoke all failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("repro prints UTF-8")
}

fn check(workers: Option<&str>) {
    let fresh = smoke_all(workers);
    assert!(
        fresh == GOLDEN,
        "repro --smoke all (SYNTHATTR_WORKERS={workers:?}) drifted from \
         tests/golden/repro_smoke.txt; if the change is intended, replace that file with:\n{fresh}"
    );
}

#[test]
fn smoke_all_matches_the_golden_output_at_one_worker() {
    check(Some("1"));
}

#[test]
fn smoke_all_matches_the_golden_output_at_the_default_worker_count() {
    check(None);
}

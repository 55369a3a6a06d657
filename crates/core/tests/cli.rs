//! Bad input to the `lightwsp` CLI fails loudly: exit status 2 and an
//! error naming the accepted values, before any simulation runs.

use std::process::{Command, Output};

fn lightwsp(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lightwsp"));
    cmd.args(args).env_remove("LIGHTWSP_THREADS");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("lightwsp runs")
}

fn assert_rejected(args: &[&str], env: &[(&str, &str)], accepted: &str) {
    let out = lightwsp(args, env);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(accepted), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
}

#[test]
fn unparseable_counts_are_rejected() {
    assert_rejected(
        &["recover", "hmmer", "1e4", "abc"],
        &[],
        "\"1e4\" is not a failure cycle; accepted: a non-negative integer",
    );
    assert_rejected(
        &["trace", "hmmer", "x"],
        &[],
        "accepted: a positive integer",
    );
    assert_rejected(
        &["trace", "hmmer", "0"],
        &[],
        "accepted: a positive integer",
    );
}

#[test]
fn unknown_names_are_rejected() {
    assert_rejected(&["frobnicate"], &[], "accepted: list, run, compare");
    assert_rejected(&[], &[], "usage:");
    assert_rejected(&["run", "nosuch"], &[], "accepted: bzip2");
    assert_rejected(&["run"], &[], "missing <workload>");
    assert_rejected(&["run", "hmmer", "nosuch"], &[], "accepted: Baseline");
    assert_rejected(&["regions", "hmmer", "extra"], &[], "unexpected argument");
}

#[test]
fn bad_worker_count_is_rejected() {
    for bad in ["0", "four"] {
        assert_rejected(
            &["run", "hmmer"],
            &[("LIGHTWSP_THREADS", bad)],
            "positive integer",
        );
    }
}

#[test]
fn good_input_succeeds() {
    let out = lightwsp(&["list"], &[]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("hmmer"));
}

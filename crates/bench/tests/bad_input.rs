//! Bad input fails loudly: each bin exits with status 2 before doing
//! any work, naming the values it accepts.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args)
        .env_remove("LIGHTWSP_THREADS")
        .env_remove("LIGHTWSP_FILTER");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("bin runs")
}

fn assert_rejected(out: &Output, accepted: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(accepted), "stderr: {stderr}");
}

#[test]
fn filter_pattern_matching_nothing_is_rejected() {
    let bin = env!("CARGO_BIN_EXE_all_figures");
    let out = run(bin, &["--quick", "--filter=fig07,stepmode"], &[]);
    assert_rejected(&out, "accepted: fig07, fig11");
    let out = run(
        bin,
        &["--quick"],
        &[("LIGHTWSP_FILTER", "w:nosuchworkload")],
    );
    assert_rejected(&out, "hmmer");
}

#[test]
fn unknown_flag_is_rejected() {
    let out = run(env!("CARGO_BIN_EXE_perf_gate"), &["--model-only"], &[]);
    assert_rejected(&out, "accepted: --quick");
    let out = run(env!("CARGO_BIN_EXE_crash_audit"), &["--filter=fig07"], &[]);
    assert_rejected(&out, "accepted: --quick");
}

#[test]
fn bad_worker_count_is_rejected() {
    for bad in ["0", "four"] {
        let out = run(
            env!("CARGO_BIN_EXE_tab_jit_energy"),
            &[],
            &[("LIGHTWSP_THREADS", bad)],
        );
        assert_rejected(&out, "positive integer");
    }
}

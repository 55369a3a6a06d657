//! Bad input fails loudly: each bin exits with status 2 before doing
//! any work, naming the values it accepts (or, for a result store that
//! cannot be opened, its path and the cause).

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args)
        .env_remove("LIGHTWSP_THREADS")
        .env_remove("LIGHTWSP_FILTER")
        .env_remove("LIGHTWSP_STORE");
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
            env!("CARGO_BIN_EXE_all_figures"),
            &["--filter=energy"],
            &[("LIGHTWSP_THREADS", bad)],
        );
        assert_rejected(&out, "positive integer");
    }
}

/// A scratch directory for one test, emptied first.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lwsp-bad-input-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `all_figures` on its cheapest section inside `dir` (a bin that
/// ignored the store would write its results there and exit 0).
fn run_with_store(dir: &std::path::Path, store: &std::path::Path) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_all_figures"));
    cmd.args(["--quick", "--filter=cam"])
        .current_dir(dir)
        .env_remove("LIGHTWSP_THREADS")
        .env_remove("LIGHTWSP_FILTER")
        .env("LIGHTWSP_STORE", store);
    cmd.output().expect("bin runs")
}

#[test]
fn store_path_that_is_a_file_is_rejected() {
    let dir = scratch("file");
    let store = dir.join("not-a-dir");
    std::fs::write(&store, "").unwrap();
    let out = run_with_store(&dir, &store);
    assert_rejected(&out, "could not open result store");
    assert_rejected(&out, &store.display().to_string());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_with_a_corrupt_batch_is_rejected() {
    let dir = scratch("corrupt");
    let store = dir.join("store");
    std::fs::create_dir(&store).unwrap();
    let batch = "batch-000000000000-000000000003.lwsb";
    std::fs::write(store.join(batch), "not a batch\n").unwrap();
    let out = run_with_store(&dir, &store);
    assert_rejected(&out, "could not open result store");
    assert_rejected(&out, batch);
    std::fs::remove_dir_all(&dir).unwrap();
}

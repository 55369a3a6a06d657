//! Every workload at a tiny size: two Fig. 7 entries at
//! `ExperimentOptions::quick()`, `KvServiceSpec::new(4, 2048, 32, 256,
//! 8, 64)` with `DsAuditBudget::quick()`, and 50 fuzz cases.

use lwbench::trace::Tracer;
use lwbench::{deterministic_counters, run, Report, Scale, Workload};
use std::collections::BTreeMap;
use std::process::Command;

fn untraced(w: Workload, seed: u64) -> Report {
    let r = run(w, Scale::Tiny, seed, 0.0, false);
    assert_ok(w, &r);
    r
}

fn traced(w: Workload, seed: u64) -> BTreeMap<&'static str, u64> {
    let r = run(w, Scale::Tiny, seed, 0.0, true);
    assert_ok(w, &r);
    let t: &Tracer = r.tracer.as_ref().expect("a traced run keeps its spans");
    let wall = r.metric("trace.wall_s").expect("trace.wall_s");
    let layers: f64 = r
        .metrics
        .iter()
        .filter(|m| m.unit == "s" && m.name != "trace.wall_s")
        .map(|m| m.value)
        .sum();
    assert!(
        (layers - wall).abs() <= 1e-6 * wall.max(1.0),
        "{}: layer self times sum to {layers}, wall {wall}",
        w.name()
    );
    assert!(!t.is_empty());
    deterministic_counters(t)
}

fn assert_ok(w: Workload, r: &Report) {
    assert!(r.correct, "{}: {:?}", w.name(), r.notes);
    assert_eq!(r.failed, 0, "{}", w.name());
    assert!(r.attempted > 0, "{}", w.name());
    assert!(
        r.metrics.iter().all(|m| m.value.is_finite()),
        "{}",
        w.name()
    );
}

fn simulated(r: &Report) -> Vec<f64> {
    [
        "sim_slowdown",
        "paper_err_pct",
        "sim_mcycles",
        "witnessed_pct",
    ]
    .iter()
    .map(|n| r.metric(n).expect("every end-to-end metric"))
    .collect()
}

#[test]
fn fig_matrix_repeats_and_reorders() {
    let w = Workload::FigMatrix;
    let a = untraced(w, 0);
    assert_eq!(a.attempted, 6);
    let c0 = traced(w, 0);
    assert_eq!(c0, traced(w, 0), "counters repeat on one seed");
    assert!(c0["sim.cycles"] > 0 && c0["mem.persist_stores"] > 0);
    // Another seed issues the cells in another order; the programs, and
    // so every simulated output, stay the same.
    assert_ne!(
        lwbench::fig::cell_order(117, 0),
        lwbench::fig::cell_order(117, 1)
    );
    assert_eq!(c0, traced(w, 1));
    assert_eq!(simulated(&a), simulated(&untraced(w, 1)));
}

#[test]
fn kv_audit_repeats_on_every_seed() {
    let w = Workload::KvAudit;
    let a = untraced(w, 0);
    let c0 = traced(w, 0);
    assert_eq!(c0, traced(w, 0), "counters repeat on one seed");
    assert_eq!(c0["sim.points_audited"], a.attempted);
    assert!(c0["sim.resumes"] > 0 && c0["sim.golden_cycles"] > 0);
    // Every seed audits the default point set (see `lwbench::kv`).
    assert_eq!(c0, traced(w, 1));
}

#[test]
fn model_fuzz_repeats_and_varies_with_seed() {
    let w = Workload::ModelFuzz;
    let a = untraced(w, 0);
    assert_eq!(a.attempted, 50);
    let c0 = traced(w, 0);
    assert_eq!(c0, traced(w, 0), "counters repeat on one seed");
    assert!(c0["model.witnessed"] > 0 && c0["model.images_checked"] > 0);
    let b = untraced(w, 1);
    assert_ne!(c0, traced(w, 1));
    assert_ne!(simulated(&a), simulated(&b));
}

#[test]
fn refuses_to_run_under_a_lightwsp_variable() {
    let out = Command::new(env!("CARGO_BIN_EXE_lwbench"))
        .args([
            "--workload",
            "model-fuzz",
            "--seed",
            "0",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .env("LIGHTWSP_THREADS", "1")
        .output()
        .expect("the benchmark binary starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result is printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("LIGHTWSP_THREADS"));
}

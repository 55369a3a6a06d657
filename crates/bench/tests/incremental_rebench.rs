//! Acceptance test for the digest-keyed incremental re-bench
//! (ISSUE 8): a warm `all_figures` pass against an unchanged code
//! digest re-simulates **zero** cells, reproduces `BENCH_eval.json`
//! byte-identically bar the volatile `"cache"` meta line, and beats
//! the cold pass by ≥ 10x wall-clock; perturbing the code digest
//! (the `LIGHTWSP_DIGEST_SALT` path) invalidates the cells and forces
//! re-simulation, while the original-digest records stay servable.

use lightwsp_bench::evalrun::{run_eval, EvalOptions, EvalSummary};
use lightwsp_bench::Filter;
use lightwsp_core::{code_digest, ExperimentOptions, ResultStore};

/// Drops the single volatile line (per-pass cache statistics) from a
/// `BENCH_eval.json` document; everything else must be byte-stable.
fn masked(json: &str) -> String {
    json.lines()
        .filter(|l| !l.contains("\"cache\":"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn pass(store: ResultStore) -> EvalSummary {
    run_eval(&EvalOptions {
        opts: ExperimentOptions::paper_default(),
        quick: true,
        // The smallest subset that still exercises run records, wall
        // memos and the per-run timing array (the CI job uses the
        // same selection).
        filter: Filter::parse("fig07,fig11,runs").unwrap(),
        store: Some(store),
    })
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock acceptance test — run with --release (CI incremental-rebench job)"
)]
fn warm_rerun_is_incremental_and_byte_identical() {
    let dir = std::env::temp_dir().join(format!("lwsp-rebench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // `run_eval` persists figure text under `results/` relative to the
    // working directory; keep test droppings out of the repo.
    std::env::set_current_dir(&dir).unwrap();
    let store_dir = dir.join("store");

    // Cold pass: populates the store.
    let cold_store = ResultStore::open(&store_dir).unwrap();
    let cold = pass(cold_store.clone());
    assert!(cold.cells_simulated > 0, "cold pass should simulate");
    cold_store.flush().unwrap();

    // Warm pass on a reopened store: zero re-simulation, identical
    // masked report, ≥ 10x faster than the cold pass.
    let warm = pass(ResultStore::open(&store_dir).unwrap());
    assert_eq!(
        warm.cells_simulated, 0,
        "warm re-run on unchanged code must re-simulate nothing"
    );
    assert!(warm.cells_served > 0, "warm pass should serve from store");
    assert_eq!(
        masked(&cold.json),
        masked(&warm.json),
        "warm BENCH_eval.json must be byte-identical bar the cache line"
    );
    assert!(
        warm.wall_s * 10.0 <= cold.wall_s,
        "warm pass not ≥10x faster: cold {:.3}s vs warm {:.3}s",
        cold.wall_s,
        warm.wall_s
    );

    // A perturbed code digest (what LIGHTWSP_DIGEST_SALT does to the
    // binaries) misses every record and re-simulates the lot.
    let salted_store = ResultStore::open_with(&store_dir, code_digest(Some("test-salt"))).unwrap();
    let salted = pass(salted_store.clone());
    assert_eq!(
        salted.cells_simulated, cold.cells_simulated,
        "a new code digest must invalidate exactly the digest-keyed cells"
    );
    salted_store.flush().unwrap();

    // Invalidation is targeted: after the salted pass, the original
    // code digest still serves everything without re-simulation.
    let warm2 = pass(ResultStore::open(&store_dir).unwrap());
    assert_eq!(
        warm2.cells_simulated, 0,
        "original-digest records must survive a salted pass"
    );

    std::env::set_current_dir("/").unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

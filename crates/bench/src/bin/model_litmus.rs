//! LRPO model-oracle sweep: the executable persistency model
//! (`lightwsp-model`) differentially checked against the cycle-level
//! simulator.
//!
//! Stages, all fanned over the [`Campaign`](lightwsp_core::Campaign)
//! worker pool:
//!
//! 1. the hand-written litmus suite in **both** step modes, power-cut
//!    at every cycle of each traced run (exhaustive for these program
//!    sizes) with the fork-point sweep engine; then re-run under
//!    **exact** enumeration
//!    (admitted set = cuts of the traced protocol order), reporting the
//!    per-litmus exact-vs-over-approx delta, and feeding the
//!    model-mutant kill matrix — each deliberately-loose enumeration
//!    rule must be falsified by a fully-witnessed litmus;
//! 2. the gating-mutant kill matrix — every simulator mutant must be
//!    killed by at least one litmus, by the model or the structural
//!    detector;
//! 3. seeded fuzz sweeps in both step modes (≥ 2000 generated programs
//!    per stream by default, 200 under `--quick`): the uniform stream
//!    over-approximate, the cross-thread-biased stream under exact
//!    enumeration.
//!
//! Writes `results/model_litmus.txt` plus machine-readable
//! `BENCH_model.json` and exits non-zero on any admitted-set
//! violation, structural violation, unkilled gating or model mutant,
//! or missing exact-tightness delta — the CI gate for the persistency
//! model. The fork-vs-rerun litmus timings and their outcome-identity
//! check are rows of the `perf_gate` bin.
//! `LIGHTWSP_STORE` attaches the persistent result store: sweeps,
//! matrices and wall-clocks are served from it on a warm re-run.

use lightwsp_bench::evalrun::cache_line;
use lightwsp_core::cache::{f64_bits, f64_from_bits};
use lightwsp_core::oracle::{
    fuzz_sweep_cached, litmus_sweep_cached, model_mutant_kill_matrix, mutant_kill_matrix_cached,
    ALL_MUTANTS,
};
use lightwsp_core::{digest_debug, memo_value, JsonWriter, ResultStore, StoreKey, SweepRecord};
use lightwsp_model::harness::EnumMode;
use lightwsp_model::{FuzzBias, ModelMutant};
use lightwsp_sim::{StepMode, SweepMode};
use std::fmt::Write as _;
use std::time::Instant;

/// Fixed fuzz seed: CI and the paper artifact reproduce bit-identically.
const FUZZ_SEED: u64 = 0x11BD_57A7;

fn summarize(out: &mut String, label: &str, mode: StepMode, rep: &SweepRecord) {
    let _ = writeln!(
        out,
        "{label:<8} ({:<10}) cases={:<5} points={:<7} audited={:<7} admitted={:<7} \
         exact={:<7} witnessed={:<6} cross_thread={:<4} overapprox={:<6} violations={}",
        mode.name(),
        rep.cases,
        rep.points,
        rep.audited,
        rep.admitted,
        if rep.exact_admitted > 0 {
            rep.exact_admitted.to_string()
        } else {
            "-".to_string()
        },
        rep.witnessed,
        rep.witnessed_cross_thread,
        rep.overapprox(),
        rep.violations(),
    );
    for v in rep
        .model_violations
        .iter()
        .chain(&rep.structural_violations)
        .take(10)
    {
        let _ = writeln!(out, "    VIOLATION {v}");
    }
    for e in rep.extract_errors.iter().take(10) {
        let _ = writeln!(out, "    EXTRACT-ERROR {e}");
    }
}

fn memo_wall(
    store: Option<&ResultStore>,
    name: &str,
    config: u64,
    measured: impl FnOnce() -> f64,
) -> f64 {
    let key = StoreKey::new(
        "metawall",
        name,
        "wall",
        config,
        0,
        store.map_or(0, ResultStore::code),
    );
    memo_value(
        store,
        &key,
        |s| f64_from_bits(s.trim()),
        |v| f64_bits(*v),
        measured,
    )
    .0
}

fn main() {
    let quick = lightwsp_bench::Cli::from_env(false).quick;
    let fuzz_count: u64 = if quick { 200 } else { 2400 };
    let store = lightwsp_bench::store();
    let store = store.as_ref();
    let mut c = lightwsp_bench::campaign();
    if let Some(s) = store {
        c.attach_store(s.clone());
    }
    let t0 = Instant::now();
    let mut out = String::from("== LRPO model oracle — litmus & fuzz differential sweep ==\n");
    let mut violations = 0usize;
    let mut extract_errors = 0usize;

    // Stage 1: litmus suite, exhaustive points, both step modes. Each
    // sweep is one stored record.
    let mut litmus_reports: Vec<SweepRecord> = Vec::new();
    for mode in [StepMode::SkipAhead, StepMode::Reference] {
        let (rep, _hit) =
            litmus_sweep_cached(store, &c, mode, SweepMode::Fork, EnumMode::Overapprox);
        summarize(&mut out, "litmus", mode, &rep);
        for o in &rep.outcomes {
            let _ = writeln!(
                out,
                "    {:<24} points={:<5} audited={:<5} admitted={:<4} witnessed={:<4} \
                 overapprox={:<4} violations={}",
                o.name,
                o.points,
                o.audited,
                o.admitted,
                o.witnessed,
                o.overapprox(),
                o.violations(),
            );
        }
        violations += rep.violations();
        extract_errors += rep.extract_errors.len();
        litmus_reports.push(rep);
    }

    // Stage 1c: exact enumeration mode — the same suite with the
    // admitted set constrained to the cuts of each run's traced
    // protocol order (skip-ahead + fork; step parity is pinned by
    // stage 1 and the exact set rides the same trace either way). Every
    // observed image must still be admitted, and the per-litmus
    // exact-vs-over-approx delta is the tightness the protocol order
    // buys.
    let (exact_rep, _hit) = litmus_sweep_cached(
        store,
        &c,
        StepMode::SkipAhead,
        SweepMode::Fork,
        EnumMode::Exact,
    );
    summarize(&mut out, "exact", StepMode::SkipAhead, &exact_rep);
    violations += exact_rep.violations();
    extract_errors += exact_rep.extract_errors.len();
    let mut strict_deltas = 0usize;
    let _ = writeln!(
        out,
        "exact-vs-overapprox per litmus (canonical admitted images):"
    );
    for o in &exact_rep.outcomes {
        let exact = o.exact_admitted.unwrap_or(o.admitted);
        if o.exact_delta() > 0 {
            strict_deltas += 1;
        }
        let _ = writeln!(
            out,
            "    {:<24} overapprox={:<6} exact={:<6} delta={:<6} witnessed={:<5} \
             fully_witnessed={}",
            o.name,
            o.admitted,
            exact,
            o.exact_delta(),
            o.witnessed,
            o.exact_fully_witnessed(),
        );
    }
    let _ = writeln!(
        out,
        "exact: {} litmuses strictly tighter, {} fully witnessed of {}",
        strict_deltas,
        exact_rep.exact_complete,
        exact_rep.outcomes.len(),
    );

    // Stage 1d: model-mutant kill matrix — deliberately-loose
    // enumeration rules, each of which must admit more images than some
    // litmus whose sweep witnessed its *entire* exact set (so the
    // surplus is proven unreachable, falsifying the mutant by
    // observation). Pure aggregation over the stage-1c outcomes.
    let model_matrix = model_mutant_kill_matrix(&exact_rep.outcomes);
    let mut mm_unkilled = 0usize;
    for row in &model_matrix {
        let _ = writeln!(
            out,
            "model-mutant {:<20} {} ({} falsifying litmuses: {})",
            row.mutant,
            if row.killed() { "KILLED" } else { "SURVIVED" },
            row.killed_by.len(),
            if row.killed_by.is_empty() {
                "-".to_string()
            } else {
                row.killed_by.join(", ")
            },
        );
        if !row.killed() {
            mm_unkilled += 1;
        }
    }

    // Stage 2: gating-mutant kill matrix (skip-ahead + fork; step modes
    // are bit-identical and the litmus stage already covers both, sweep
    // modes via the mode parity harness). Over-approximate
    // enumeration: the mutants perturb the simulated hardware, so a
    // traced protocol order from a broken machine proves nothing.
    let (matrix, _hit) = mutant_kill_matrix_cached(
        store,
        &c,
        StepMode::SkipAhead,
        SweepMode::Fork,
        EnumMode::Overapprox,
    );
    let mut unkilled = 0usize;
    for mk in &matrix {
        let _ = writeln!(
            out,
            "mutant {:<18} {} ({} detections: {})",
            mk.mutant,
            if mk.killed() { "KILLED" } else { "SURVIVED" },
            mk.killed_by.len(),
            if mk.killed_by.is_empty() {
                "-".to_string()
            } else {
                mk.killed_by.join(", ")
            },
        );
        if !mk.killed() {
            unkilled += 1;
        }
    }

    // Stage 3: fuzz sweeps, both step modes (fork engine; fork/rerun
    // parity is enforced by the mode parity harness and `perf_gate`).
    // The uniform stream runs over-approximate (the historical gate);
    // the cross-thread-biased stream — always ≥ 2 threads, the shapes
    // where the modes differ — runs under exact enumeration, so every
    // observed image must be a cut of its run's protocol order.
    let mut fuzz_reports: Vec<(FuzzBias, StepMode, SweepRecord)> = Vec::new();
    for (bias, enum_mode) in [
        (FuzzBias::Uniform, EnumMode::Overapprox),
        (FuzzBias::CrossThread, EnumMode::Exact),
    ] {
        for mode in [StepMode::SkipAhead, StepMode::Reference] {
            let (rep, _hit) = fuzz_sweep_cached(
                store,
                &c,
                FUZZ_SEED,
                fuzz_count,
                mode,
                SweepMode::Fork,
                enum_mode,
                bias,
            );
            summarize(&mut out, &format!("fuzz:{}", bias.name()), mode, &rep);
            violations += rep.violations();
            extract_errors += rep.extract_errors.len();
            fuzz_reports.push((bias, mode, rep));
        }
    }

    let total_s = memo_wall(store, "model-litmus-wall", digest_debug(&quick), || {
        t0.elapsed().as_secs_f64()
    });
    let _ = writeln!(
        out,
        "total: fuzz_seed={FUZZ_SEED:#x} fuzz_cases={fuzz_count}/mode/bias, \
         {violations} violations, {extract_errors} extract errors, {unkilled} unkilled gating \
         mutants, {mm_unkilled} unkilled model mutants, {strict_deltas} strict exact deltas, \
         {total_s:.1}s ({} workers)",
        c.workers(),
    );
    lightwsp_bench::emit_text("model_litmus", &out);

    let mut jw = JsonWriter::new();
    jw.object("meta");
    jw.field("threads", c.workers());
    jw.field("quick", quick);
    jw.field("fuzz_seed", FUZZ_SEED);
    jw.field("fuzz_cases_per_mode", fuzz_count);
    jw.field("violations", violations);
    jw.field("extract_errors", extract_errors);
    jw.field("unkilled_mutants", unkilled);
    jw.field("mutants_total", ALL_MUTANTS.len());
    jw.field("unkilled_model_mutants", mm_unkilled);
    jw.field("model_mutants_total", ModelMutant::ALL.len());
    jw.field("exact_strict_deltas", strict_deltas);
    jw.field("exact_fully_witnessed", exact_rep.exact_complete);
    jw.field("total_wall_s", format_args!("{total_s:.3}"));
    jw.field("cache", cache_line(&c));
    jw.close();
    jw.array("litmus");
    for (o, e) in litmus_reports[0].outcomes.iter().zip(&exact_rep.outcomes) {
        assert_eq!(o.name, e.name, "suite order diverged between enum modes");
        jw.elem(&format!(
            "{{\"case\": \"{}\", \"points\": {}, \"audited\": {}, \"admitted\": {}, \
             \"exact\": {}, \"delta\": {}, \"witnessed\": {}, \"overapprox\": {}, \
             \"fully_witnessed\": {}, \"violations\": {}}}",
            o.name,
            o.points,
            o.audited,
            o.admitted,
            e.exact_admitted.unwrap_or(e.admitted),
            e.exact_delta(),
            o.witnessed,
            o.overapprox(),
            e.exact_fully_witnessed(),
            o.violations() + e.violations(),
        ));
    }
    jw.close();
    jw.array("model_mutants");
    for row in &model_matrix {
        jw.elem(&format!(
            "{{\"mutant\": \"{}\", \"killed\": {}, \"falsified_by\": {}}}",
            row.mutant,
            row.killed(),
            row.killed_by.len(),
        ));
    }
    jw.close();
    jw.array("mutants");
    for mk in &matrix {
        jw.elem(&format!(
            "{{\"mutant\": \"{}\", \"killed\": {}, \"detections\": {}}}",
            mk.mutant,
            mk.killed(),
            mk.killed_by.len(),
        ));
    }
    jw.close();
    jw.array("fuzz");
    for (bias, mode, rep) in &fuzz_reports {
        jw.elem(&format!(
            "{{\"bias\": \"{}\", \"step_mode\": \"{}\", \"cases\": {}, \"points\": {}, \
             \"audited\": {}, \"admitted\": {}, \"exact\": {}, \"witnessed\": {}, \
             \"cross_thread\": {}, \"overapprox\": {}, \"violations\": {}}}",
            bias.name(),
            mode.name(),
            rep.cases,
            rep.points,
            rep.audited,
            rep.admitted,
            rep.exact_admitted,
            rep.witnessed,
            rep.witnessed_cross_thread,
            rep.overapprox(),
            rep.violations(),
        ));
    }
    jw.close();
    if let Err(e) = std::fs::write("BENCH_model.json", jw.finish()) {
        eprintln!("warning: could not write BENCH_model.json: {e}");
    }
    if let Some(s) = store {
        if let Err(e) = s.flush() {
            eprintln!("warning: could not flush result store: {e}");
        }
    }

    assert_eq!(
        violations, 0,
        "model admitted-set or structural violations — see results/model_litmus.txt"
    );
    assert_eq!(
        extract_errors, 0,
        "litmus/fuzz case outside the model domain — generator bug"
    );
    assert_eq!(
        unkilled,
        0,
        "a gating mutant survived the litmus suite ({} mutants total)",
        ALL_MUTANTS.len()
    );
    assert!(
        strict_deltas >= 1,
        "exact mode never beat the over-approximation on any litmus"
    );
    assert_eq!(
        mm_unkilled,
        0,
        "a loose model mutant survived: no fully-witnessed litmus falsified it \
         ({} model mutants total)",
        ModelMutant::ALL.len()
    );
}

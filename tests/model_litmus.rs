//! Differential tests of the executable LRPO persistency model
//! (`lightwsp-model`) against the cycle-level simulator.
//!
//! Three claims, each load-bearing:
//!
//! 1. **Soundness of the simulator against the model** — every PM image
//!    observed at any crash point of any litmus program, in either step
//!    mode, is in the model's admitted set (and the §IV-F resolution
//!    passes the structural invariants at the same points).
//! 2. **The harness has teeth** — each deliberately broken gating rule
//!    ([`lightwsp_sim::GatingMutant`]) is killed by at least one litmus.
//! 3. **Fuzz generality** — a seeded batch of random programs passes
//!    the same differential check in both step modes (the full ≥2000-
//!    case sweep lives in `crates/bench/src/bin/model_litmus.rs`; this
//!    is the always-on smoke).

use lightwsp_core::oracle::{mutant_name, ALL_MUTANTS};
use lightwsp_core::{
    fuzz_sweep, litmus_sweep, model_mutant_kill_matrix, mutant_kill_matrix, Campaign,
};
use lightwsp_model::harness::EnumMode;
use lightwsp_model::{FuzzBias, ModelMutant};
use lightwsp_sim::{GatingMutant, StepMode, SweepMode};

const BOTH_MODES: [StepMode; 2] = [StepMode::SkipAhead, StepMode::Reference];

/// Every litmus, swept at every cycle of its traced run, satisfies the
/// model and the structural invariants — in both step modes.
#[test]
fn litmus_suite_is_clean_in_both_step_modes() {
    let campaign = Campaign::new();
    for mode in BOTH_MODES {
        let (report, outcomes) =
            litmus_sweep(&campaign, mode, SweepMode::default(), EnumMode::Overapprox);
        assert!(
            report.extract_errors.is_empty(),
            "litmus outside model domain ({}): {:?}",
            mode.name(),
            report.extract_errors
        );
        assert_eq!(
            report.violations(),
            0,
            "admitted-set or structural violations ({}): {:?} {:?}",
            mode.name(),
            report.model_violations,
            report.structural_violations
        );
        for out in &outcomes {
            assert!(
                out.audited > 0,
                "litmus {} was never interrupted ({})",
                out.name,
                mode.name()
            );
            assert!(
                out.witnessed >= 1,
                "litmus {} witnessed no admitted image ({})",
                out.name,
                mode.name()
            );
        }
        // Tightness bookkeeping is real: concurrency litmuses must
        // witness cross-thread prefix combinations (the inside of the
        // documented over-approximation envelope), and the admitted
        // count bounds what was seen.
        assert!(
            report.witnessed_cross_thread > 0,
            "no cross-thread combination witnessed ({})",
            mode.name()
        );
        assert!(report.witnessed as u128 <= report.admitted);
    }
}

/// Each gating mutant is killed by at least one litmus.
#[test]
fn all_gating_mutants_are_killed() {
    let campaign = Campaign::new();
    let matrix = mutant_kill_matrix(
        &campaign,
        StepMode::SkipAhead,
        SweepMode::default(),
        EnumMode::Overapprox,
    );
    assert_eq!(matrix.len(), ALL_MUTANTS.len());
    for mk in &matrix {
        assert!(
            mk.killed(),
            "gating mutant {} survived the whole litmus suite",
            mutant_name(mk.mutant)
        );
    }
    // FlushUnacked leaks mid-region stores into PM, which is an image
    // the model cannot explain — the *model* detector itself must fire,
    // not just the structural audit.
    let flush_unacked = matrix
        .iter()
        .find(|mk| mk.mutant == GatingMutant::FlushUnacked)
        .unwrap();
    assert!(
        flush_unacked
            .killed_by
            .iter()
            .any(|(_, det)| *det == "model"),
        "FlushUnacked was only caught structurally: {:?}",
        flush_unacked.killed_by
    );
}

/// Exact mode (cuts of the traced protocol order) is clean across the
/// whole suite, never admits more than the over-approximation, and is
/// *strictly* tighter on at least one cross-thread litmus — the
/// tentpole claim, pinned in CI.
#[test]
fn exact_mode_is_clean_and_strictly_tighter() {
    let campaign = Campaign::new();
    let (report, outcomes) = litmus_sweep(
        &campaign,
        StepMode::SkipAhead,
        SweepMode::default(),
        EnumMode::Exact,
    );
    assert!(
        report.extract_errors.is_empty(),
        "exact-mode extraction failed: {:?}",
        report.extract_errors
    );
    assert_eq!(
        report.violations(),
        0,
        "exact mode rejected observed images: {:?} {:?}",
        report.model_violations,
        report.structural_violations
    );
    let mut strictly_tighter = 0;
    for out in &outcomes {
        let exact = out
            .exact_admitted
            .unwrap_or_else(|| panic!("litmus {}: exact mode reported no count", out.name));
        assert!(
            exact <= out.admitted,
            "litmus {}: exact {exact} exceeds over-approx {}",
            out.name,
            out.admitted
        );
        if exact < out.admitted {
            strictly_tighter += 1;
        }
        // Bucket bookkeeping partitions what was seen.
        assert_eq!(
            out.witnessed_buckets.iter().sum::<u64>(),
            out.witnessed as u64,
            "litmus {}: witnessed buckets don't partition",
            out.name
        );
        if let Some(eb) = &out.exact_buckets {
            assert_eq!(
                eb.iter().map(|&b| u128::from(b)).sum::<u128>(),
                exact,
                "litmus {}: exact buckets don't partition the exact set",
                out.name
            );
        }
    }
    assert!(
        strictly_tighter >= 1,
        "no litmus had a strict exact-vs-over-approx gap"
    );
}

/// Two-sided gating: every deliberately-loose model mutant is falsified
/// by at least one litmus whose sweep witnessed its *entire* exact set
/// (surplus admitted images thereby proven unreachable).
#[test]
fn all_model_mutants_are_killed() {
    let campaign = Campaign::new();
    let (_, outcomes) = litmus_sweep(
        &campaign,
        StepMode::SkipAhead,
        SweepMode::default(),
        EnumMode::Exact,
    );
    assert!(
        outcomes.iter().any(|o| o.exact_fully_witnessed()),
        "no litmus sweep witnessed its whole exact set; the kill matrix has no teeth"
    );
    let matrix = model_mutant_kill_matrix(&outcomes);
    assert_eq!(matrix.len(), ModelMutant::ALL.len());
    for (mutant, killed_by) in &matrix {
        assert!(
            !killed_by.is_empty(),
            "model mutant {} survived: no fully-witnessed litmus exceeded its exact count",
            mutant.name()
        );
    }
}

/// A small fixed-seed cross-thread-biased fuzz batch is clean under
/// exact mode: the generator's multi-thread cases all sit inside the
/// traced-cut admitted set.
#[test]
fn cross_thread_fuzz_smoke_is_clean_in_exact_mode() {
    let campaign = Campaign::new();
    let report = fuzz_sweep(
        &campaign,
        0xF00D_FACE,
        32,
        StepMode::SkipAhead,
        SweepMode::default(),
        EnumMode::Exact,
        FuzzBias::CrossThread,
    );
    assert!(
        report.extract_errors.is_empty(),
        "cross-thread generator produced out-of-domain case: {:?}",
        report.extract_errors
    );
    assert_eq!(report.cases, 32);
    assert_eq!(
        report.violations(),
        0,
        "exact-mode fuzz violations: {:?} {:?}",
        report.model_violations,
        report.structural_violations
    );
    assert!(
        report.exact_admitted <= report.admitted,
        "summed exact sets exceed the over-approximation"
    );
}

/// A small fixed-seed fuzz batch passes the differential check in both
/// step modes.
#[test]
fn fuzz_smoke_is_clean_in_both_step_modes() {
    let campaign = Campaign::new();
    for mode in BOTH_MODES {
        let report = fuzz_sweep(
            &campaign,
            0xF00D_FACE,
            48,
            mode,
            SweepMode::default(),
            EnumMode::Overapprox,
            FuzzBias::Uniform,
        );
        assert!(
            report.extract_errors.is_empty(),
            "generator produced out-of-domain case ({}): {:?}",
            mode.name(),
            report.extract_errors
        );
        assert_eq!(report.cases, 48);
        assert!(report.audited > 0);
        assert_eq!(
            report.violations(),
            0,
            "fuzz violations ({}): {:?} {:?}",
            mode.name(),
            report.model_violations,
            report.structural_violations
        );
    }
}

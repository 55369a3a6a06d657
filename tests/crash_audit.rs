//! Recovery-contract audit tests (`RECOVERY.md`).
//!
//! Where `crash_consistency.rs` checks the end-to-end *consequence* of
//! the §IV-F protocol (final durable state equals the golden run), these
//! tests audit the contract's individual steps — the named invariants
//! `gate-flush`, `gate-discard`, `resolution-exact`,
//! `resume-from-checkpoint`, `survivable-prefix`,
//! `resume-state-equivalence` — at seeded and mechanism-derived crash
//! points, and prove the auditor has teeth by requiring it to flag the
//! test-only broken-gating mutants.

use lightwsp_compiler::{instrument, CompilerConfig};
use lightwsp_sim::consistency::golden_run;
use lightwsp_sim::crash::{CrashInjector, CrashPoint, CrashPointKind};
use lightwsp_sim::{ExecMode, GatingMutant, Scheme, SimConfig};
use lightwsp_workloads::{workload, Suite, WorkloadSpec};
use proptest::prelude::*;

fn small_cfg(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::new(scheme);
    cfg.mem.l1_bytes = 16 * 1024;
    cfg.mem.l2_bytes = 128 * 1024;
    cfg
}

fn compiled_for(spec: &WorkloadSpec, insts: u64) -> lightwsp_compiler::Compiled {
    let program = spec.clone().scaled_to(insts).generate();
    instrument(&program, &CompilerConfig::default())
}

/// Derived points exist for every mechanism window on a plain
/// single-threaded workload (2 MCs by default, so the skew window is
/// real), and auditing them finds no violation.
#[test]
fn derived_points_cover_all_windows_and_audit_clean() {
    let w = workload("hmmer").unwrap();
    let compiled = compiled_for(&w, 12_000);
    let injector = CrashInjector::new(&compiled, small_cfg(Scheme::LightWsp), 1);
    let golden = injector.golden_points(4, 0, 0).unwrap();
    assert!(golden.cycles > 0);
    for kind in CrashPointKind::ALL {
        if kind == CrashPointKind::Seeded {
            continue;
        }
        assert!(
            golden.points.iter().any(|p| p.kind == kind),
            "no derived point for window {:?}",
            kind
        );
    }
    let report = injector.audit_chunk(&golden.image, &golden.points);
    assert!(report.audited > 0);
    assert!(
        report.violations.is_empty(),
        "contract violated: {:?}",
        report.violations
    );
}

/// The auditor must flag a controller that flushes every WPQ entry on
/// power failure, ignoring boundary ACKs (`gate-flush` has teeth).
#[test]
fn flush_unacked_mutant_is_caught() {
    let w = workload("hmmer").unwrap();
    let compiled = compiled_for(&w, 12_000);
    let mut cfg = small_cfg(Scheme::LightWsp);
    cfg.gating_mutant = Some(GatingMutant::FlushUnacked);
    let injector = CrashInjector::new(&compiled, cfg, 1);
    let golden = injector.golden_points(4, 0xBAD_CAFE, 8).unwrap();
    let report = injector.audit_chunk(&golden.image, &golden.points);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "gate-flush"),
        "FlushUnacked mutant not caught: {:?}",
        report.violations
    );
}

/// The auditor must flag a controller that treats a region as
/// survivable once its boundary reached *any* MC: in the NUMA skew
/// window one MC then flushes a region the contract requires every MC
/// to discard. Forced deterministically with 4 MCs, a tiny WPQ (heavy
/// back-pressure → wide skew window) and a multithreaded workload.
#[test]
fn any_mc_boundary_mutant_is_caught() {
    let mut w = workload("vacation").unwrap();
    w.threads = 4;
    let compiled = compiled_for(&w, 8_000);
    let mut cfg = small_cfg(Scheme::LightWsp);
    cfg.num_cores = 4;
    cfg.mem.num_mcs = 4;
    cfg.mem.wpq_entries = 8;
    cfg.gating_mutant = Some(GatingMutant::AnyMcBoundary);
    let injector = CrashInjector::new(&compiled, cfg, 4);
    // The mc-skew derived points alone are enough to trip the mutant;
    // a few seeded points keep some off-window coverage cheap.
    let golden = injector.golden_points(8, 0x5EED, 8).unwrap();
    let report = injector.audit_chunk(&golden.image, &golden.points);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "gate-flush"),
        "AnyMcBoundary mutant not caught ({} points audited): {:?}",
        report.audited,
        report.violations
    );
}

/// Regression: a crash point landing exactly on `max_cycles` must
/// still be audited cleanly. `run_until(cap)` legitimately stops at
/// the target, but the resumed machine used to inherit the original
/// (now fully spent) budget, so `run()` reported `MaxCycles` after
/// zero post-crash cycles and the auditor emitted a spurious
/// `resume-completes` violation. The fix grants the recovered run a
/// fresh `max_cycles` budget measured from the cut.
#[test]
fn crash_point_at_the_cycle_cap_resumes_with_a_fresh_budget() {
    let w = workload("hmmer").unwrap();
    let compiled = compiled_for(&w, 6_000);
    let base = small_cfg(Scheme::LightWsp);
    let (golden, golden_cycles) = golden_run(&compiled, &base, 1).unwrap();

    // Cut late in the run and make the cap coincide with the cut: the
    // pre-crash run ends exactly at `max_cycles`.
    let crash_cycle = golden_cycles * 9 / 10;
    let mut cfg = base.clone();
    cfg.max_cycles = crash_cycle;
    let injector = CrashInjector::new(&compiled, cfg, 1);
    let report = injector.audit_chunk(
        &golden,
        &[CrashPoint {
            cycle: crash_cycle,
            kind: CrashPointKind::Seeded,
        }],
    );
    assert_eq!(report.audited, 1, "the cap-coincident point must audit");
    assert!(
        report.violations.is_empty(),
        "spurious violations at the cap-coincident crash point: {:?}",
        report.violations
    );
}

/// Regression (decoded-engine satellite): `Interp::resume_from_checkpoint`
/// must behave identically under both execution engines. Recovery PCs
/// point at the instruction *after* a region boundary — mid-block — so
/// every audited point forces the decoded engine to re-enter a block at
/// an arbitrary checkpointed `ProgramPoint`. Both modes must audit clean and agree
/// on every aggregate resolution count.
#[test]
fn resume_from_checkpoint_is_exec_mode_invariant() {
    let w = workload("hmmer").unwrap();
    let compiled = compiled_for(&w, 10_000);
    let mut reports = Vec::new();
    for mode in [ExecMode::Decoded, ExecMode::Reference] {
        let mut cfg = small_cfg(Scheme::LightWsp);
        cfg.exec_mode = mode;
        let injector = CrashInjector::new(&compiled, cfg, 1);
        let golden = injector.golden_points(4, 0xC0FFEE, 8).unwrap();
        let report = injector.audit_chunk(&golden.image, &golden.points);
        assert!(
            report.violations.is_empty(),
            "{} mode violated the recovery contract: {:?}",
            mode.name(),
            report.violations
        );
        reports.push(report);
    }
    assert_eq!(reports[0], reports[1], "the two engines' reports differ");
}

fn arbitrary_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        1u32..4,                                          // loads
        1u32..4,                                          // stores
        0u32..8,                                          // alu
        12u64..18,                                        // log2 working set (4 KB .. 128 KB)
        0.0f64..1.0,                                      // seq fraction
        1u32..4,                                          // phases
        20u32..60,                                        // iters per phase
        prop_oneof![Just(0u32), Just(8u32), Just(16u32)], // sync_every
        0u64..u64::MAX,                                   // seed
    )
        .prop_map(
            |(loads, stores, alu, ws_log2, seq, phases, iters, sync_every, seed)| WorkloadSpec {
                name: "prop",
                suite: Suite::Cpu2006,
                seed,
                loads_per_iter: loads,
                stores_per_iter: stores,
                alu_per_iter: alu,
                working_set: 1 << ws_log2,
                seq_fraction: seq,
                phases,
                iters_per_phase: iters,
                call_every: 2,
                sync_every,
                threads: 1,
                locks: 4,
                seq_stride: 8,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // each case traces, goldens, and audits ~14 crash points
        .. ProptestConfig::default()
    })]

    /// Randomized sweep: any program, any seed stream, any MC count —
    /// every named invariant holds at every derived and seeded point.
    #[test]
    fn random_workloads_satisfy_the_contract(
        spec in arbitrary_spec(),
        num_mcs in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        seed in 0u64..u64::MAX,
    ) {
        let compiled = compiled_for(&spec, 10_000);
        let mut cfg = small_cfg(Scheme::LightWsp);
        cfg.mem.num_mcs = num_mcs;
        let injector = CrashInjector::new(&compiled, cfg, 1);
        let golden = injector.golden_points(2, seed, 4)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let report = injector.audit_chunk(&golden.image, &golden.points);
        prop_assert!(
            report.violations.is_empty(),
            "contract violated: {:?}",
            report.violations
        );
    }
}

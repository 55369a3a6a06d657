//! The differential harness: run a program on the cycle-level
//! simulator, cut power at mechanism-derived (or exhaustively all)
//! crash points, and check every observed PM image against the
//! [`LrpoModel`]'s admitted set — in either step mode, either
//! enumeration mode, with or without a gating mutant armed.
//!
//! For each crash point the harness records the *canonical* per-thread
//! prefix vector that witnessed membership, so a case's outcome also
//! accounts for tightness: `admitted` (over-approximate envelope),
//! `exact_admitted` (cuts of the traced protocol order, exact mode
//! only), `witnessed` (distinct canonical images actually observed),
//! and per-thread-count buckets of both — which expose whether
//! multi-thread images are ever witnessed, not just single-thread ones.
//!
//! In exact mode the harness additionally evaluates every
//! [`ModelMutant`]: when the sweep witnesses the *entire* exact set
//! with zero violations, the observed images pin the reachable set
//! exactly, and any mutant admitting more images is falsified (killed).
//!
//! Structural invariants ([`lightwsp_sim::crash::check_capture`]) are
//! checked at every point too: the model judges the *image*, the
//! structural checks judge the *resolution*, and a gating mutant counts
//! as killed if either detector fires.

use crate::extract::{extract, ExtractError, ProtocolOrder};
use crate::model::{LrpoModel, ModelMutant};
use lightwsp_compiler::Compiled;
use lightwsp_ir::fxhash::FxHashSet;
use lightwsp_sim::crash::check_capture;
use lightwsp_sim::{
    CrashInjector, CrashPoint, CrashPointKind, GatingMutant, Scheme, SimConfig, StepMode, SweepMode,
};

/// Interpreter step budget for extraction (litmus/fuzz programs are
/// tiny; this is a runaway guard, not a tuning knob).
const EXTRACT_STEPS: u64 = 1_000_000;

/// How crash points are chosen for a case.
#[derive(Clone, Copy, Debug)]
pub enum PointPolicy {
    /// Cut power at every cycle in `[1, horizon)` when the traced run
    /// is at most `max_horizon` cycles; otherwise fall back to
    /// `Derived { cap_per_kind: 32, seeded: 64 }`. Litmus default.
    Exhaustive {
        /// Horizon bound for the per-cycle sweep.
        max_horizon: u64,
    },
    /// Mechanism-derived points (up to `cap_per_kind` per window) plus
    /// `seeded` pseudo-random cycles. Fuzz default.
    Derived {
        /// Evenly-sampled cap per [`CrashPointKind`] window.
        cap_per_kind: usize,
        /// Extra seeded points uniform over the horizon.
        seeded: usize,
    },
}

/// Cross-thread enumeration mode for the admitted set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EnumMode {
    /// Unconstrained per-thread prefix product — sound but loose; no
    /// trace required. The historical default.
    #[default]
    Overapprox,
    /// Constrain cross-thread combinations to the cuts of the traced
    /// [`ProtocolOrder`] — exact modulo the trace. Requires one traced
    /// mainline run (the harness reuses the same trace for crash-point
    /// derivation, so exact mode costs no extra simulation).
    Exact,
}

impl EnumMode {
    /// Stable name for records and reports.
    pub fn name(self) -> &'static str {
        match self {
            EnumMode::Overapprox => "overapprox",
            EnumMode::Exact => "exact",
        }
    }
}

/// One harness invocation: hardware shape + mode + point policy.
/// The program itself is passed to [`run_case`] separately so fuzz
/// workers can generate it on the fly.
#[derive(Clone, Debug)]
pub struct CaseSpec {
    /// Case name for reporting.
    pub name: String,
    /// Software threads (= simulated cores).
    pub threads: usize,
    /// Memory-controller count.
    pub num_mcs: usize,
    /// WPQ capacity per MC.
    pub wpq_entries: usize,
    /// Time-advance mode (the sweep runs every case in both).
    pub step_mode: StepMode,
    /// Crash-point traversal mode: read each sorted point's capture
    /// off one advancing mainline (fast) or re-simulate from cycle 0
    /// per point (the executable specification). Outcomes are
    /// bit-identical;
    /// `perf_gate`'s litmus rows time both and gate the speedup.
    pub sweep_mode: SweepMode,
    /// Cross-thread enumeration mode (over-approximate or exact).
    pub enum_mode: EnumMode,
    /// Deliberately broken gating rule, when proving the harness kills
    /// mutants; `None` for the differential check proper.
    pub mutant: Option<GatingMutant>,
    /// Crash-point selection.
    pub policy: PointPolicy,
    /// Seed for the policy's seeded points.
    pub seed: u64,
}

/// One mutant model's verdict on a case (exact mode only).
#[derive(Clone, Debug, PartialEq)]
pub struct MutantModelRow {
    /// Mutant name ([`ModelMutant::name`]).
    pub name: String,
    /// Size of the mutant's admitted set (`None` when its enumeration
    /// cap was exceeded).
    pub count: Option<u128>,
    /// True when the sweep's observed images falsify the mutant: the
    /// entire exact set was witnessed violation-free, and the mutant
    /// admits strictly more images — all provably unreachable.
    pub killed: bool,
}

/// The outcome of one case.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseOutcome {
    /// Case name (copied from the spec).
    pub name: String,
    /// Crash points requested.
    pub points: usize,
    /// Points that actually interrupted the run.
    pub audited: usize,
    /// Size of the over-approximate admitted set (canonical images).
    pub admitted: u128,
    /// Size of the exact admitted set (exact mode only).
    pub exact_admitted: Option<u128>,
    /// Distinct canonical images observed across all audited points.
    pub witnessed: usize,
    /// Witnessed images that selected a non-trivial prefix on more than
    /// one thread — real executions inside the cross-thread
    /// over-approximation envelope.
    pub witnessed_cross_thread: usize,
    /// Witnessed images bucketed by how many threads contribute a
    /// non-empty prefix; index `i` counts images touching exactly `i`
    /// threads (length `threads + 1`).
    pub witnessed_buckets: Vec<u64>,
    /// The exact set bucketed the same way (exact mode only), so
    /// coverage is auditable per bucket instead of lumped together.
    pub exact_buckets: Option<Vec<u64>>,
    /// Mutant-model verdicts (exact mode only).
    pub model_mutants: Vec<MutantModelRow>,
    /// Model violations: observed images outside the admitted set.
    pub model_violations: Vec<String>,
    /// Structural invariant violations (gate-flush & co).
    pub structural_violations: Vec<String>,
}

impl CaseOutcome {
    /// Unwitnessed admitted images under the mode's own set: the
    /// over-approximation (cross-thread combinations never realised by
    /// this run's global region order, plus prefix states the point
    /// sample skipped) in over-approximate mode, or the unwitnessed
    /// cuts (point-sampling gaps and same-cycle commit chains) in
    /// exact mode.
    pub fn overapprox(&self) -> u128 {
        self.exact_admitted
            .unwrap_or(self.admitted)
            .saturating_sub(self.witnessed as u128)
    }

    /// How many over-approximate images the exact mode excluded
    /// (`admitted - exact_admitted`); 0 in over-approximate mode.
    pub fn exact_delta(&self) -> u128 {
        self.exact_admitted
            .map_or(0, |e| self.admitted.saturating_sub(e))
    }

    /// True when the sweep witnessed the entire exact set with no
    /// model violations — the precondition for mutant-model kills.
    pub fn exact_fully_witnessed(&self) -> bool {
        self.model_violations.is_empty() && self.exact_admitted == Some(self.witnessed as u128)
    }

    /// Violations of either kind.
    pub fn violations(&self) -> usize {
        self.model_violations.len() + self.structural_violations.len()
    }

    /// True if any detector fired (for mutant runs: the kill verdict).
    pub fn killed(&self) -> bool {
        self.violations() > 0
    }
}

/// The simulator configuration the harness runs every case under:
/// LightWSP scheme, the case's MC/WPQ/core shape, small caches (the
/// programs are tiny), and a region timeout pushed out of reach so the
/// machine never splits regions the model didn't see.
pub fn sim_config(spec: &CaseSpec) -> SimConfig {
    let mut cfg = SimConfig::new(Scheme::LightWsp).with_cores(spec.threads);
    cfg.mem.num_mcs = spec.num_mcs;
    cfg.mem = cfg.mem.with_wpq_entries(spec.wpq_entries);
    cfg.mem.l1_bytes = 16 * 1024;
    cfg.mem.l2_bytes = 128 * 1024;
    // The model has no notion of timeout-induced synthetic boundaries;
    // keep them unreachable (litmus/fuzz runs are ≪ this many cycles).
    cfg.region_timeout = u64::MAX / 2;
    cfg.step_mode = spec.step_mode;
    cfg.gating_mutant = spec.mutant;
    cfg
}

/// Number of threads with a non-empty prefix in a canonical witness
/// vector — the bucket index for coverage accounting.
fn bucket(ks: &[usize]) -> usize {
    ks.iter().filter(|&&k| k > 0).count()
}

/// Runs one case: extract the region structure, trace the mainline run
/// once (protocol order + crash-point windows), build the model in the
/// spec's enumeration mode, cut power at every selected point, and
/// check each observed image.
///
/// # Errors
///
/// Returns an [`ExtractError`] when the program is outside the model's
/// soundness domain (the caller chose a bad program — not a finding),
/// or when the traced protocol order disagrees with the replayed
/// region structure (a harness bug, surfaced loudly).
pub fn run_case(compiled: &Compiled, spec: &CaseSpec) -> Result<CaseOutcome, ExtractError> {
    let rs = extract(&compiled.program, spec.threads, EXTRACT_STEPS)?;
    let injector = CrashInjector::new(compiled, sim_config(spec), spec.threads)
        .with_sweep_mode(spec.sweep_mode);

    // One traced mainline run serves both purposes: the crash-point
    // windows and (in exact mode) the protocol-order witness.
    let (timelines, horizon) = injector.traced_timelines();
    let model = match spec.enum_mode {
        EnumMode::Overapprox => LrpoModel::new(&rs),
        EnumMode::Exact => {
            let order = ProtocolOrder::new(timelines.iter().map(|(_, t)| t.thread).collect());
            LrpoModel::with_protocol(&rs, &order)?
        }
    };

    let points =
        CrashInjector::prepare_points(&select_points(&injector, spec, &timelines, horizon));
    let mut exact_buckets = None;
    if let Some(cuts) = model.exact_cuts() {
        let mut b = vec![0u64; spec.threads + 1];
        for c in cuts {
            b[bucket(c)] += 1;
        }
        exact_buckets = Some(b);
    }
    let mut outcome = CaseOutcome {
        name: spec.name.clone(),
        points: points.len(),
        audited: 0,
        admitted: model.admitted_count(),
        exact_admitted: model.exact_count(),
        witnessed: 0,
        witnessed_cross_thread: 0,
        witnessed_buckets: vec![0u64; spec.threads + 1],
        exact_buckets,
        model_mutants: Vec::new(),
        model_violations: Vec::new(),
        structural_violations: Vec::new(),
    };

    // One sweeper for the whole (sorted) point sequence: in fork mode
    // the mainline advances monotonically and each point's capture is
    // read off it, with no fork and no replay from cycle 0.
    let mut sweeper = injector.sweeper();
    let mut seen: FxHashSet<Vec<usize>> = FxHashSet::default();
    for p in points {
        let Some((cap, pm_after)) = sweeper.cut_at(p) else {
            continue; // landed after completion + drain
        };
        outcome.audited += 1;

        match model.check_image(&pm_after) {
            Ok(witness) => {
                if seen.insert(witness.clone()) {
                    outcome.witnessed += 1;
                    outcome.witnessed_buckets[bucket(&witness)] += 1;
                    if model.is_cross_thread_combination(&witness) {
                        outcome.witnessed_cross_thread += 1;
                    }
                }
            }
            Err(v) => outcome.model_violations.push(format!(
                "[model] {} at cycle {} ({}): {v}",
                spec.name,
                p.cycle,
                p.kind.name()
            )),
        }

        let mut structural = Vec::new();
        check_capture(&cap, &pm_after, p, &mut structural);
        outcome
            .structural_violations
            .extend(structural.into_iter().map(|v| v.to_string()));
    }

    // Mutant-model verdicts: only a fully witnessed, violation-free
    // sweep pins the reachable set tightly enough to falsify looseness.
    if let Some(exact) = outcome.exact_admitted {
        let complete = outcome.exact_fully_witnessed();
        for mutant in ModelMutant::ALL {
            let count = model.mutant_count(mutant);
            outcome.model_mutants.push(MutantModelRow {
                name: mutant.name().to_string(),
                count,
                killed: complete && count.is_some_and(|c| c > exact),
            });
        }
    }

    Ok(outcome)
}

/// Materialises the spec's [`PointPolicy`] into concrete crash points,
/// reusing the already-traced mainline timelines.
fn select_points(
    injector: &CrashInjector<'_>,
    spec: &CaseSpec,
    timelines: &[(lightwsp_mem::RegionId, lightwsp_sim::trace::RegionTimeline)],
    horizon: u64,
) -> Vec<CrashPoint> {
    match spec.policy {
        PointPolicy::Exhaustive { max_horizon } => {
            if horizon <= max_horizon {
                (1..horizon)
                    .map(|cycle| CrashPoint {
                        cycle,
                        kind: CrashPointKind::Seeded,
                    })
                    .collect()
            } else {
                let mut points = injector.derived_points_from(timelines, 32);
                points.extend(injector.seeded_points(spec.seed, 64, horizon));
                points
            }
        }
        PointPolicy::Derived {
            cap_per_kind,
            seeded,
        } => {
            let mut points = injector.derived_points_from(timelines, cap_per_kind);
            points.extend(injector.seeded_points(spec.seed, seeded, horizon));
            points
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus::litmus_suite;

    fn spec_for(name: &str, mode: EnumMode, mutant: Option<GatingMutant>) -> CaseSpec {
        let suite = litmus_suite();
        let l = suite.iter().find(|l| l.name == name).unwrap();
        CaseSpec {
            name: l.name.to_string(),
            threads: l.threads,
            num_mcs: l.num_mcs,
            wpq_entries: l.wpq_entries,
            step_mode: StepMode::SkipAhead,
            sweep_mode: SweepMode::default(),
            enum_mode: mode,
            mutant,
            policy: PointPolicy::Exhaustive { max_horizon: 4096 },
            seed: 1,
        }
    }

    /// The simplest litmus, swept exhaustively, must satisfy the model
    /// at every cycle and witness at least install + final images.
    #[test]
    fn single_region_exhaustive_clean() {
        let suite = litmus_suite();
        let l = suite.iter().find(|l| l.name == "single-region").unwrap();
        let spec = spec_for("single-region", EnumMode::Overapprox, None);
        let out = run_case(&l.compiled, &spec).unwrap();
        assert!(out.audited > 0, "no point interrupted the run");
        assert!(
            out.model_violations.is_empty() && out.structural_violations.is_empty(),
            "violations: {:?} {:?}",
            out.model_violations,
            out.structural_violations
        );
        assert!(out.witnessed >= 2, "install and final images at minimum");
        assert_eq!(
            out.witnessed_buckets.iter().sum::<u64>(),
            out.witnessed as u64,
            "buckets partition the witnessed set"
        );
    }

    /// FlushUnacked flushes mid-region stores to PM; with exhaustive
    /// points some cut lands mid-region, so both detectors fire.
    #[test]
    fn flush_unacked_killed_on_single_region() {
        let suite = litmus_suite();
        let l = suite.iter().find(|l| l.name == "single-region").unwrap();
        let spec = spec_for(
            "single-region",
            EnumMode::Overapprox,
            Some(GatingMutant::FlushUnacked),
        );
        let out = run_case(&l.compiled, &spec).unwrap();
        assert!(out.killed(), "FlushUnacked survived the sweep");
    }

    /// Exact mode on a cross-thread litmus: clean, a strict subset of
    /// the over-approximate envelope, and single-thread buckets agree
    /// with the per-thread prefix structure.
    #[test]
    fn exact_mode_two_threads_clean_and_tighter() {
        let suite = litmus_suite();
        let l = suite
            .iter()
            .find(|l| l.name == "two-threads-disjoint")
            .unwrap();
        let spec = spec_for("two-threads-disjoint", EnumMode::Exact, None);
        let out = run_case(&l.compiled, &spec).unwrap();
        assert!(
            out.model_violations.is_empty() && out.structural_violations.is_empty(),
            "violations: {:?} {:?}",
            out.model_violations,
            out.structural_violations
        );
        let exact = out.exact_admitted.expect("exact mode ran");
        assert!(
            exact < out.admitted,
            "exact {exact} should be tighter than over-approx {}",
            out.admitted
        );
        let eb = out.exact_buckets.as_ref().expect("exact buckets");
        assert_eq!(eb.iter().sum::<u64>() as u128, exact);
        assert_eq!(out.model_mutants.len(), ModelMutant::ALL.len());
    }
}

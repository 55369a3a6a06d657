//! Campaign-parallel driver for the LRPO model oracle
//! ([`lightwsp_model`]): litmus sweeps, seeded fuzz sweeps, and the
//! gating-mutant kill matrix, fanned over [`Campaign::map_parallel`].
//!
//! The per-case work (trace, golden, per-point capture, model check)
//! is embarrassingly parallel — cases share nothing — so the sweep
//! scales with the campaign's worker count exactly like the experiment
//! harness. With a store attached to the campaign, each sweep and
//! matrix is one stored record, keyed on its inputs (the litmus suite
//! itself is source code, so its identity rides on the code digest).

use crate::campaign::Campaign;
use lightwsp_model::harness::{run_case, CaseOutcome, CaseSpec, EnumMode, PointPolicy};
use lightwsp_model::{gen_case_biased, litmus_suite, FuzzBias, ModelMutant};
use lightwsp_sim::{GatingMutant, StepMode, SweepMode};
use std::convert::Infallible;

/// Aggregate of one sweep (litmus suite or a fuzz batch).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepReport {
    /// Cases run.
    pub cases: usize,
    /// Crash points requested across all cases.
    pub points: usize,
    /// Points that actually interrupted a run.
    pub audited: usize,
    /// Sum of admitted-set sizes (saturating).
    pub admitted: u128,
    /// Sum of exact admitted-set sizes (0 for over-approximate sweeps).
    pub exact_admitted: u128,
    /// Cases whose exact set was fully witnessed violation-free — the
    /// cases that pin the reachable set and arm mutant-model kills.
    pub exact_complete: usize,
    /// Distinct canonical images witnessed, summed over cases.
    pub witnessed: usize,
    /// Witnessed images realising a cross-thread prefix combination —
    /// executions inside the documented over-approximation envelope.
    pub witnessed_cross_thread: usize,
    /// Images outside the admitted set (must be empty for a clean run).
    pub model_violations: Vec<String>,
    /// Structural invariant violations (must be empty for a clean run).
    pub structural_violations: Vec<String>,
    /// Cases outside the model's extraction domain (generator bug if
    /// non-empty: both litmus and fuzz construct in-domain programs).
    pub extract_errors: Vec<String>,
}

impl SweepReport {
    fn absorb(&mut self, out: &CaseOutcome) {
        self.cases += 1;
        self.points += out.points;
        self.audited += out.audited;
        self.admitted = self.admitted.saturating_add(out.admitted);
        if let Some(e) = out.exact_admitted {
            self.exact_admitted = self.exact_admitted.saturating_add(e);
            if out.exact_fully_witnessed() {
                self.exact_complete += 1;
            }
        }
        self.witnessed += out.witnessed;
        self.witnessed_cross_thread += out.witnessed_cross_thread;
        self.model_violations.extend(out.model_violations.clone());
        self.structural_violations
            .extend(out.structural_violations.clone());
    }

    /// Total violations of either kind.
    pub fn violations(&self) -> usize {
        self.model_violations.len() + self.structural_violations.len()
    }

    /// Unwitnessed admitted images across the sweep (the documented
    /// over-approximation plus point-sampling gaps).
    pub fn overapprox(&self) -> u128 {
        self.admitted.saturating_sub(self.witnessed as u128)
    }
}

/// Runs the full litmus suite under `step_mode`/`sweep_mode` with a
/// per-cycle exhaustive crash sweep, in parallel, in the requested
/// enumeration mode. Returns the aggregate plus the per-litmus
/// outcomes (in suite order), served from the campaign's store when it
/// holds them.
pub fn litmus_sweep(
    campaign: &Campaign,
    step_mode: StepMode,
    sweep_mode: SweepMode,
    enum_mode: EnumMode,
) -> (SweepReport, Vec<CaseOutcome>) {
    let Ok(sweep) = campaign.memo(
        "sweeprep",
        "litmus-suite",
        format_args!("{step_mode:?}/{sweep_mode:?}/{}", enum_mode.name()),
        (step_mode, sweep_mode, enum_mode),
        || Ok::<_, Infallible>(run_litmus_sweep(campaign, step_mode, sweep_mode, enum_mode)),
    );
    sweep
}

fn run_litmus_sweep(
    campaign: &Campaign,
    step_mode: StepMode,
    sweep_mode: SweepMode,
    enum_mode: EnumMode,
) -> (SweepReport, Vec<CaseOutcome>) {
    let suite = litmus_suite();
    let outcomes = campaign.map_parallel(&suite, |l, _| {
        let spec = CaseSpec {
            name: l.name.to_string(),
            threads: l.threads,
            num_mcs: l.num_mcs,
            wpq_entries: l.wpq_entries,
            step_mode,
            sweep_mode,
            enum_mode,
            mutant: None,
            policy: PointPolicy::Exhaustive { max_horizon: 4096 },
            seed: 0x11735,
        };
        run_case(&l.compiled, &spec)
    });
    let mut report = SweepReport::default();
    let mut per_case = Vec::with_capacity(outcomes.len());
    for (l, res) in suite.iter().zip(outcomes) {
        match res {
            Ok(out) => {
                report.absorb(&out);
                per_case.push(out);
            }
            Err(e) => report.extract_errors.push(format!("{}: {e}", l.name)),
        }
    }
    (report, per_case)
}

/// Runs `count` generated programs from the stream rooted at `seed`
/// under `step_mode`/`sweep_mode`, each audited at mechanism-derived
/// plus seeded crash points, in parallel. `bias` selects the generator
/// distribution and `enum_mode` the admitted-set enumeration. Served
/// from the campaign's store when it holds the aggregate (the only
/// part stored: no caller reads a fuzz case's outcome).
pub fn fuzz_sweep(
    campaign: &Campaign,
    seed: u64,
    count: u64,
    step_mode: StepMode,
    sweep_mode: SweepMode,
    enum_mode: EnumMode,
    bias: FuzzBias,
) -> SweepReport {
    let Ok(report) = campaign.memo(
        "sweeprep",
        format_args!("fuzz-{}", bias.name()),
        format_args!("{step_mode:?}/{sweep_mode:?}/{}", enum_mode.name()),
        (seed, count, step_mode, sweep_mode, enum_mode, bias),
        || {
            Ok::<_, Infallible>(run_fuzz_sweep(
                campaign, seed, count, step_mode, sweep_mode, enum_mode, bias,
            ))
        },
    );
    report
}

fn run_fuzz_sweep(
    campaign: &Campaign,
    seed: u64,
    count: u64,
    step_mode: StepMode,
    sweep_mode: SweepMode,
    enum_mode: EnumMode,
    bias: FuzzBias,
) -> SweepReport {
    let indices: Vec<u64> = (0..count).collect();
    let outcomes = campaign.map_parallel(&indices, |&idx, _| {
        let case = gen_case_biased(seed, idx, bias);
        let spec = CaseSpec {
            name: format!("fuzz-{}-{seed:#x}-{idx}", bias.name()),
            threads: case.threads,
            num_mcs: case.num_mcs,
            wpq_entries: case.wpq_entries,
            step_mode,
            sweep_mode,
            enum_mode,
            mutant: None,
            policy: PointPolicy::Derived {
                cap_per_kind: 3,
                seeded: 4,
            },
            seed: seed ^ idx,
        };
        (spec.name.clone(), run_case(&case.compiled, &spec))
    });
    let mut report = SweepReport::default();
    for (name, res) in outcomes {
        match res {
            Ok(out) => report.absorb(&out),
            Err(e) => report.extract_errors.push(format!("{name}: {e}")),
        }
    }
    report
}

/// All gating mutants the kill matrix must cover.
pub const ALL_MUTANTS: [GatingMutant; 3] = [
    GatingMutant::FlushUnacked,
    GatingMutant::AnyMcBoundary,
    GatingMutant::FirstMcBoundary,
];

/// Stable display name for a mutant.
pub fn mutant_name(m: GatingMutant) -> &'static str {
    match m {
        GatingMutant::FlushUnacked => "flush-unacked",
        GatingMutant::AnyMcBoundary => "any-mc-boundary",
        GatingMutant::FirstMcBoundary => "first-mc-boundary",
    }
}

/// The detectors of a [`MutantKill`]: the model's admitted set, and the
/// structural invariants of `RECOVERY.md` §4.
pub const DETECTORS: [&str; 2] = ["model", "structural"];

/// One mutant's fate under the litmus suite.
#[derive(Clone, Debug, PartialEq)]
pub struct MutantKill {
    /// The mutant.
    pub mutant: GatingMutant,
    /// `(litmus name, detector)` pairs that flagged it, the detector
    /// one of [`DETECTORS`].
    pub killed_by: Vec<(String, &'static str)>,
}

impl MutantKill {
    /// True if at least one litmus killed the mutant.
    pub fn killed(&self) -> bool {
        !self.killed_by.is_empty()
    }
}

/// Arms each mutant in turn and runs the whole litmus suite against it
/// (both detectors active), in parallel over `(mutant, litmus)` pairs.
/// Gating mutants perturb the simulated hardware, so `enum_mode`
/// chooses how tight the model-side detector is. Served from the
/// campaign's store when it holds the matrix.
pub fn mutant_kill_matrix(
    campaign: &Campaign,
    step_mode: StepMode,
    sweep_mode: SweepMode,
    enum_mode: EnumMode,
) -> Vec<MutantKill> {
    let Ok(matrix) = campaign.memo(
        "killmatrix",
        "litmus-suite",
        format_args!("{step_mode:?}/{sweep_mode:?}/{}", enum_mode.name()),
        (step_mode, sweep_mode, enum_mode),
        || {
            Ok::<_, Infallible>(run_mutant_kill_matrix(
                campaign, step_mode, sweep_mode, enum_mode,
            ))
        },
    );
    matrix
}

fn run_mutant_kill_matrix(
    campaign: &Campaign,
    step_mode: StepMode,
    sweep_mode: SweepMode,
    enum_mode: EnumMode,
) -> Vec<MutantKill> {
    let suite = litmus_suite();
    let pairs: Vec<(GatingMutant, usize)> = ALL_MUTANTS
        .iter()
        .flat_map(|&m| (0..suite.len()).map(move |i| (m, i)))
        .collect();
    let results = campaign.map_parallel(&pairs, |&(mutant, i), _| {
        let l = &suite[i];
        let spec = CaseSpec {
            name: format!("{}+{}", l.name, mutant_name(mutant)),
            threads: l.threads,
            num_mcs: l.num_mcs,
            wpq_entries: l.wpq_entries,
            step_mode,
            sweep_mode,
            enum_mode,
            mutant: Some(mutant),
            policy: PointPolicy::Exhaustive { max_horizon: 4096 },
            seed: 0xDEAD_5EED,
        };
        (mutant, i, run_case(&l.compiled, &spec))
    });
    ALL_MUTANTS
        .iter()
        .map(|&m| {
            let mut killed_by = Vec::new();
            for (mutant, i, res) in &results {
                if *mutant != m {
                    continue;
                }
                if let Ok(out) = res {
                    let [model, structural] = DETECTORS;
                    if !out.model_violations.is_empty() {
                        killed_by.push((suite[*i].name.to_string(), model));
                    }
                    if !out.structural_violations.is_empty() {
                        killed_by.push((suite[*i].name.to_string(), structural));
                    }
                }
            }
            MutantKill {
                mutant: m,
                killed_by,
            }
        })
        .collect()
}

/// Aggregates the per-case mutant-*model* verdicts of an exact-mode
/// litmus sweep into a kill matrix: one row per [`ModelMutant`], listing
/// the litmuses whose fully-witnessed sweeps falsified it, each as
/// `litmus/count` with the mutant's admitted-set size there (`-` past
/// its enumeration cap). An empty list means the mutant survived. Pure
/// aggregation — the verdicts were computed by `run_case`, so this
/// costs no simulation.
pub fn model_mutant_kill_matrix(outcomes: &[CaseOutcome]) -> Vec<(ModelMutant, Vec<String>)> {
    ModelMutant::ALL
        .iter()
        .map(|&m| {
            let mut killed_by = Vec::new();
            for out in outcomes {
                for row in &out.model_mutants {
                    if row.name == m.name() && row.killed {
                        let count = row.count.map_or("-".to_string(), |c| c.to_string());
                        killed_by.push(format!("{}/{count}", out.name));
                    }
                }
            }
            (m, killed_by)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::assert_served;

    #[test]
    fn litmus_sweep_is_served_from_the_campaign_store() {
        let sweep = |enum_mode| {
            move |c: &Campaign| litmus_sweep(c, StepMode::SkipAhead, SweepMode::Fork, enum_mode)
        };
        assert_served(sweep(EnumMode::Overapprox), sweep(EnumMode::Exact));
    }

    #[test]
    fn fuzz_sweep_is_served_from_the_campaign_store() {
        let sweep = |seed| {
            move |c: &Campaign| {
                fuzz_sweep(
                    c,
                    seed,
                    3,
                    StepMode::SkipAhead,
                    SweepMode::Fork,
                    EnumMode::Exact,
                    FuzzBias::CrossThread,
                )
            }
        };
        assert_served(sweep(0xF00D), sweep(0xF00E));
    }

    #[test]
    fn mutant_kill_matrix_is_served_from_the_campaign_store() {
        let matrix = |enum_mode| {
            move |c: &Campaign| {
                mutant_kill_matrix(c, StepMode::SkipAhead, SweepMode::Fork, enum_mode)
            }
        };
        assert_served(matrix(EnumMode::Overapprox), matrix(EnumMode::Exact));
    }
}

//! Public crash-consistency testing and recovery-audit API.
//!
//! Two layers, both workload-level (pick a benchmark, pick failure
//! points, no simulator plumbing):
//!
//! * [`check_workload_recovery`] wraps the end-to-end oracle of
//!   [`lightwsp_sim::consistency`]: power failure plus the §IV-F
//!   recovery protocol must reproduce the failure-free durable state
//!   byte-for-byte.
//! * [`audit_workload_crashes`] wraps the step-by-step auditor of
//!   [`lightwsp_sim::crash`]: a [`CrashInjector`] sweeps derived and
//!   seeded crash points and asserts every named invariant of
//!   `RECOVERY.md` (gate-flush, gate-discard, resolution-exact, …)
//!   against the captured resolution, one chunk of points per
//!   [`Campaign`] worker. `cargo run -p lightwsp-bench --bin
//!   crash_audit` drives it over the full workload×scheme matrix.

use crate::campaign::{Campaign, Job};
use crate::experiment::ExperimentOptions;
use lightwsp_sim::consistency::{check_crash_consistency, ConsistencyError, ConsistencyReport};
use lightwsp_sim::{CrashAuditReport, CrashInjector, Scheme, SimConfig};
use lightwsp_workloads::WorkloadSpec;

/// Runs the crash-consistency oracle on `spec` with failures injected
/// at the given cycles. The workload compiles as a LightWSP
/// [`Job`] would, but runs on `opts.sim` with a cold DRAM cache, not
/// on the figures' warm-DRAM config.
///
/// # Errors
///
/// Returns the underlying [`ConsistencyError`] if the recovered durable
/// state diverges from the golden run or a run fails to complete.
pub fn check_workload_recovery(
    spec: &WorkloadSpec,
    opts: &ExperimentOptions,
    failure_cycles: &[u64],
) -> Result<ConsistencyReport, ConsistencyError> {
    let job = Job::new(opts, spec, Scheme::LightWsp);
    let mut cfg = opts.sim.clone();
    cfg.scheme = Scheme::LightWsp;
    cfg.num_cores = job.threads();
    check_crash_consistency(&job.compile(), &cfg, job.threads(), failure_cycles)
}

/// How many crash points [`audit_workload_crashes`] sweeps.
#[derive(Clone, Copy, Debug)]
pub struct AuditBudget {
    /// Seed for the pseudo-random point stream.
    pub seed: u64,
    /// Number of seeded (uniform over the run) crash points.
    pub seeded: usize,
    /// Cap on derived points *per mechanism window* (mid-region,
    /// boundary-broadcast, mc-skew, between-acks, mid-wpq-drain).
    pub derived_per_kind: usize,
}

impl AuditBudget {
    /// The `crash_audit` binary's full-mode budget: 100 seeded points
    /// plus up to 5×16 derived points per workload×scheme.
    pub fn full() -> AuditBudget {
        AuditBudget {
            seed: 0x11A5_0001,
            seeded: 100,
            derived_per_kind: 16,
        }
    }

    /// A small fixed-seed budget for CI and `--quick` runs.
    pub fn quick() -> AuditBudget {
        AuditBudget {
            seed: 0x11A5_0001,
            seeded: 8,
            derived_per_kind: 3,
        }
    }
}

/// Sweeps crash points over `spec` under `cfg` and audits the recovery
/// contract at each one, fanning points across `campaign`'s workers.
///
/// `cfg` carries the scheme and memory system (e.g. a 4-MC NUMA layout
/// or a disabled-LRPO ablation); its core count is overridden by the
/// workload's thread count. The workload is compiled once, the traced
/// golden run executes once, and each crash point then replays, cuts
/// power, checks the structural invariants, and resumes to completion.
///
/// With a store attached to `campaign`, the report is served from it
/// when it holds one for the same inputs (workload spec, experiment
/// options, simulator config, budget) and code digest, and recorded
/// otherwise.
///
/// # Errors
///
/// Returns a [`ConsistencyError`] if the golden (failure-free) run
/// itself cannot complete; invariant violations are *reported*, not
/// errors.
pub fn audit_workload_crashes(
    spec: &WorkloadSpec,
    opts: &ExperimentOptions,
    cfg: &SimConfig,
    budget: &AuditBudget,
    campaign: &Campaign,
) -> Result<CrashAuditReport, ConsistencyError> {
    campaign.memo(
        "crashcell",
        spec.name,
        cfg.scheme.name(),
        (spec, opts, cfg, budget),
        || run_audit(spec, opts, cfg, budget, campaign),
    )
}

fn run_audit(
    spec: &WorkloadSpec,
    opts: &ExperimentOptions,
    cfg: &SimConfig,
    budget: &AuditBudget,
    campaign: &Campaign,
) -> Result<CrashAuditReport, ConsistencyError> {
    let job = Job::new(opts, spec, cfg.scheme);
    let compiled = job.compile();
    let mut cfg = cfg.clone();
    cfg.num_cores = job.threads();
    let injector = CrashInjector::new(&compiled, cfg, job.threads());
    let golden = injector.golden_points(budget.derived_per_kind, budget.seed, budget.seeded)?;
    let mut report = CrashAuditReport {
        golden_cycles: golden.cycles,
        ..CrashAuditReport::default()
    };
    for part in campaign.map_chunks(&golden.points, |_, chunk| {
        injector.audit_chunk(&golden.image, chunk)
    }) {
        report.merge(&part);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightwsp_workloads::workload;

    #[test]
    fn single_threaded_workload_recovers() {
        let w = workload("hmmer").unwrap();
        let opts = ExperimentOptions::quick();
        let report = check_workload_recovery(&w, &opts, &[2_000, 9_000]).unwrap();
        assert!(report.words_compared > 100);
    }

    #[test]
    fn multithreaded_workload_recovers() {
        let mut w = workload("vacation").unwrap();
        w.threads = 4;
        let mut opts = ExperimentOptions::quick();
        opts.insts_per_thread = 6_000;
        let report = check_workload_recovery(&w, &opts, &[1_500]).unwrap();
        assert!(report.failures <= 1);
    }

    #[test]
    fn audit_is_served_from_the_campaign_store() {
        let w = workload("hmmer").unwrap();
        let mut opts = ExperimentOptions::quick();
        opts.insts_per_thread = 4_000;
        let mut cfg = opts.sim.clone();
        cfg.scheme = Scheme::LightWsp;
        let budget = AuditBudget {
            seeded: 2,
            derived_per_kind: 1,
            ..AuditBudget::quick()
        };
        let reseeded = AuditBudget {
            seed: budget.seed + 1,
            ..budget
        };
        crate::campaign::assert_served(
            |c| audit_workload_crashes(&w, &opts, &cfg, &budget, c).unwrap(),
            |c| audit_workload_crashes(&w, &opts, &cfg, &reseeded, c).unwrap(),
        );
    }

    #[test]
    fn quick_audit_is_clean() {
        let w = workload("hmmer").unwrap();
        let opts = ExperimentOptions::quick();
        let mut cfg = opts.sim.clone();
        cfg.scheme = Scheme::LightWsp;
        let campaign = Campaign::with_workers(2);
        let report =
            audit_workload_crashes(&w, &opts, &cfg, &AuditBudget::quick(), &campaign).unwrap();
        assert!(report.audited > 0, "no point interrupted the run");
        assert!(
            report.violations.is_empty(),
            "recovery contract violated: {:?}",
            report.violations
        );
    }
}

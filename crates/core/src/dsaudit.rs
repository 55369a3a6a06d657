//! Crash-audit driver for the recoverable data-structure suite
//! (`lightwsp_workloads::ds`).
//!
//! [`audit_recoverable_ds`] runs one structure through the full
//! treatment on the sweep path of [`lightwsp_sim::crash`]: compile, one
//! traced golden run (whose final image must satisfy the structure's
//! `check_final`) that also yields the mechanism-derived plus seeded
//! points, then a fork-point crash sweep. At **every** audited point it
//! cuts power, resolves the WPQ gate, and checks two independent
//! layers against the durable image:
//!
//! 1. the generic recovery contract of `RECOVERY.md` §4
//!    ([`lightwsp_sim::crash::check_capture`]: survivable-prefix,
//!    gate-flush, gate-discard, resolution-exact, …), and
//! 2. the structure's own §8 invariants (`RecoverableDs::check_image`
//!    — `log-torn-tail`, `map-shard-prefix`, `queue-no-lost-ack`, …).
//!
//! Capture checks are cheap (pure functions of the image), so the
//! sweep runs them everywhere; *resume-to-completion* — the §4 resume
//! check ([`CrashInjector::check_resume`], golden byte-compare only for
//! deterministic structures), then `check_final` — costs a full run per
//! point and is sampled every [`DsAuditBudget::resume_every`]-th point.
//!
//! Points fan out across a [`Campaign`] in contiguous sorted chunks
//! ([`Campaign::map_chunks`]), like
//! [`crate::recovery::audit_workload_crashes`], so reports are
//! bit-identical regardless of worker count.

use crate::campaign::Campaign;
use lightwsp_compiler::{instrument, CompilerConfig};
use lightwsp_ir::Memory;
use lightwsp_sim::consistency::ConsistencyError;
use lightwsp_sim::crash::check_capture;
use lightwsp_sim::{CrashInjector, CrashPoint, InvariantViolation, SimConfig, SweepMode};
use lightwsp_workloads::ds::RecoverableDs;

/// Point budget and resume sampling for one structure's audit.
#[derive(Clone, Copy, Debug)]
pub struct DsAuditBudget {
    /// Seed for the pseudo-random point stream.
    pub seed: u64,
    /// Seeded (uniform over the run) crash points.
    pub seeded: usize,
    /// Cap on derived points per mechanism window.
    pub derived_per_kind: usize,
    /// Resume-to-completion every n-th prepared point (0 = never).
    pub resume_every: usize,
}

impl DsAuditBudget {
    /// The `ds_service` bench's full budget: enough points for the
    /// headline ≥500-audit service sweep.
    pub fn full() -> DsAuditBudget {
        DsAuditBudget {
            seed: 0xD5_0001,
            seeded: 420,
            derived_per_kind: 24,
            resume_every: 25,
        }
    }

    /// A small fixed-seed budget for CI and `--quick` runs.
    pub fn quick() -> DsAuditBudget {
        DsAuditBudget {
            seed: 0xD5_0001,
            seeded: 12,
            derived_per_kind: 4,
            resume_every: 8,
        }
    }
}

/// What one structure's crash sweep found.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DsAuditReport {
    /// Structure name ([`RecoverableDs::name`]).
    pub name: String,
    /// Points prepared (sorted, deduplicated).
    pub points: usize,
    /// Points that landed inside the run and were audited.
    pub audited: usize,
    /// Points past the end of the run (nothing to cut).
    pub beyond_end: usize,
    /// Audited points that were also resumed to completion.
    pub resumed: usize,
    /// Cycles of the failure-free run.
    pub golden_cycles: u64,
    /// Generic recovery-contract violations (`RECOVERY.md` §4).
    pub gate_violations: Vec<InvariantViolation>,
    /// Structure-invariant violations (`RECOVERY.md` §8), formatted
    /// with their crash point.
    pub ds_violations: Vec<String>,
}

impl DsAuditReport {
    /// Total violations across both layers.
    pub fn violations(&self) -> usize {
        self.gate_violations.len() + self.ds_violations.len()
    }

    fn merge(&mut self, other: &DsAuditReport) {
        self.points += other.points;
        self.audited += other.audited;
        self.beyond_end += other.beyond_end;
        self.resumed += other.resumed;
        self.gate_violations
            .extend(other.gate_violations.iter().cloned());
        self.ds_violations
            .extend(other.ds_violations.iter().cloned());
    }
}

/// Sweeps crash points over `ds` and checks both the generic recovery
/// contract and the structure's own invariants at every point; see the
/// module docs for the exact treatment.
///
/// `cfg.num_cores` is overridden by the structure's thread count; the
/// sweep is a fork-point sweep ([`audit_recoverable_ds_with`] selects
/// the rerun reference). With a store attached to `campaign`, the
/// report is served from it when it holds one for the same structure
/// ([`RecoverableDs::knobs`]), simulator config, compiler config,
/// budget and code digest, and recorded otherwise.
///
/// # Errors
///
/// Returns a [`ConsistencyError`] if the golden (failure-free) run
/// itself cannot complete; violations are reported, not errors.
pub fn audit_recoverable_ds(
    ds: &dyn RecoverableDs,
    cfg: &SimConfig,
    ccfg: &CompilerConfig,
    budget: &DsAuditBudget,
    campaign: &Campaign,
) -> Result<DsAuditReport, ConsistencyError> {
    campaign.memo(
        "dscell",
        ds.name(),
        cfg.scheme.name(),
        (ds.knobs(), ds.threads(), cfg, ccfg, budget),
        || audit_recoverable_ds_with(ds, cfg, ccfg, budget, campaign, SweepMode::Fork),
    )
}

/// [`audit_recoverable_ds`] with an explicit sweep mode, never served
/// from a store; reports are identical under either mode.
///
/// # Errors
///
/// As [`audit_recoverable_ds`].
pub fn audit_recoverable_ds_with(
    ds: &dyn RecoverableDs,
    cfg: &SimConfig,
    ccfg: &CompilerConfig,
    budget: &DsAuditBudget,
    campaign: &Campaign,
    sweep: SweepMode,
) -> Result<DsAuditReport, ConsistencyError> {
    let program = ds.program();
    let compiled = instrument(&program, ccfg);
    let threads = ds.threads();
    let mut cfg = cfg.clone();
    cfg.num_cores = threads;

    let injector = CrashInjector::new(&compiled, cfg, threads).with_sweep_mode(sweep);
    let golden = injector.golden_points(budget.derived_per_kind, budget.seed, budget.seeded)?;

    let mut report = DsAuditReport {
        name: ds.name().to_string(),
        golden_cycles: golden.cycles,
        ..DsAuditReport::default()
    };
    // The golden image anchors everything downstream: it must satisfy
    // the structure's completed-run checker before any point is swept.
    for v in ds.check_final(&golden.image) {
        report.ds_violations.push(format!("golden image: {v}"));
    }
    // Resumed runs converge byte for byte only where the final image
    // does not depend on timing.
    let converges_to = ds.deterministic_final().then_some(&golden.image);
    for part in campaign.map_chunks(&golden.points, |start, chunk| {
        audit_ds_chunk(ds, &injector, converges_to, budget, start, chunk)
    }) {
        report.merge(&part);
    }
    Ok(report)
}

/// Audits one sorted chunk with a dedicated sweeper. `start` is the
/// chunk's global index origin, which pins the resume-sampling pattern
/// across any chunking.
fn audit_ds_chunk(
    ds: &dyn RecoverableDs,
    injector: &CrashInjector<'_>,
    golden: Option<&Memory>,
    budget: &DsAuditBudget,
    start: usize,
    chunk: &[CrashPoint],
) -> DsAuditReport {
    let mut report = DsAuditReport {
        points: chunk.len(),
        ..DsAuditReport::default()
    };
    let mut sweeper = injector.sweeper();
    for (i, &p) in chunk.iter().enumerate() {
        let Some((cap, image)) = sweeper.cut_at(p) else {
            report.beyond_end += 1;
            continue;
        };
        report.audited += 1;
        check_capture(&cap, &image, p, &mut report.gate_violations);
        for v in ds.check_image(&image) {
            report
                .ds_violations
                .push(format!("{v} at cycle {} ({})", p.cycle, p.kind.name()));
        }

        let global = start + i;
        if budget.resume_every == 0 || !global.is_multiple_of(budget.resume_every) {
            continue;
        }
        // Resume to completion and hold the recovered end state to the
        // completed-run contract.
        report.resumed += 1;
        let (_, mut m) = sweeper.recover();
        if !injector.check_resume(&mut m, p, golden, &mut report.gate_violations) {
            continue;
        }
        for v in ds.check_final(m.pm_contents()) {
            report.ds_violations.push(format!(
                "recovered run: {v} after crash at {} ({})",
                p.cycle,
                p.kind.name()
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightwsp_sim::Scheme;
    use lightwsp_workloads::ds::log::DurableLogSpec;

    #[test]
    fn small_log_audit_is_clean() {
        let ds = DurableLogSpec {
            writers: 2,
            records: 48,
        };
        let cfg = SimConfig::new(Scheme::LightWsp);
        let budget = DsAuditBudget::quick();
        let campaign = Campaign::with_workers(2);
        let report =
            audit_recoverable_ds(&ds, &cfg, &CompilerConfig::default(), &budget, &campaign)
                .unwrap();
        assert!(report.audited > 0, "no point landed inside the run");
        assert_eq!(
            report.violations(),
            0,
            "gate: {:?}\nds: {:?}",
            report.gate_violations,
            report.ds_violations
        );
        assert!(report.resumed > 0);
    }

    #[test]
    fn audit_is_served_from_the_campaign_store() {
        let ds = DurableLogSpec {
            writers: 2,
            records: 16,
        };
        let longer = DurableLogSpec { records: 17, ..ds };
        let cfg = SimConfig::new(Scheme::LightWsp);
        let ccfg = CompilerConfig::default();
        let budget = DsAuditBudget {
            seeded: 2,
            derived_per_kind: 1,
            resume_every: 0,
            ..DsAuditBudget::quick()
        };
        crate::campaign::assert_served(
            |c| audit_recoverable_ds(&ds, &cfg, &ccfg, &budget, c).unwrap(),
            |c| audit_recoverable_ds(&longer, &cfg, &ccfg, &budget, c).unwrap(),
        );
    }
}

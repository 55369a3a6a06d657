//! Crash-audit driver for the recoverable data-structure suite
//! (`lightwsp_workloads::ds`).
//!
//! [`audit_recoverable_ds`] runs one structure through the full
//! treatment: compile, golden run (whose final image must satisfy the
//! structure's `check_final`), then a fork-point crash sweep at
//! mechanism-derived plus seeded points. At **every** audited point it
//! cuts power, resolves the WPQ gate, and checks two independent
//! layers against the durable image:
//!
//! 1. the generic recovery contract of `RECOVERY.md` §3–§7
//!    ([`lightwsp_sim::crash::check_capture`]: survivable-prefix,
//!    gate-flush, gate-discard, resolution-exact, …), and
//! 2. the structure's own §8 invariants (`RecoverableDs::check_image`
//!    — `log-torn-tail`, `map-shard-prefix`, `queue-no-lost-ack`, …).
//!
//! Capture checks are cheap (pure functions of the image), so the
//! sweep runs them everywhere; *resume-to-completion* — restart the
//! machine at the recovered image, run to the end, and re-check
//! `check_final` (plus a byte-compare against the golden image when
//! the structure is deterministic) — costs a full run per point and is
//! sampled every [`DsAuditBudget::resume_every`]-th audited point.
//!
//! Points fan out across a [`Campaign`] in contiguous sorted chunks
//! (one fork-sweep mainline per worker), the same discipline as
//! [`crate::recovery::audit_workload_crashes`], so reports are
//! bit-identical regardless of worker count.

use crate::cache::{digest_debug, memo_record, DsCellRecord};
use crate::campaign::Campaign;
use lightwsp_compiler::{instrument, CompilerConfig};
use lightwsp_sim::consistency::{golden_run, ConsistencyError};
use lightwsp_sim::crash::check_capture;
use lightwsp_sim::{
    Completion, CrashInjector, CrashPoint, InvariantViolation, SimConfig, SweepMode,
};
use lightwsp_store::{ResultStore, StoreKey};
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
    /// Resume-to-completion every n-th audited point (0 = never).
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
#[derive(Clone, Debug, Default)]
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
    /// Generic recovery-contract violations (`RECOVERY.md` §3–§7).
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
/// the rerun reference).
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
    audit_recoverable_ds_with(ds, cfg, ccfg, budget, campaign, SweepMode::Fork)
}

/// [`audit_recoverable_ds`] with an explicit sweep mode; reports are
/// identical under either.
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

    let injector = CrashInjector::new(&compiled, cfg.clone(), threads).with_sweep_mode(sweep);
    let (mut points, horizon) = injector.derived_points(budget.derived_per_kind);
    points.extend(injector.seeded_points(budget.seed, budget.seeded, horizon));
    let points = CrashInjector::prepare_points(&points);
    let (golden, golden_cycles) = golden_run(&compiled, &cfg, threads)?;

    let mut report = DsAuditReport {
        name: ds.name().to_string(),
        golden_cycles,
        ..DsAuditReport::default()
    };
    // The golden image anchors everything downstream: it must satisfy
    // the structure's completed-run checker before any point is swept.
    for v in ds.check_final(&golden) {
        report.ds_violations.push(format!("golden image: {v}"));
    }

    // Contiguous sorted chunks with global indices, one fork-sweep
    // mainline per worker; merging in chunk order keeps the report
    // independent of the worker count.
    let chunk_len = points.len().div_ceil(campaign.workers().max(1)).max(1);
    let chunks: Vec<(usize, &[CrashPoint])> = points
        .chunks(chunk_len)
        .enumerate()
        .map(|(i, c)| (i * chunk_len, c))
        .collect();
    let partials: Vec<DsAuditReport> = campaign.map_parallel(&chunks, |&(start, chunk), _| {
        audit_ds_chunk(ds, &injector, &cfg, &golden, budget, start, chunk)
    });
    for part in &partials {
        report.merge(part);
    }
    Ok(report)
}

/// Store-cached [`audit_recoverable_ds`]: serves the cell from `store`
/// when a record exists for the same structure name, scheme,
/// configuration digest and code digest; otherwise runs the audit and
/// records it. The boolean is `true` on a cache hit.
///
/// `ds_digest` must cover every construction parameter of `ds` that is
/// not implied by its name (operation counts, seeds) — trait objects
/// carry no `Debug` rendering, so the caller owns that part of the key.
/// The simulator config, compiler config and budget are digested here.
///
/// # Errors
///
/// Propagates [`ConsistencyError`] from the golden run; errors are
/// never cached.
pub fn audit_recoverable_ds_cached(
    store: Option<&ResultStore>,
    ds: &dyn RecoverableDs,
    cfg: &SimConfig,
    ccfg: &CompilerConfig,
    budget: &DsAuditBudget,
    campaign: &Campaign,
    ds_digest: u64,
) -> Result<(DsCellRecord, bool), ConsistencyError> {
    let key = StoreKey::new(
        "dscell",
        ds.name(),
        cfg.scheme.name(),
        digest_debug(&(ds_digest, ds.threads(), cfg, ccfg, budget)),
        0,
        store.map_or(0, ResultStore::code),
    );
    memo_record(
        store,
        &key,
        DsCellRecord::decode,
        DsCellRecord::encode,
        || audit_recoverable_ds(ds, cfg, ccfg, budget, campaign).map(|r| (&r).into()),
    )
}

/// Audits one sorted chunk with a dedicated sweeper. `start` is the
/// chunk's global index origin, which pins the resume-sampling pattern
/// across any chunking.
fn audit_ds_chunk(
    ds: &dyn RecoverableDs,
    injector: &CrashInjector<'_>,
    cfg: &SimConfig,
    golden: &lightwsp_ir::Memory,
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
        let Some((cap, mut m)) = sweeper.cut_at(p) else {
            report.beyond_end += 1;
            continue;
        };
        report.audited += 1;
        check_capture(&cap, m.pm_contents(), p, &mut report.gate_violations);
        for v in ds.check_image(m.pm_contents()) {
            report
                .ds_violations
                .push(format!("{v} at cycle {} ({})", p.cycle, p.kind.name()));
        }

        let global = start + i;
        if budget.resume_every == 0 || !global.is_multiple_of(budget.resume_every) {
            continue;
        }
        // Resume to completion on a fresh cycle budget and hold the
        // recovered end state to the completed-run contract.
        report.resumed += 1;
        m.set_max_cycles(p.cycle.saturating_add(cfg.max_cycles));
        if m.run() != Completion::Finished {
            report.ds_violations.push(format!(
                "[resume-completes] recovered run stalled at cycle {} after crash at {} ({})",
                m.now(),
                p.cycle,
                p.kind.name()
            ));
            continue;
        }
        for v in ds.check_final(m.pm_contents()) {
            report.ds_violations.push(format!(
                "recovered run: {v} after crash at {} ({})",
                p.cycle,
                p.kind.name()
            ));
        }
        if ds.deterministic_final() {
            // Checkpoint/PC slots are timing-dependent recovery
            // metadata (forced closes dump the live register file);
            // convergence is only required of program state.
            if let Some((addr, want, got)) = golden.first_difference_where(m.pm_contents(), |a| {
                !lightwsp_ir::layout::is_checkpoint_addr(a)
            }) {
                report.ds_violations.push(format!(
                    "[recovery-converges] recovered image diverges at {addr:#x} \
                     (golden {want:#x}, got {got:#x}) after crash at {} ({})",
                    p.cycle,
                    p.kind.name()
                ));
            }
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
}

//! Regression test for the parallel campaign's determinism contract:
//! `Campaign::run_many` must produce results identical to the serial
//! reference — each job run on a fresh one-worker campaign of its own,
//! in job order, so no compile or baseline is shared across jobs and
//! nothing fans out — with the same cycles, instructions and regions
//! regardless of worker count, and its slowdowns must equal the serial
//! normalisation bit-for-bit. The crash audits, which fan their points
//! out in per-worker chunks, must report identically at any worker
//! count too.

use lightwsp_core::{
    audit_recoverable_ds, audit_workload_crashes, AuditBudget, Campaign, CompilerConfig,
    DsAuditBudget, ExperimentOptions, Job, Scheme, SimConfig,
};
use lightwsp_workloads::ds::log::DurableLogSpec;
use lightwsp_workloads::workload;
use std::fmt::Debug;

fn jobs() -> Vec<Job> {
    let opts = ExperimentOptions::quick();
    let mut jobs = Vec::new();
    for name in ["bzip2", "milc", "vacation", "tatp"] {
        let w = workload(name).unwrap();
        for scheme in [Scheme::LightWsp, Scheme::Capri] {
            jobs.push(Job::new(&opts, &w, scheme));
        }
    }
    jobs
}

#[test]
fn campaign_matches_serial_experiment_at_any_worker_count() {
    let jobs = jobs();
    let serial: Vec<_> = jobs
        .iter()
        .map(|j| Campaign::with_workers(1).run_one(j))
        .collect();

    for workers in [1usize, 2, 4, 7] {
        let c = Campaign::with_workers(workers);
        let parallel = c.run_many(&jobs);
        assert_eq!(parallel.len(), serial.len());
        for ((job, s), p) in jobs.iter().zip(&serial).zip(&parallel) {
            assert_eq!(p.workload, job.spec.name);
            assert_eq!(p.scheme, job.scheme);
            assert_eq!(
                (p.stats.cycles, p.stats.insts, p.stats.regions),
                (s.stats.cycles, s.stats.insts, s.stats.regions),
                "{} {} diverged at {workers} workers",
                job.spec.name,
                job.scheme.name(),
            );
            assert_eq!(p.completion, s.completion);
        }
    }
}

#[test]
fn campaign_slowdowns_match_serial_normalisation() {
    let jobs = jobs();
    let serial: Vec<f64> = jobs
        .iter()
        .map(|j| Campaign::with_workers(1).slowdown(j).0)
        .collect();
    let c = Campaign::with_workers(3);
    let parallel = c.slowdowns(&jobs);
    // Bit-exact: both sides divide identical u64 cycle counts.
    assert_eq!(serial, parallel);
}

#[test]
fn campaign_cache_reuse_is_invisible() {
    // Running the same job list twice through one campaign (everything
    // cached the second time) must reproduce the first pass exactly.
    let jobs = jobs();
    let c = Campaign::with_workers(2);
    let first = c.run_many(&jobs);
    let second = c.run_many(&jobs);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.insts, b.stats.insts);
    }
}

/// Runs `audit` on campaigns of 1, 2, 3 and 7 workers and returns its
/// report, which must be the same at every count.
fn same_at_any_worker_count<T: PartialEq + Debug>(audit: impl Fn(&Campaign) -> T) -> T {
    let serial = audit(&Campaign::with_workers(1));
    for workers in [2, 3, 7] {
        assert_eq!(
            audit(&Campaign::with_workers(workers)),
            serial,
            "{workers} workers"
        );
    }
    serial
}

#[test]
fn crash_audit_reports_identically_at_any_worker_count() {
    let w = workload("hmmer").unwrap();
    let mut opts = ExperimentOptions::quick();
    opts.insts_per_thread = 4_000;
    let cfg = SimConfig::new(Scheme::LightWsp);
    let budget = AuditBudget {
        seeded: 6,
        derived_per_kind: 2,
        ..AuditBudget::quick()
    };
    let report =
        same_at_any_worker_count(|c| audit_workload_crashes(&w, &opts, &cfg, &budget, c).unwrap());
    assert!(report.points > 7 && report.audited > 0, "{report:?}");
}

#[test]
fn ds_audit_reports_identically_at_any_worker_count() {
    let ds = DurableLogSpec {
        writers: 2,
        records: 48,
    };
    let (cfg, ccfg) = (SimConfig::new(Scheme::LightWsp), CompilerConfig::default());
    let budget = DsAuditBudget {
        seeded: 6,
        derived_per_kind: 2,
        resume_every: 5,
        ..DsAuditBudget::quick()
    };
    let report =
        same_at_any_worker_count(|c| audit_recoverable_ds(&ds, &cfg, &ccfg, &budget, c).unwrap());
    // Points past the end of the run sort last, so the audited points
    // are prepared indices 0.., and every fifth of them resumes.
    assert!(report.points > 7, "{report:?}");
    assert_eq!(report.resumed, report.audited.div_ceil(5), "{report:?}");
}

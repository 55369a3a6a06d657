//! Recovery tests for the PM data-structure suite
//! (`lightwsp_workloads::ds` + `lightwsp_core::dsaudit`).
//!
//! Three layers:
//!
//! 1. every structure's golden (failure-free) run satisfies its own
//!    completed-run checker;
//! 2. every structure survives a quick crash sweep — generic
//!    `RECOVERY.md` §3–§7 contract plus the structure's §8 invariants
//!    at each point, with sampled resume-to-completion — and the KV
//!    service survives resuming at *every* audited point;
//! 3. the teeth: the single-threaded queue variant is admitted by the
//!    executable LRPO model, and a deliberately broken gating rule
//!    ([`GatingMutant::FlushUnacked`]) is caught by a *data-structure*
//!    invariant — not just the generic gate checks — proving the §8
//!    checkers detect real gating bugs; and one flipped durable key in
//!    a golden map or service image fails exactly its shard's
//!    `map-shard-prefix` check.
//!
//! The same suite's golden runs and audits under each reference
//! setting (per-cycle stepper, tree-walker, rerun sweeps) are the
//! `ds_audits` case of the mode parity harness.

#[path = "ds_suite.rs"]
mod ds_suite;

use ds_suite::small_suite;
use lightwsp_compiler::{instrument, CompilerConfig};
use lightwsp_core::{audit_recoverable_ds, Campaign, DsAuditBudget};
use lightwsp_model::harness::{run_case, CaseSpec, EnumMode, PointPolicy};
use lightwsp_sim::consistency::golden_run;
use lightwsp_sim::{GatingMutant, Scheme, SimConfig, StepMode, SweepMode};
use lightwsp_workloads::ds::map::{DurableMapSpec, MapLayout};
use lightwsp_workloads::ds::queue::DurableQueueSpec;
use lightwsp_workloads::ds::service::KvServiceSpec;
use lightwsp_workloads::ds::stack::TreiberStackSpec;
use lightwsp_workloads::ds::RecoverableDs;

fn cfg() -> SimConfig {
    SimConfig::new(Scheme::LightWsp)
}

#[test]
fn golden_runs_satisfy_final_checkers() {
    for ds in small_suite() {
        let compiled = instrument(&ds.program(), &CompilerConfig::default());
        let mut cfg = cfg();
        cfg.num_cores = ds.threads();
        let (golden, cycles) = golden_run(&compiled, &cfg, ds.threads())
            .unwrap_or_else(|e| panic!("{} golden run failed: {e:?}", ds.name()));
        assert!(cycles > 0);
        let viols = ds.check_final(&golden);
        assert!(
            viols.is_empty(),
            "{} golden image violates its own contract: {:?}",
            ds.name(),
            viols
        );
    }
}

/// The shard-prefix checks of the durable map and the KV service read
/// each shard on its own: one flipped durable key word in a golden
/// image yields exactly one `map-shard-prefix` violation, naming the
/// flipped slot's shard, and the clean image yields no violation.
#[test]
fn a_flipped_slot_fails_only_its_shard() {
    let map = DurableMapSpec {
        threads: 4,
        buckets: 64,
        slots_per_bucket: 8,
        locks: 16,
        ops_per_thread: 160,
    };
    let service = KvServiceSpec::new(2, 256, 8, 64, 8, 16);
    let cases: [(&dyn RecoverableDs, MapLayout); 2] =
        [(&map, map.layout()), (&service, service.map_layout())];
    for (ds, lay) in cases {
        let compiled = instrument(&ds.program(), &CompilerConfig::default());
        let mut cfg = cfg();
        cfg.num_cores = ds.threads();
        let (golden, _) = golden_run(&compiled, &cfg, ds.threads())
            .unwrap_or_else(|e| panic!("{} golden run failed: {e:?}", ds.name()));
        let clean = ds.check_image(&golden);
        assert!(clean.is_empty(), "{}: {clean:?}", ds.name());
        let spt = lay.slots_per_shard();
        for shard in 0..lay.shards {
            let addr = (0..lay.buckets * spt)
                .map(|i| lay.slot_addr(i / spt * lay.slots_per_bucket + shard * spt + i % spt))
                .find(|&a| golden.read_word(a) != 0)
                .unwrap_or_else(|| panic!("{} shard {shard} holds no key", ds.name()));
            let mut image = golden.clone();
            image.write_word(addr, golden.read_word(addr) ^ (1 << 40));
            let prefix: Vec<_> = ds
                .check_image(&image)
                .into_iter()
                .filter(|v| v.invariant == "map-shard-prefix")
                .collect();
            assert_eq!(prefix.len(), 1, "{} shard {shard}: {prefix:?}", ds.name());
            assert!(
                prefix[0].detail.contains(&format!("shard {shard}:")),
                "{}: {}",
                ds.name(),
                prefix[0]
            );
        }
    }
}

#[test]
fn every_structure_survives_a_quick_crash_sweep() {
    let campaign = Campaign::with_workers(2);
    for ds in small_suite() {
        let report = audit_recoverable_ds(
            ds.as_ref(),
            &cfg(),
            &CompilerConfig::default(),
            &DsAuditBudget::quick(),
            &campaign,
        )
        .unwrap_or_else(|e| panic!("{} audit failed: {e:?}", ds.name()));
        assert!(
            report.audited > 0,
            "{}: no point landed in the run",
            ds.name()
        );
        assert!(report.resumed > 0, "{}: no resume was sampled", ds.name());
        assert_eq!(
            report.violations(),
            0,
            "{}: gate: {:?}\nds: {:?}",
            ds.name(),
            report.gate_violations,
            report.ds_violations
        );
    }
}

/// The single-threaded enqueue/dequeue variant of the durable queue
/// must sit inside the LRPO model's admitted set at every crash point:
/// the structure's publish discipline is not just checker-consistent
/// but *model*-consistent.
#[test]
fn queue_model_variant_is_admitted_by_lrpo_model() {
    let spec = DurableQueueSpec {
        producers: 1,
        records: 24,
        cap: 8,
    };
    let compiled = instrument(&spec.model_program(), &CompilerConfig::default());
    let case = CaseSpec {
        name: "ds-queue-1t".to_string(),
        threads: 1,
        num_mcs: 2,
        wpq_entries: 8,
        step_mode: StepMode::SkipAhead,
        sweep_mode: SweepMode::Fork,
        mutant: None,
        policy: PointPolicy::Exhaustive {
            max_horizon: 60_000,
        },
        seed: 0xD5_0002,
        enum_mode: EnumMode::Overapprox,
    };
    let outcome = run_case(&compiled, &case).expect("extraction should admit the 1t queue");
    assert!(outcome.audited > 0);
    assert!(
        outcome.model_violations.is_empty(),
        "LRPO model rejected durable-queue images: {:?}",
        outcome.model_violations
    );
    assert!(
        outcome.structural_violations.is_empty(),
        "structural violations: {:?}",
        outcome.structural_violations
    );
}

/// The *multi-thread* producers-only queue variant must sit inside the
/// exact-mode admitted set at every crash point: the enqueue protocol's
/// cross-thread region interleaving is explained by the traced
/// boundary-ACK order, not just the per-thread over-approximation.
#[test]
fn queue_producers_variant_is_admitted_by_exact_model() {
    let spec = DurableQueueSpec {
        producers: 3,
        records: 6,
        cap: 8,
    };
    let compiled = instrument(&spec.model_program_producers(), &CompilerConfig::default());
    let case = CaseSpec {
        name: "ds-queue-producers-3t".to_string(),
        threads: spec.producers,
        num_mcs: 2,
        wpq_entries: 8,
        step_mode: StepMode::SkipAhead,
        sweep_mode: SweepMode::Fork,
        mutant: None,
        policy: PointPolicy::Exhaustive {
            max_horizon: 60_000,
        },
        seed: 0xD5_0003,
        enum_mode: EnumMode::Exact,
    };
    let outcome =
        run_case(&compiled, &case).expect("extraction should admit the producers-only queue");
    assert!(outcome.audited > 0);
    assert!(
        outcome.model_violations.is_empty(),
        "exact LRPO model rejected producer images: {:?}",
        outcome.model_violations
    );
    assert!(
        outcome.structural_violations.is_empty(),
        "structural violations: {:?}",
        outcome.structural_violations
    );
    let exact = outcome
        .exact_admitted
        .expect("exact mode must report its admitted count");
    assert!(
        exact <= outcome.admitted,
        "exact set ({exact}) exceeds the over-approximation ({})",
        outcome.admitted
    );
    assert!(
        exact < outcome.admitted,
        "3 producers × 7 regions each should make exact strictly tighter \
         (exact {exact}, over-approx {})",
        outcome.admitted
    );
}

/// Same teeth for the composed service: the clients-only request-path
/// variant (rings + journals, two regions per op) is admitted by exact
/// mode across every crash point.
#[test]
fn service_clients_variant_is_admitted_by_exact_model() {
    let spec = KvServiceSpec::new(2, 24, 8, 64, 8, 16);
    assert!(
        (0..spec.clients).all(|c| spec.reqs(c) >= 1),
        "op mix drew no requests; pick a different ops_per_client"
    );
    let compiled = instrument(&spec.model_program_clients(), &CompilerConfig::default());
    let case = CaseSpec {
        name: "ds-service-clients-2t".to_string(),
        threads: spec.clients,
        num_mcs: 2,
        wpq_entries: 8,
        step_mode: StepMode::SkipAhead,
        sweep_mode: SweepMode::Fork,
        mutant: None,
        policy: PointPolicy::Exhaustive {
            max_horizon: 60_000,
        },
        seed: 0xD5_0004,
        enum_mode: EnumMode::Exact,
    };
    let outcome =
        run_case(&compiled, &case).expect("extraction should admit the clients-only service");
    assert!(outcome.audited > 0);
    assert!(
        outcome.model_violations.is_empty(),
        "exact LRPO model rejected service request-path images: {:?}",
        outcome.model_violations
    );
    assert!(
        outcome.structural_violations.is_empty(),
        "structural violations: {:?}",
        outcome.structural_violations
    );
    assert!(outcome.exact_admitted.is_some());
}

/// Teeth: under the `FlushUnacked` gating mutant the resolution
/// flushes unacknowledged WPQ entries, durably committing *partial*
/// critical sections — which the stack's accounting invariant must
/// flag (a node arena write without its atomic counter update). This
/// proves a §8 data-structure invariant catches a gating bug on its
/// own, independent of the generic gate checks.
#[test]
fn flush_unacked_mutant_is_caught_by_stack_invariant() {
    let ds = TreiberStackSpec {
        threads: 4,
        ops: 128,
    };
    let mut cfg = cfg();
    cfg.gating_mutant = Some(GatingMutant::FlushUnacked);
    let report = audit_recoverable_ds(
        &ds,
        &cfg,
        &CompilerConfig::default(),
        &DsAuditBudget {
            resume_every: 0, // capture-only: mutant resumes are meaningless
            ..DsAuditBudget::quick()
        },
        &Campaign::with_workers(2),
    )
    .unwrap();
    assert!(
        report
            .ds_violations
            .iter()
            .any(|v| v.contains("stack-lifo-accounting") || v.contains("stack-reachability")),
        "mutant escaped the stack invariants; ds violations: {:?}",
        report.ds_violations
    );
}

/// A DS audit resumes through the `RECOVERY.md` §4 resume check, so a
/// deterministic structure's resumed run that diverges from the golden
/// image is a typed `resume-state-equivalence` gate violation (the log
/// diverges under `FlushUnacked`, which writes unpersisted stores to PM).
#[test]
fn ds_resume_divergence_is_a_recovery_contract_violation() {
    let log = &small_suite()[0];
    assert!(log.deterministic_final());
    let mut cfg = cfg();
    cfg.gating_mutant = Some(GatingMutant::FlushUnacked);
    let budget = DsAuditBudget {
        seeded: 4,
        derived_per_kind: 1,
        resume_every: 1,
        ..DsAuditBudget::quick()
    };
    let c = Campaign::with_workers(2);
    let report = audit_recoverable_ds(log.as_ref(), &cfg, &CompilerConfig::default(), &budget, &c);
    let gate = report.unwrap().gate_violations;
    let diverged = gate
        .iter()
        .any(|v| v.invariant == "resume-state-equivalence");
    assert!(diverged, "no resumed run diverged: {gate:?}");
}

/// Audits `spec` under LightWSP with every audited point resumed to
/// completion and asserts the audit finds nothing.
fn assert_service_recovers_at_every_point(spec: KvServiceSpec, seeded: usize, per_kind: usize) {
    let budget = DsAuditBudget {
        seed: 0xD5_0001,
        seeded,
        derived_per_kind: per_kind,
        resume_every: 1,
    };
    let report = audit_recoverable_ds(
        &spec,
        &cfg(),
        &CompilerConfig::default(),
        &budget,
        &Campaign::with_workers(2),
    )
    .unwrap();
    assert!(report.resumed > 0, "no point was resumed");
    assert_eq!(
        report.violations(),
        0,
        "{} of {} resumed points: gate: {:?}\nds: {:?}",
        report.violations(),
        report.resumed,
        report.gate_violations,
        report.ds_violations
    );
}

/// Rule 2 at the service client: the flow-control load of `cons` must
/// open its own region. A checkpoint or resume-PC store sampled before
/// that load records flow control as passed, so a client resumed after
/// a crash with a full ring overwrote an unconsumed slot.
#[test]
fn service_client_resumes_only_past_a_durable_cons() {
    assert_service_recovers_at_every_point(KvServiceSpec::new(4, 256, 4, 256, 8, 64), 24, 2);
}

/// Rule 2 at the service server: the load of a ring's `tail` must open
/// its own region, or the server can resume with a tail the client
/// never made durable.
#[test]
fn service_server_resumes_only_past_a_durable_tail() {
    assert_service_recovers_at_every_point(KvServiceSpec::new(2, 256, 8, 64, 8, 16), 60, 4);
}

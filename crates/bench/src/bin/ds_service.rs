//! Recoverable-data-structure suite + crash-survivable KV/queue
//! service benchmark (`docs/DATASTRUCTURES.md`).
//!
//! Four stages, each feeding `results/ds_service.txt` and
//! `BENCH_ds.json`:
//!
//! 1. **Per-structure sweeps** — durable log, sharded map, MPSC
//!    queue, Treiber stack, each through the full treatment of
//!    [`lightwsp_core::dsaudit`]: fork-point crash sweep at
//!    mechanism-derived + seeded points, generic `RECOVERY.md` §3–§7
//!    checks and the structure's §8 invariants at *every* point,
//!    resume-to-completion sampled.
//! 2. **Service headline** — the composed KV/queue service
//!    (clients × ops ≥ 1M operations) swept at ≥500 crash points with
//!    the same two-layer checking, post-recovery validation against
//!    the replayed op-stream oracle at every sampled resume.
//! 3. **LRPO admittance** — the single-threaded variant of every
//!    structure must sit inside the executable persistency model's
//!    admitted set at every crash point
//!    ([`run_case`]).
//! 4. **Teeth** — the `FlushUnacked` gating mutant must be flagged by
//!    a *data-structure* invariant (a §8 checker, not just the
//!    generic gate checks).
//!
//! `--quick` shrinks the service run and point budgets for CI;
//! `LIGHTWSP_THREADS` applies as everywhere else, and
//! `LIGHTWSP_STORE` attaches the persistent result store — warm
//! re-runs on unchanged code serve every audit cell, model case and
//! wall-clock from the store.

use lightwsp_bench::evalrun::cache_line;
use lightwsp_compiler::{instrument, CompilerConfig};
use lightwsp_core::dsaudit::{audit_recoverable_ds, DsAuditBudget, DsAuditReport};
use lightwsp_core::{Campaign, JsonWriter};
use lightwsp_model::harness::{run_case, CaseSpec, EnumMode, PointPolicy};
use lightwsp_sim::{GatingMutant, Scheme, SimConfig, StepMode, SweepMode};
use lightwsp_workloads::ds::log::DurableLogSpec;
use lightwsp_workloads::ds::map::DurableMapSpec;
use lightwsp_workloads::ds::queue::DurableQueueSpec;
use lightwsp_workloads::ds::service::KvServiceSpec;
use lightwsp_workloads::ds::stack::TreiberStackSpec;
use lightwsp_workloads::ds::RecoverableDs;
use std::fmt::Write as _;
use std::time::Instant;

fn base_cfg(cli: &lightwsp_bench::Cli) -> SimConfig {
    let mut cfg = cli.options().sim;
    cfg.scheme = Scheme::LightWsp;
    cfg
}

struct Cell {
    report: DsAuditReport,
    ops: u64,
    wall_s: f64,
}

/// One structure sweep: the audit report and its cold wall-clock are
/// both served from the campaign's store on a warm pass (the stored
/// wall is what the JSON reports).
fn sweep(
    out: &mut String,
    ds: &dyn RecoverableDs,
    ops: u64,
    cfg: &SimConfig,
    budget: &DsAuditBudget,
    campaign: &Campaign,
) -> Cell {
    let t0 = Instant::now();
    let report = audit_recoverable_ds(ds, cfg, &CompilerConfig::default(), budget, campaign)
        .unwrap_or_else(|e| panic!("{}: golden run failed: {e:?}", ds.name()));
    let measured = t0.elapsed().as_secs_f64();
    let wall_s =
        lightwsp_bench::memo_wall(campaign, ds.name(), (ds.knobs(), cfg, budget), || measured);
    let _ = writeln!(
        out,
        "{:<14} threads={:<2} ops={:<8} golden_cycles={:<9} points={:<4} audited={:<4} \
         resumed={:<3} gate_viol={} ds_viol={} [{wall_s:.1}s]",
        ds.name(),
        ds.threads(),
        ops,
        report.golden_cycles,
        report.points,
        report.audited,
        report.resumed,
        report.gate_violations.len(),
        report.ds_violations.len(),
    );
    for v in report.gate_violations.iter().take(3) {
        let _ = writeln!(out, "    GATE VIOLATION {v}");
    }
    for v in report.ds_violations.iter().take(3) {
        let _ = writeln!(out, "    DS VIOLATION {v}");
    }
    Cell {
        report,
        ops,
        wall_s,
    }
}

fn main() {
    let cli = lightwsp_bench::Cli::from_env(false);
    let quick = cli.quick;
    let cfg = base_cfg(&cli);
    let campaign = lightwsp_bench::campaign_with(lightwsp_bench::store());
    let t0 = Instant::now();
    let mut out = String::from(
        "== Recoverable PM data-structure suite + KV/queue service (docs/DATASTRUCTURES.md) ==\n",
    );

    // Stage 1: per-structure crash sweeps.
    let unit_budget = if quick {
        DsAuditBudget::quick()
    } else {
        DsAuditBudget {
            seed: 0xD5_0001,
            seeded: 96,
            derived_per_kind: 12,
            resume_every: 20,
        }
    };
    let (log_n, map_n, q_n, stk_n) = if quick {
        (96u64, 256u64, 128u64, 192u64)
    } else {
        (2048, 4096, 4096, 4096)
    };
    let log = DurableLogSpec {
        writers: 4,
        records: log_n,
    };
    let map = DurableMapSpec {
        threads: 4,
        buckets: 256,
        slots_per_bucket: 8,
        locks: 64,
        ops_per_thread: map_n,
    };
    let queue = DurableQueueSpec {
        producers: 3,
        records: q_n,
        cap: 64,
    };
    let stack = TreiberStackSpec {
        threads: 4,
        ops: stk_n,
    };
    let mut cells = vec![
        sweep(&mut out, &log, 4 * log_n, &cfg, &unit_budget, &campaign),
        sweep(&mut out, &map, 4 * map_n, &cfg, &unit_budget, &campaign),
        sweep(&mut out, &queue, 2 * 3 * q_n, &cfg, &unit_budget, &campaign),
        sweep(&mut out, &stack, 4 * stk_n, &cfg, &unit_budget, &campaign),
    ];

    // Stage 2: the service headline — ≥1M ops, ≥500 audited points.
    let service = if quick {
        KvServiceSpec::new(4, 2_048, 32, 256, 8, 64)
    } else {
        KvServiceSpec::new(8, 131_072, 64, 1024, 16, 64)
    };
    let service_budget = if quick {
        DsAuditBudget::quick()
    } else {
        DsAuditBudget::full()
    };
    let svc_ops = service.total_ops();
    // The full-size service is server-throughput-bound (~260k requests
    // drained serially); give its golden and resume runs cycle headroom
    // instead of the 40M general-purpose cap.
    let mut svc_cfg = cfg.clone();
    if !quick {
        svc_cfg.max_cycles = svc_cfg.max_cycles.max(400_000_000);
    }
    let svc = sweep(
        &mut out,
        &service,
        svc_ops,
        &svc_cfg,
        &service_budget,
        &campaign,
    );
    let svc_audited = svc.report.audited;
    cells.push(svc);

    let violations_total: usize = cells.iter().map(|c| c.report.violations()).sum();

    // Stage 3: LRPO-model admittance of the model-domain variants —
    // the single-threaded shapes under the historical over-approximate
    // enumeration, plus the *multi-thread* producers-only queue and
    // clients-only service request path under exact enumeration (their
    // cross-thread region interleavings must be cuts of the traced
    // protocol order).
    let model_n = if quick { 16 } else { 32 };
    let model_cases: Vec<(String, lightwsp_ir::Program, Vec<u64>, usize, EnumMode)> = vec![
        {
            let s = DurableLogSpec {
                writers: 1,
                records: model_n,
            };
            (
                "log-1t".into(),
                s.program(),
                s.knobs(),
                1,
                EnumMode::Overapprox,
            )
        },
        {
            let s = DurableMapSpec {
                threads: 1,
                buckets: 16,
                slots_per_bucket: 4,
                locks: 8,
                ops_per_thread: model_n,
            };
            (
                "map-1t".into(),
                s.program(),
                s.knobs(),
                1,
                EnumMode::Overapprox,
            )
        },
        {
            let s = DurableQueueSpec {
                producers: 1,
                records: model_n,
                cap: 8,
            };
            (
                "queue-1t".into(),
                s.model_program(),
                s.knobs(),
                1,
                EnumMode::Overapprox,
            )
        },
        {
            let s = TreiberStackSpec {
                threads: 1,
                ops: model_n,
            };
            (
                "stack-1t".into(),
                s.program(),
                s.knobs(),
                1,
                EnumMode::Overapprox,
            )
        },
        {
            let s = DurableQueueSpec {
                producers: 3,
                records: 6,
                cap: 8,
            };
            (
                "queue-producers-3t".into(),
                s.model_program_producers(),
                s.knobs(),
                s.producers,
                EnumMode::Exact,
            )
        },
        {
            let s = KvServiceSpec::new(2, 24, 8, 64, 8, 16);
            (
                "service-clients-2t".into(),
                s.model_program_clients(),
                s.knobs(),
                s.clients,
                EnumMode::Exact,
            )
        },
    ];
    let mut model_outcomes = Vec::new();
    let mut model_violations = 0usize;
    for (name, program, knobs, threads, enum_mode) in &model_cases {
        let ccfg = CompilerConfig::default();
        let case = CaseSpec {
            name: name.clone(),
            threads: *threads,
            num_mcs: 2,
            wpq_entries: 8,
            step_mode: StepMode::SkipAhead,
            sweep_mode: SweepMode::Fork,
            mutant: None,
            policy: PointPolicy::Exhaustive {
                max_horizon: 120_000,
            },
            seed: 0xD5_0002,
            enum_mode: *enum_mode,
        };
        let o = campaign
            .memo(
                "case",
                name,
                format_args!("{:?}/{:?}", case.step_mode, case.sweep_mode),
                (knobs, &ccfg, &case),
                || run_case(&instrument(program, &ccfg), &case),
            )
            .unwrap_or_else(|e| panic!("{name}: model extraction failed: {e:?}"));
        model_violations += o.violations();
        let _ = writeln!(
            out,
            "model {:<20} ({:<10}) points={:<5} audited={:<5} admitted={:<8} exact={:<8} \
             witnessed={:<5} model_viol={} structural_viol={}",
            o.name,
            enum_mode.name(),
            o.points,
            o.audited,
            o.admitted,
            o.exact_admitted.map_or("-".to_string(), |e| e.to_string()),
            o.witnessed,
            o.model_violations.len(),
            o.structural_violations.len(),
        );
        model_outcomes.push(o);
    }

    // Stage 4: teeth — a gating bug must trip a §8 DS invariant.
    let mut mutant_cfg = cfg.clone();
    mutant_cfg.gating_mutant = Some(GatingMutant::FlushUnacked);
    let teeth_stack = TreiberStackSpec {
        threads: 4,
        ops: if quick { 128 } else { 1024 },
    };
    let teeth = audit_recoverable_ds(
        &teeth_stack,
        &mutant_cfg,
        &CompilerConfig::default(),
        &DsAuditBudget {
            resume_every: 0, // capture-only: mutant resumes are meaningless
            ..unit_budget
        },
        &campaign,
    )
    .map(|r| {
        r.ds_violations
            .iter()
            .filter(|v| v.contains("stack-"))
            .count()
    })
    .unwrap_or(usize::MAX);
    let mutant_caught = teeth > 0;
    let _ = writeln!(
        out,
        "mutant FlushUnacked vs treiber-stack: {} ({} §8 violations flagged)",
        if mutant_caught { "CAUGHT" } else { "MISSED" },
        teeth,
    );

    let total_s = lightwsp_bench::memo_wall(&campaign, "ds-service-wall", (&cfg, quick), || {
        t0.elapsed().as_secs_f64()
    });
    let _ = writeln!(
        out,
        "total: service {svc_ops} ops / {svc_audited} crash audits; \
         {violations_total} invariant violations, {model_violations} model violations, \
         {total_s:.1}s ({} workers)",
        campaign.workers(),
    );
    lightwsp_bench::emit_text("ds_service", &out);

    // Flush before rendering, so the "cache" line counts the batch
    // files this pass leaves.
    lightwsp_bench::flush_store(&campaign);
    let mut jw = JsonWriter::new();
    jw.object("meta");
    jw.field("quick", quick);
    jw.field("workers", campaign.workers());
    jw.field("service_ops", svc_ops);
    jw.field("service_audited", svc_audited);
    jw.field("violations_total", violations_total);
    jw.field("model_violations", model_violations);
    jw.field("mutant_flush_unacked_caught_by_ds", mutant_caught);
    jw.field("total_wall_s", format_args!("{total_s:.3}"));
    jw.field("cache", cache_line(&campaign));
    jw.close();
    jw.array("structures");
    for c in &cells {
        jw.elem(&format!(
            "{{\"structure\": \"{}\", \"ops\": {}, \"golden_cycles\": {}, \"points\": {}, \
             \"audited\": {}, \"beyond_end\": {}, \"resumed\": {}, \"gate_violations\": {}, \
             \"ds_violations\": {}, \"wall_s\": {:.3}}}",
            c.report.name,
            c.ops,
            c.report.golden_cycles,
            c.report.points,
            c.report.audited,
            c.report.beyond_end,
            c.report.resumed,
            c.report.gate_violations.len(),
            c.report.ds_violations.len(),
            c.wall_s,
        ));
    }
    jw.close();
    jw.array("model");
    for o in &model_outcomes {
        jw.elem(&format!(
            "{{\"case\": \"{}\", \"points\": {}, \"audited\": {}, \"admitted\": {}, \
             \"exact\": {}, \"witnessed\": {}, \"model_violations\": {}, \
             \"structural_violations\": {}}}",
            o.name,
            o.points,
            o.audited,
            o.admitted,
            o.exact_admitted
                .map_or("null".to_string(), |e| e.to_string()),
            o.witnessed,
            o.model_violations.len(),
            o.structural_violations.len(),
        ));
    }
    jw.close();
    if let Err(e) = std::fs::write("BENCH_ds.json", jw.finish()) {
        eprintln!("warning: could not write BENCH_ds.json: {e}");
    }

    assert_eq!(
        violations_total, 0,
        "data-structure recovery contract violated — see results/ds_service.txt"
    );
    assert_eq!(model_violations, 0, "LRPO model rejected a DS image");
    assert!(
        mutant_caught,
        "FlushUnacked escaped the §8 invariants — the DS checkers are vacuous"
    );
    if !quick {
        assert!(
            svc_ops >= 1_000_000,
            "service run too small for the headline ({svc_ops} ops)"
        );
        assert!(
            svc_audited >= 500,
            "service sweep audited only {svc_audited} points"
        );
    }
}

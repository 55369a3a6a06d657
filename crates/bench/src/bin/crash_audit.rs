//! Crash-injection & recovery-audit sweep (§IV-F / `RECOVERY.md`).
//!
//! For every workload × audit configuration, sweeps seeded and derived
//! (mid-region, boundary-broadcast, mc-skew, between-acks,
//! mid-wpq-drain) power-cut points, fanning the per-point audits across
//! the [`Campaign`](lightwsp_core::Campaign) worker pool, and asserts
//! the named invariants of `RECOVERY.md` at each one. Then proves the
//! auditor has teeth: a run under the test-only `FlushUnacked` gating
//! mutant *must* be flagged.
//!
//! Writes `results/crash_audit.txt` plus machine-readable
//! `BENCH_crash.json` (one record per workload×config cell). `--quick`
//! shrinks the matrix and point budget for CI; `LIGHTWSP_THREADS` pins
//! the worker count, and `LIGHTWSP_STORE` attaches the persistent
//! result store — warm re-runs on unchanged code serve every cell
//! (audit reports, wall-clocks) from the store. The fork-vs-rerun
//! sweep timing lives in the `perf_gate` bin.
use lightwsp_bench::evalrun::cache_line;
use lightwsp_core::recovery::{audit_workload_crashes, AuditBudget};
use lightwsp_core::{JsonWriter, Scheme, SimConfig};
use lightwsp_sim::{CrashPointKind, GatingMutant};
use lightwsp_workloads::workload;
use std::fmt::Write as _;
use std::time::Instant;

/// One named audit configuration. Only gated, instrumented schemes are
/// functionally recoverable (Immediate-flush schemes let unpersisted
/// stores reach PM by design), so the matrix varies LightWSP's
/// mechanism knobs plus Capri's stop-and-wait ordering.
struct AuditConfig {
    name: &'static str,
    build: fn(&SimConfig) -> SimConfig,
}

const CONFIGS: [AuditConfig; 4] = [
    AuditConfig {
        name: "LightWSP",
        build: |base| {
            let mut c = base.clone();
            c.scheme = Scheme::LightWsp;
            c
        },
    },
    AuditConfig {
        name: "LightWSP-4MC",
        build: |base| {
            let mut c = base.clone();
            c.scheme = Scheme::LightWsp;
            c.mem.num_mcs = 4; // wider NUMA fan-out → longer bdry-ACK skew window
            c
        },
    },
    AuditConfig {
        name: "LightWSP-noLRPO",
        build: |base| {
            let mut c = base.clone();
            c.scheme = Scheme::LightWsp;
            c.disable_lrpo = true; // sfence-style stall at every boundary (§III-B)
            c
        },
    },
    AuditConfig {
        name: "Capri",
        build: |base| {
            let mut c = base.clone();
            c.scheme = Scheme::Capri;
            c
        },
    },
];

fn main() {
    let cli = lightwsp_bench::Cli::from_env(false);
    let (quick, mut opts) = (cli.quick, cli.options());
    // Each crash point replays the run prefix and then resumes to
    // completion, so cap the budget to keep the full sweep in seconds.
    opts.insts_per_thread = opts.insts_per_thread.min(20_000);
    let budget = if quick {
        AuditBudget::quick()
    } else {
        AuditBudget::full()
    };
    let workloads: &[&str] = if quick {
        &["hmmer", "vacation"]
    } else {
        &["hmmer", "mcf", "xz", "vacation", "radix"]
    };
    let c = lightwsp_bench::campaign_with(lightwsp_bench::store());
    let t0 = Instant::now();

    let mut out = String::from("== RECOVERY.md audit — seeded & derived crash-point sweep ==\n");
    let mut cells = Vec::new();
    let mut violations_total = 0usize;
    let mut audited_total = 0usize;
    for name in workloads {
        let mut w = workload(name).expect("known workload");
        if w.threads > 4 {
            w.threads = 4; // keep the sweep fast; the contract is thread-count agnostic
        }
        for config in &CONFIGS {
            let cfg = (config.build)(&opts.sim);
            let rep = match audit_workload_crashes(&w, &opts, &cfg, &budget, &c) {
                Ok(rep) => rep,
                Err(e) => {
                    let _ = writeln!(out, "{name:<10} {:<16} GOLDEN RUN FAILED: {e}", config.name);
                    violations_total += 1;
                    continue;
                }
            };
            audited_total += rep.audited;
            violations_total += rep.violations.len();
            let _ = writeln!(
                out,
                "{name:<10} {:<16} points={:<4} audited={:<4} beyond_end={:<3} \
                 flushed={:<6} discarded={:<6} rolled_back={:<4} violations={}",
                config.name,
                rep.points,
                rep.audited,
                rep.beyond_end,
                rep.entries_flushed,
                rep.entries_discarded,
                rep.undo_rolled_back,
                rep.violations.len(),
            );
            for v in rep.violations.iter().take(5) {
                let _ = writeln!(out, "    VIOLATION {v}");
            }
            cells.push((name.to_string(), config.name, rep));
        }
    }

    // Teeth check: the same sweep under a deliberately broken gating
    // rule must be flagged — an auditor that passes a controller which
    // flushes unacknowledged regions to PM is vacuous.
    let mut mutant_cfg = (CONFIGS[0].build)(&opts.sim);
    mutant_cfg.gating_mutant = Some(GatingMutant::FlushUnacked);
    let w = workload(workloads[0]).expect("known workload");
    let mutant_violations = audit_workload_crashes(&w, &opts, &mutant_cfg, &budget, &c)
        .map(|rep| rep.violations.len())
        .unwrap_or(usize::MAX); // golden-run error under a mutant counts as caught
    let mutant_caught = mutant_violations > 0;
    let _ = writeln!(
        out,
        "mutant FlushUnacked: {} ({} violations flagged)",
        if mutant_caught { "CAUGHT" } else { "MISSED" },
        mutant_violations,
    );

    let total_s = lightwsp_bench::memo_wall(&c, "crash-audit-wall", (&opts, quick), || {
        t0.elapsed().as_secs_f64()
    });
    let _ = writeln!(
        out,
        "total: {audited_total} crash points audited, {violations_total} violations, {total_s:.1}s ({} workers)",
        c.workers(),
    );
    lightwsp_bench::emit_text("crash_audit", &out);

    // Flush before rendering, so the "cache" line counts the batch
    // files this pass leaves.
    lightwsp_bench::flush_store(&c);
    let mut jw = JsonWriter::new();
    jw.object("meta");
    jw.field("threads", c.workers());
    jw.field("quick", quick);
    jw.field("seeded_per_cell", budget.seeded);
    jw.field("derived_cap_per_kind", budget.derived_per_kind);
    jw.field("seed", budget.seed);
    jw.field("total_wall_s", format_args!("{total_s:.3}"));
    jw.field("audited_total", audited_total);
    jw.field("violations_total", violations_total);
    jw.field("mutant_flush_unacked_caught", mutant_caught);
    jw.field("cache", cache_line(&c));
    jw.close();
    jw.array("cells");
    for (wname, cname, rep) in &cells {
        let by_kind: Vec<String> = CrashPointKind::ALL
            .iter()
            .enumerate()
            .map(|(i, k)| format!("\"{}\": {}", k.name(), rep.audited_by_kind[i]))
            .collect();
        jw.elem(&format!(
            "{{\"workload\": \"{wname}\", \"config\": \"{cname}\", \"points\": {}, \
             \"audited\": {}, \"beyond_end\": {}, \"violations\": {}, \
             \"entries_flushed\": {}, \"entries_discarded\": {}, \"undo_rolled_back\": {}, \
             \"golden_cycles\": {}, \"audited_by_kind\": {{{}}}}}",
            rep.points,
            rep.audited,
            rep.beyond_end,
            rep.violations.len(),
            rep.entries_flushed,
            rep.entries_discarded,
            rep.undo_rolled_back,
            rep.golden_cycles,
            by_kind.join(", "),
        ));
    }
    jw.close();
    if let Err(e) = std::fs::write("BENCH_crash.json", jw.finish()) {
        eprintln!("warning: could not write BENCH_crash.json: {e}");
    }
    assert_eq!(
        violations_total, 0,
        "recovery contract violated — see results/crash_audit.txt"
    );
    assert!(
        mutant_caught,
        "auditor missed the FlushUnacked gating mutant — invariants are vacuous"
    );
}

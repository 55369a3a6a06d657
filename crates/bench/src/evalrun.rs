//! The `all_figures` evaluation driver, factored out of the bin so the
//! incremental-re-bench regression test can run cold/warm passes
//! in-process.
//!
//! Every simulation goes through one shared [`Campaign`] with an
//! optional [`ResultStore`] attached: per-run cells are served from the
//! store when the (workload, scheme, config-digest, code-digest) key
//! matches, and the figure wall-clocks are memoized as whole
//! records ([`memo_wall`]) — wall-clock numbers are stored as `f64`
//! bit patterns, so a warm re-run on unchanged code regenerates
//! `BENCH_eval.json` byte-for-byte except for the single-line `"cache"`
//! meta field (mask with `grep -v '"cache":'` when comparing).

use crate::{emit, emit_text, figures, memo_wall, Cli, Filter};
use lightwsp_core::{Campaign, ExperimentOptions, Job, JsonWriter, ResultStore, Scheme};
use lightwsp_workloads::all_workloads;
use std::fmt::Write as _;
use std::time::Instant;

/// Inputs of one evaluation pass.
pub struct EvalOptions {
    /// Experiment configuration (budget, sim knobs).
    pub opts: ExperimentOptions,
    /// Reduced-budget smoke mode.
    pub quick: bool,
    /// Section/workload selection.
    pub filter: Filter,
    /// Result store, or `None` to compute everything.
    pub store: Option<ResultStore>,
}

impl EvalOptions {
    /// Builds the options from the CLI flags (`--quick`, `--filter=`)
    /// and environment (`LIGHTWSP_FILTER`, `LIGHTWSP_STORE`). Exits with
    /// status 2 on an unknown flag or a pattern that matches nothing.
    pub fn from_env_args() -> EvalOptions {
        let cli = Cli::from_env(true);
        EvalOptions {
            opts: cli.options(),
            quick: cli.quick,
            filter: Filter::from_cli(&cli).unwrap_or_else(|e| crate::exit_usage(&e)),
            store: crate::store(),
        }
    }
}

/// Outputs of one evaluation pass.
pub struct EvalSummary {
    /// The `BENCH_eval.json` document.
    pub json: String,
    /// Real elapsed wall-clock of this pass (not the memoized value
    /// reported inside `json`).
    pub wall_s: f64,
    /// Cells simulated this pass: store misses when a store is
    /// attached (every record kind), otherwise campaign-level
    /// simulation count.
    pub cells_simulated: u64,
    /// Cells served from the store (or campaign slot caches).
    pub cells_served: u64,
    /// One-line human summary for stderr.
    pub headline: String,
}

/// Runs the (filtered) evaluation and assembles `BENCH_eval.json`.
pub fn run_eval(eo: &EvalOptions) -> EvalSummary {
    let c = crate::campaign_with(eo.store.clone());
    let opts = &eo.opts;
    let f = &eo.filter;
    let t0 = Instant::now();

    let mut fig07_s = None;
    if f.section("fig07") {
        let t = Instant::now();
        emit(&figures::fig07(&c, opts));
        fig07_s = Some(memo_wall(&c, "fig07-wall", (opts, eo.quick), || {
            t.elapsed().as_secs_f64()
        }));
    }
    let mut fig11_s = None;
    if f.section("fig11") {
        let t = Instant::now();
        emit(&figures::fig11(&c, opts));
        fig11_s = Some(memo_wall(&c, "fig11-wall", (opts, eo.quick), || {
            t.elapsed().as_secs_f64()
        }));
    }
    if f.section("fig08") {
        emit(&figures::fig08(&c, opts));
    }
    if f.section("fig09") {
        emit(&figures::fig09(&c, opts));
    }
    if f.section("fig10") {
        emit(&figures::fig10(&c, opts));
    }
    if f.section("fig12") {
        emit(&figures::fig12(&c, opts));
    }
    if f.section("fig13") {
        emit(&figures::fig13(&c, opts));
    }
    if f.section("fig14") {
        emit(&figures::fig14(&c, opts));
    }
    if f.section("fig15") {
        emit(&figures::fig15(&c, opts));
    }
    if f.section("fig16") {
        let (fig16, overflow) = figures::fig16(&c, opts);
        emit(&fig16);
        emit_text("secVF5_overflow", &overflow);
    }
    if f.section("fig17") {
        emit(&figures::fig17(&c, opts));
    }
    if f.section("fig18") {
        emit(&figures::fig18(&c, opts));
    }
    if f.section("tab02") {
        emit(&figures::tab02(&c, opts));
    }
    if f.section("cam") {
        emit_text("secVG2_cam", &figures::tab_cam());
    }
    if f.section("regions") {
        emit_text("secVG3_regions", &figures::tab_region_stats(&c, opts));
    }
    if f.section("hwcost") {
        emit_text("secVG4_hwcost", &figures::tab_hw_cost());
    }
    if f.section("energy") {
        emit_text("secIIC1_energy", &figures::tab_jit_energy());
    }
    if f.section("ablations") {
        emit(&figures::ablations(&c, opts));
    }
    if f.section("mc_scaling") {
        emit(&figures::mc_scaling(&c, opts));
    }

    // Per-run benchmark records over the Fig. 7 matrix. With a store
    // attached each cell is served directly (bit-identical stats and
    // stored wall-clock); otherwise the campaign's slot caches are warm
    // from the figure passes, so these wall-clocks reflect the
    // simulate-only cost of each (workload, scheme) cell.
    let timed = f.section("runs").then(|| {
        let schemes = [Scheme::Capri, Scheme::Ppa, Scheme::LightWsp];
        let jobs: Vec<Job> = all_workloads()
            .iter()
            .filter(|w| f.workload(w.name))
            .flat_map(|w| schemes.iter().map(|&s| Job::new(opts, w, s)))
            .collect();
        c.run_many_timed(&jobs)
    });

    let wall_s = t0.elapsed().as_secs_f64();
    let total_s = memo_wall(&c, "total-wall", (opts, eo.quick, f.normalized()), || {
        wall_s
    });

    // Flush before rendering, so the "cache" line counts the batch
    // files this pass leaves.
    crate::flush_store(&c);
    // Assemble the document. Every value below is either memoized or
    // derived from memoized values, so a warm pass is byte-identical —
    // except the one-line "cache" field, which reports *this* pass.
    let mut w = JsonWriter::new();
    w.object("meta");
    w.field("threads", c.workers());
    w.field("quick", eo.quick);
    w.field_str("filter", &f.normalized());
    w.field("total_wall_s", format_args!("{total_s:.3}"));
    if let Some(v) = fig07_s {
        w.field("fig07_wall_s", format_args!("{v:.3}"));
    }
    if let Some(v) = fig11_s {
        w.field("fig11_wall_s", format_args!("{v:.3}"));
    }
    w.field("cache", cache_line(&c));
    w.close();
    if let Some(timed) = &timed {
        w.array("runs");
        for (r, wall_ms) in timed {
            w.elem(&format!(
                "{{\"workload\": \"{}\", \"scheme\": \"{}\", \"cycles\": {}, \
                 \"wall_ms\": {:.3}, \"threads\": {}}}",
                r.workload,
                r.scheme.name(),
                r.stats.cycles,
                wall_ms,
                r.threads,
            ));
        }
        w.close();
    }
    let json = w.finish();

    let stats = c.cache_stats();
    let (cells_simulated, cells_served) = match &stats.store {
        Some(s) => (s.misses, s.hits),
        None => (stats.simulated, stats.served),
    };
    let headline = format!(
        "all figures regenerated in {wall_s:.1}s ({} workers; {cells_simulated} cells simulated, \
         {cells_served} served)",
        c.workers(),
    );

    EvalSummary {
        json,
        wall_s,
        cells_simulated,
        cells_served,
        headline,
    }
}

/// Renders the per-pass cache statistics as a one-line JSON object —
/// the only part of `BENCH_eval.json` that differs between a cold and
/// a warm pass (mask with `grep -v '"cache":'` when comparing).
pub fn cache_line(c: &Campaign) -> String {
    let stats = c.cache_stats();
    let mut line = format!(
        "{{\"served\": {}, \"simulated\": {}",
        stats.served, stats.simulated
    );
    if let Some(s) = &stats.store {
        let _ = write!(
            line,
            ", \"store_hits\": {}, \"store_misses\": {}, \"store_puts\": {}, \
             \"resident_batches\": {}, \"resident_entries\": {}",
            s.hits, s.misses, s.puts, s.resident_batches, s.resident_entries,
        );
    }
    line.push('}');
    line
}

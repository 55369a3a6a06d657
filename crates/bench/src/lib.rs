//! # lightwsp-bench — the evaluation harness
//!
//! The bins regenerate the paper's artifacts and gate the simulator's
//! speed (see `DESIGN.md` §4 for the full index):
//!
//! | binary | artifact |
//! |---|---|
//! | `all_figures` | every figure and table of §V into `results/` plus `BENCH_eval.json`; `--filter` selects sections |
//! | `ablations` | DESIGN.md §5 ablations (LRPO, unrolling, pruning, combining) |
//! | `mc_scaling` | 1–4 memory-controller scaling study |
//! | `tab_jit_energy` | §II-C1 — JIT-checkpoint residual-energy feasibility |
//! | `recovery_check` | §IV-F — crash-consistency validation sweep |
//! | `crash_audit` | `RECOVERY.md` — seeded & derived crash-point audit, `BENCH_crash.json` |
//! | `model_litmus` | LRPO model litmus/fuzz differential sweep, `BENCH_model.json` |
//! | `ds_service` | `docs/DATASTRUCTURES.md` — recoverable-DS + KV/queue service crash audit, `BENCH_ds.json` |
//! | `perf_gate` | every fast path of [`lightwsp_sim::AXES`] timed against its reference, floors enforced |
//!
//! Every binary accepts `--quick` (reduced budget for smoke runs),
//! rejects any other argument (`all_figures` also takes `--filter=`),
//! and writes both stdout and `results/<id>.txt`.

use lightwsp_core::report::Figure;
use lightwsp_core::{parse_threads, Campaign, ExperimentOptions, ResultStore};
use lightwsp_workloads::all_workloads;
use std::fmt::Display;
use std::fs;
use std::path::PathBuf;

/// A bench bin's validated command line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cli {
    /// `--quick`: the reduced budget for smoke runs.
    pub quick: bool,
    /// The `--filter=` pattern list, in bins that select sections.
    pub filter: Option<String>,
}

impl Cli {
    /// Parses `args` (program name excluded); `--filter=` is accepted
    /// only when `filter` is true.
    ///
    /// # Errors
    ///
    /// Names the accepted flags when an argument is not one of them.
    pub fn parse(args: impl IntoIterator<Item = String>, filter: bool) -> Result<Cli, String> {
        let mut cli = Cli::default();
        for arg in args {
            if arg == "--quick" {
                cli.quick = true;
            } else if let Some(spec) = arg.strip_prefix("--filter=").filter(|_| filter) {
                cli.filter = Some(spec.to_string());
            } else {
                let accepted = if filter {
                    "--quick, --filter=<pattern,...>"
                } else {
                    "--quick"
                };
                return Err(format!("unknown argument {arg:?}; accepted: {accepted}"));
            }
        }
        Ok(cli)
    }

    /// The process's command line. Also validates `LIGHTWSP_THREADS`,
    /// so every bin rejects a bad worker count before doing any work.
    /// On a bad argument or value, prints it and exits with status 2.
    pub fn from_env(filter: bool) -> Cli {
        let cli = Cli::parse(std::env::args().skip(1), filter).unwrap_or_else(|e| exit_usage(&e));
        if let Err(e) = parse_threads(std::env::var("LIGHTWSP_THREADS").ok().as_deref()) {
            exit_usage(&e);
        }
        cli
    }

    /// The experiment options for the selected budget.
    pub fn options(&self) -> ExperimentOptions {
        if self.quick {
            ExperimentOptions::quick()
        } else {
            ExperimentOptions::paper_default()
        }
    }
}

/// Prints `error: {msg}` on stderr and exits with status 2.
pub fn exit_usage(msg: &dyn Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Opens the campaign result store named by the `LIGHTWSP_STORE`
/// environment variable (a directory path, created on demand), or
/// returns `None` when the variable is unset. An unopenable store is a
/// warning, not an error — every bin degrades to compute-everything.
pub fn store() -> Option<ResultStore> {
    let dir = std::env::var("LIGHTWSP_STORE").ok()?;
    if dir.is_empty() {
        return None;
    }
    match ResultStore::open(&dir) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("warning: could not open result store {dir}: {e}");
            None
        }
    }
}

/// The section ids of `all_figures`, in run order. `fig16` also writes
/// `secVF5_overflow`; `cam`, `regions` and `hwcost` write the §V-G
/// tables; `runs` is the per-run record array of `BENCH_eval.json`.
pub const SECTIONS: [&str; 17] = [
    "fig07", "fig11", "fig08", "fig09", "fig10", "fig12", "fig13", "fig14", "fig15", "fig16",
    "fig17", "fig18", "tab02", "cam", "regions", "hwcost", "runs",
];

/// Cell selection for `all_figures`: comma-separated patterns from
/// `--filter=<p,p,...>` (or the `LIGHTWSP_FILTER` environment variable;
/// the flag wins). A bare pattern selects every section of
/// [`SECTIONS`] whose id contains it; a `w:<pat>` pattern additionally
/// narrows the per-run benchmark matrix to workloads whose name
/// contains `<pat>`. No patterns → everything runs.
#[derive(Clone, Debug, Default)]
pub struct Filter {
    sections: Vec<String>,
    workloads: Vec<String>,
}

impl Filter {
    /// Parses a comma-separated pattern list.
    ///
    /// # Errors
    ///
    /// Names the accepted sections (or workloads, for a `w:` pattern)
    /// when a pattern matches none of them.
    pub fn parse(spec: &str) -> Result<Filter, String> {
        let mut f = Filter::default();
        for pat in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if let Some(w) = pat.strip_prefix("w:") {
                let names: Vec<&str> = all_workloads().iter().map(|w| w.name).collect();
                if !names.iter().any(|n| n.contains(w)) {
                    return Err(format!(
                        "filter pattern {pat:?} matches no workload; accepted: {}",
                        names.join(", ")
                    ));
                }
                f.workloads.push(w.to_string());
            } else {
                if !SECTIONS.iter().any(|s| s.contains(pat)) {
                    return Err(format!(
                        "filter pattern {pat:?} matches no section; accepted: {}, \
                         or w:<workload>",
                        SECTIONS.join(", ")
                    ));
                }
                f.sections.push(pat.to_string());
            }
        }
        Ok(f)
    }

    /// The filter named by `cli.filter` or, failing that,
    /// `LIGHTWSP_FILTER`.
    ///
    /// # Errors
    ///
    /// As [`Filter::parse`].
    pub fn from_cli(cli: &Cli) -> Result<Filter, String> {
        let spec = cli
            .filter
            .clone()
            .or_else(|| std::env::var("LIGHTWSP_FILTER").ok())
            .unwrap_or_default();
        Filter::parse(&spec)
    }

    /// True when section `id` (one of [`SECTIONS`]) should run.
    pub fn section(&self, id: &str) -> bool {
        debug_assert!(SECTIONS.contains(&id), "unlisted section {id}");
        self.sections.is_empty() || self.sections.iter().any(|p| id.contains(p.as_str()))
    }

    /// True when workload `name` belongs in the per-run matrix.
    pub fn workload(&self, name: &str) -> bool {
        self.workloads.is_empty() || self.workloads.iter().any(|p| name.contains(p.as_str()))
    }

    /// Canonical rendering (sorted, deduplicated) — the part of the
    /// memoization keys that must not depend on pattern order.
    pub fn normalized(&self) -> String {
        let mut sections = self.sections.clone();
        let mut workloads: Vec<String> = self.workloads.iter().map(|w| format!("w:{w}")).collect();
        sections.sort();
        sections.dedup();
        workloads.sort();
        workloads.dedup();
        sections.extend(workloads);
        sections.join(",")
    }
}

/// Creates the parallel [`Campaign`] runner the figure generators fan
/// out over (worker count: `LIGHTWSP_THREADS` or all cores). Exits
/// with status 2 on a bad `LIGHTWSP_THREADS`.
pub fn campaign() -> Campaign {
    Campaign::from_env().unwrap_or_else(|e| exit_usage(&e))
}

/// The `results/` output directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Prints a rendered figure and persists it under `results/<id>.txt`.
pub fn emit(figure: &Figure) {
    let text = figure.render();
    print!("{text}");
    let path = results_dir().join(format!("{}.txt", figure.id));
    if let Err(e) = fs::write(&path, &text) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Prints free-form table text and persists it under `results/<id>.txt`.
pub fn emit_text(id: &str, text: &str) {
    print!("{text}");
    let path = results_dir().join(format!("{id}.txt"));
    if let Err(e) = fs::write(&path, text) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}
pub mod evalrun;
pub mod figures;

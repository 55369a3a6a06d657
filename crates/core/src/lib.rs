//! # lightwsp-core — the public facade of the LightWSP reproduction
//!
//! Ties the compiler ([`lightwsp_compiler`]), the simulator
//! ([`lightwsp_sim`]) and the workload roster ([`lightwsp_workloads`])
//! into the experiment API the evaluation harness and downstream users
//! consume:
//!
//! * [`ExperimentOptions`] — the evaluation configuration (experiment-
//!   scaled cache hierarchy, instruction budget, every sensitivity
//!   knob);
//! * [`Campaign`] — the one path that compiles, configures and runs a
//!   workload cell ([`Job`]): it fans jobs out over worker threads,
//!   shares compilations between them and normalises against cached
//!   baseline runs;
//! * [`report`] — serialisable result tables with paper-style
//!   formatting;
//! * [`recovery`] — the public crash-consistency test API (golden run
//!   vs fail-and-recover run) and the recovery-contract auditor
//!   ([`recovery::audit_workload_crashes`]), which sweeps seeded and
//!   derived crash points and checks the named invariants of
//!   `RECOVERY.md` at each one;
//! * [`oracle`] — campaign-parallel driver for the executable LRPO
//!   persistency model ([`lightwsp_model`]): litmus sweeps, fuzz
//!   sweeps, and the gating-mutant kill matrix;
//! * [`cache`] — the result-store record codecs: with a store attached
//!   to the [`Campaign`], every run, audit and sweep above is served
//!   from it on a warm re-run.
//!
//! ```no_run
//! use lightwsp_core::{Campaign, ExperimentOptions, Job};
//! use lightwsp_sim::Scheme;
//! use lightwsp_workloads::workload;
//!
//! let lbm = workload("lbm").unwrap();
//! let job = Job::new(&ExperimentOptions::paper_default(), &lbm, Scheme::LightWsp);
//! let (slowdown, _) = Campaign::new().slowdown(&job);
//! println!("lbm LightWSP slowdown: {slowdown:.3}");
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod campaign;
pub mod dsaudit;
pub mod experiment;
pub mod oracle;
pub mod recovery;
pub mod report;

pub use cache::Record;
pub use campaign::{parse_threads, BadThreads, Campaign, CampaignCacheStats, Job};
pub use dsaudit::{audit_recoverable_ds, audit_recoverable_ds_with, DsAuditBudget, DsAuditReport};
pub use experiment::{ExperimentOptions, RunResult};
pub use lightwsp_compiler::{instrument, Compiled, CompilerConfig};
pub use lightwsp_model::harness::CaseOutcome;
pub use lightwsp_sim::{Completion, Machine, Scheme, SimConfig, SimStats};
pub use lightwsp_store::{
    code_digest, code_digest_from_env, digest_debug, digest_str, CacheStats, ResultStore, StoreKey,
};
pub use lightwsp_workloads::{Suite, WorkloadSpec};
pub use oracle::{
    fuzz_sweep, litmus_sweep, model_mutant_kill_matrix, mutant_kill_matrix, MutantKill, SweepReport,
};
pub use recovery::{audit_workload_crashes, check_workload_recovery, AuditBudget};
pub use report::JsonWriter;

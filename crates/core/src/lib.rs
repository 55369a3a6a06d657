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
//! * [`Experiment`] — runs workloads under schemes, normalises against
//!   cached baseline runs, and aggregates per-suite geomeans;
//! * [`report`] — serialisable result tables with paper-style
//!   formatting;
//! * [`recovery`] — the public crash-consistency test API (golden run
//!   vs fail-and-recover run) and the recovery-contract auditor
//!   ([`recovery::audit_workload_crashes`]), which sweeps seeded and
//!   derived crash points and checks the named invariants of
//!   `RECOVERY.md` at each one;
//! * [`oracle`] — campaign-parallel driver for the executable LRPO
//!   persistency model ([`lightwsp_model`]): litmus sweeps, fuzz
//!   sweeps, and the gating-mutant kill matrix.
//!
//! ```no_run
//! use lightwsp_core::{Experiment, ExperimentOptions};
//! use lightwsp_sim::Scheme;
//! use lightwsp_workloads::workload;
//!
//! let mut exp = Experiment::new(ExperimentOptions::paper_default());
//! let lbm = workload("lbm").unwrap();
//! let slowdown = exp.slowdown(&lbm, Scheme::LightWsp);
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

pub use cache::{
    memo_record, memo_value, CaseRecord, CrashCellRecord, DsCellRecord, MutantKillRecord,
    SweepRecord, TextRecord,
};
pub use campaign::{parse_threads, BadThreads, Campaign, CampaignCacheStats, Job};
pub use dsaudit::{
    audit_recoverable_ds, audit_recoverable_ds_cached, audit_recoverable_ds_with, DsAuditBudget,
    DsAuditReport,
};
pub use experiment::{Experiment, ExperimentOptions, RunResult};
pub use lightwsp_compiler::{instrument, Compiled, CompilerConfig};
pub use lightwsp_model::harness::CaseOutcome;
pub use lightwsp_sim::{Completion, Machine, Scheme, SimConfig, SimStats};
pub use lightwsp_store::{
    code_digest, code_digest_from_env, digest_debug, digest_str, CacheStats, ResultStore, StoreKey,
};
pub use lightwsp_workloads::{Suite, WorkloadSpec};
pub use oracle::{
    fuzz_sweep, fuzz_sweep_cached, litmus_sweep, litmus_sweep_cached, model_mutant_kill_matrix,
    mutant_kill_matrix, mutant_kill_matrix_cached, run_case_cached, MutantKill, SweepReport,
};
pub use recovery::{
    audit_workload_crashes, audit_workload_crashes_cached, check_workload_recovery, AuditBudget,
};
pub use report::JsonWriter;

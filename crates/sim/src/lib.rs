//! # lightwsp-sim — cycle-level multicore simulation of LightWSP and
//! its baselines
//!
//! This crate glues the compiler output ([`lightwsp_compiler`]) to the
//! memory-system substrate ([`lightwsp_mem`]) and executes whole
//! workloads under six persistence schemes (§V-A):
//!
//! | Scheme | Binary | Persist path | Ordering | DRAM cache |
//! |---|---|---|---|---|
//! | `Baseline` | original | — | — | yes |
//! | `LightWsp` | instrumented | 8 B | WPQ gating + LRPO | yes |
//! | `PspIdeal` | original | — (free persistence) | — | **no** |
//! | `Capri` | instrumented | 64 B (8× pressure) | stop-and-wait | yes |
//! | `Ppa` | original | 8 B | eager + boundary stall | yes |
//! | `Cwsp` | instrumented | 8 B | MC speculation (+undo delay) | yes |
//!
//! Beyond timing, the simulator is *functionally* precise for the gated
//! schemes: persistent memory receives exactly the WPQ-flushed values,
//! so [`Machine::inject_power_failure`] plus the §IV-F recovery protocol
//! can be validated end-to-end — [`consistency`] compares the final PM
//! state of fail-and-recover runs against failure-free golden runs,
//! which is the paper's central crash-consistency claim, and [`crash`]
//! audits the recovery contract itself: a [`crash::CrashInjector`] cuts
//! power at derived or seeded points, captures the persistent image, and
//! asserts the named invariants of `RECOVERY.md` against the resolution.

#![warn(missing_docs)]

pub mod config;
pub mod consistency;
pub mod crash;
pub mod machine;
pub mod stats;
pub mod trace;

pub use config::{Axis, ExecMode, GatingMutant, Scheme, SimConfig, StepMode, SweepMode, AXES};
pub use crash::{
    CrashAuditReport, CrashInjector, CrashPoint, CrashPointKind, CrashSweeper, InvariantViolation,
};
pub use machine::{Completion, CrashCapture, Machine, MachineSnapshot};
pub use stats::{SimStats, StallCause};

#[cfg(test)]
mod tests;

//! Crash-consistency oracle.
//!
//! LightWSP's central claim (§III-A) is that *no matter when power is
//! cut off, PM is never corrupted by the stores of the interrupted
//! region*, so resuming from the latest persisted boundary reproduces
//! the failure-free execution. This module validates the claim
//! end-to-end on the simulator:
//!
//! 1. run the instrumented workload to completion with no failure — at
//!    that point every region has committed, so the durable PM state
//!    must equal the architectural memory (the *drain* property);
//! 2. run it again, injecting power failures at the requested cycles
//!    and recovering via the §IV-F protocol;
//! 3. the final PM state of the fail-and-recover run must be
//!    byte-identical to the golden run's — excluding the checkpoint/PC
//!    slots, which are recovery metadata with timing-dependent contents
//!    (forced region closes dump the live register file wherever a
//!    timeout or spin retry happened to fire).
//!
//! Byte-identity is a meaningful oracle for single-threaded workloads
//! and for multi-threaded workloads whose cross-thread effects commute
//! (disjoint writes, commutative atomics, lock-protected commutative
//! updates) — which is what the workload generators produce.

use crate::config::SimConfig;
use crate::machine::{Completion, Machine};
use lightwsp_compiler::Compiled;
use lightwsp_ir::{layout, Memory};
use std::fmt;

/// A crash-consistency violation (or a run that failed to complete).
#[derive(Clone, Debug)]
pub struct ConsistencyError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConsistencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "crash-consistency violation: {}", self.message)
    }
}

impl std::error::Error for ConsistencyError {}

/// Outcome of a successful crash-consistency check.
#[derive(Clone, Debug)]
pub struct ConsistencyReport {
    /// Power failures injected.
    pub failures: u64,
    /// Cycles of the golden run.
    pub golden_cycles: u64,
    /// Cycles of the fail-and-recover run (including re-execution).
    pub recovery_cycles: u64,
    /// Words of PM compared.
    pub words_compared: usize,
}

/// Runs the failure-free golden execution and returns its final durable
/// memory.
///
/// # Errors
///
/// Fails if the run does not complete within the configured cycle cap,
/// or if the drain property (PM == architectural memory at completion)
/// is violated.
pub fn golden_run(
    compiled: &Compiled,
    cfg: &SimConfig,
    threads: usize,
) -> Result<(Memory, u64), ConsistencyError> {
    finish_golden(&mut Machine::new(
        compiled.program.clone(),
        compiled.recipes.clone(),
        cfg.clone(),
        threads,
    ))
}

/// [`golden_run`] on an already-built cycle-0 machine; also returns the
/// cycle count.
pub(crate) fn finish_golden(m: &mut Machine) -> Result<(Memory, u64), ConsistencyError> {
    if m.run() != Completion::Finished {
        return Err(ConsistencyError {
            message: format!("golden run hit the cycle cap at {}", m.now()),
        });
    }
    let pm = m.pm_contents();
    let vmem = m.volatile_contents();
    if let Some((addr, p, v)) = pm.first_difference(vmem) {
        return Err(ConsistencyError {
            message: format!(
                "drain property violated at {addr:#x}: PM={p:#x} arch={v:#x} \
                 (a committed store never reached PM or vice versa)"
            ),
        });
    }
    Ok((pm.clone(), m.now()))
}

/// Runs the workload with power failures at the given cycles, recovers
/// after each, and checks the final PM against the golden run.
///
/// # Errors
///
/// Returns a [`ConsistencyError`] naming the first differing word, or
/// describing an incomplete run.
pub fn check_crash_consistency(
    compiled: &Compiled,
    cfg: &SimConfig,
    threads: usize,
    failure_cycles: &[u64],
) -> Result<ConsistencyReport, ConsistencyError> {
    let (golden, golden_cycles) = golden_run(compiled, cfg, threads)?;

    let mut m = Machine::new(
        compiled.program.clone(),
        compiled.recipes.clone(),
        cfg.clone(),
        threads,
    );
    for &at in failure_cycles {
        if m.run_until(at) {
            break; // already finished before this failure point
        }
        m.inject_power_failure();
    }
    if m.run() != Completion::Finished {
        return Err(ConsistencyError {
            message: format!("recovery run hit the cycle cap at {}", m.now()),
        });
    }

    let pm = m.pm_contents();
    // Checkpoint/PC slots are recovery metadata, not program state:
    // forced region closes dump the live register file at whatever
    // point a timeout or spin retry fired, so their final contents are
    // timing-dependent and legitimately differ between the golden and
    // the fail-and-recover run.
    if let Some((addr, got, want)) =
        pm.first_difference_where(&golden, |a| !layout::is_checkpoint_addr(a))
    {
        return Err(ConsistencyError {
            message: format!(
                "PM diverges at {addr:#x} after {} failure(s): got {got:#x}, \
                 golden {want:#x}",
                m.stats().failures
            ),
        });
    }
    Ok(ConsistencyReport {
        failures: m.stats().failures,
        golden_cycles,
        recovery_cycles: m.now(),
        words_compared: golden.len(),
    })
}

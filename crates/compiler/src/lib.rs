//! # lightwsp-compiler — region partitioning for whole-system persistence
//!
//! The LightWSP compiler half of the co-design (§III-C, §IV-A of the
//! paper): it partitions a program into a series of *recoverable regions*
//! whose boundaries serve as power-failure recovery points, and
//! checkpoints each region's live-out registers into PM-resident storage.
//!
//! The pass pipeline mirrors Fig. 3 of the paper (all passes run post
//! register allocation, on the machine IR of [`lightwsp_ir`]):
//!
//! 1. **Region size extension** ([`unroll`]) — loops with known trip
//!    counts are unrolled, and loops with unknown trip counts are
//!    *speculatively* unrolled (body + exit test duplicated), within the
//!    store-count threshold, to avoid many tiny per-iteration regions.
//! 2. **Initial region boundary insertion** ([`boundaries`]) — boundaries
//!    at function entries/exits, call sites, store-containing loop
//!    headers, synchronisation instructions (§III-D), plus path-sensitive
//!    threshold splits so no region can ever exceed the store threshold.
//! 3. **Block splitting** — blocks are split after each boundary so
//!    regions always start at the beginning of a basic block, simplifying
//!    live-out computation (§IV-A "Checkpoint Store Insertion").
//! 4. **Checkpoint store insertion** ([`checkpoint`]) — liveness analysis
//!    finds registers whose values are live into some region boundary;
//!    each such value is checkpointed right after its last update point.
//! 5. **Region formation** ([`formation`]) — checkpoint stores themselves
//!    count against the threshold, creating the circular dependence the
//!    paper describes; the formation driver re-splits and re-checkpoints
//!    to a fixpoint, and merges adjacent undersized regions separated by
//!    removable (threshold) boundaries.
//! 6. **Checkpoint pruning** ([`prune`]) — checkpoints whose values the
//!    recovery runtime can reconstruct from other checkpointed values are
//!    removed and replaced by [`prune::Recipe`]s.
//!
//! The top-level entry point is [`instrument`]:
//!
//! ```
//! use lightwsp_compiler::{instrument, CompilerConfig};
//! use lightwsp_ir::builder::FuncBuilder;
//! use lightwsp_ir::{Program, Reg};
//!
//! let mut b = FuncBuilder::new("main");
//! b.mov_imm(Reg::R1, 7);
//! b.mov_imm(Reg::R2, 0x4000_0000);
//! b.store(Reg::R1, Reg::R2, 0);
//! b.halt();
//! let program = Program::from_single(b.finish());
//!
//! let compiled = instrument(&program, &CompilerConfig::default());
//! assert!(compiled.stats.boundaries_inserted > 0);
//! ```

#![warn(missing_docs)]

pub mod boundaries;
pub mod checkpoint;
pub mod formation;
pub mod prune;
pub mod regions;
pub mod stats;
pub mod unroll;
pub mod verify;

use lightwsp_ir::Program;
use prune::RecoveryRecipes;
use stats::CompileStats;

/// Configuration of the LightWSP compiler.
///
/// The defaults match the paper's default evaluation configuration: a
/// 64-entry WPQ with the in-region store threshold set to half the WPQ
/// size (§IV-A "Threshold Determination").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompilerConfig {
    /// Maximum store-like instructions allowed on any path through a
    /// region. Paper default: half the WPQ size, i.e. 32.
    pub store_threshold: u32,
    /// Enable the region-size-extension unrolling pass.
    pub unroll: bool,
    /// Maximum unroll factor (the paper reports ~3× longer regions).
    pub max_unroll_factor: u32,
    /// Enable checkpoint pruning.
    pub prune_checkpoints: bool,
}

impl Default for CompilerConfig {
    fn default() -> CompilerConfig {
        CompilerConfig {
            store_threshold: 32,
            unroll: true,
            max_unroll_factor: 6,
            prune_checkpoints: true,
        }
    }
}

impl CompilerConfig {
    /// A config with the given threshold and all optimisations enabled.
    pub fn with_threshold(store_threshold: u32) -> CompilerConfig {
        CompilerConfig {
            store_threshold,
            ..CompilerConfig::default()
        }
    }
}

/// The output of [`instrument`]: the instrumented program plus recovery
/// metadata and compile statistics.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The program with region boundaries and checkpoint stores inserted.
    pub program: Program,
    /// Reconstruction recipes for pruned checkpoints, consumed by the
    /// recovery runtime.
    pub recipes: RecoveryRecipes,
    /// Static compile statistics.
    pub stats: CompileStats,
}

/// Runs the full LightWSP pass pipeline over `program`.
///
/// The returned program upholds the central invariant that the simulator
/// relies on for failure atomicity (§III-C): **no path between two
/// consecutive region boundaries contains more than
/// `config.store_threshold` store-like instructions**, so a region's
/// stores can never overflow the WPQ. [`verify::check_store_threshold`]
/// re-checks the invariant and is used by the property-based tests.
/// The one exception mirrors §IV-D: when the threshold is smaller than a
/// region's mandatory live-out-checkpoint footprint, formation relaxes
/// (see [`stats::CompileStats::threshold_relaxations`]) and the
/// hardware's undo-logged overflow fallback covers the residue.
///
/// # Panics
///
/// Panics if `config.store_threshold < 4`: below that, a single call
/// (boundary + stack push + entry boundary) cannot fit in a region.
pub fn instrument(program: &Program, config: &CompilerConfig) -> Compiled {
    assert!(
        config.store_threshold >= 4,
        "store threshold too small to fit a call"
    );
    let mut program = program.clone();
    let mut stats = CompileStats::default();

    if config.unroll {
        for func in &mut program.funcs {
            unroll::extend_regions(func, config, &mut stats);
        }
    }

    for func in &mut program.funcs {
        boundaries::insert_initial_boundaries(func, config, &mut stats);
        boundaries::split_at_boundaries(func);
        formation::form_regions(func, config, &mut stats);
    }

    let mut recipes = RecoveryRecipes::default();
    if config.prune_checkpoints {
        for (fid, func) in program.funcs.iter_mut().enumerate() {
            prune::prune_checkpoints(
                lightwsp_ir::FuncId::from_index(fid),
                func,
                &mut recipes,
                &mut stats,
            );
        }
    }

    stats.finalize(&program);
    Compiled {
        program,
        recipes,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightwsp_ir::builder::FuncBuilder;
    use lightwsp_ir::{Program, Reg};

    #[test]
    fn default_config_matches_paper() {
        let c = CompilerConfig::default();
        assert_eq!(c.store_threshold, 32, "half of the 64-entry WPQ");
        assert!(c.unroll);
        assert!(c.prune_checkpoints);
    }

    #[test]
    #[should_panic(expected = "store threshold too small")]
    fn tiny_threshold_rejected() {
        let mut b = FuncBuilder::new("t");
        b.halt();
        let p = Program::from_single(b.finish());
        let _ = instrument(&p, &CompilerConfig::with_threshold(2));
    }

    #[test]
    fn instrument_upholds_threshold_invariant() {
        let mut b = FuncBuilder::new("many_stores");
        b.mov_imm(Reg::R1, 0x4000_0000);
        for i in 0..100 {
            b.store(Reg::R1, Reg::R1, i * 8);
        }
        b.halt();
        let p = Program::from_single(b.finish());
        let out = instrument(&p, &CompilerConfig::with_threshold(8));
        verify::check_store_threshold(&out.program, 8).unwrap();
        assert!(out.stats.boundaries_inserted >= 100 / 8);
    }
}

//! Simulation configuration: the persistence scheme under test plus the
//! core-side parameters of Table I.

use lightwsp_mem::cache::VictimPolicy;
use lightwsp_mem::controller::FlushMode;
use lightwsp_mem::MemConfig;

/// The persistence scheme being simulated (§V-A/V-B evaluates LightWSP
/// against all of these).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Intel Optane memory mode with the original binary: DRAM cache,
    /// **no** persistence or crash consistency. The normalisation
    /// baseline of every figure.
    Baseline,
    /// This paper: compiler regions + WPQ redo buffering + lazy
    /// region-level persist ordering.
    LightWsp,
    /// An idealised partial-system-persistence scheme (BBB-like):
    /// persistence is free, but DRAM cannot be used as a cache, so every
    /// L2 miss pays full PM latency (Fig. 9).
    PspIdeal,
    /// Capri (HPDC'22): separate persist path at 64-byte cacheline
    /// granularity (8× bandwidth pressure) and stop-and-wait region
    /// ordering across multiple MCs.
    Capri,
    /// PPA (MICRO'23): store-integrity hardware, eager in-region
    /// writeback, pipeline stall at each (PRF-bounded) region boundary
    /// until all stores persist.
    Ppa,
    /// cWSP (ISCA'24): idempotent regions + memory-controller
    /// speculation; no ordering stalls, but every PM write pays an
    /// undo-logging delay.
    Cwsp,
}

impl Scheme {
    /// Every scheme, in declaration order.
    pub const ALL: [Scheme; 6] = [
        Scheme::Baseline,
        Scheme::LightWsp,
        Scheme::PspIdeal,
        Scheme::Capri,
        Scheme::Ppa,
        Scheme::Cwsp,
    ];

    /// True if the scheme runs the LightWSP-compiler-instrumented binary
    /// (region boundaries + live-out checkpoints).
    pub fn is_instrumented(self) -> bool {
        matches!(self, Scheme::LightWsp | Scheme::Capri | Scheme::Cwsp)
    }

    /// True if stores are duplicated onto the persist path.
    pub fn uses_persist_path(self) -> bool {
        matches!(
            self,
            Scheme::LightWsp | Scheme::Capri | Scheme::Ppa | Scheme::Cwsp
        )
    }

    /// True if the DRAM cache sits in front of PM (all but ideal PSP).
    pub fn uses_dram_cache(self) -> bool {
        !matches!(self, Scheme::PspIdeal)
    }

    /// WPQ release discipline.
    pub fn flush_mode(self) -> FlushMode {
        match self {
            Scheme::Ppa | Scheme::Cwsp => FlushMode::Immediate,
            _ => FlushMode::Gated,
        }
    }

    /// Persist-path bandwidth units per store (Capri flushes whole
    /// 64-byte lines: 8× an 8-byte store).
    pub fn persist_weight(self) -> u64 {
        if self == Scheme::Capri {
            8
        } else {
            1
        }
    }

    /// True if the core must stall at a region boundary until the region
    /// commits (Capri's stop-and-wait).
    pub fn waits_at_boundary(self) -> bool {
        self == Scheme::Capri
    }

    /// Display name used by the evaluation harness.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "Baseline",
            Scheme::LightWsp => "LightWSP",
            Scheme::PspIdeal => "PSP-Ideal",
            Scheme::Capri => "Capri",
            Scheme::Ppa => "PPA",
            Scheme::Cwsp => "cWSP",
        }
    }
}

/// How [`crate::Machine`] advances simulated time.
///
/// Both modes execute the *same* per-cycle semantics and produce
/// bit-identical [`crate::SimStats`], PM contents, and crash-audit
/// resolutions; they differ only in how idle cycles are traversed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum StepMode {
    /// Event-driven skip-ahead (the default): each timed component
    /// exposes a `next_event(now)` horizon, the machine jumps straight
    /// to the earliest one, and the skipped interval's per-cycle
    /// accounting (stall counters, WPQ occupancy samples) is applied in
    /// closed form. Several times faster on stall-dominated workloads.
    #[default]
    SkipAhead,
    /// Tick every cycle, every phase on every core. Kept forever as the
    /// executable specification the skip-ahead mode is checked against
    /// (the `step` row of [`AXES`]).
    Reference,
}

impl StepMode {
    /// Display name used by the evaluation harness.
    pub fn name(self) -> &'static str {
        match self {
            StepMode::SkipAhead => "skip_ahead",
            StepMode::Reference => "reference",
        }
    }
}

/// How crash-sweep drivers (`crate::crash`, the model harness, the
/// bench bins) traverse a batch of crash points.
///
/// Both modes audit the *same* machine states and produce bit-identical
/// [`crate::crash::CrashAuditReport`]s, failure resolutions, and PM
/// images (the `sweep` row of [`AXES`]); they differ only in how
/// the pre-crash state at each point's cycle is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum SweepMode {
    /// Fork-point sweep (the default): sort the points by cycle, advance
    /// ONE mainline machine monotonically, read each point's capture
    /// off it, and fork a cheap COW snapshot only where a point resumes
    /// — `O(H + P·capture + R·(fork + resume))` for `P` points over
    /// horizon `H`, `R` of them resumed.
    #[default]
    Fork,
    /// Rebuild a fresh machine and re-simulate from cycle 0 for every
    /// point — `O(P·H)`. Kept forever as the executable specification
    /// the fork mode is differentially gated against, exactly like
    /// [`StepMode::Reference`] gates skip-ahead.
    Rerun,
}

/// Which functional execution engine drives [`crate::Machine`]'s cores.
///
/// Both engines execute the *same* per-instruction semantics and
/// produce bit-identical `DynEvent` streams, [`crate::SimStats`], PM
/// contents, and crash-audit resolutions (the `exec` row of
/// [`AXES`]); they differ only in dispatch cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// The pre-decoded micro-op engine (the default): each basic block
    /// is flattened at machine construction into a `Vec<MicroOp>`, one
    /// per instruction, with operands resolved and branch targets
    /// pre-linked as flat block indices; a tight inner loop batches
    /// ALU-class work between timed events.
    #[default]
    Decoded,
    /// Tree-walk one `Inst` at a time through the original interpreter.
    /// Kept forever as the executable specification the decoded engine
    /// is differentially gated against, exactly like
    /// [`StepMode::Reference`] gates skip-ahead.
    Reference,
}

impl ExecMode {
    /// Display name used by the evaluation harness.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Decoded => "decoded",
            ExecMode::Reference => "reference",
        }
    }
}

/// One fast path of the simulator and the executable specification it
/// is checked against. Results are bit-identical under either setting;
/// only the cost differs.
#[derive(Clone, Copy, Debug)]
pub struct Axis {
    /// Short name: `step`, `exec`, `mem` or `sweep`.
    pub name: &'static str,
    /// The default, fast implementation.
    pub fast: &'static str,
    /// The retained reference implementation.
    pub reference: &'static str,
}

/// Every fast-vs-reference axis. It has two consumers: the `perf_gate`
/// bin times each fast path against its reference, and the mode parity
/// harness (`tests/mode_parity.rs`) diffs every machine-level axis
/// over one scheme × config × workload matrix.
pub const AXES: [Axis; 4] = [
    Axis {
        name: "step",
        fast: "event-driven skip-ahead",
        reference: "per-cycle stepper (StepMode::Reference)",
    },
    Axis {
        name: "exec",
        fast: "pre-decoded micro-op engine",
        reference: "tree-walking interpreter (ExecMode::Reference)",
    },
    Axis {
        name: "mem",
        fast: "SoA SetAssocCache + residency-filter snoop",
        reference: "SetAssocCacheRef + linear snoop scan",
    },
    Axis {
        name: "sweep",
        fast: "fork-point sweep",
        reference: "rerun from cycle 0 (SweepMode::Rerun)",
    },
];

/// A deliberately broken §IV-F gating rule, **test-only**: the crash
/// auditor (`crate::crash`) must flag a run under any of these mutants,
/// proving its invariants have teeth. Never set one in a real
/// experiment — results under a mutant model a buggy controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GatingMutant {
    /// Power-failure resolution flushes *every* WPQ entry to PM,
    /// ignoring boundary ACKs — unpersisted-region stores corrupt PM.
    FlushUnacked,
    /// A region counts as survivable once its boundary reached *any*
    /// single MC; the contract requires all of them (otherwise one MC
    /// flushes a region another MC discards).
    AnyMcBoundary,
    /// A region counts as survivable once its boundary reached MC 0, as
    /// if the broadcast to one controller implied delivery to all —
    /// plausible in a design that piggybacks the ACK on the first
    /// fan-out hop. Under multi-MC skew the remaining controllers may
    /// not have the token yet, so their entries for the region are
    /// wrongly flushed or the region is resumed past.
    FirstMcBoundary,
}

/// Full simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Memory-system parameters (Table I).
    pub mem: MemConfig,
    /// Scheme under test.
    pub scheme: Scheme,
    /// Number of cores (Table I: 8; single-threaded workloads use 1).
    pub num_cores: usize,
    /// Retire width (Table I: 4).
    pub width: u32,
    /// L1 victim-selection policy for buffer snooping (Fig. 13).
    pub victim_policy: VictimPolicy,
    /// Divisor applied to load-miss stalls to approximate the
    /// memory-level parallelism of the 224-entry-ROB OoO core.
    pub miss_overlap_div: u64,
    /// Cycles after which an open region is force-ended so an idle or
    /// compute-only thread never blocks the global flush frontier (the
    /// hardware analogue of the paper's context-switch region-ID
    /// virtualisation, §IV-C).
    pub region_timeout: u64,
    /// Spin-lock retry backoff in cycles (each retry is a fresh
    /// synchronisation point, ending the spinner's open region).
    pub spin_retry_interval: u64,
    /// PPA: stores per hardware-delineated region (PRF-pressure bound).
    pub ppa_region_stores: u64,
    /// cWSP: extra PM-write channel occupancy for the undo-log copy.
    pub cwsp_extra_occupancy: u64,
    /// Preemption quantum: a core rotates to its next runnable thread
    /// at the first safe point (closed region) after this many cycles.
    pub timeslice: u64,
    /// Hard cycle cap (guards against simulation livelock).
    pub max_cycles: u64,
    /// Address ranges pre-filled into the DRAM cache at start, emulating
    /// the warm state the paper's 10-billion-instruction fast-forward
    /// leaves behind (§V-A).
    pub warm_dram: Vec<(u64, u64)>,
    /// Ablation: disable lazy region-level persist ordering and stall the
    /// core at every boundary until the region commits — the "naive use
    /// of sfence at each region boundary" the paper argues against
    /// (§III-B).
    pub disable_lrpo: bool,
    /// Number of region timelines to trace (0 disables tracing).
    pub trace_regions: usize,
    /// Test-only deliberate recovery bug (see [`GatingMutant`]); `None`
    /// in every real run.
    pub gating_mutant: Option<GatingMutant>,
    /// How the machine advances time (results are bit-identical either
    /// way; see [`StepMode`]).
    pub step_mode: StepMode,
    /// Which functional engine executes instructions (results are
    /// bit-identical either way; see [`ExecMode`]).
    pub exec_mode: ExecMode,
}

impl SimConfig {
    /// The paper's default single-socket configuration for `scheme`.
    pub fn new(scheme: Scheme) -> SimConfig {
        SimConfig {
            mem: MemConfig::table1(),
            scheme,
            num_cores: 1,
            width: 4,
            victim_policy: VictimPolicy::Full,
            miss_overlap_div: 2,
            region_timeout: 4000,
            spin_retry_interval: 16,
            ppa_region_stores: 12,
            cwsp_extra_occupancy: 2,
            timeslice: 2_000,
            max_cycles: 40_000_000,
            warm_dram: Vec::new(),
            disable_lrpo: false,
            trace_regions: 0,
            gating_mutant: None,
            step_mode: StepMode::default(),
            exec_mode: ExecMode::default(),
        }
    }

    /// Same configuration with `n` cores (multi-threaded workloads).
    pub fn with_cores(mut self, n: usize) -> SimConfig {
        assert!(n > 0, "need at least one core");
        self.num_cores = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_properties() {
        assert!(Scheme::LightWsp.is_instrumented());
        assert!(!Scheme::Ppa.is_instrumented(), "PPA is pure hardware");
        assert!(!Scheme::Baseline.uses_persist_path());
        assert!(!Scheme::PspIdeal.uses_dram_cache());
        assert_eq!(Scheme::Capri.persist_weight(), 8);
        assert_eq!(Scheme::LightWsp.persist_weight(), 1);
        assert!(Scheme::Capri.waits_at_boundary());
        assert!(!Scheme::LightWsp.waits_at_boundary(), "LRPO never waits");
        assert_eq!(Scheme::Cwsp.flush_mode(), FlushMode::Immediate);
        assert_eq!(Scheme::LightWsp.flush_mode(), FlushMode::Gated);
    }

    #[test]
    fn default_config() {
        let c = SimConfig::new(Scheme::LightWsp);
        assert_eq!(c.width, 4);
        assert_eq!(c.num_cores, 1);
        assert_eq!(c.mem.wpq_entries, 64);
    }
}

//! The whole-machine cycle-level simulator.
//!
//! One [`Machine`] owns the functional state (per-thread interpreters +
//! the volatile memory view) and the timing state (cores, caches, store
//! buffers, front-end buffers, persist paths, memory controllers, the
//! region-ordering tracker, and persistent memory). One 2 GHz cycle
//! runs three phases:
//!
//! 1. memory controllers flush WPQ entries onto PM channels and the
//!    tracker commits regions whose flush-ACKs completed;
//! 2. each core's persist stage moves its machinery: path head → WPQ
//!    (boundary tokens must enter *every* WPQ), front-end buffer → path
//!    (bandwidth gate), store buffer → L1 + front-end buffer;
//! 3. each core's retire stage retires up to `width` instructions from
//!    its active thread, stalling on load misses, full store buffers
//!    (the persist back-pressure chain), Capri/PPA boundary waits, or
//!    lock spins.
//!
//! Two liveness mechanisms keep the global flush frontier moving in
//! multi-threaded runs, both hardware analogues of §IV-C's region-ID
//! virtualisation: a spinning thread ends its open region at every
//! (backed-off) retry — each retry is a fresh synchronisation point —
//! and any region open longer than `region_timeout` cycles is
//! force-ended. A halting thread broadcasts its trailing region so the
//! frontier can drain past it.
//!
//! Time advances in one of two modes (`StepMode`): the per-cycle
//! reference stepper, which runs every phase on every core every
//! cycle, or the default event-driven skip-ahead. Skip-ahead keeps two
//! memoized horizons per core (when its persist stage and its retire
//! stage can next act), visits only the cores due in each phase, jumps
//! straight over cycles in which nothing is due, and charges the stall
//! cycles of unvisited cores in closed form. The two are bit-identical
//! in every reported statistic and in machine state at every observed
//! cycle (enforced by `tests/step_mode_parity.rs`).

use crate::config::{ExecMode, GatingMutant, Scheme, SimConfig, StepMode};
use crate::stats::{SimStats, StepCounters};
use crate::trace::RegionTraceLog;
use lightwsp_compiler::prune::RecoveryRecipes;
use lightwsp_ir::fxhash::FxHashMap;
use lightwsp_ir::reg::NUM_REGS;
use lightwsp_ir::{
    layout, DecodedProgram, DynEvent, Interp, Memory, Program, ProgramPoint, Reg, StoreKind,
};
use lightwsp_mem::cache::{DirectMappedCache, SetAssocCache, VictimPolicy};
use lightwsp_mem::controller::FlushMode;
use lightwsp_mem::front_buffer::FrontBuffer;
use lightwsp_mem::persist_path::{PersistEntry, PersistKind, PersistPath};
use lightwsp_mem::pm::PersistentMemory;
use lightwsp_mem::store_buffer::StoreBuffer;
use lightwsp_mem::wpq::WpqEntry;
use lightwsp_mem::{FailureResolution, MemController, RegionId, RegionTracker};

/// What the §IV-F recovery protocol did at a power failure.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Regions whose boundary had reached every WPQ — flushed on battery
    /// and treated as persisted (steps 1–5).
    pub survivable_regions: Vec<RegionId>,
    /// WPQ entries written to PM during recovery.
    pub entries_flushed: u64,
    /// WPQ entries discarded (unpersisted regions, step 6).
    pub entries_discarded: u64,
    /// Undo-log rollbacks applied (§IV-D overflow fallback).
    pub undo_rolled_back: u64,
    /// Recovery PC of each thread (decoded from its PM checkpoint slot).
    pub resume_points: Vec<lightwsp_ir::ProgramPoint>,
}

/// Everything the crash auditor needs to check the recovery contract
/// (`RECOVERY.md`) against one power failure: the tracker's view of the
/// machine at the instant of the cut, the PM image before battery
/// resolution ran, and each MC's entry-by-entry resolution.
#[derive(Clone, Debug)]
pub struct CrashCapture {
    /// Cycle at which power was cut.
    pub at_cycle: u64,
    /// Commit frontier (oldest uncommitted region) at the cut.
    pub commit_frontier: RegionId,
    /// Highest region ID allocated before the cut.
    pub last_allocated: RegionId,
    /// Ground-truth survivable regions per the §IV-F contract: the
    /// contiguous run from the commit frontier whose boundaries reached
    /// **every** WPQ. Always the tracker's honest answer, even when a
    /// [`GatingMutant`] corrupted what the resolution actually used.
    pub survivable: Vec<RegionId>,
    /// The survivable set the resolution actually used (differs from
    /// [`CrashCapture::survivable`] only under a test-only mutant).
    pub used_survivable: Vec<RegionId>,
    /// Durable PM image at the instant of the cut, before the
    /// battery-backed WPQ resolution wrote anything.
    pub pm_before: Memory,
    /// Each MC's entry-by-entry failure resolution, in MC order.
    pub per_mc: Vec<FailureResolution>,
    /// The step-by-step recovery summary (counts + resume points).
    pub report: RecoveryReport,
}

/// Why a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completion {
    /// All threads halted and the persist machinery drained.
    Finished,
    /// The configured cycle cap was reached first.
    MaxCycles,
}

/// Why [`Machine::advance`] stopped — the single termination path shared
/// by [`Machine::run`] and [`Machine::run_until`] in both step modes.
enum Stop {
    /// All threads halted and the persist machinery drained.
    Finished,
    /// `cfg.max_cycles` reached.
    MaxCycles,
    /// The caller's target cycle reached.
    Target,
}

/// Per-thread software state.
#[derive(Clone, Debug)]
struct ThreadCtx {
    interp: Interp,
    /// The open region its stores are tagged with (§IV-B). `None`
    /// between a boundary and the next tagged store: the region ID is
    /// sampled *lazily* at the first store that needs it, so a thread
    /// scheduled out at a boundary never holds an ID that would block
    /// the global flush frontier (the model's realisation of §IV-C's
    /// region-ID virtualisation).
    cur_region: Option<RegionId>,
    region_open_since: u64,
    region_insts: u64,
    region_stores: u64,
    spin_until: u64,
    halted: bool,
}

/// Per-core hardware state.
#[derive(Clone, Debug)]
struct CoreCtx {
    sb: StoreBuffer,
    feb: FrontBuffer,
    path: PersistPath,
    l1: SetAssocCache,
    stall_until: u64,
    /// Capri stop-and-wait: stall until this region commits.
    wait_for_commit: Option<RegionId>,
    /// PPA: stall until every outstanding persist of this core drains.
    wait_outstanding: bool,
    /// Persist entries issued by this core not yet flushed to PM.
    outstanding: u64,
    /// Thread ids assigned to this core (round-robin multiplexed).
    threads: Vec<usize>,
    active: usize,
    /// Cycle of the last thread switch (preemption quantum).
    last_switch: u64,
    /// Boundary-token fan-out progress (which MCs accepted the head).
    bdry_progress: Vec<bool>,
    // Skip-ahead bookkeeping ([`Machine::advance`]); the per-cycle
    // stepper visits every core every cycle and never reads it.
    /// First cycle at which the persist stage can move something
    /// ([`Machine::persist_horizon`]).
    persist_due: u64,
    /// First cycle at which the retire stage must run
    /// ([`Machine::retire_horizon`]).
    retire_due: u64,
    /// What the retire stage is charged per cycle before `retire_due`.
    idle: Idle,
    /// Last cycle whose retire stage was run or charged.
    charged_through: u64,
}

impl CoreCtx {
    /// No store of this core waits in its store buffer, front-end
    /// buffer or persist path.
    fn queues_empty(&self) -> bool {
        self.sb.is_empty() && self.feb.is_empty() && self.path.is_empty()
    }
}

/// What the reference stepper charges a core's retire stage on each
/// cycle before it can next act, in `retire_core`'s branch order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Idle {
    /// Nothing: every thread is spinning or halted, or the core has no
    /// threads.
    Free,
    /// `stall_load_miss`: a load miss is outstanding.
    LoadMiss,
    /// `stall_boundary_wait`: a Capri or no-LRPO commit wait, or a PPA
    /// drain wait.
    BoundaryWait,
    /// `stall_sb_full`: the core's single runnable thread is blocked
    /// by a full store buffer.
    SbFull,
}

/// A horizon that no event reaches.
const NEVER: u64 = u64::MAX;

/// The simulated machine.
///
/// `Clone` is a full, independent snapshot of the machine state —
/// caches, buffers, persist path, controllers, tracker, PM, volatile
/// memory, per-thread interpreters, and stats. It is deliberately
/// cheap: the program and recovery recipes stay `Arc`-shared, and both
/// memories ([`Memory`]) are copy-on-write paged, so cloning costs
/// O(components + pages-table), not O(memory footprint). The crash-sweep
/// engine ([`crate::crash::CrashSweeper`]) leans on this to fork a
/// machine at each resumed crash point instead of re-simulating from
/// cycle 0.
#[derive(Clone)]
pub struct Machine {
    cfg: SimConfig,
    program: std::sync::Arc<Program>,
    /// Pre-decoded micro-op image of `program`
    /// ([`ExecMode::Decoded`] only). `Arc`-shared: crash-sweep forks
    /// and clones reuse the same decode, never re-decoding.
    decoded: Option<std::sync::Arc<DecodedProgram>>,
    recipes: std::sync::Arc<RecoveryRecipes>,
    threads: Vec<ThreadCtx>,
    cores: Vec<CoreCtx>,
    l2: SetAssocCache,
    dram: DirectMappedCache,
    mcs: Vec<MemController>,
    tracker: RegionTracker,
    pm: PersistentMemory,
    vmem: Memory,
    now: u64,
    stats: SimStats,
    region_broadcast_at: FxHashMap<RegionId, u64>,
    flushed_scratch: Vec<WpqEntry>,
    /// Region-lifetime trace (enabled via `SimConfig::trace_regions`).
    trace: RegionTraceLog,
    /// Output port log: `(cycle, thread, value)` per executed I/O op.
    /// Survives power failure conceptually as the external world's view;
    /// §IV-A's boundary-before-I/O placement bounds replay to at most
    /// the interrupted operation.
    io_log: Vec<(u64, usize, u64)>,
    /// Shared-resource contention: next-free cycle of the L2 port, the
    /// DRAM-cache bus, and the PM read channels.
    l2_free: u64,
    dram_free: u64,
    pm_read_free: u64,
    counters: StepCounters,
}

impl Machine {
    /// Builds a machine running `num_threads` copies of `program`'s
    /// entry function (thread id in `r0` differentiates them).
    ///
    /// Accepts the program and recipes either by value or as
    /// pre-shared `Arc`s — the parallel campaign runner compiles each
    /// workload once and hands the same `Arc` to every scheme's
    /// machine, so construction never deep-copies a program.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is zero.
    pub fn new(
        program: impl Into<std::sync::Arc<Program>>,
        recipes: impl Into<std::sync::Arc<RecoveryRecipes>>,
        cfg: SimConfig,
        num_threads: usize,
    ) -> Machine {
        let program: std::sync::Arc<Program> = program.into();
        let recipes: std::sync::Arc<RecoveryRecipes> = recipes.into();
        assert!(num_threads > 0, "need at least one thread");
        let decoded = match cfg.exec_mode {
            ExecMode::Decoded => Some(std::sync::Arc::new(DecodedProgram::decode(&program))),
            ExecMode::Reference => None,
        };
        let mem = &cfg.mem;
        let mut vmem = Memory::new();
        let mut pm_img = Memory::new();

        // Install-time image: every thread's initial register file and
        // recovery PC are checkpointed so a failure before the first
        // boundary recovers to the program start.
        let mut threads = Vec::with_capacity(num_threads);
        for tid in 0..num_threads {
            let interp = Interp::new(&program, tid);
            for r in Reg::all() {
                let v = interp.reg(r);
                pm_img.write_word(layout::checkpoint_slot(tid, r), v);
                vmem.write_word(layout::checkpoint_slot(tid, r), v);
            }
            let pc = interp.point().encode();
            pm_img.write_word(layout::pc_slot(tid), pc);
            vmem.write_word(layout::pc_slot(tid), pc);
            threads.push(ThreadCtx {
                interp,
                cur_region: None,
                region_open_since: 0,
                region_insts: 0,
                region_stores: 0,
                spin_until: 0,
                halted: false,
            });
        }

        let mut cores: Vec<CoreCtx> = (0..cfg.num_cores)
            .map(|_| CoreCtx {
                sb: StoreBuffer::new(mem.store_buffer_entries),
                feb: FrontBuffer::new(mem.front_buffer_entries, mem.line_bytes),
                path: PersistPath::new(
                    mem.persist_path_latency,
                    mem.persist_path_cycles_per_entry,
                    mem.line_bytes,
                ),
                l1: SetAssocCache::new(mem.l1_sets(), mem.l1_ways, mem.line_bytes),
                stall_until: 0,
                wait_for_commit: None,
                wait_outstanding: false,
                outstanding: 0,
                threads: Vec::new(),
                active: 0,
                last_switch: 0,
                bdry_progress: vec![false; mem.num_mcs],
                persist_due: 0,
                retire_due: 0,
                idle: Idle::Free,
                charged_through: 0,
            })
            .collect();
        for tid in 0..num_threads {
            cores[tid % cfg.num_cores].threads.push(tid);
        }

        let tracker = RegionTracker::new(mem.num_mcs, mem.noc_latency);

        let mut mcs: Vec<MemController> = (0..mem.num_mcs)
            .map(|i| MemController::new(i, mem))
            .collect();
        for mc in &mut mcs {
            mc.set_mode(cfg.scheme.flush_mode());
            if cfg.scheme == Scheme::Cwsp {
                mc.set_extra_write_occupancy(cfg.cwsp_extra_occupancy);
            }
        }

        let mut dram = DirectMappedCache::new(mem.dram_cache_bytes, mem.line_bytes);
        for &(start, end) in &cfg.warm_dram {
            dram.prefill_range(start, end);
        }
        let mut m = Machine {
            l2: SetAssocCache::new(mem.l2_sets(), mem.l2_ways, mem.line_bytes),
            dram,
            mcs,
            tracker,
            pm: PersistentMemory::with_image(pm_img),
            vmem,
            now: 0,
            stats: SimStats::default(),
            region_broadcast_at: FxHashMap::default(),
            flushed_scratch: Vec::new(),
            trace: RegionTraceLog::new(cfg.trace_regions),
            io_log: Vec::new(),
            l2_free: 0,
            dram_free: 0,
            pm_read_free: 0,
            counters: StepCounters::default(),
            threads,
            cores,
            program,
            decoded,
            recipes,
            cfg,
        };
        m.arm_all();
        m
    }

    /// Forks an independent machine at the current state. The fork and
    /// the original share untouched memory pages (copy-on-write) and
    /// the immutable program/recipes; every mutable component is
    /// duplicated, so the two diverge freely from here on.
    pub fn fork(&self) -> Machine {
        self.clone()
    }

    /// The current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Accumulated statistics (cache/queue counters are folded in when a
    /// run completes).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The time advance's work counters so far (see [`StepCounters`]).
    pub fn step_counters(&self) -> StepCounters {
        self.counters
    }

    /// The durable PM contents.
    pub fn pm_contents(&self) -> &Memory {
        self.pm.contents()
    }

    /// The volatile (architectural) memory view.
    pub fn volatile_contents(&self) -> &Memory {
        &self.vmem
    }

    /// The external I/O port log (`(cycle, thread, value)` per emitted
    /// operation, including any §IV-A replays after power failure).
    pub fn io_log(&self) -> &[(u64, usize, u64)] {
        &self.io_log
    }

    /// The region-lifetime trace (empty unless `SimConfig::trace_regions`
    /// is set).
    pub fn region_trace(&self) -> &RegionTraceLog {
        &self.trace
    }

    /// Per-MC WPQ occupancy diagnostics: `(mean, max, inserts)`.
    pub fn wpq_occupancy(&self) -> Vec<(f64, usize, u64)> {
        self.mcs
            .iter()
            .map(|mc| {
                let (inserts, _, _, max) = mc.wpq().stats();
                (mc.wpq().mean_occupancy(), max, inserts)
            })
            .collect()
    }

    /// True once every thread has halted.
    pub fn all_halted(&self) -> bool {
        self.threads.iter().all(|t| t.halted)
    }

    /// Per-thread `(halted, current program point)` snapshot — the
    /// debugging handle for stalled runs (which thread is spinning,
    /// and in which block).
    pub fn thread_points(&self) -> Vec<(bool, lightwsp_ir::ProgramPoint)> {
        self.threads
            .iter()
            .map(|t| (t.halted, t.interp.point()))
            .collect()
    }

    /// Runs until completion (threads halted + persist machinery
    /// drained) or the cycle cap.
    pub fn run(&mut self) -> Completion {
        match self.advance(None) {
            Stop::Finished => Completion::Finished,
            Stop::MaxCycles | Stop::Target => Completion::MaxCycles,
        }
    }

    /// Runs until cycle `target` (or completion, or the `max_cycles`
    /// cap, whichever comes first); returns true if the workload
    /// completed. Lands on exactly cycle `target` when neither
    /// completion nor the cap intervenes — the crash injector relies on
    /// this to cut power at precisely the requested cycle in either
    /// step mode.
    pub fn run_until(&mut self, target: u64) -> bool {
        matches!(self.advance(Some(target)), Stop::Finished)
    }

    /// Replaces the hard cycle cap. The crash auditor uses this to grant
    /// a resumed machine a fresh post-crash budget: `run_until(c)` can
    /// legitimately stop at `c == max_cycles`, and resuming under the
    /// original cap would report a spurious cap hit after zero cycles of
    /// recovered execution.
    pub fn set_max_cycles(&mut self, cap: u64) {
        self.cfg.max_cycles = cap;
    }

    /// The single run loop behind [`Machine::run`] and
    /// [`Machine::run_until`]: checks the caller's target, then
    /// completion, then the `max_cycles` cap, and otherwise advances —
    /// cycle by cycle under [`StepMode::Reference`], or under
    /// [`StepMode::SkipAhead`] by stepping only the cores due in each
    /// phase and jumping over provably-idle intervals. The skip
    /// destination is clamped to both the target and the cap so the
    /// machine lands on those cycles exactly, never beyond. Skip-ahead
    /// charges every core's pending stall cycles before returning, so
    /// [`Machine::stats`] is exact at every cycle a caller can observe.
    fn advance(&mut self, target: Option<u64>) -> Stop {
        let skip_ahead = self.cfg.step_mode == StepMode::SkipAhead;
        let stop = loop {
            if let Some(t) = target {
                if self.now >= t {
                    break Stop::Target;
                }
            }
            if self.all_halted() && self.drained() {
                break Stop::Finished;
            }
            if self.now >= self.cfg.max_cycles {
                break Stop::MaxCycles;
            }
            if !skip_ahead {
                self.step_cycle();
                continue;
            }
            if cfg!(debug_assertions) {
                self.check_horizons();
            }
            // Cycles strictly before the earlier of the machinery and
            // retire horizons are idle on both sides: jump in closed
            // form to one short of it, so the pre-incrementing step
            // below executes it, clamped to the target/cap (the
            // reference loop also stops only once `now` reaches them).
            // Skipped cycles change no state, so the machine cannot
            // finish during the jump and the pre-skip horizons still
            // classify the landing cycle.
            let mach = self.machinery_horizon();
            let ret = self
                .cores
                .iter()
                .map(|c| c.retire_due)
                .min()
                .unwrap_or(NEVER);
            if ret > self.now + 1 {
                let limit = target.map_or(self.cfg.max_cycles, |t| t.min(self.cfg.max_cycles));
                let dest = mach.min(ret).saturating_sub(1).min(limit);
                if dest > self.now {
                    self.skip_idle_cycles(dest - self.now);
                    if dest == limit {
                        continue;
                    }
                }
            }
            // Step the next cycle. A machinery event due then takes the
            // full step, preserving the machinery-before-retire order;
            // otherwise the MC/tracker/persist phases are provable
            // no-ops.
            self.step_due(mach <= self.now + 1);
        };
        if skip_ahead {
            for ci in 0..self.cores.len() {
                self.charge_idle(ci, self.now);
            }
        }
        if !matches!(stop, Stop::Target) {
            self.finish_stats();
        }
        stop
    }

    /// The earliest cycle at which the persist machinery (store
    /// buffers, front-end buffers, persist paths, region tracker, and
    /// memory controllers) can change state; a cycle `<= now + 1`
    /// means it moves next cycle (active cycles must be stepped for
    /// real: WPQ insert retries have side effects). The per-core part
    /// is the minimum of the memoized [`Machine::persist_horizon`]s,
    /// which is all there is under a regular-path scheme. On every
    /// cycle strictly before the returned one, the MC, tracker and
    /// persist phases are no-ops apart from the WPQ occupancy sample —
    /// what lets the skip-ahead loop jump idle cycles
    /// ([`Machine::skip_idle_cycles`]) and retire instructions without
    /// ticking the machinery ([`Machine::step_due`]).
    fn machinery_horizon(&mut self) -> u64 {
        let mut next = self
            .cores
            .iter()
            .map(|c| c.persist_due)
            .min()
            .unwrap_or(NEVER);
        if self.cfg.scheme.uses_persist_path() && next > self.now + 1 {
            if let Some(t) = self.tracker.next_event() {
                next = next.min(t);
            }
            let tracker = &self.tracker;
            for mc in &mut self.mcs {
                if let Some(t) = mc.next_event(tracker) {
                    next = next.min(t);
                }
            }
        }
        next
    }

    /// The first cycle at or after `from` at which core `ci`'s persist
    /// stage ([`Machine::persist_core`]) can move something: the path
    /// head's arrival (an arrived head that a WPQ refused is retried
    /// every cycle — `try_insert` arms the §IV-D deadlock timer on each
    /// rejection), FEB → path once the bandwidth gate admits (a full
    /// transit window frees only when the head pops, which the arrival
    /// covers), and SB → L1 + FEB whenever the FEB has room; under a
    /// regular-path scheme, the one-store-per-cycle store-buffer drain.
    /// Only the core's own queues feed it, so it changes only in its
    /// persist stage, in its retire stage (a store-buffer push), and at
    /// a power failure.
    fn persist_horizon(&self, ci: usize, from: u64) -> u64 {
        let c = &self.cores[ci];
        if !self.cfg.scheme.uses_persist_path() {
            return if c.sb.is_empty() { NEVER } else { from };
        }
        if !c.sb.is_empty() && c.feb.has_room() {
            return from;
        }
        let mut next = c.path.next_event(from).unwrap_or(NEVER);
        if !c.feb.is_empty() {
            if let Some(t) = c.path.issue_ready_at() {
                next = next.min(t);
            }
        }
        next.max(from)
    }

    /// When core `ci`'s retire stage next acts at or after cycle
    /// `from`, and what it is charged on each cycle before then:
    /// `retire_core`'s branch order, evaluated once. A load miss lasts
    /// until `stall_until`; a boundary wait until an MC phase moves the
    /// flush frontier past the region or drains the core's stores; a
    /// single-thread core's full store buffer until its persist stage
    /// pops it (there is no thread-rotation decision to take:
    /// `pick_thread` is side-effect-free for one thread); parked
    /// threads until the earliest spin wake. A core with a runnable
    /// thread and store-buffer room, or with several threads, acts
    /// every cycle.
    fn retire_horizon(&self, ci: usize, from: u64) -> (u64, Idle) {
        let c = &self.cores[ci];
        if c.threads.is_empty() {
            return (NEVER, Idle::Free);
        }
        if c.stall_until > from {
            return (c.stall_until, Idle::LoadMiss);
        }
        let commit_wait = c
            .wait_for_commit
            .is_some_and(|r| self.tracker.flush_frontier() <= r);
        let drain_wait = c.wait_outstanding && !(c.outstanding == 0 && c.queues_empty());
        if commit_wait || drain_wait {
            return (NEVER, Idle::BoundaryWait);
        }
        let drain_limited = c.threads.len() == 1 && !c.sb.has_room();
        let mut due = NEVER;
        for &tid in &c.threads {
            let th = &self.threads[tid];
            if th.halted {
                continue;
            }
            if th.spin_until > from {
                due = due.min(th.spin_until);
                continue;
            }
            return if drain_limited {
                (NEVER, Idle::SbFull)
            } else {
                (from, Idle::Free)
            };
        }
        (due, Idle::Free)
    }

    /// Debug builds, at the top of each skip-ahead iteration: every
    /// memoized horizon still holds — the persist horizon exactly, the
    /// retire horizon no later than a fresh one, and the idle class
    /// equal to a fresh one wherever the core is not due next cycle.
    fn check_horizons(&self) {
        let (now, from) = (self.now, self.now + 1);
        for (ci, c) in self.cores.iter().enumerate() {
            assert_eq!(
                c.persist_due,
                self.persist_horizon(ci, from),
                "stale persist horizon: core {ci} @{now}"
            );
            let (due, idle) = self.retire_horizon(ci, from);
            assert!(c.retire_due <= due, "late retire horizon: core {ci} @{now}");
            assert!(
                c.retire_due <= from || c.idle == idle,
                "stale idle class: core {ci} @{now}"
            );
        }
    }

    /// Jumps `cycles` provably-idle cycles forward. Outside the retire
    /// stage, an idle cycle's one effect in the reference stepper is
    /// every MC's WPQ occupancy sample (persist-path schemes tick MCs
    /// unconditionally), applied here in closed form; each core's stall
    /// cycles accrue lazily ([`Machine::charge_idle`]). Queue contents,
    /// protocol state, and contention clocks cannot change on an idle
    /// cycle, so this is bit-identical to stepping.
    fn skip_idle_cycles(&mut self, cycles: u64) {
        debug_assert!(cycles > 0);
        if self.cfg.scheme.uses_persist_path() {
            for mc in &mut self.mcs {
                mc.wpq_mut().sample_occupancy_n(cycles);
            }
        }
        self.now += cycles;
        self.counters.skips += 1;
        self.counters.skipped_cycles += cycles;
    }

    /// Charges core `ci`'s idle class for every cycle after the last
    /// one run or charged, through `through`: the reference stepper's
    /// one stall cycle per cycle for a core that cannot act, in closed
    /// form. Runs before each retire visit, and for every core before
    /// [`Machine::advance`] returns.
    fn charge_idle(&mut self, ci: usize, through: u64) {
        let c = &mut self.cores[ci];
        let n = through - c.charged_through;
        c.charged_through = through;
        match c.idle {
            Idle::Free => {}
            Idle::LoadMiss => self.stats.stall_load_miss += n,
            Idle::BoundaryWait => self.stats.stall_boundary_wait += n,
            Idle::SbFull => self.stats.stall_sb_full += n,
        }
    }

    /// Arms every core's horizons from the next cycle, its stall cycles
    /// charged through now: at construction, and after a power failure,
    /// which resets every core at once.
    fn arm_all(&mut self) {
        let (now, from) = (self.now, self.now + 1);
        for ci in 0..self.cores.len() {
            let persist_due = self.persist_horizon(ci, from);
            let (retire_due, idle) = self.retire_horizon(ci, from);
            let c = &mut self.cores[ci];
            c.persist_due = persist_due;
            (c.retire_due, c.idle, c.charged_through) = (retire_due, idle, now);
        }
    }
    fn finish_stats(&mut self) {
        self.stats.cycles = self.now;
        let (l2h, l2m) = self.l2.hit_miss();
        self.stats.l2_hits = l2h;
        self.stats.l2_misses = l2m;
        let (dh, dm) = self.dram.hit_miss();
        self.stats.dram_hits = dh;
        self.stats.dram_misses = dm;
        self.stats.l1_hits = 0;
        self.stats.l1_misses = 0;
        self.stats.snoops = 0;
        self.stats.snoop_conflicts = 0;
        self.stats.hol_blocked_cycles = 0;
        for c in &self.cores {
            let (h, m) = c.l1.hit_miss();
            self.stats.l1_hits += h;
            self.stats.l1_misses += m;
            let (s, cf) = c.l1.snoop_stats();
            self.stats.snoops += s;
            self.stats.snoop_conflicts += cf;
            self.stats.hol_blocked_cycles += c.path.stats().1;
        }
        self.stats.wpq_overflows = 0;
        let mut occ_sum = 0.0;
        self.stats.wpq_max_occupancy = 0;
        for mc in &self.mcs {
            self.stats.wpq_overflows += mc.stats().1;
            occ_sum += mc.wpq().mean_occupancy();
            self.stats.wpq_max_occupancy = self.stats.wpq_max_occupancy.max(mc.wpq().stats().3);
        }
        self.stats.wpq_mean_occupancy = occ_sum / self.mcs.len().max(1) as f64;
        self.stats.io_ops = self.io_log.len() as u64;
    }

    /// True when no store is anywhere in the persist machinery.
    pub fn drained(&self) -> bool {
        if !self.cores.iter().all(CoreCtx::queues_empty) {
            return false;
        }
        if !self.cfg.scheme.uses_persist_path() {
            return true;
        }
        let wpqs_empty = self.mcs.iter().all(|mc| mc.wpq().is_empty());
        if self.cfg.scheme.flush_mode() == FlushMode::Gated {
            wpqs_empty && self.tracker.commit_frontier() > self.tracker.last_allocated()
        } else {
            wpqs_empty
        }
    }

    /// Advances one cycle under [`StepMode::Reference`]: every phase on
    /// every core.
    fn step_cycle(&mut self) {
        self.now += 1;
        let now = self.now;
        self.counters.full_steps += 1;
        if self.cfg.scheme.uses_persist_path() {
            self.mc_phase(now);
        }
        for ci in 0..self.cores.len() {
            self.persist_core(ci, now);
        }
        for ci in 0..self.cores.len() {
            self.retire_core(ci, now);
        }
    }

    /// Advances one cycle under [`StepMode::SkipAhead`], visiting only
    /// the cores due in each phase, in core-index order (WPQ
    /// arbitration between cores depends on it); a core that is not
    /// due would do nothing there but accrue its idle class. `full`
    /// runs the MC and persist phases before retire; otherwise
    /// [`Machine::machinery_horizon`] has proved them no-ops and only
    /// their one per-cycle effect, the WPQ occupancy sample, is applied.
    ///
    /// Horizons are re-armed exactly where their inputs change: a
    /// boundary wait after an MC phase that moved the flush frontier or
    /// flushed an entry; a persist horizon after the core's persist
    /// stage or a store-buffer push; a retire horizon after the core's
    /// retire stage, or after its persist stage freed the full store
    /// buffer or drained the stores it waits on.
    fn step_due(&mut self, full: bool) {
        self.now += 1;
        let now = self.now;
        let persist = self.cfg.scheme.uses_persist_path();
        if full {
            self.counters.full_steps += 1;
            if persist && self.mc_phase(now) {
                for ci in 0..self.cores.len() {
                    if self.cores[ci].idle == Idle::BoundaryWait {
                        self.wake_retire(ci, now);
                    }
                }
            }
            for ci in 0..self.cores.len() {
                if self.cores[ci].persist_due > now {
                    continue;
                }
                let popped = self.persist_core(ci, now);
                self.cores[ci].persist_due = self.persist_horizon(ci, now + 1);
                match self.cores[ci].idle {
                    Idle::SbFull if popped => self.cores[ci].retire_due = now,
                    Idle::BoundaryWait if self.cores[ci].wait_outstanding => {
                        self.wake_retire(ci, now)
                    }
                    _ => {}
                }
            }
        } else {
            self.counters.retire_only_steps += 1;
            if persist {
                for mc in &mut self.mcs {
                    mc.wpq_mut().sample_occupancy_n(1);
                }
            }
        }
        for ci in 0..self.cores.len() {
            if self.cores[ci].retire_due <= now {
                self.visit_retire(ci, now);
            }
        }
    }

    /// Makes core `ci` due at `now`, before this cycle's retire phase,
    /// if a changed input moved its retire horizon; the visit charges
    /// its old idle class through `now - 1` and re-arms it.
    fn wake_retire(&mut self, ci: usize, now: u64) {
        let c = &self.cores[ci];
        if c.retire_due > now && self.retire_horizon(ci, now) != (c.retire_due, c.idle) {
            self.cores[ci].retire_due = now;
        }
    }

    /// Runs core `ci`'s retire stage at `now` after charging its idle
    /// cycles, then re-arms its retire horizon — without recomputing it
    /// when the core used its whole width and stays runnable, since it
    /// is then due next cycle — and, after a store-buffer push, its
    /// persist horizon.
    fn visit_retire(&mut self, ci: usize, now: u64) {
        self.charge_idle(ci, now - 1);
        let sb_len = self.cores[ci].sb.len();
        let live = self.retire_core(ci, now);
        let (due, idle) = if live {
            (now + 1, Idle::Free)
        } else {
            self.retire_horizon(ci, now + 1)
        };
        let c = &mut self.cores[ci];
        (c.retire_due, c.idle, c.charged_through) = (due, idle, now);
        if c.sb.len() != sb_len {
            self.cores[ci].persist_due = self.persist_horizon(ci, now + 1);
        }
    }

    /// The memory-controller phase of cycle `now`: WPQ flushes onto PM
    /// channels, per-core outstanding counts, and region commits.
    /// Returns whether it moved the flush frontier or flushed an entry,
    /// the inputs of a core's boundary wait.
    fn mc_phase(&mut self, now: u64) -> bool {
        let frontier = self.tracker.flush_frontier();
        let mut flushed = std::mem::take(&mut self.flushed_scratch);
        flushed.clear();
        for i in 0..self.mcs.len() {
            // An idle controller's tick is a no-op apart from the
            // occupancy sample (the `next_event` contract), so pay
            // only the sample. Earlier controllers' ticks may move
            // the tracker, which the controller memo re-keys on.
            let idle = self.mcs[i]
                .next_event(&self.tracker)
                .is_none_or(|t| t > now);
            if idle {
                self.mcs[i].wpq_mut().sample_occupancy();
            } else {
                self.mcs[i].tick(now, &mut self.tracker, &mut self.pm, &mut flushed);
            }
        }
        let moved = !flushed.is_empty() || self.tracker.flush_frontier() != frontier;
        for e in flushed.drain(..) {
            if let Some(c) = self.cores.get_mut(e.core) {
                c.outstanding = c.outstanding.saturating_sub(1);
            }
        }
        self.flushed_scratch = flushed;

        if let Some(k) = self.tracker.tick(now) {
            for mc in &mut self.mcs {
                mc.on_region_committed(k);
            }
            self.trace.note_committed(k, now);
            self.stats.regions_committed += 1;
            if let Some(t0) = self.region_broadcast_at.remove(&k) {
                self.stats.persist_latency_sum += now.saturating_sub(t0);
            }
        }
        moved
    }

    /// Core `ci`'s persist stage at `now`: path head → WPQ(s), FEB →
    /// path, SB → L1 + FEB under a persist-path scheme; otherwise the
    /// store buffer drains into L1 one store per cycle. Returns whether
    /// the store buffer popped.
    fn persist_core(&mut self, ci: usize, now: u64) -> bool {
        self.counters.persist_visits += 1;
        if self.cfg.scheme.uses_persist_path() {
            return self.move_persist_queues(ci, now);
        }
        match self.cores[ci].sb.pop() {
            Some(e) => {
                self.regular_path_store(ci, e.addr);
                true
            }
            None => false,
        }
    }

    /// Path head → WPQ(s); FEB → path; SB → L1 + FEB. Returns whether
    /// the store buffer popped.
    fn move_persist_queues(&mut self, ci: usize, now: u64) -> bool {
        // Deliver at most one path head per cycle.
        if let Some(head) = self.cores[ci].path.head_arrived(now).copied() {
            let delivered = match head.kind {
                PersistKind::Data => {
                    let mc = self.cfg.mem.mc_of(head.addr);
                    self.mcs[mc].try_insert(&head, true, now, &mut self.tracker)
                }
                PersistKind::Boundary => {
                    // The token must enter every WPQ (the broadcast).
                    let home_mc = self.cfg.mem.mc_of(head.addr);
                    let mut all_in = true;
                    for m in 0..self.mcs.len() {
                        if self.cores[ci].bdry_progress[m] {
                            continue;
                        }
                        if self.mcs[m].try_insert(&head, m == home_mc, now, &mut self.tracker) {
                            self.cores[ci].bdry_progress[m] = true;
                        } else {
                            all_in = false;
                        }
                    }
                    if all_in {
                        for f in &mut self.cores[ci].bdry_progress {
                            *f = false;
                        }
                        self.trace.note_delivered(head.region, now);
                    }
                    all_in
                }
            };
            if delivered {
                self.cores[ci].path.pop_head();
            } else {
                self.cores[ci].path.note_hol_block();
                self.counters.hol_retries += 1;
            }
        }

        // FEB → path (bandwidth gate).
        if self.cores[ci].path.can_issue(now) && !self.cores[ci].feb.is_empty() {
            let weight = self.cfg.scheme.persist_weight();
            let e = self.cores[ci].feb.pop().expect("front buffer non-empty");
            self.cores[ci].path.issue_weighted(now, e, weight);
        }

        // SB → L1 (regular path) + FEB (persist copy), one per cycle.
        if !self.cores[ci].sb.is_empty() && self.cores[ci].feb.has_room() {
            let e = self.cores[ci].sb.pop().expect("store buffer non-empty");
            self.regular_path_store(ci, e.addr);
            self.cores[ci].feb.push(e);
            self.cores[ci].outstanding += 1;
            return true;
        }
        false
    }
    /// Write `addr` through the cache hierarchy (regular path). Returns
    /// true if the L1 eviction was conflict-delayed.
    fn regular_path_store(&mut self, ci: usize, addr: u64) -> bool {
        // L1 write hit: no eviction, so no snoop and no writeback — skip
        // policy resolution and the snoop-closure setup entirely.
        if self.cores[ci].l1.try_hit(addr, true) {
            return false;
        }
        self.store_miss(ci, addr)
    }

    /// The store miss path: allocate in L1 (snooping the persist front
    /// end for victim conflicts) and write back any dirty victim.
    fn store_miss(&mut self, ci: usize, addr: u64) -> bool {
        let line_bytes = self.cfg.mem.line_bytes;
        let policy = self.effective_policy();
        let core = &mut self.cores[ci];
        let CoreCtx { l1, feb, path, .. } = core;
        let res = l1.access(addr, true, policy, |la| {
            feb.search_line(la, line_bytes) || path.conflicts_with_line(la, line_bytes)
        });
        if let Some((evicted, true)) = res.evicted {
            self.writeback(evicted);
        }
        res.conflict_delayed
    }

    fn effective_policy(&self) -> VictimPolicy {
        if self.cfg.scheme.uses_persist_path() {
            self.cfg.victim_policy
        } else {
            VictimPolicy::StaleLoad // no front end to snoop
        }
    }

    /// A dirty line leaving L1 writes back into L2 (and cascades to the
    /// DRAM cache; dirty LLC evictions are silently dropped in
    /// persist-path schemes, §IV-G — the persist path already carried
    /// the data).
    fn writeback(&mut self, addr: u64) {
        let res = self
            .l2
            .access(addr, true, VictimPolicy::StaleLoad, |_| false);
        if let Some((evicted, true)) = res.evicted {
            if self.cfg.scheme.uses_dram_cache() {
                self.dram.access(evicted, true);
            }
        }
    }

    /// Queueing delay at a shared resource: waits for the port and
    /// occupies it for `occupancy` cycles.
    fn contend(free: &mut u64, now: u64, occupancy: u64) -> u64 {
        let wait = free.saturating_sub(now);
        *free = now.max(*free) + occupancy;
        wait
    }

    /// Load timing through the hierarchy; returns total latency.
    fn load_latency(&mut self, ci: usize, addr: u64) -> u64 {
        // L1 hit: fixed latency, no eviction, no contention bookkeeping
        // — answered without policy resolution or snoop-closure setup.
        // A hit through `try_hit` performs the cache's full hit
        // bookkeeping, and a miss touches nothing, so the fallback's
        // general access sees pristine state.
        if self.cores[ci].l1.try_hit(addr, false) {
            return self.cfg.mem.l1_latency;
        }
        self.load_miss_latency(ci, addr)
    }

    /// The load miss path: L1 fill (victim snoop + writeback), then the
    /// L2 / DRAM-cache / PM walk with shared-port contention.
    fn load_miss_latency(&mut self, ci: usize, addr: u64) -> u64 {
        let line_bytes = self.cfg.mem.line_bytes;
        let policy = self.effective_policy();
        {
            let core = &mut self.cores[ci];
            let CoreCtx { l1, feb, path, .. } = core;
            let l1res = l1.access(addr, false, policy, |la| {
                feb.search_line(la, line_bytes) || path.conflicts_with_line(la, line_bytes)
            });
            let evicted = l1res.evicted;
            if l1res.hit {
                return self.cfg.mem.l1_latency;
            }
            if let Some((ev, true)) = evicted {
                self.writeback(ev);
            }
        }
        let now = self.now;
        let l2_wait = Self::contend(&mut self.l2_free, now, self.cfg.mem.l2_occupancy);
        let l2res = self
            .l2
            .access(addr, false, VictimPolicy::StaleLoad, |_| false);
        if let Some((evicted, true)) = l2res.evicted {
            if self.cfg.scheme.uses_dram_cache() {
                self.dram.access(evicted, true);
            }
        }
        if l2res.hit {
            return self.cfg.mem.l2_latency + l2_wait;
        }
        if !self.cfg.scheme.uses_dram_cache() {
            // Ideal PSP: every L2 miss pays full PM latency (Fig. 9).
            let pm_wait =
                Self::contend(&mut self.pm_read_free, now, self.cfg.mem.pm_read_occupancy);
            return self.cfg.mem.l2_latency + l2_wait + self.cfg.mem.pm_read_latency + pm_wait;
        }
        let dram_wait = Self::contend(&mut self.dram_free, now, self.cfg.mem.dram_occupancy);
        let (dram_hit, _) = self.dram.access(addr, false);
        if dram_hit {
            return self.cfg.mem.l2_latency + l2_wait + self.cfg.mem.dram_cache_latency + dram_wait;
        }
        // LLC miss → PM, with the WPQ CAM search of §IV-H.
        self.stats.llc_load_misses += 1;
        let pm_wait = Self::contend(&mut self.pm_read_free, now, self.cfg.mem.pm_read_occupancy);
        let mut lat = self.cfg.mem.l2_latency
            + l2_wait
            + self.cfg.mem.dram_cache_latency
            + dram_wait
            + self.cfg.mem.pm_read_latency
            + pm_wait;
        if self.cfg.scheme.uses_persist_path() {
            let mc = self.cfg.mem.mc_of(addr);
            if self.mcs[mc].wpq_mut().search_line(addr, line_bytes) {
                // WPQ hit: drop the PM load, wait for the entry to
                // flush, reload (§IV-H).
                self.stats.wpq_load_hits += 1;
                lat += self.cfg.mem.pm_write_latency + self.cfg.mem.pm_read_latency;
            }
            // Stale-load accounting: with snooping disabled, data still
            // in the volatile front end is missed entirely and must be
            // refetched once it lands (Fig. 6).
            if self.cfg.victim_policy == VictimPolicy::StaleLoad {
                let core = &mut self.cores[ci];
                let CoreCtx { feb, path, .. } = core;
                if feb.search_line(addr, line_bytes) || path.conflicts_with_line(addr, line_bytes) {
                    self.stats.stale_loads += 1;
                    lat += self.cfg.mem.persist_path_latency + self.cfg.mem.pm_read_latency;
                }
            }
        }
        lat
    }

    /// Estimated serialized persist cost of a region with `stores`
    /// stores (the `Tp` contribution of Eq. 1).
    fn region_tp(&self, stores: u64) -> u64 {
        let mem = &self.cfg.mem;
        let channels = (mem.channels_per_mc * mem.num_mcs).max(1) as u64;
        let per_store = mem
            .persist_path_cycles_per_entry
            .max(mem.pm_write_occupancy / channels);
        // Serialized exposure per region: path transit, per-store drain,
        // the PM media write of the last store, and the ACK exchanges.
        mem.persist_path_latency
            + (stores + 1) * per_store
            + mem.pm_write_latency
            + 2 * mem.noc_latency
    }

    /// Ends thread `tid`'s open region: emits the (possibly synthetic)
    /// boundary token through the store buffer of core `ci`. The next
    /// region's ID will be sampled lazily by the first store needing a
    /// tag. Returns false if the store buffer is full (caller retries
    /// later).
    fn end_region(&mut self, ci: usize, tid: usize, pc_val: u64, now: u64) -> bool {
        if !self.cores[ci].sb.has_room() {
            return false;
        }
        // The boundary's own PC store needs a tag even when the region
        // had no other stores.
        let ending = match self.threads[tid].cur_region.take() {
            Some(r) => r,
            None => self.tracker.alloc_region(),
        };
        let entry = PersistEntry {
            addr: layout::pc_slot(tid) & !7,
            val: pc_val,
            region: ending,
            kind: PersistKind::Boundary,
            core: ci,
        };
        self.cores[ci].sb.push(entry);
        self.cores[ci].outstanding += 1;
        self.trace.note_boundary(ending, tid, now);
        let (insts, stores) = {
            let th = &self.threads[tid];
            (th.region_insts, th.region_stores)
        };
        self.stats.regions += 1;
        self.stats.region_insts_sum += insts;
        self.stats.region_stores_sum += stores;
        let tp = self.region_tp(stores);
        self.stats.tp_estimate += tp;
        if self.cfg.scheme.flush_mode() == FlushMode::Gated {
            self.region_broadcast_at.insert(ending, now);
        }
        if self.cfg.scheme.waits_at_boundary() || self.cfg.disable_lrpo {
            self.cores[ci].wait_for_commit = Some(ending);
        }
        let th = &mut self.threads[tid];
        th.region_insts = 0;
        th.region_stores = 0;
        th.region_open_since = now;
        true
    }

    /// Forcibly ends `tid`'s open region at an arbitrary execution point
    /// (region timeout, lock-spin retry, halt) and makes the forced
    /// boundary a *genuine* recovery point.
    ///
    /// Compiler checkpoints are placed right after each register's last
    /// update, so an open region routinely contains checkpoint-slot
    /// stores for values produced *inside* it. Re-storing the
    /// region-start PC here (the old behaviour) therefore let a crash
    /// that preserved this region but lost the next ones resume with
    /// checkpoint slots *newer* than the recovery PC — re-executing
    /// already-applied updates (observed as an LCG state double-step in
    /// the kv-service workload). Instead, the hardware dumps every
    /// register whose slot is stale into this region and checkpoints the
    /// *current* PC, so slots and PC commit or roll back together and a
    /// resume replays nothing.
    ///
    /// The dump is idempotent: repaired slots compare equal and are
    /// skipped, so when the store buffer fills mid-dump we return
    /// `false` and the caller's retry resumes where it left off (the
    /// thread cannot change registers while its region is pending
    /// close). Returns `true` once the boundary token is pushed.
    fn synthetic_close(&mut self, ci: usize, tid: usize, now: u64) -> bool {
        if self.threads[tid].cur_region.is_none() {
            return true;
        }
        if let Some(dp) = &self.decoded {
            self.threads[tid].interp.sync_point(dp);
        }
        let region = self.threads[tid].cur_region.expect("checked above");
        for r in Reg::all() {
            let slot = layout::checkpoint_slot(tid, r);
            let val = self.threads[tid].interp.reg(r);
            if self.vmem.read_word(slot) == val {
                continue;
            }
            if !self.cores[ci].sb.has_room() {
                return false;
            }
            self.vmem.write_word(slot, val);
            self.trace.note_store(region);
            self.cores[ci].sb.push(PersistEntry {
                addr: slot & !7,
                val,
                region,
                kind: PersistKind::Data,
                core: ci,
            });
            self.stats.persist_stores += 1;
            self.stats.forced_ckpt_stores += 1;
            self.threads[tid].region_stores += 1;
        }
        let pc = self.threads[tid].interp.point().encode();
        self.end_region(ci, tid, pc, now)
    }

    /// Retire up to `width` events on core `ci`. Returns true when the
    /// core used its whole width on retirement and no event stopped it
    /// (a stall, a wait, a spin, a halt or a full store buffer), so it
    /// can act again next cycle.
    fn retire_core(&mut self, ci: usize, now: u64) -> bool {
        self.counters.retire_visits += 1;
        if self.cores[ci].threads.is_empty() {
            return false;
        }
        if self.cores[ci].stall_until > now {
            self.stats.stall_load_miss += 1;
            return false;
        }
        if let Some(region) = self.cores[ci].wait_for_commit {
            if self.tracker.flush_frontier() > region {
                self.cores[ci].wait_for_commit = None;
            } else {
                self.stats.stall_boundary_wait += 1;
                return false;
            }
        }
        if self.cores[ci].wait_outstanding {
            let c = &self.cores[ci];
            if c.outstanding == 0 && c.queues_empty() {
                self.cores[ci].wait_outstanding = false;
            } else {
                self.stats.stall_boundary_wait += 1;
                return false;
            }
        }

        let gated =
            self.cfg.scheme.uses_persist_path() && self.cfg.scheme.flush_mode() == FlushMode::Gated;

        let mut slots = self.cfg.width;
        // Batched timing stats: the per-retire instruction counters
        // (`Stats::insts`, the open region's instruction count)
        // accumulate in locals inside this dispatch loop and fold into
        // their owners only where a reader could observe them — before
        // any region close (which sums `region_insts` into the region
        // stats), on a thread switch, and unconditionally at loop exit.
        // Crash captures happen at cycle boundaries, strictly after the
        // exit fold, so observable `Stats` are byte-identical to
        // unbatched counting (pinned by `batched_stats_fold_*` in
        // tests/exec_mode_parity.rs).
        let mut acc_insts: u64 = 0;
        let mut acc_region: u64 = 0;
        let mut acc_tid = usize::MAX;
        let live = loop {
            if slots == 0 {
                break true;
            }
            let Some(tid) = self.pick_thread(ci, now) else {
                break false;
            };
            if acc_region != 0 && tid != acc_tid {
                self.threads[acc_tid].region_insts += acc_region;
                acc_region = 0;
            }
            acc_tid = tid;

            // Persist back-pressure: a full store buffer blocks retire.
            if !self.cores[ci].sb.has_room() {
                self.stats.stall_sb_full += 1;
                break false;
            }

            // Liveness: force-end regions that have been open too long.
            if gated
                && self.threads[tid].cur_region.is_some()
                && now.saturating_sub(self.threads[tid].region_open_since) > self.cfg.region_timeout
            {
                self.threads[tid].region_insts += acc_region;
                acc_region = 0;
                self.synthetic_close(ci, tid, now);
                slots -= 1;
                continue;
            }

            let ev = if let Some(dp) = &self.decoded {
                // Batched decoded dispatch: retire up to `budget`
                // ALU-class instructions inside the interpreter's tight
                // loop and surface only the next timed event. Exact
                // per-slot equivalence with the reference path holds
                // because nothing an ALU-class instruction does can
                // change this loop's per-slot predicates: the thread
                // pick is stable within a cycle (`now` is fixed, and
                // rotation re-arms the quantum), the store buffer only
                // grows at the store events that end a batch, and
                // region state only changes at events.
                let budget = if self.cores[ci].threads.len() == 1 || self.cfg.timeslice > 0 {
                    slots
                } else {
                    // timeslice == 0 round-robins threads every retire
                    // slot; keep batches at one instruction so the
                    // rotation stays per-slot exact.
                    1
                };
                let (alus, ev) = self.threads[tid]
                    .interp
                    .step_batch(dp, &mut self.vmem, budget);
                acc_insts += alus as u64;
                acc_region += alus as u64;
                slots -= alus;
                match ev {
                    Some(ev) => ev,
                    None => continue,
                }
            } else {
                self.threads[tid].interp.step(&self.program, &mut self.vmem)
            };
            match ev {
                DynEvent::Alu | DynEvent::Fence => {
                    acc_insts += 1;
                    acc_region += 1;
                    slots -= 1;
                }
                DynEvent::Load { addr } => {
                    acc_insts += 1;
                    acc_region += 1;
                    let lat = self.load_latency(ci, addr);
                    if lat > self.cfg.mem.l1_latency {
                        let extra =
                            (lat - self.cfg.mem.l1_latency) / self.cfg.miss_overlap_div.max(1);
                        self.cores[ci].stall_until = now + extra;
                        break false;
                    } else {
                        slots -= 1;
                    }
                }
                DynEvent::Store { addr, val, kind } => {
                    acc_insts += 1;
                    if kind == StoreKind::Checkpoint {
                        self.stats.instrumentation_insts += 1;
                    }
                    if self.cfg.scheme.uses_persist_path() {
                        self.stats.persist_stores += 1;
                    }
                    let region = match self.threads[tid].cur_region {
                        Some(r) => r,
                        None => {
                            let r = self.tracker.alloc_region();
                            let th = &mut self.threads[tid];
                            th.cur_region = Some(r);
                            th.region_open_since = now;
                            self.trace.note_sampled(r, tid, now);
                            r
                        }
                    };
                    self.trace.note_store(region);
                    {
                        // Fold the batched region counter here: the PPA
                        // branch below reads `region_insts`.
                        let th = &mut self.threads[tid];
                        th.region_insts += acc_region + 1;
                        acc_region = 0;
                        th.region_stores += 1;
                    }
                    let entry = PersistEntry {
                        addr: addr & !7,
                        val,
                        region,
                        kind: PersistKind::Data,
                        core: ci,
                    };
                    self.cores[ci].sb.push(entry);
                    slots -= 1;

                    // PPA: hardware-delineated region boundary when the
                    // PRF-pressure budget is exhausted.
                    if self.cfg.scheme == Scheme::Ppa
                        && self.threads[tid].region_stores >= self.cfg.ppa_region_stores
                    {
                        let (insts, stores) = {
                            let th = &self.threads[tid];
                            (th.region_insts, th.region_stores)
                        };
                        self.stats.regions += 1;
                        self.stats.region_insts_sum += insts;
                        self.stats.region_stores_sum += stores;
                        let tp = self.region_tp(stores);
                        self.stats.tp_estimate += tp;
                        let th = &mut self.threads[tid];
                        th.region_insts = 0;
                        th.region_stores = 0;
                        th.region_open_since = now;
                        self.cores[ci].wait_outstanding = true;
                        break false;
                    }
                }
                DynEvent::Boundary { addr: _, pc_val } => {
                    acc_insts += 1;
                    self.stats.instrumentation_insts += 1;
                    // Fold before `end_region` sums the region counters.
                    self.threads[tid].region_insts += acc_region + 1;
                    acc_region = 0;
                    if self.cfg.scheme.uses_persist_path() {
                        self.end_region(ci, tid, pc_val, now);
                    }
                    slots -= 1;
                    if self.cfg.scheme.waits_at_boundary() {
                        break false;
                    }
                }
                DynEvent::Io { val } => {
                    acc_insts += 1;
                    acc_region += 1;
                    self.io_log.push((now, tid, val));
                    slots -= 1;
                }
                DynEvent::LockSpin { addr: _ } => {
                    self.threads[tid].spin_until = now + self.cfg.spin_retry_interval;
                    self.stats.stall_lock_spin += 1;
                    // Each retry is a fresh synchronisation point: end
                    // the open region so the spinner never blocks the
                    // flush frontier (§IV-C liveness).
                    if gated {
                        self.threads[tid].region_insts += acc_region;
                        acc_region = 0;
                        self.synthetic_close(ci, tid, now);
                    }
                    break false;
                }
                DynEvent::Halt => {
                    self.threads[tid].region_insts += acc_region;
                    acc_region = 0;
                    if gated && self.threads[tid].cur_region.is_some() {
                        // Broadcast the trailing region so the frontier
                        // can drain past this thread; retry while the
                        // store buffer is full.
                        if self.synthetic_close(ci, tid, now) {
                            self.threads[tid].halted = true;
                        }
                    } else {
                        self.threads[tid].halted = true;
                    }
                    break false;
                }
            }
        };
        // Exit fold: everything observable after this call (stats
        // queries, crash captures, the next cycle's region checks) sees
        // fully folded counters.
        if acc_insts != 0 {
            self.stats.insts += acc_insts;
        }
        if acc_region != 0 {
            self.threads[acc_tid].region_insts += acc_region;
        }
        live
    }

    /// Picks the runnable thread for core `ci`: sticks with the active
    /// thread until it halts, spins, or — once the preemption quantum
    /// expires — reaches a safe point (closed region); then rotates.
    fn pick_thread(&mut self, ci: usize, now: u64) -> Option<usize> {
        let n = self.cores[ci].threads.len();
        if n == 0 {
            return None;
        }
        let active = self.cores[ci].active;
        let cur_tid = self.cores[ci].threads[active];
        let cur_runnable = {
            let th = &self.threads[cur_tid];
            !th.halted && th.spin_until <= now
        };
        let quantum_expired = now.saturating_sub(self.cores[ci].last_switch) >= self.cfg.timeslice;
        let at_safe_point = self.threads[cur_tid].cur_region.is_none();
        if cur_runnable && !(quantum_expired && at_safe_point && n > 1) {
            return Some(cur_tid);
        }
        for off in 1..=n {
            let idx = (active + off) % n;
            let tid = self.cores[ci].threads[idx];
            let th = &self.threads[tid];
            if !th.halted && th.spin_until <= now {
                self.cores[ci].active = idx;
                self.cores[ci].last_switch = now;
                return Some(tid);
            }
        }
        // No other runnable thread; stay on the active one if possible.
        cur_runnable.then_some(cur_tid)
    }

    /// Injects a power failure at the current cycle and performs the
    /// §IV-F recovery protocol: battery-covered WPQ resolution, volatile
    /// state loss, and per-thread restart from the checkpoint storage.
    /// Returns a step-by-step account of what recovery did.
    pub fn inject_power_failure(&mut self) -> RecoveryReport {
        self.inject_power_failure_audited().report
    }

    /// [`Machine::inject_power_failure`] plus the full audit capture:
    /// tracker frontiers, the pre-resolution PM image, and each MC's
    /// entry-by-entry resolution, so the crash auditor
    /// ([`crate::crash`]) can verify the recovery contract rather than
    /// just the end state. Honors `SimConfig::gating_mutant`, but
    /// always records the tracker's honest survivable set alongside.
    ///
    /// The resolution is [`Machine::capture_power_failure`]'s, applied
    /// to the machine's own controllers and PM; then every volatile
    /// component is reset and each thread restarts.
    pub fn inject_power_failure_audited(&mut self) -> CrashCapture {
        self.stats.failures += 1;
        let mut pm = std::mem::take(&mut self.pm);
        let cap = self.resolve_power_failure(&mut pm);
        self.pm = pm;
        for (mc, res) in self.mcs.iter_mut().zip(&cap.per_mc) {
            mc.clear_after_power_failure(res);
        }

        // Everything volatile disappears.
        for c in &mut self.cores {
            c.sb.clear();
            c.feb.clear();
            c.path.clear();
            c.l1.invalidate_all();
            c.stall_until = 0;
            c.wait_for_commit = None;
            c.wait_outstanding = false;
            c.outstanding = 0;
            c.bdry_progress.iter_mut().for_each(|f| *f = false);
        }
        self.l2.invalidate_all();
        self.dram.invalidate_all();
        self.region_broadcast_at.clear();

        // The architectural memory now *is* PM.
        self.vmem = self.pm.snapshot();

        // Fresh ordering epoch: allocated-but-lost region IDs die here.
        self.tracker = RegionTracker::new(self.cfg.mem.num_mcs, self.cfg.mem.noc_latency);

        // Each thread resumes from its checkpointed recovery point with
        // registers reloaded (and pruned ones reconstructed, §IV-A).
        for tid in 0..self.threads.len() {
            let mut interp = Interp::resume_from_checkpoint(&self.vmem, tid);
            let enc = interp.point().encode();
            let mut regs = [0u64; NUM_REGS];
            for r in Reg::all() {
                regs[r.index()] = interp.reg(r);
            }
            self.recipes.apply(enc, &mut regs);
            for r in Reg::all() {
                interp.set_reg(r, regs[r.index()]);
            }
            debug_assert_eq!(interp.point(), cap.report.resume_points[tid]);
            let th = &mut self.threads[tid];
            th.interp = interp;
            th.halted = false;
            th.spin_until = 0;
            th.region_insts = 0;
            th.region_stores = 0;
            th.region_open_since = self.now;
            th.cur_region = None;
        }
        self.arm_all();
        cap
    }

    /// What a power failure at the current cycle would leave, without
    /// changing the machine: the audit capture of
    /// [`Machine::inject_power_failure_audited`] and the durable image
    /// after the battery-backed WPQ resolution. Caches, buffers and
    /// cores are lost at a failure, so only the controllers, the region
    /// tracker and PM decide what survives; this resolves them on a
    /// copy of PM. A crash sweep calls it at points it does not resume,
    /// so they cost no fork.
    pub fn capture_power_failure(&self) -> (CrashCapture, Memory) {
        let mut pm = self.pm.clone();
        let cap = self.resolve_power_failure(&mut pm);
        (cap, pm.into_contents())
    }

    /// The §IV-F battery resolution at the current cycle, written into
    /// `pm` (the machine's own PM or a copy of it); the controllers and
    /// the tracker are only read. Steps 1–2: in-flight ACKs are
    /// delivered on battery, so the survivable set is the contiguous
    /// boundary-everywhere prefix (or what `SimConfig::gating_mutant`
    /// makes of it); steps 3–6 on each MC's persistence domain. The
    /// resume points are what the resolved checkpoint slots hold.
    fn resolve_power_failure(&self, pm: &mut PersistentMemory) -> CrashCapture {
        let commit_frontier = self.tracker.commit_frontier();
        let last_allocated = self.tracker.last_allocated();
        let survivable = self.tracker.survivable_regions();
        let used_survivable = match self.cfg.gating_mutant {
            None => survivable.clone(),
            Some(GatingMutant::FlushUnacked) => (commit_frontier..=last_allocated).collect(),
            Some(GatingMutant::AnyMcBoundary) => {
                let mut out = Vec::new();
                let mut k = commit_frontier;
                while k <= last_allocated && self.tracker.boundary_anywhere(k) {
                    out.push(k);
                    k += 1;
                }
                out
            }
            Some(GatingMutant::FirstMcBoundary) => {
                let mut out = Vec::new();
                let mut k = commit_frontier;
                while k <= last_allocated && self.tracker.boundary_at_mc(k, 0) {
                    out.push(k);
                    k += 1;
                }
                out
            }
        };
        let mut report = RecoveryReport {
            survivable_regions: used_survivable.clone(),
            ..RecoveryReport::default()
        };
        let pm_before = pm.snapshot();

        let mut per_mc = Vec::with_capacity(self.mcs.len());
        for mc in &self.mcs {
            let res = mc.resolve_power_failure(&used_survivable, pm);
            report.entries_flushed += res.flushed.len() as u64;
            report.entries_discarded += res.discarded.len() as u64;
            report.undo_rolled_back += res.rolled_back.len() as u64;
            per_mc.push(res);
        }
        report.resume_points = (0..self.threads.len())
            .map(|tid| ProgramPoint::decode(pm.peek_word(layout::pc_slot(tid))))
            .collect();
        CrashCapture {
            at_cycle: self.now,
            commit_frontier,
            last_allocated,
            survivable,
            used_survivable,
            pm_before,
            per_mc,
            report,
        }
    }
}

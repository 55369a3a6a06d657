//! Crash injection and recovery auditing.
//!
//! LightWSP's central claim (§III-A) is that *any* power-failure point
//! is safe: WPQ entries of unpersisted regions are discarded, persisted
//! regions flush on battery, and each core resumes from its last
//! persisted region boundary. The [`consistency`](crate::consistency)
//! oracle checks the end-to-end consequence of that claim (final
//! durable state equals the failure-free run); this module checks the
//! *contract itself*, step by step, at systematically chosen crash
//! points.
//!
//! A [`CrashInjector`] cuts power at an arbitrary cycle — or at points
//! derived from a traced run of the same workload: mid-region, at the
//! boundary broadcast, inside the MC-skew window while a boundary has
//! reached only some WPQs, between the bdry-ACK and flush-ACK
//! exchanges, and mid-WPQ-drain. At each point it captures the
//! machine's persistent image (PM plus the battery-backed WPQ contents,
//! via [`Machine::inject_power_failure_audited`]) and asserts the named
//! invariants of `RECOVERY.md`:
//!
//! | invariant | meaning |
//! |---|---|
//! | `survivable-prefix` | survivable regions are one contiguous run starting at the commit frontier |
//! | `gate-flush` | no store of an unpersisted region is written to PM by the resolution |
//! | `gate-discard` | no store of a persisted region is discarded |
//! | `resolution-exact` | PM after resolution equals PM at the cut plus exactly the recorded flushes and undo rollbacks |
//! | `resume-from-checkpoint` | every thread resumes at the PC its PM checkpoint slot holds |
//! | `resume-completes` | the recovered machine runs to completion |
//! | `resume-state-equivalence` | the recovered run's final durable state is byte-identical to the failure-free golden run |
//!
//! The first five are *structural*: they validate the resolution
//! against the tracker's ground truth, so a deliberately broken gating
//! rule ([`GatingMutant`](crate::config::GatingMutant)) is caught even
//! when re-execution happens to converge to the right final state.

use crate::config::{SimConfig, SweepMode};
use crate::consistency::{golden_run, ConsistencyError};
use crate::machine::{Completion, CrashCapture, Machine};
use crate::trace::RegionTimeline;
use lightwsp_compiler::Compiled;
use lightwsp_ir::{layout, Memory};
use lightwsp_mem::RegionId;

/// Which mechanism window a crash point probes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPointKind {
    /// A seeded pseudo-random cycle (uniform over the run).
    Seeded,
    /// Mid-region: between a region's first tagged store and its
    /// boundary — the region is open, its stores gated.
    MidRegion,
    /// The cycle right after a boundary retires (broadcast in flight
    /// through store buffer, front-end buffer, and persist path).
    BoundaryBroadcast,
    /// The NUMA skew window: the boundary token has entered some WPQs
    /// but not yet all of them — the region must still be discarded
    /// everywhere.
    McSkew,
    /// Between the completed bdry-ACK exchange and the flush-ACK: the
    /// region is survivable but not yet durably committed.
    BetweenAcks,
    /// While the MCs are bulk-flushing the region's entries to PM.
    MidWpqDrain,
}

impl CrashPointKind {
    /// All kinds, in display order.
    pub const ALL: [CrashPointKind; 6] = [
        CrashPointKind::Seeded,
        CrashPointKind::MidRegion,
        CrashPointKind::BoundaryBroadcast,
        CrashPointKind::McSkew,
        CrashPointKind::BetweenAcks,
        CrashPointKind::MidWpqDrain,
    ];

    /// Stable machine-readable name (used in `BENCH_crash.json`).
    pub fn name(self) -> &'static str {
        match self {
            CrashPointKind::Seeded => "seeded",
            CrashPointKind::MidRegion => "mid-region",
            CrashPointKind::BoundaryBroadcast => "boundary-broadcast",
            CrashPointKind::McSkew => "mc-skew",
            CrashPointKind::BetweenAcks => "between-acks",
            CrashPointKind::MidWpqDrain => "mid-wpq-drain",
        }
    }

    fn idx(self) -> usize {
        CrashPointKind::ALL.iter().position(|&k| k == self).unwrap()
    }
}

/// One power-cut point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// The cycle at which power is cut.
    pub cycle: u64,
    /// The mechanism window the point was derived for.
    pub kind: CrashPointKind,
}

/// A violated recovery invariant at one crash point.
#[derive(Clone, Debug)]
pub struct InvariantViolation {
    /// The invariant's name as documented in `RECOVERY.md`.
    pub invariant: &'static str,
    /// The crash point that exposed it.
    pub point: CrashPoint,
    /// Human-readable specifics (addresses, regions, values).
    pub detail: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] at cycle {} ({}): {}",
            self.invariant,
            self.point.cycle,
            self.point.kind.name(),
            self.detail
        )
    }
}

/// Aggregate result of auditing a set of crash points.
#[derive(Clone, Debug, Default)]
pub struct CrashAuditReport {
    /// Points requested.
    pub points: usize,
    /// Points that actually interrupted the run (the rest landed after
    /// the workload finished and drained).
    pub audited: usize,
    /// Points past the end of the run (skipped).
    pub beyond_end: usize,
    /// Audited points per [`CrashPointKind`], indexed as
    /// [`CrashPointKind::ALL`].
    pub audited_by_kind: [usize; 6],
    /// Every invariant violation found (empty = the contract held).
    pub violations: Vec<InvariantViolation>,
    /// WPQ entries battery-flushed across all audited failures.
    pub entries_flushed: u64,
    /// WPQ entries discarded across all audited failures.
    pub entries_discarded: u64,
    /// Undo-log rollbacks applied across all audited failures.
    pub undo_rolled_back: u64,
    /// Cycles of the failure-free golden run.
    pub golden_cycles: u64,
}

impl CrashAuditReport {
    /// Folds another report into this one (used when per-point audits
    /// ran in parallel; `golden_cycles` must agree or be unset).
    pub fn merge(&mut self, other: &CrashAuditReport) {
        self.points += other.points;
        self.audited += other.audited;
        self.beyond_end += other.beyond_end;
        for (a, b) in self.audited_by_kind.iter_mut().zip(other.audited_by_kind) {
            *a += b;
        }
        self.violations.extend(other.violations.iter().cloned());
        self.entries_flushed += other.entries_flushed;
        self.entries_discarded += other.entries_discarded;
        self.undo_rolled_back += other.undo_rolled_back;
        if self.golden_cycles == 0 {
            self.golden_cycles = other.golden_cycles;
        }
    }
}

/// Systematic crash-point sweep over one compiled workload.
///
/// Construction builds one pristine cycle-0 [`Machine`] template; a
/// "fresh machine" thereafter is a cheap COW clone of it, never a
/// re-initialisation. How the pre-crash state at each point is reached
/// is governed by the [`SweepMode`] (default [`SweepMode::Fork`]; see
/// [`CrashInjector::with_sweep_mode`]):
///
/// - **fork** — a [`CrashSweeper`] advances ONE mainline machine
///   monotonically through the points in sorted order and forks a
///   snapshot at each, so a sweep of `P` points over horizon `H` costs
///   `O(H + P·fork + P·resume)` simulated cycles;
/// - **rerun** — every point re-simulates from cycle 0 (`O(P·H)`), the
///   executable specification fork mode is differentially checked
///   against (the `sweep` row of [`crate::AXES`]).
///
/// Points are independent in either mode — callers with a thread pool
/// fan out *sorted contiguous chunks* ([`CrashInjector::audit_chunk`])
/// and [`CrashAuditReport::merge`] the results.
pub struct CrashInjector<'a> {
    compiled: &'a Compiled,
    cfg: SimConfig,
    threads: usize,
    sweep: SweepMode,
    /// Pristine cycle-0 machine; cloned (cheaply, via COW pages) for
    /// every golden/traced/audit run instead of re-running
    /// `Machine::new` and re-cloning the config per point.
    base: Machine,
}

/// SplitMix64 step (dependency-free seeded point generation; the
/// stream only needs to be deterministic, not cryptographic).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Evenly samples up to `cap` values from a sorted, deduped list (keeps
/// the spread instead of clustering at the front).
fn sample_even(mut v: Vec<u64>, cap: usize) -> Vec<u64> {
    v.sort_unstable();
    v.dedup();
    if v.len() <= cap || cap == 0 {
        return v;
    }
    if cap == 1 {
        return vec![v[v.len() / 2]];
    }
    (0..cap).map(|i| v[i * (v.len() - 1) / (cap - 1)]).collect()
}

impl<'a> CrashInjector<'a> {
    /// Creates an injector for `compiled` under `cfg` with `threads`
    /// software threads.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.scheme` does not use the persist path — without
    /// it there is no persistence domain to audit.
    pub fn new(compiled: &'a Compiled, cfg: SimConfig, threads: usize) -> CrashInjector<'a> {
        assert!(
            cfg.scheme.uses_persist_path(),
            "crash auditing needs a persist-path scheme"
        );
        let base = Machine::new(
            compiled.program.clone(),
            compiled.recipes.clone(),
            cfg.clone(),
            threads,
        );
        CrashInjector {
            compiled,
            cfg,
            threads,
            sweep: SweepMode::default(),
            base,
        }
    }

    /// Overrides the sweep mode (default [`SweepMode::Fork`]); the
    /// perf gate and the parity harness select the rerun reference
    /// through this.
    pub fn with_sweep_mode(mut self, sweep: SweepMode) -> CrashInjector<'a> {
        self.sweep = sweep;
        self
    }

    /// A fresh cycle-0 machine: a COW clone of the construction-time
    /// template (no per-call config clone or cache re-initialisation).
    fn fresh(&self) -> Machine {
        self.base.fork()
    }

    fn machine(&self, cfg: SimConfig) -> Machine {
        Machine::new(
            self.compiled.program.clone(),
            self.compiled.recipes.clone(),
            cfg,
            self.threads,
        )
    }

    /// Runs the workload once with region tracing enabled and returns
    /// every region's timeline in global region-ID order plus the
    /// run's total cycles. This is the per-run protocol witness: the
    /// timelines' thread fields, read off in region-ID order, are
    /// exactly the bdry-ACK/flush-ID commit order the machine realises
    /// (the model crate's `ProtocolOrder`). The run is deterministic,
    /// so one trace is valid for every crash point of the same config.
    pub fn traced_timelines(&self) -> (Vec<(RegionId, RegionTimeline)>, u64) {
        let mut cfg = self.cfg.clone();
        cfg.trace_regions = 8192;
        let mut m = self.machine(cfg);
        m.run();
        (m.region_trace().timelines(), m.now())
    }

    /// Derives crash points from a traced run of the workload: for each
    /// observed region timeline, one point per applicable
    /// [`CrashPointKind`] window, evenly sampled down to `cap_per_kind`
    /// points per kind. Also returns the traced run's total cycles (the
    /// horizon for [`CrashInjector::seeded_points`]).
    pub fn derived_points(&self, cap_per_kind: usize) -> (Vec<CrashPoint>, u64) {
        let (timelines, horizon) = self.traced_timelines();
        (self.derived_points_from(&timelines, cap_per_kind), horizon)
    }

    /// [`CrashInjector::derived_points`] over an already-captured
    /// trace, so callers that also need the protocol order pay for one
    /// traced run instead of two.
    pub fn derived_points_from(
        &self,
        timelines: &[(RegionId, RegionTimeline)],
        cap_per_kind: usize,
    ) -> Vec<CrashPoint> {
        let noc = self.cfg.mem.noc_latency;
        let mut by_kind: [Vec<u64>; 6] = Default::default();
        for (_region, t) in timelines {
            if let (Some(s), Some(b)) = (t.sampled, t.boundary_retired) {
                by_kind[CrashPointKind::MidRegion.idx()].push(s + (b - s) / 2);
            }
            if let Some(b) = t.boundary_retired {
                by_kind[CrashPointKind::BoundaryBroadcast.idx()].push(b + 1);
            }
            if let Some(d) = t.delivered_all {
                // One cycle before full delivery: with >1 MC and WPQ
                // back-pressure this lands inside the fan-out window.
                by_kind[CrashPointKind::McSkew.idx()].push(d.saturating_sub(1));
            }
            if let (Some(d), Some(c)) = (t.delivered_all, t.committed) {
                let acked = d + noc;
                by_kind[CrashPointKind::BetweenAcks.idx()]
                    .push(acked + (c.saturating_sub(acked)) / 2);
                by_kind[CrashPointKind::MidWpqDrain.idx()]
                    .push((acked + 1).min(c.saturating_sub(1)));
            }
        }
        let mut points = Vec::new();
        for kind in CrashPointKind::ALL {
            if kind == CrashPointKind::Seeded {
                continue;
            }
            for cycle in sample_even(std::mem::take(&mut by_kind[kind.idx()]), cap_per_kind) {
                if cycle > 0 {
                    points.push(CrashPoint { cycle, kind });
                }
            }
        }
        points
    }

    /// `n` seeded pseudo-random crash cycles uniform over
    /// `[1, horizon)`, deterministic per `seed`.
    pub fn seeded_points(&self, seed: u64, n: usize, horizon: u64) -> Vec<CrashPoint> {
        let mut state = seed;
        let span = horizon.max(2) - 1;
        (0..n)
            .map(|_| CrashPoint {
                cycle: 1 + splitmix64(&mut state) % span,
                kind: CrashPointKind::Seeded,
            })
            .collect()
    }

    /// Canonicalises a point batch for sweeping: sorted by
    /// `(cycle, kind)` and deduplicated. Duplicate `(cycle, kind)`
    /// pairs audit the *same* machine state twice (point selection can
    /// emit them — e.g. seeded collisions or overlapping mechanism
    /// windows), and the fork sweep requires non-decreasing cycles.
    /// Both sweep modes visit exactly this sequence, which pins their
    /// reports to be comparable element-for-element.
    pub fn prepare_points(points: &[CrashPoint]) -> Vec<CrashPoint> {
        let mut v = points.to_vec();
        v.sort_unstable_by_key(|p| (p.cycle, p.kind.idx()));
        v.dedup();
        v
    }

    /// Starts a sweep over a sorted point sequence (see
    /// [`CrashInjector::prepare_points`]) in the injector's
    /// [`SweepMode`]. Each sweeper owns at most one mainline machine,
    /// so parallel callers create one sweeper per contiguous chunk.
    pub fn sweeper(&self) -> CrashSweeper<'_, 'a> {
        CrashSweeper {
            injector: self,
            mainline: (self.sweep == SweepMode::Fork).then(|| self.fresh()),
            finished: false,
            last_cycle: 0,
        }
    }

    /// Audits every point: golden run once, then sweep the sorted,
    /// deduplicated points — cut power, check the structural invariants
    /// against the capture, resume to completion, and compare the final
    /// durable state.
    ///
    /// # Errors
    ///
    /// Returns a [`ConsistencyError`] only if the golden run itself
    /// fails (cycle cap or drain violation); per-point problems are
    /// reported as violations, not errors.
    pub fn audit(&self, points: &[CrashPoint]) -> Result<CrashAuditReport, ConsistencyError> {
        let (golden, golden_cycles) = golden_run(self.compiled, &self.cfg, self.threads)?;
        let mut report = CrashAuditReport {
            golden_cycles,
            ..CrashAuditReport::default()
        };
        report.merge(&self.audit_chunk(&golden, &Self::prepare_points(points)));
        Ok(report)
    }

    /// Audits one sorted contiguous chunk of a prepared point sequence
    /// with a dedicated sweeper (one mainline machine per chunk). The
    /// parallel drivers split [`CrashInjector::prepare_points`] output
    /// into per-worker chunks and merge the returned reports in chunk
    /// order, which reproduces the serial sweep bit-for-bit.
    pub fn audit_chunk(&self, golden: &Memory, points: &[CrashPoint]) -> CrashAuditReport {
        let mut sweeper = self.sweeper();
        let mut report = CrashAuditReport::default();
        for &p in points {
            report.merge(&sweeper.audit_point(golden, p));
        }
        report
    }

    /// Audits a single crash point against a precomputed golden image
    /// (from [`golden_run`]) and returns a one-point report.
    ///
    /// A one-point sweep: fork and rerun mode are indistinguishable
    /// here. Kept for callers that fan out points individually;
    /// batch callers should prefer [`CrashInjector::audit_chunk`],
    /// which amortises the mainline advance across the whole chunk.
    pub fn audit_point(&self, golden: &Memory, p: CrashPoint) -> CrashAuditReport {
        self.audit_chunk(golden, &[p])
    }

    /// Cuts power at `p` and returns the audit capture together with
    /// the post-resolution durable image, without resuming. Returns
    /// `None` when the run finishes before `p.cycle` (nothing to cut).
    ///
    /// One-shot variant of [`CrashSweeper::capture_at`] — batch callers
    /// (the model harness) should drive a sweeper over sorted points
    /// instead of paying a run-from-zero per point.
    pub fn capture_at(&self, p: CrashPoint) -> Option<(CrashCapture, Memory)> {
        self.sweeper().capture_at(p)
    }
}

/// One in-progress sweep over a non-decreasing crash-point sequence.
///
/// In [`SweepMode::Fork`] the sweeper owns the *mainline* machine: it
/// advances monotonically to each point's cycle (never re-simulating
/// the prefix) and hands out a COW fork of itself for the destructive
/// part (power cut, resolution, resume). In [`SweepMode::Rerun`] there
/// is no mainline and every point replays a fresh machine from cycle 0.
///
/// The two modes reach bit-identical pre-crash states because
/// `run_until` is exact-landing and stopping at intermediate targets is
/// observationally identical to one continuous run (the same property
/// `tests/step_mode_parity.rs` locks in for skip-ahead); the parity
/// suite `tests/sweep_mode_parity.rs` enforces it end-to-end.
pub struct CrashSweeper<'i, 'a> {
    injector: &'i CrashInjector<'a>,
    /// The monotonically-advancing machine (fork mode only).
    mainline: Option<Machine>,
    /// Fork mode: the workload completed before some earlier point, so
    /// every later point is beyond the end too.
    finished: bool,
    /// Fork mode: last requested cycle, to enforce monotonicity.
    last_cycle: u64,
}

impl CrashSweeper<'_, '_> {
    /// The machine state at `p.cycle`, or `None` when the workload
    /// finishes (and drains) before that cycle.
    ///
    /// # Panics
    ///
    /// Panics in fork mode if `p` goes backwards — feed the sweeper
    /// [`CrashInjector::prepare_points`] output.
    fn machine_at(&mut self, p: CrashPoint) -> Option<Machine> {
        match &mut self.mainline {
            Some(mainline) => {
                assert!(
                    p.cycle >= self.last_cycle,
                    "fork sweep requires non-decreasing point cycles \
                     ({} after {}); sort with CrashInjector::prepare_points",
                    p.cycle,
                    self.last_cycle,
                );
                self.last_cycle = p.cycle;
                if self.finished {
                    return None;
                }
                if mainline.run_until(p.cycle) {
                    self.finished = true;
                    return None;
                }
                Some(mainline.fork())
            }
            None => {
                let mut m = self.injector.fresh();
                (!m.run_until(p.cycle)).then_some(m)
            }
        }
    }

    /// Cuts power at `p` on a fork (or a fresh rerun) and returns the
    /// audit capture plus the post-resolution *machine*, ready either
    /// for inspection (`pm_contents`) or for resuming the recovered
    /// run. `None` when the run finishes before `p.cycle`.
    ///
    /// This is the primitive the data-structure audit driver
    /// (`lightwsp-core`'s `dsaudit`) builds on: it checks
    /// structure-specific invariants against the durable image and
    /// resumes only a sampled subset of points, neither of which
    /// [`CrashSweeper::audit_point`]'s fixed check suite covers.
    pub fn cut_at(&mut self, p: CrashPoint) -> Option<(CrashCapture, Machine)> {
        let mut m = self.machine_at(p)?;
        let cap = m.inject_power_failure_audited();
        Some((cap, m))
    }

    /// Cuts power at `p` on a fork (or a fresh rerun) and returns the
    /// audit capture plus the post-resolution durable image, without
    /// resuming. `None` when the run finishes before `p.cycle`.
    pub fn capture_at(&mut self, p: CrashPoint) -> Option<(CrashCapture, Memory)> {
        // COW pages make the image clone a shallow O(pages-table)
        // snapshot, not a copy of the PM footprint.
        self.cut_at(p)
            .map(|(cap, m)| (cap, m.pm_contents().clone()))
    }

    /// Audits a single crash point against a precomputed golden image
    /// and returns a one-point report: cut power, check the structural
    /// invariants, resume to completion, compare final durable state.
    pub fn audit_point(&mut self, golden: &Memory, p: CrashPoint) -> CrashAuditReport {
        let mut report = CrashAuditReport {
            points: 1,
            ..CrashAuditReport::default()
        };
        let Some(mut m) = self.machine_at(p) else {
            report.beyond_end += 1;
            return report;
        };
        report.audited += 1;
        report.audited_by_kind[p.kind.idx()] += 1;
        let cap = m.inject_power_failure_audited();
        report.entries_flushed += cap.report.entries_flushed;
        report.entries_discarded += cap.report.entries_discarded;
        report.undo_rolled_back += cap.report.undo_rolled_back;
        check_capture(&cap, m.pm_contents(), p, &mut report.violations);

        // Resume and require convergence to the golden durable state.
        // The recovered run gets a fresh budget: `run_until` may have
        // stopped exactly at `max_cycles` (a crash point at the cap is
        // legitimate), and resuming under the original cap would report
        // a cap hit after zero post-crash cycles.
        let max_cycles = self.injector.cfg.max_cycles;
        m.set_max_cycles(p.cycle.saturating_add(max_cycles));
        if m.run() != Completion::Finished {
            report.violations.push(InvariantViolation {
                invariant: "resume-completes",
                point: p,
                detail: format!(
                    "recovered run exhausted a fresh {max_cycles}-cycle budget at {}",
                    m.now()
                ),
            });
            return report;
        }
        // Exclude checkpoint/PC slots: recovery metadata whose final
        // contents depend on where forced region closes fired, which
        // legitimately differs once a crash perturbs timing.
        if let Some((addr, got, want)) = m
            .pm_contents()
            .first_difference_where(golden, |a| !layout::is_checkpoint_addr(a))
        {
            report.violations.push(InvariantViolation {
                invariant: "resume-state-equivalence",
                point: p,
                detail: format!("PM diverges at {addr:#x}: got {got:#x}, golden {want:#x}"),
            });
        }
        report
    }
}

/// Checks the structural invariants of one [`CrashCapture`] against the
/// post-resolution durable image `pm_after`, appending any violations.
///
/// Exposed so tests can audit hand-built captures; normal use goes
/// through [`CrashInjector::audit`].
pub fn check_capture(
    cap: &CrashCapture,
    pm_after: &Memory,
    point: CrashPoint,
    out: &mut Vec<InvariantViolation>,
) {
    let mut fail = |invariant: &'static str, detail: String| {
        out.push(InvariantViolation {
            invariant,
            point,
            detail,
        });
    };

    // survivable-prefix: one contiguous run starting at the frontier.
    let contiguous = cap
        .survivable
        .iter()
        .enumerate()
        .all(|(i, &r)| r == cap.commit_frontier + i as u64);
    if !contiguous {
        fail(
            "survivable-prefix",
            format!(
                "survivable {:?} is not contiguous from frontier {}",
                cap.survivable, cap.commit_frontier
            ),
        );
    }

    // gate-flush / gate-discard: each entry's fate matches the tracker's
    // ground-truth survivable set (not the possibly-mutated one the
    // resolution used — that is exactly how a broken gate gets caught).
    for (mc, res) in cap.per_mc.iter().enumerate() {
        for e in &res.flushed {
            if !cap.survivable.contains(&e.region) {
                fail(
                    "gate-flush",
                    format!(
                        "MC{mc} flushed {:#x} of unpersisted region {} to PM",
                        e.addr, e.region
                    ),
                );
            }
        }
        for e in &res.discarded {
            if cap.survivable.contains(&e.region) {
                fail(
                    "gate-discard",
                    format!(
                        "MC{mc} discarded {:#x} of persisted region {}",
                        e.addr, e.region
                    ),
                );
            }
        }
    }

    // resolution-exact: replaying the recorded flushes and rollbacks on
    // the pre-cut image must reproduce the post-resolution image — no
    // unrecorded write reached PM, every recorded one did.
    let mut expected = cap.pm_before.clone();
    for res in &cap.per_mc {
        for e in &res.flushed {
            expected.write_word(e.addr, e.val);
        }
        for &(_region, addr, old) in &res.rolled_back {
            expected.write_word(addr, old);
        }
    }
    if let Some((addr, want, got)) = expected.first_difference(pm_after) {
        fail(
            "resolution-exact",
            format!("PM at {addr:#x} is {got:#x}, replayed resolution gives {want:#x}"),
        );
    }

    // resume-from-checkpoint: each thread's resume point is what its PM
    // checkpoint slot holds.
    for (tid, pt) in cap.report.resume_points.iter().enumerate() {
        let slot = pm_after.read_word(layout::pc_slot(tid));
        if pt.encode() != slot {
            fail(
                "resume-from-checkpoint",
                format!(
                    "thread {tid} resumes at {:#x} but its PM slot holds {slot:#x}",
                    pt.encode()
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `prepare_points` canonicalises: sorted by `(cycle, kind)`, exact
    /// duplicates removed, same-cycle different-kind points kept.
    #[test]
    fn prepare_points_sorts_and_dedups() {
        let mk = |cycle, kind| CrashPoint { cycle, kind };
        let raw = [
            mk(50, CrashPointKind::Seeded),
            mk(10, CrashPointKind::McSkew),
            mk(50, CrashPointKind::Seeded), // exact dup: dropped
            mk(10, CrashPointKind::MidRegion),
            mk(50, CrashPointKind::MidWpqDrain), // same cycle, other kind: kept
            mk(10, CrashPointKind::McSkew),      // exact dup: dropped
        ];
        assert_eq!(
            CrashInjector::prepare_points(&raw),
            vec![
                mk(10, CrashPointKind::MidRegion),
                mk(10, CrashPointKind::McSkew),
                mk(50, CrashPointKind::Seeded),
                mk(50, CrashPointKind::MidWpqDrain),
            ]
        );
    }
}

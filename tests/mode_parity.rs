//! The mode parity harness: one generic differential check of a fast
//! path against its retained executable specification, run over one
//! scheme × config × workload matrix for every machine-level row of
//! [`AXES`] (the `mem` row's reference exists only at model level; its
//! check is `crates/mem/tests/mem_fast_path.rs`).
//!
//! A check runs the same work under two [`Setting`]s and asserts that
//! everything observable is bit-identical: completion, final cycle,
//! full `SimStats`, the durable PM image and the I/O log of every run;
//! each crash capture (survivable set, per-MC resolutions, resume
//! points, the pre- and post-resolution images), which on each side
//! must also equal the recovered machine's; every crash-audit report,
//! violation text included; and every data-structure audit.
//!
//! Every case runs against every axis it exercises, its reference
//! against the all-fast default. The cases the retired per-axis suites
//! also ran on top of another axis's reference keep that composition:
//! the run matrix diffs the decoded engine against the tree-walker
//! under the per-cycle stepper too, the audit matrix diffs fork against
//! rerun sweeps under the per-cycle stepper too, and the single-thread
//! mutant audits diff fork against rerun under the tree-walker too.
//! With the default pairs these close squares of compositions: the
//! stepper's fork sweep equals skip-ahead's (step axis), which equals
//! skip-ahead's rerun sweep (sweep axis), which equals the stepper's
//! rerun sweep (sweep axis under the step reference).
//!
//! The crash-sweep cases run at the retired sweep suite's size on the
//! sweep axis and smaller on the axes the union added them to; the
//! whole-run cases run at the retired step and exec suites' size.
//!
//! The entry points are `step_mode_parity.rs`, `exec_mode_parity.rs`
//! and `sweep_mode_parity.rs`, one per axis. Each names every case that
//! exercises its axis; plain runs do not touch the sweep mode, so the
//! sweep entry leaves those out.
// The sweep entry does not use the whole-run cases.
#![allow(dead_code)]

#[path = "ds_suite.rs"]
mod ds_suite;

use lightwsp_compiler::{instrument, Compiled, CompilerConfig};
use lightwsp_core::{audit_recoverable_ds_with, Campaign, DsAuditBudget};
use lightwsp_core::{DsAuditReport, ExperimentOptions, Job};
use lightwsp_ir::{Memory, Program};
use lightwsp_sim::{
    CrashAuditReport, CrashCapture, CrashInjector, CrashPoint, CrashPointKind, ExecMode,
    GatingMutant, GoldenPoints, Machine, Scheme, SimConfig, StepMode, SweepMode, AXES,
};
use lightwsp_workloads::ds::service::KvServiceSpec;
use lightwsp_workloads::ds::RecoverableDs;
use lightwsp_workloads::{workload, Suite, WorkloadSpec};
use proptest::prelude::*;

/// Defines `AXIS`, one `#[test]` per `name => case` pair running that
/// harness case against the axis, and the random point-set proptest
/// every axis shares.
macro_rules! axis_tests {
    ($axis:literal: $($name:ident => $case:ident),* $(,)?) => {
        const AXIS: &str = $axis;
        $(
            #[test]
            fn $name() {
                mode_parity::$case(AXIS);
            }
        )*

        proptest! {
            #![proptest_config(ProptestConfig {
                cases: 6,
                .. ProptestConfig::default()
            })]

            #[test]
            fn random_point_sets_audit_identically(
                raw in prop::collection::vec((1u64..30_000, 0usize..6), 1..20),
                seed in 0u64..u64::MAX,
            ) {
                mode_parity::random_points(AXIS, &raw, seed);
            }
        }
    };
}

/// The mode settings of one side of a check.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setting {
    step: StepMode,
    exec: ExecMode,
    sweep: SweepMode,
}

impl Setting {
    /// This setting with `axis` switched to its reference; `None` for
    /// an axis no machine setting selects.
    fn with_reference(mut self, axis: &str) -> Option<Setting> {
        match axis {
            "step" => self.step = StepMode::Reference,
            "exec" => self.exec = ExecMode::Reference,
            "sweep" => self.sweep = SweepMode::Rerun,
            _ => return None,
        }
        Some(self)
    }

    fn apply(self, cfg: &mut SimConfig) {
        cfg.step_mode = self.step;
        cfg.exec_mode = self.exec;
    }
}

/// Two settings one check compares.
pub struct Pair {
    pub label: String,
    pub fast: Setting,
    pub reference: Setting,
}

/// The comparisons for the axis named `axis`: its reference against
/// the all-fast default, and the same on top of the reference of each
/// axis named in `under` that [`AXES`] lists before it.
pub fn pairs(axis: &str, under: &[&str]) -> Vec<Pair> {
    let pair = |label: String, fast: Setting| Pair {
        label,
        fast,
        reference: fast.with_reference(axis).expect("a machine-level axis"),
    };
    let mut pairs = vec![pair(axis.to_string(), Setting::default())];
    for before in AXES.iter().take_while(|a| a.name != axis) {
        if under.contains(&before.name) {
            let base = Setting::default().with_reference(before.name).unwrap();
            pairs.push(pair(
                format!("{axis} under the {} reference", before.name),
                base,
            ));
        }
    }
    pairs
}

/// `full` on the sweep axis, whose retired suite ran the sweep cases
/// at that size, and `small` on the axes the union added them to.
fn sized<T>(axis: &str, full: T, small: T) -> T {
    if axis == "sweep" {
        full
    } else {
        small
    }
}

/// One (config, program) cell of the matrix.
pub struct Case {
    pub name: &'static str,
    pub cfg: SimConfig,
    pub threads: usize,
    source: Source,
}

/// Where a case's program comes from.
#[derive(Clone)]
enum Source {
    /// A generated workload at `insts` instructions per thread.
    Generated { spec: WorkloadSpec, insts: u64 },
    /// A hand-written program.
    Written(Program),
}

impl Case {
    fn new(name: &'static str, cfg: SimConfig, workload_name: &str, insts: u64) -> Case {
        Case::generated(name, cfg, workload(workload_name).unwrap(), insts)
    }

    fn generated(name: &'static str, cfg: SimConfig, spec: WorkloadSpec, insts: u64) -> Case {
        Case {
            name,
            cfg,
            threads: spec.threads,
            source: Source::Generated { spec, insts },
        }
    }

    /// A recoverable data structure's program, one core per thread.
    fn ds(name: &'static str, scheme: Scheme, ds: &dyn RecoverableDs) -> Case {
        Case {
            name,
            cfg: SimConfig::new(scheme).with_cores(ds.threads()),
            threads: ds.threads(),
            source: Source::Written(ds.program()),
        }
    }

    fn threads(mut self, threads: usize) -> Case {
        self.threads = threads;
        if let Source::Generated { spec, .. } = &mut self.source {
            spec.threads = threads;
        }
        self
    }

    fn compiled(&self) -> Compiled {
        let program = match &self.source {
            Source::Generated { spec, insts } => spec.clone().scaled_to(*insts).generate(),
            Source::Written(program) => program.clone(),
        };
        if self.cfg.scheme.is_instrumented() {
            instrument(&program, &CompilerConfig::default())
        } else {
            Compiled {
                program,
                recipes: Default::default(),
                stats: Default::default(),
            }
        }
    }

    fn cfg(&self, setting: Setting) -> SimConfig {
        let mut cfg = self.cfg.clone();
        setting.apply(&mut cfg);
        cfg
    }

    fn machine(&self, compiled: &Compiled, setting: Setting) -> Machine {
        Machine::new(
            compiled.program.clone(),
            compiled.recipes.clone(),
            self.cfg(setting),
            self.threads,
        )
    }

    fn injector<'a>(&self, compiled: &'a Compiled, setting: Setting) -> CrashInjector<'a> {
        CrashInjector::new(compiled, self.cfg(setting), self.threads).with_sweep_mode(setting.sweep)
    }

    /// This case under the gating mutant `mutant` (`None`: clean).
    fn with_mutant(&self, mutant: Option<GatingMutant>) -> Case {
        let mut cfg = self.cfg.clone();
        cfg.gating_mutant = mutant;
        Case {
            cfg,
            source: self.source.clone(),
            ..*self
        }
    }
}

/// A clean machine, then each gating mutant.
const GATING_MUTANTS: [Option<GatingMutant>; 4] = [
    None,
    Some(GatingMutant::FlushUnacked),
    Some(GatingMutant::AnyMcBoundary),
    Some(GatingMutant::FirstMcBoundary),
];

fn small_cfg(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::new(scheme);
    cfg.mem.l1_bytes = 16 * 1024;
    cfg.mem.l2_bytes = 128 * 1024;
    cfg
}

/// Eight threads on eight cores, the paper's multi-threaded shape, at
/// `insts` instructions per thread.
fn eight_core(name: &'static str, scheme: Scheme, workload_name: &str, insts: u64) -> Case {
    Case::new(
        name,
        SimConfig::new(scheme).with_cores(8),
        workload_name,
        insts,
    )
    .threads(8)
}

/// A WPQ-saturated eight-core LightWSP cell: head-of-line retries every
/// cycle, the overflow fallback, full store buffers.
fn saturated_eight_core() -> Case {
    eight_core("lightwsp-8core", Scheme::LightWsp, "labyrinth", 4_000)
}

/// The run matrix: one MC (no boundary-broadcast skew), four MCs with
/// a tiny WPQ (deadlock detection, overflow mode, HOL retries), Capri
/// stop-and-wait, PPA drain waits, multithreaded locks with two
/// threads per core (spin wake-ups, timeslice rotation) under LightWSP
/// and under both regular-path schemes — the states where skip and
/// batching decisions are most delicate; eight cores, where skip-ahead
/// visits only the cores due in each phase, WPQ-saturated under
/// LightWSP and with commit waits under Capri; the small KV service on
/// one core per thread, retire-bound behind full store buffers and
/// head-of-line retries; plus the audit matrix below, run whole.
pub fn run_cases() -> Vec<Case> {
    let mut one_mc = SimConfig::new(Scheme::LightWsp);
    one_mc.mem.num_mcs = 1;
    let mut tiny_wpq = SimConfig::new(Scheme::LightWsp);
    tiny_wpq.mem.num_mcs = 4;
    tiny_wpq.mem.wpq_entries = 8;
    let mut cases = vec![
        Case::new("lightwsp-1mc", one_mc, "bzip2", 10_000),
        Case::new("lightwsp-4mc-wpq8", tiny_wpq, "mcf", 10_000),
        Case::new("capri", SimConfig::new(Scheme::Capri), "hmmer", 10_000),
        Case::new("ppa", SimConfig::new(Scheme::Ppa), "lbm", 10_000),
        Case::new(
            "lightwsp-2core",
            SimConfig::new(Scheme::LightWsp).with_cores(2),
            "vacation",
            8_000,
        )
        .threads(4),
        Case::new(
            "baseline-2core",
            SimConfig::new(Scheme::Baseline).with_cores(2),
            "vacation",
            8_000,
        )
        .threads(4),
        Case::new(
            "psp-ideal-2core",
            SimConfig::new(Scheme::PspIdeal).with_cores(2),
            "radix",
            8_000,
        )
        .threads(4),
        saturated_eight_core(),
        eight_core("capri-8core", Scheme::Capri, "vacation", 2_000),
        Case::ds(
            "kv-service",
            Scheme::LightWsp,
            &KvServiceSpec::new(2, 256, 8, 64, 8, 16),
        ),
    ];
    cases.extend(audit_cases(2_000));
    cases
}

/// The audit matrix at `insts` instructions per thread: small caches,
/// LightWSP on 2 MCs, four MCs with a tiny WPQ and four threads on two
/// cores, LightWSP without LRPO, and Capri.
pub fn audit_cases(insts: u64) -> Vec<Case> {
    let mut wide = small_cfg(Scheme::LightWsp).with_cores(2);
    wide.mem.num_mcs = 4;
    wide.mem.wpq_entries = 8;
    let mut no_lrpo = small_cfg(Scheme::LightWsp);
    no_lrpo.disable_lrpo = true;
    vec![
        Case::new("lightwsp-2mc", small_cfg(Scheme::LightWsp), "hmmer", insts),
        Case::new("lightwsp-4mc-tinywpq", wide, "vacation", insts).threads(4),
        Case::new("lightwsp-nolrpo", no_lrpo, "hmmer", insts),
        Case::new("capri", small_cfg(Scheme::Capri), "hmmer", insts),
    ]
}

/// A point budget: instructions per thread, derived points per
/// mechanism window, seeded points.
#[derive(Clone, Copy)]
struct Budget {
    insts: u64,
    per_kind: usize,
    seeded: usize,
}

/// The budget of the retired sweep suite's audits, and the one its
/// cases run at on the other axes.
const SWEEP_AUDIT: Budget = Budget {
    insts: 8_000,
    per_kind: 3,
    seeded: 10,
};
const UNION_AUDIT: Budget = Budget {
    insts: 2_000,
    per_kind: 1,
    seeded: 3,
};

fn assert_same_machine(label: &str, a: &Machine, b: &Machine) {
    assert_eq!(a.now(), b.now(), "final cycle differs: {label}");
    assert_eq!(a.stats(), b.stats(), "stats differ: {label}");
    assert_same_image(label, a.pm_contents(), b.pm_contents());
    assert_eq!(a.io_log(), b.io_log(), "I/O log differs: {label}");
}

fn assert_same_image(label: &str, a: &Memory, b: &Memory) {
    assert!(
        a.same_contents(b),
        "PM image differs: {label} (first diff {:?})",
        a.first_difference(b)
    );
}

fn assert_same_capture(label: &str, a: &CrashCapture, b: &CrashCapture) {
    assert_eq!(a.at_cycle, b.at_cycle, "{label}");
    assert_eq!(a.commit_frontier, b.commit_frontier, "{label}");
    assert_eq!(a.last_allocated, b.last_allocated, "{label}");
    assert_eq!(a.survivable, b.survivable, "{label}");
    assert_eq!(a.used_survivable, b.used_survivable, "{label}");
    assert_eq!(a.per_mc, b.per_mc, "per-MC resolutions differ: {label}");
    assert_eq!(
        a.report.resume_points, b.report.resume_points,
        "resume points differ: {label}"
    );
    assert_same_image(
        &format!("{label} (pre-resolution)"),
        &a.pm_before,
        &b.pm_before,
    );
}

/// Every counter of a crash-audit report, violations as rendered.
fn render(r: &CrashAuditReport) -> String {
    let violations: Vec<String> = r.violations.iter().map(ToString::to_string).collect();
    format!(
        "points={} audited={} beyond_end={} by_kind={:?} flushed={} discarded={} \
         rolled_back={} golden={} violations={violations:#?}",
        r.points,
        r.audited,
        r.beyond_end,
        r.audited_by_kind,
        r.entries_flushed,
        r.entries_discarded,
        r.undo_rolled_back,
        r.golden_cycles,
    )
}

/// The golden run and its derived + seeded points, prepared, with two
/// points past the end of the run appended in order.
fn golden_for(case: &Case, compiled: &Compiled, budget: Budget, seed: u64) -> GoldenPoints {
    let mut golden = case
        .injector(compiled, Setting::default())
        .golden_points(budget.per_kind, seed, budget.seeded)
        .expect("golden run");
    for cycle in [golden.cycles + 1_000, golden.cycles * 3] {
        golden.points.push(CrashPoint {
            cycle,
            kind: CrashPointKind::Seeded,
        });
    }
    golden
}

/// Runs `case` to completion under both sides of every pair.
fn run_both(case: &Case, pairs: &[Pair]) {
    let compiled = case.compiled();
    for pair in pairs {
        let label = format!("{} / {}", case.name, pair.label);
        let mut a = case.machine(&compiled, pair.fast);
        let mut b = case.machine(&compiled, pair.reference);
        assert_eq!(a.run(), b.run(), "completion differs: {label}");
        assert_same_machine(&label, &a, &b);
    }
}

/// The run matrix ([`run_cases`]), whole runs; the exec axis also
/// under the per-cycle stepper.
pub fn run_matrix(axis: &str) {
    let pairs = pairs(axis, &["step"]);
    for case in run_cases() {
        run_both(&case, &pairs);
    }
}

/// A zero timeslice round-robins threads on every retire slot, so the
/// decoded engine collapses to one-instruction batches.
pub fn zero_timeslice(axis: &str) {
    let mut cfg = SimConfig::new(Scheme::LightWsp).with_cores(2);
    cfg.timeslice = 0;
    run_both(
        &Case::new("zero-timeslice", cfg, "vacation", 8_000).threads(4),
        &pairs(axis, &[]),
    );
}

/// The audit matrix ([`audit_cases`]), clean and under each gating
/// mutant, captured point by point through each side's sweeper: every
/// capture and both PM images identical. On each side the read-only
/// capture and image also equal the point's recovered machine's: the
/// capture its power cut returned and its PM.
pub fn captures(axis: &str) {
    let budget = sized(
        axis,
        Budget {
            insts: 6_000,
            ..SWEEP_AUDIT
        },
        UNION_AUDIT,
    );
    for base in audit_cases(budget.insts) {
        let compiled = base.compiled();
        let seed = 0xCAFE ^ base.name.len() as u64;
        let points = golden_for(&base, &compiled, budget, seed).points;
        for mutant in GATING_MUTANTS {
            let case = base.with_mutant(mutant);
            for pair in pairs(axis, &[]) {
                let fast = case.injector(&compiled, pair.fast);
                let reference = case.injector(&compiled, pair.reference);
                let (mut fs, mut rs) = (fast.sweeper(), reference.sweeper());
                for &p in &points {
                    let label = format!("{} {mutant:?} @{} / {}", case.name, p.cycle, pair.label);
                    match (fs.cut_at(p), rs.cut_at(p)) {
                        (None, None) => {}
                        (Some((fc, fi)), Some((rc, ri))) => {
                            assert_same_capture(&label, &fc, &rc);
                            assert_same_image(&format!("{label} (post-resolution)"), &fi, &ri);
                            for (side, sweeper, cap, image) in
                                [("fast", &mut fs, fc, fi), ("reference", &mut rs, rc, ri)]
                            {
                                let (recovered, m) = sweeper.recover();
                                let label = format!("{label} ({side}, recovered machine)");
                                assert_same_capture(&label, &cap, &recovered);
                                assert_same_image(&label, &image, m.pm_contents());
                            }
                        }
                        (f, r) => panic!(
                            "beyond-end split: {label} (fast {}, reference {})",
                            f.is_some(),
                            r.is_some()
                        ),
                    }
                }
            }
        }
    }
}

/// Every scheme on two single-thread workloads through the high-level
/// `Campaign` path (warm DRAM, scaled caches — what the figures run).
pub fn experiment_matrix(axis: &str) {
    let c = Campaign::with_workers(1);
    for pair in pairs(axis, &[]) {
        let options = |setting: Setting| {
            let mut o = ExperimentOptions::quick();
            setting.apply(&mut o.sim);
            o
        };
        let (fast, reference) = (options(pair.fast), options(pair.reference));
        for scheme in Scheme::ALL {
            for name in ["hmmer", "mcf"] {
                let w = workload(name).unwrap();
                let (f, r) = (
                    c.run_one(&Job::new(&fast, &w, scheme)),
                    c.run_one(&Job::new(&reference, &w, scheme)),
                );
                let label = format!("{name}/{scheme:?} / {}", pair.label);
                assert_eq!(f.completion, r.completion, "{label}");
                assert_eq!(f.stats, r.stats, "{label}");
            }
        }
    }
}

/// `run_until` past the cycle cap stops exactly at `max_cycles` with
/// the stats folded, under every setting; inside the cap it lands on
/// exactly the requested cycle, and both sides agree at every stop.
pub fn run_until(axis: &str) {
    let case = Case::new("mcf", SimConfig::new(Scheme::LightWsp), "mcf", 10_000);
    let mut capped = Case::new("mcf", SimConfig::new(Scheme::LightWsp), "mcf", 10_000);
    capped.cfg.max_cycles = 2_000;
    let compiled = case.compiled();
    for pair in pairs(axis, &[]) {
        for setting in [pair.fast, pair.reference] {
            let mut m = capped.machine(&compiled, setting);
            assert!(!m.run_until(u64::MAX), "cannot complete by the cap");
            assert_eq!(m.now(), 2_000, "{setting:?}: capped exactly at max_cycles");
            assert_eq!(m.stats().cycles, 2_000, "{setting:?}: stats folded at cap");
        }
        let mut a = case.machine(&compiled, pair.fast);
        let mut b = case.machine(&compiled, pair.reference);
        for target in [1, 37, 1_000, 4_321, 20_000] {
            assert!(!a.run_until(target));
            assert!(!b.run_until(target));
            assert_eq!(a.now(), target);
            assert_eq!(b.now(), target);
            assert_eq!(a.stats(), b.stats(), "@{target} / {}", pair.label);
        }
    }
}

/// The batched per-retire counters must fold into their owners before
/// every observable point, and skip-ahead must have charged every
/// unvisited core's stall cycles; cycle boundaries are the finest.
/// Stepping both sides in lockstep one cycle at a time, the full stats
/// must be equal after every cycle.
pub fn lockstep(axis: &str) {
    let mut cases: Vec<Case> = [Scheme::LightWsp, Scheme::Baseline, Scheme::Ppa]
        .into_iter()
        .map(|scheme| Case::new("hmmer", SimConfig::new(scheme), "hmmer", 2_000))
        .collect();
    cases.push(eight_core("capri-8core", Scheme::Capri, "vacation", 500));
    for case in cases {
        let scheme = case.cfg.scheme;
        let compiled = case.compiled();
        for pair in pairs(axis, &[]) {
            let mut a = case.machine(&compiled, pair.fast);
            let mut b = case.machine(&compiled, pair.reference);
            let mut cycle = 0;
            loop {
                cycle += 1;
                let (ad, bd) = (a.run_until(cycle), b.run_until(cycle));
                let label = format!("{} {scheme:?} @{cycle} / {}", case.name, pair.label);
                assert_eq!(
                    a.stats(),
                    b.stats(),
                    "stats differ at cycle boundary: {label}"
                );
                assert_eq!(ad, bd, "completion skew: {label}");
                if ad {
                    break;
                }
            }
        }
    }
}

/// The step counters repeat exactly when a run is repeated, and on a
/// saturated eight-core cell skip-ahead makes fewer retire and persist
/// visits than the per-cycle stepper, which visits every core in both
/// phases of every cycle; each cycle is stepped, retire-only or
/// skipped, and the head-of-line retries and retire dispatches are the
/// same on both sides.
pub fn step_counters() {
    let case = saturated_eight_core();
    let compiled = case.compiled();
    let run = |setting: Setting| {
        let mut m = case.machine(&compiled, setting);
        m.run();
        (m.step_counters(), m.now())
    };
    let fast = Setting::default();
    let (counters, cycles) = run(fast);
    assert_eq!(counters, run(fast).0, "counters differ between two runs");
    let (reference, _) = run(fast.with_reference("step").unwrap());
    let visits = 8 * cycles;
    assert_eq!(
        (
            reference.full_steps,
            reference.retire_visits,
            reference.persist_visits
        ),
        (cycles, visits, visits),
        "the per-cycle stepper visits every core every cycle"
    );
    assert_eq!(
        counters.full_steps + counters.retire_only_steps + counters.skipped_cycles,
        cycles
    );
    assert_eq!(counters.hol_retries, reference.hol_retries);
    assert!(counters.hol_retries > 0, "the cell is not WPQ-saturated");
    // A visit that dispatches does the same work under either stepper;
    // skip-ahead only drops the visits that would not dispatch.
    assert_eq!(
        counters.retire_dispatches, reference.retire_dispatches,
        "retire dispatches differ between step modes"
    );
    assert!(counters.retire_dispatches > 0);
    assert!(
        counters.retire_visits < reference.retire_visits
            && counters.persist_visits < reference.persist_visits,
        "skip-ahead visited as many cores as the stepper: {counters:?}"
    );
}

/// Power cuts at identical cycles on one machine, each followed by
/// in-place recovery: identical captures and fully folded stats at
/// every cut, identical runs after the last one.
fn repeated_crashes(axis: &str, cases: &[(&'static str, Scheme, u64)], targets: &[u64]) {
    for &(name, scheme, insts) in cases {
        let case = Case::new(name, SimConfig::new(scheme), name, insts);
        let compiled = case.compiled();
        for pair in pairs(axis, &[]) {
            let mut a = case.machine(&compiled, pair.fast);
            let mut b = case.machine(&compiled, pair.reference);
            for &target in targets {
                let label = format!("{name}/{scheme:?}@{target} / {}", pair.label);
                assert!(!a.run_until(target));
                assert!(!b.run_until(target));
                let (ac, bc) = (
                    a.inject_power_failure_audited(),
                    b.inject_power_failure_audited(),
                );
                assert_same_capture(&label, &ac, &bc);
                assert_eq!(
                    a.stats(),
                    b.stats(),
                    "stats differ at crash capture: {label}"
                );
            }
            let label = format!("{name}/{scheme:?} post-recovery / {}", pair.label);
            assert_eq!(a.run(), b.run(), "{label}");
            assert_same_machine(&label, &a, &b);
        }
    }
}

/// Crash resolutions at arbitrary cycles, LightWSP and Capri.
pub fn crash_resolutions(axis: &str) {
    repeated_crashes(
        axis,
        &[
            ("hmmer", Scheme::LightWsp, 8_000),
            ("mcf", Scheme::Capri, 8_000),
        ],
        &[211, 1_009, 3_500, 9_999],
    );
}

/// Stats folded at crash captures (the batched-retire fold points).
pub fn crash_stats_fold(axis: &str) {
    repeated_crashes(
        axis,
        &[("mcf", Scheme::LightWsp, 6_000)],
        &[97, 1_013, 4_999],
    );
}

/// Audits `points` on both sides of every pair, each audit on a thread
/// of its own (a rerun sweep under the per-cycle stepper is the
/// costliest work of the harness), and compares the reports.
fn audit_pairs(
    case: &Case,
    compiled: &Compiled,
    points: &[CrashPoint],
    pairs: &[Pair],
) -> Vec<CrashAuditReport> {
    let audit = |setting| {
        case.injector(compiled, setting)
            .audit(points)
            .expect("golden run")
    };
    let reports: Vec<(CrashAuditReport, CrashAuditReport)> = std::thread::scope(|s| {
        let threads: Vec<_> = pairs
            .iter()
            .map(|pair| {
                (
                    s.spawn(move || audit(pair.fast)),
                    s.spawn(move || audit(pair.reference)),
                )
            })
            .collect();
        threads
            .into_iter()
            .map(|(f, r)| (f.join().unwrap(), r.join().unwrap()))
            .collect()
    });
    let mut fast_reports = Vec::new();
    for (pair, (f, r)) in pairs.iter().zip(reports) {
        assert_eq!(
            render(&f),
            render(&r),
            "audit reports differ: {} / {}",
            case.name,
            pair.label
        );
        fast_reports.push(f);
    }
    fast_reports
}

/// The audit matrix ([`audit_cases`]): full audits (capture, checks,
/// resume to completion) of derived, seeded and past-the-end points,
/// every one clean; also under the per-cycle stepper.
pub fn audit_matrix(axis: &str) {
    let budget = sized(axis, SWEEP_AUDIT, UNION_AUDIT);
    let pairs = pairs(axis, &["step"]);
    for case in audit_cases(budget.insts) {
        let compiled = case.compiled();
        let seed = 0xC0FFEE ^ case.name.len() as u64;
        let points = golden_for(&case, &compiled, budget, seed).points;
        for report in audit_pairs(&case, &compiled, &points, &pairs) {
            assert!(report.audited > 0, "nothing audited: {}", case.name);
            assert!(
                report.beyond_end >= 2,
                "beyond-end points lost: {}",
                case.name
            );
            assert!(
                report.violations.is_empty(),
                "clean config violated the contract: {}: {:?}",
                case.name,
                report.violations
            );
        }
    }
}

/// Every gating mutant reaches the same diagnosis on both sides —
/// violation list, entry counts, everything — and `FlushUnacked` is
/// flagged. Two shapes: four threads over four MCs, where every mutant
/// fires (the skew window the boundary-gating mutants need; the retired
/// sweep suite's, run on the sweep axis only), and single-thread hmmer,
/// where a clean run must also stay clean (the retired exec suite's,
/// which also ran it under rerun sweeps: here the sweep axis under the
/// tree-walker).
pub fn mutant_audits(axis: &str) {
    use GatingMutant::FlushUnacked;
    let mut skew = small_cfg(Scheme::LightWsp).with_cores(4);
    skew.mem.num_mcs = 4;
    skew.mem.wpq_entries = 16;
    // A mutant-derailed resume burns a bounded budget (the run itself
    // ends near cycle 71k), not the default.
    skew.max_cycles = 200_000;
    let mut single = small_cfg(Scheme::LightWsp);
    single.max_cycles = 2_000_000;
    let shapes = [
        (
            Case::new("vacation-4mc", skew, "vacation", 2_000).threads(4),
            sized(axis, &GATING_MUTANTS[1..], &[]),
            Budget {
                insts: 2_000,
                per_kind: 3,
                seeded: 4,
            },
            0xBAD_5EED,
            pairs(axis, &[]),
        ),
        (
            Case::new("hmmer", single, "hmmer", 4_000),
            &GATING_MUTANTS[..],
            Budget {
                insts: 4_000,
                per_kind: 1,
                seeded: 2,
            },
            0xD15C0,
            pairs(axis, &["exec"]),
        ),
    ];
    for (base, mutants, budget, seed, pairs) in shapes {
        let compiled = base.compiled();
        for &mutant in mutants {
            let case = base.with_mutant(mutant);
            let points = golden_for(&case, &compiled, budget, seed).points;
            for report in audit_pairs(&case, &compiled, &points, &pairs) {
                let label = format!("{} {mutant:?}", case.name);
                assert!(report.audited > 0, "{label}: no point interrupted the run");
                // Every mutant fires under the skew; single-thread
                // hmmer has none, so only FlushUnacked fires there.
                match mutant {
                    None => assert!(
                        report.violations.is_empty(),
                        "{label}: {:?}",
                        report.violations
                    ),
                    Some(m) if m == FlushUnacked || base.threads > 1 => {
                        assert!(!report.violations.is_empty(), "{label}: mutant not caught")
                    }
                    Some(_) => {}
                }
            }
        }
    }
}

/// The campaign drivers' decomposition — one sweeper per contiguous
/// chunk, reports merged in chunk order — on the reference side equals
/// the single-sweeper serial audit on the fast side, and so does the
/// fast side's own decomposition.
pub fn chunked_sweeps(axis: &str) {
    let budget = sized(axis, SWEEP_AUDIT, UNION_AUDIT);
    let case = Case::new("hmmer", small_cfg(Scheme::LightWsp), "hmmer", budget.insts);
    let compiled = case.compiled();
    let golden = golden_for(&case, &compiled, budget, 0x5EED);
    let fresh = || CrashAuditReport {
        golden_cycles: golden.cycles,
        ..CrashAuditReport::default()
    };
    for pair in pairs(axis, &[]) {
        let fast = case.injector(&compiled, pair.fast);
        let mut serial = fresh();
        serial.merge(&fast.audit_chunk(&golden.image, &golden.points));
        let reference = case.injector(&compiled, pair.reference);
        for chunk_len in [1, 3, 7] {
            for (side, injector) in [("fast", &fast), ("reference", &reference)] {
                let mut merged = fresh();
                for chunk in golden.points.chunks(chunk_len) {
                    merged.merge(&injector.audit_chunk(&golden.image, chunk));
                }
                assert_eq!(
                    render(&serial),
                    render(&merged),
                    "{side} chunk_len={chunk_len} / {}",
                    pair.label
                );
            }
        }
    }
}

/// Arbitrary point sets — unsorted, duplicated, clustered, partly past
/// the end of the run — audit identically and cleanly.
pub fn random_points(axis: &str, raw: &[(u64, usize)], seed: u64) {
    let case = Case::new("hmmer", small_cfg(Scheme::LightWsp), "hmmer", 6_000);
    let compiled = case.compiled();
    let mut points: Vec<CrashPoint> = raw
        .iter()
        .map(|&(cycle, k)| CrashPoint {
            cycle,
            kind: CrashPointKind::ALL[k],
        })
        .collect();
    points.extend(
        case.injector(&compiled, Setting::default())
            .seeded_points(seed, 4, 12_000),
    );
    for report in audit_pairs(&case, &compiled, &points, &pairs(axis, &[])) {
        assert!(
            report.violations.is_empty(),
            "clean run violated: {:?}",
            report.violations
        );
    }
}

/// A random program shape, seed stream, scheme and MC count: whole
/// runs identical.
pub fn random_workload(axis: &str, spec: WorkloadSpec, scheme_idx: usize, num_mcs: usize) {
    let mut cfg = SimConfig::new(Scheme::ALL[scheme_idx]);
    cfg.mem.num_mcs = num_mcs;
    run_both(
        &Case::generated("prop", cfg, spec, 8_000),
        &pairs(axis, &[]),
    );
}

/// Random single-thread program shapes.
pub fn arbitrary_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        1u32..4,                                          // loads
        1u32..4,                                          // stores
        0u32..8,                                          // alu
        12u64..18,                                        // log2 working set
        0.0f64..1.0,                                      // seq fraction
        1u32..4,                                          // phases
        20u32..60,                                        // iters per phase
        prop_oneof![Just(0u32), Just(8u32), Just(16u32)], // sync_every
        0u64..u64::MAX,                                   // seed
    )
        .prop_map(
            |(loads, stores, alu, ws_log2, seq, phases, iters, sync_every, seed)| WorkloadSpec {
                name: "prop",
                suite: Suite::Cpu2006,
                seed,
                loads_per_iter: loads,
                stores_per_iter: stores,
                alu_per_iter: alu,
                working_set: 1 << ws_log2,
                seq_fraction: seq,
                phases,
                iters_per_phase: iters,
                call_every: 2,
                sync_every,
                threads: 1,
                locks: 4,
                seq_stride: 8,
            },
        )
}

fn render_ds(r: &DsAuditReport) -> String {
    let gate: Vec<String> = r.gate_violations.iter().map(ToString::to_string).collect();
    format!(
        "{} points={} audited={} beyond_end={} resumed={} golden={} gate={gate:#?} ds={:#?}",
        r.name, r.points, r.audited, r.beyond_end, r.resumed, r.golden_cycles, r.ds_violations,
    )
}

/// The small DS suite of `ds_recovery.rs`: the crash audits (a few
/// points, sampled resumes) report identically and cleanly — which
/// includes every golden image satisfying its structure's
/// completed-run checker under every setting.
pub fn ds_audits(axis: &str) {
    let campaign = Campaign::with_workers(2);
    let budget = DsAuditBudget {
        seeded: 2,
        derived_per_kind: 1,
        resume_every: 4,
        ..DsAuditBudget::quick()
    };
    for ds in ds_suite::small_suite() {
        for pair in pairs(axis, &[]) {
            let audit = |setting: Setting| {
                let mut cfg = SimConfig::new(Scheme::LightWsp);
                setting.apply(&mut cfg);
                audit_recoverable_ds_with(
                    ds.as_ref(),
                    &cfg,
                    &CompilerConfig::default(),
                    &budget,
                    &campaign,
                    setting.sweep,
                )
                .unwrap()
            };
            let (f, r) = (audit(pair.fast), audit(pair.reference));
            assert_eq!(
                render_ds(&f),
                render_ds(&r),
                "{} / {}",
                ds.name(),
                pair.label
            );
            assert_eq!(f.violations(), 0, "{}: {}", ds.name(), render_ds(&f));
        }
    }
}

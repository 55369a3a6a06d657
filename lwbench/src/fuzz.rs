//! `model-fuzz`: the LRPO model fuzz sweep, `oracle::fuzz_sweep` over
//! 8000 `FuzzBias::CrossThread` cases in `EnumMode::Exact`, issued as
//! 40 sweeps of 200 cases so that each is timed on its own, as the
//! `fig-matrix` cells are, and the clock follows the host's speed
//! through the pass.
//!
//! Set-up is a warm-up sweep on a different seed. An op is one fuzz
//! case; it fails on any model violation, structural violation or
//! extract error.

use crate::trace::Tracer;
use crate::{Pass, Report, Scale};
use lightwsp_core::oracle::{fuzz_sweep, SweepReport};
use lightwsp_core::Campaign;
use lightwsp_ir::fxhash::FxHashSet;
use lightwsp_model::harness::{sim_config, CaseSpec, EnumMode, PointPolicy};
use lightwsp_model::{extract, gen_case_biased, FuzzBias, LrpoModel, ModelMutant, ProtocolOrder};
use lightwsp_sim::crash::check_capture;
use lightwsp_sim::{CrashInjector, Machine};

/// The stream seed of the `model_litmus` bin's fuzz stage; the
/// benchmark seed is XORed into it, so seed 0 replays that stream.
pub const FUZZ_SEED: u64 = 0x11BD_57A7;

/// Decorrelates the warm-up stream from the measured one.
const WARMUP_SALT: u64 = 0x5741_524D_5550;

/// Set-ups before every pass; `setup_s` is their median.
const SETUPS_PER_PASS: usize = 2;

/// Step budget the harness gives extraction (a runaway guard).
const EXTRACT_STEPS: u64 = 1_000_000;

/// Points per case: `fuzz_sweep`'s derived cap per kind and seeded count.
const CAP_PER_KIND: usize = 3;
const SEEDED: usize = 4;

/// `(sweeps, cases per sweep, warm-up cases)` per pass.
fn sizes(scale: Scale) -> (u64, u64, u64) {
    match scale {
        Scale::Full => (40, 200, 400),
        Scale::Tiny => (5, 10, 10),
    }
}

/// The stream seed of sweep `i` of a pass rooted at `stream`; sweep 0
/// replays the root stream itself.
pub fn sweep_seed(stream: u64, i: u64) -> u64 {
    stream ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn sweep(campaign: &Campaign, seed: u64, count: u64) -> SweepReport {
    fuzz_sweep(
        campaign,
        seed,
        count,
        Default::default(),
        Default::default(),
        EnumMode::Exact,
        FuzzBias::CrossThread,
    )
}

/// The sweep's outputs that must repeat exactly from pass to pass.
#[derive(Clone, Debug, Default, PartialEq)]
struct Sweep {
    cases: usize,
    points: usize,
    audited: usize,
    exact_admitted: u128,
    witnessed: usize,
    violations: usize,
    extract_errors: usize,
}

impl Sweep {
    fn add(&mut self, o: &Sweep) {
        self.cases += o.cases;
        self.points += o.points;
        self.audited += o.audited;
        self.exact_admitted += o.exact_admitted;
        self.witnessed += o.witnessed;
        self.violations += o.violations;
        self.extract_errors += o.extract_errors;
    }

    fn new(r: &SweepReport) -> Sweep {
        Sweep {
            cases: r.cases + r.extract_errors.len(),
            points: r.points,
            audited: r.audited,
            exact_admitted: r.exact_admitted,
            witnessed: r.witnessed,
            violations: r.violations(),
            extract_errors: r.extract_errors.len(),
        }
    }
}

/// Runs the workload (see [`crate::run`]).
pub fn run(scale: Scale, seed: u64, seconds: f64, traced: bool) -> Report {
    let stream = FUZZ_SEED ^ seed;
    let (sweeps, per_sweep, warmup) = sizes(scale);
    let cases = sweeps * per_sweep;
    let mut passes = crate::measure(
        seconds,
        SETUPS_PER_PASS,
        || {
            let c = Campaign::with_workers(1);
            let w = Sweep::new(&sweep(&c, stream ^ WARMUP_SALT, warmup));
            (c, w)
        },
        |(campaign, _), clock| {
            let mut out = Sweep::default();
            let mut groups = Vec::new();
            for i in 0..sweeps {
                let (s, iv) = clock.time(|| sweep(campaign, sweep_seed(stream, i), per_sweep));
                out.add(&Sweep::new(&s));
                groups.push(iv);
            }
            Pass { groups, out }
        },
    );
    let ((campaign, warm), setup_s) = (&passes.state, passes.setup_s);
    let s = passes.outs[0].clone();

    let mut report = Report {
        correct: true,
        attempted: cases,
        // Violations name their case only as text; each one is charged
        // to one op, so `failed` is exact while violations are rare.
        failed: ((s.violations + s.extract_errors) as u64).min(cases),
        ..Report::default()
    };
    if report.failed > 0 || s.cases as u64 != cases {
        report.fail_check(format!(
            "{} of {cases} cases ran, {} violations, {} extract errors",
            s.cases, s.violations, s.extract_errors
        ));
    }
    if warm.violations + warm.extract_errors > 0 {
        report.fail_check("the warm-up sweep found violations".into());
    }
    if passes.outs.iter().any(|o| *o != s) {
        report.fail_check("a later pass disagrees with the first".into());
    }
    let served = campaign.cache_stats().served;
    if served != 0 {
        report.fail_check(format!("{served} cells were served from a store"));
    }
    let witnessed_pct = 100.0 * s.witnessed as f64 / s.exact_admitted as f64;
    report.notes.push(format!(
        "model-fuzz: {cases} cases, {} points audited, {} of {} exact images witnessed",
        s.audited, s.witnessed, s.exact_admitted,
    ));
    report.notes.push(passes.summary());

    if !traced {
        report.metrics = crate::end_to_end(
            setup_s,
            cases as f64 / passes.pass_s,
            &[("witnessed_pct", witnessed_pct)],
        );
        return report;
    }

    let mut t = Tracer::new();
    let ((), iv) = passes
        .clock
        .time_long(|| mirror(&mut t, stream, sweeps, per_sweep));
    let traced_pass_s = passes.clock.reference_seconds(&iv);
    crate::check_fidelity(
        &mut report,
        &t,
        &[
            (
                "points prepared",
                t.counter("sim.points_prepared"),
                s.points as u64,
            ),
            (
                "points audited",
                t.counter("sim.points_audited"),
                s.audited as u64,
            ),
            (
                "witnessed images",
                t.counter("model.witnessed"),
                s.witnessed as u64,
            ),
            (
                "exact-admitted images",
                t.counter("model.exact_admitted"),
                u64::try_from(s.exact_admitted).unwrap_or(u64::MAX),
            ),
            (
                "violations",
                t.counter("model.violations") + t.counter("sim.capture_violations"),
                (s.violations + s.extract_errors) as u64,
            ),
        ],
    );
    report.metrics = crate::per_layer(&t, traced_pass_s, passes.pass_s);
    report.tracer = Some(t);
    report
}

/// Traced mirror of the pass's `fuzz_sweep`s on one worker: per case,
/// generate, then `run_case` in exact mode (extract, traced run, model
/// build, per-point capture and checks, mutant-model counts).
fn mirror(t: &mut Tracer, stream: u64, sweeps: u64, per_sweep: u64) {
    t.enter("core.oracle");
    for (i, idx) in (0..sweeps).flat_map(|i| (0..per_sweep).map(move |idx| (i, idx))) {
        let seed = sweep_seed(stream, i);
        t.set_op(i * per_sweep + idx);
        let case = t.span("model.generate", || {
            gen_case_biased(seed, idx, FuzzBias::CrossThread)
        });
        let spec = CaseSpec {
            name: format!("fuzz-{}-{seed:#x}-{idx}", FuzzBias::CrossThread.name()),
            threads: case.threads,
            num_mcs: case.num_mcs,
            wpq_entries: case.wpq_entries,
            step_mode: Default::default(),
            sweep_mode: Default::default(),
            enum_mode: EnumMode::Exact,
            mutant: None,
            policy: PointPolicy::Derived {
                cap_per_kind: CAP_PER_KIND,
                seeded: SEEDED,
            },
            seed: seed ^ idx,
        };
        let compiled = &case.compiled;
        let rs = match t.span("model.extract", || {
            extract(&compiled.program, spec.threads, EXTRACT_STEPS)
        }) {
            Ok(rs) => rs,
            Err(_) => {
                t.add("model.violations", 1);
                continue;
            }
        };
        t.add(
            "model.regions",
            rs.threads.iter().map(|th| th.regions.len() as u64).sum(),
        );
        let cfg = sim_config(&spec);
        t.add("sim.machines", 1);
        let injector = t.span("sim.machine_new", || {
            CrashInjector::new(compiled, cfg.clone(), spec.threads)
        });
        t.add("sim.machines", 1);
        let (timelines, horizon) = t.span("sim.trace", || injector.traced_timelines());
        t.add("sim.trace_cycles", horizon);
        let model = match t.span("model.build", || {
            let order = ProtocolOrder::new(timelines.iter().map(|(_, tl)| tl.thread).collect());
            LrpoModel::with_protocol(&rs, &order)
        }) {
            Ok(m) => m,
            Err(_) => {
                t.add("model.violations", 1);
                continue;
            }
        };
        let points = t.span("sim.points", || {
            let mut points = injector.derived_points_from(&timelines, CAP_PER_KIND);
            points.extend(injector.seeded_points(spec.seed, SEEDED, horizon));
            CrashInjector::prepare_points(&points)
        });
        t.add("sim.points_prepared", points.len() as u64);
        let exact = model.exact_count().unwrap_or(0);
        t.add(
            "model.exact_admitted",
            u64::try_from(exact).unwrap_or(u64::MAX),
        );

        // The fork sweep, built as the injector builds its mainline.
        t.add("sim.machines", 1);
        let mut mainline = t.span("sim.machine_new", || {
            Machine::new(
                compiled.program.clone(),
                compiled.recipes.clone(),
                cfg.clone(),
                spec.threads,
            )
        });
        let mut seen: FxHashSet<Vec<usize>> = FxHashSet::default();
        for p in points {
            let before = mainline.now();
            let finished = t.span("sim.advance", || mainline.run_until(p.cycle));
            t.add("sim.advance_cycles", mainline.now() - before);
            if finished {
                break;
            }
            let mut m = t.span("sim.fork", || mainline.fork());
            t.add("sim.forks", 1);
            let cap = t.span("sim.power_cut", || m.inject_power_failure_audited());
            t.add("sim.wpq_flushed", cap.report.entries_flushed);
            t.add("sim.wpq_discarded", cap.report.entries_discarded);
            let image = t.span("sim.capture", || m.pm_contents().clone());
            t.add("sim.points_audited", 1);
            t.add("model.images_checked", 1);
            match t.span("model.check_image", || model.check_image(&image)) {
                Ok(witness) => {
                    if seen.insert(witness) {
                        t.add("model.witnessed", 1);
                    }
                }
                Err(_) => t.add("model.violations", 1),
            }
            let mut structural = Vec::new();
            t.span("sim.check_capture", || {
                check_capture(&cap, &image, p, &mut structural)
            });
            t.add("sim.capture_violations", structural.len() as u64);
        }
        // `run_case` evaluates every mutant model in exact mode.
        for mutant in ModelMutant::ALL {
            t.span("model.mutant_count", || model.mutant_count(mutant));
        }
    }
    t.exit();
}

//! `fig-matrix`: the Fig. 7 matrix, all 39 entries × {Capri, PPA,
//! LightWSP} at `ExperimentOptions::paper_default()`.
//!
//! Set-up generates and compiles every program and runs the 39
//! memory-mode baselines, so the timed phase spends its time building
//! and running machines. An op is one cell; it fails when its run does
//! not finish or its slowdown is not a positive finite number.
//!
//! The seed orders the cells. It leaves the 39 programs alone: their
//! spec seeds are part of their calibration, and other spec seeds move
//! the LightWSP geomean between 1.14 and 1.23, which no bound on
//! `paper_err_pct` could absorb. Every seed therefore reproduces
//! `results/fig07.txt`.

use crate::clock::Clock;
use crate::trace::Tracer;
use crate::{Pass, Report, Scale};
use lightwsp_compiler::instrument;
use lightwsp_compiler::prune::RecoveryRecipes;
use lightwsp_core::{Campaign, ExperimentOptions, Job, RunResult, Scheme, WorkloadSpec};
use lightwsp_ir::Program;
use lightwsp_sim::{Completion, Machine, SimStats};
use lightwsp_workloads::{all_workloads, geomean};
use std::sync::Arc;
use std::time::Instant;

/// The schemes of Fig. 7, in column order.
pub const SCHEMES: [Scheme; 3] = [Scheme::Capri, Scheme::Ppa, Scheme::LightWsp];

/// The paper's Fig. 7 LightWSP geomean slowdown. (EXPERIMENTS.md's
/// "measured 1.128" predates the current model; `results/fig07.txt`
/// holds today's 1.232.)
pub const PAPER_LIGHTWSP_GEOMEAN: f64 = 1.090;

/// Set-ups before every pass; `setup_s` is their median.
const SETUPS_PER_PASS: usize = 2;

fn options(scale: Scale) -> ExperimentOptions {
    match scale {
        Scale::Full => ExperimentOptions::paper_default(),
        Scale::Tiny => ExperimentOptions::quick(),
    }
}

fn specs(scale: Scale) -> Vec<WorkloadSpec> {
    let n = match scale {
        Scale::Full => usize::MAX,
        Scale::Tiny => 2,
    };
    all_workloads().into_iter().take(n).collect()
}

/// One cell per (entry, scheme), entry-major as `figures::fig07`.
fn jobs(opts: &ExperimentOptions, specs: &[WorkloadSpec]) -> Vec<Job> {
    specs
        .iter()
        .flat_map(|w| SCHEMES.iter().map(move |&s| Job::new(opts, w, s)))
        .collect()
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order a run issues the `n` cells in: a Fisher–Yates shuffle of
/// the figure order, drawn from `seed`.
pub fn cell_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// A set-up campaign: compile cache and baselines filled.
struct State {
    campaign: Campaign,
    jobs: Vec<Job>,
}

fn setup(opts: &ExperimentOptions, specs: &[WorkloadSpec]) -> State {
    let campaign = Campaign::with_workers(1);
    let jobs = jobs(opts, specs);
    // A one-cycle run compiles the instrumented program into the
    // campaign's cache without simulating: the compile key covers the
    // spec, budget and compiler config, not the simulator config.
    let mut prime = opts.clone();
    prime.sim.max_cycles = 1;
    for spec in specs {
        campaign.run_one(&Job::new(&prime, spec, Scheme::LightWsp));
    }
    // Baselines compile the uninstrumented program (PPA's binary too).
    for job in jobs.iter().step_by(SCHEMES.len()) {
        campaign.baseline_cycles(job);
    }
    State { campaign, jobs }
}

/// What one cell produced.
#[derive(Clone, Debug, PartialEq)]
struct Cell {
    slowdown: f64,
    completion: Completion,
    stats: SimStats,
}

impl Cell {
    fn ok(&self) -> bool {
        self.completion == Completion::Finished && self.slowdown.is_finite() && self.slowdown > 0.0
    }
}

fn cell(slowdown: f64, r: RunResult) -> Cell {
    Cell {
        slowdown,
        completion: r.completion,
        stats: r.stats,
    }
}

/// One pass over the matrix in `order`, each cell timed on its own.
/// Intervals and cells are returned in figure order.
fn pass(st: &State, order: &[usize], clock: &mut Clock) -> Pass<Vec<Cell>> {
    let mut groups = vec![None; st.jobs.len()];
    let mut out = vec![None; st.jobs.len()];
    for &k in order {
        let ((s, r), iv) = clock.time(|| {
            st.campaign
                .slowdown_many(std::slice::from_ref(&st.jobs[k]))
                .pop()
                .expect("one result per job")
        });
        groups[k] = Some(iv);
        out[k] = Some(cell(s, r));
    }
    Pass {
        groups: groups
            .into_iter()
            .map(|g| g.expect("every cell timed"))
            .collect(),
        out: out
            .into_iter()
            .map(|c| c.expect("every cell ran"))
            .collect(),
    }
}

fn lightwsp_cells<'a>(jobs: &'a [Job], cells: &'a [Cell]) -> impl Iterator<Item = &'a Cell> {
    jobs.iter()
        .zip(cells)
        .filter(|(j, _)| j.scheme == Scheme::LightWsp)
        .map(|(_, c)| c)
}

/// Geomean LightWSP slowdown, or NaN when a cell has none.
fn sim_slowdown(jobs: &[Job], cells: &[Cell]) -> f64 {
    if cells.iter().all(Cell::ok) {
        geomean(lightwsp_cells(jobs, cells).map(|c| c.slowdown))
    } else {
        f64::NAN
    }
}

/// Modelled counters summed over the LightWSP cells.
fn add_modelled_counters(t: &mut Tracer, jobs: &[Job], cells: &[Cell]) {
    for c in lightwsp_cells(jobs, cells) {
        let s = &c.stats;
        t.add("mem.l1_misses", s.l1_misses);
        t.add("mem.l2_misses", s.l2_misses);
        t.add("mem.dram_misses", s.dram_misses);
        t.add("mem.persist_stores", s.persist_stores);
        t.add("mem.wpq_overflows", s.wpq_overflows);
        t.add("mem.hol_blocked_cycles", s.hol_blocked_cycles);
        t.add("sim.regions_committed", s.regions_committed);
        t.add("sim.stall_sb_full", s.stall_sb_full);
        t.add("sim.stall_load_miss", s.stall_load_miss);
        t.add("sim.stall_lock_spin", s.stall_lock_spin);
    }
}

/// Runs the workload (see [`crate::run`]).
pub fn run(scale: Scale, seed: u64, seconds: f64, traced: bool) -> Report {
    let opts = options(scale);
    let specs = specs(scale);
    let order = cell_order(specs.len() * SCHEMES.len(), seed);
    let mut passes = crate::measure(
        seconds,
        SETUPS_PER_PASS,
        || setup(&opts, &specs),
        |st, clock| pass(st, &order, clock),
    );
    let (st, setup_s) = (&passes.state, passes.setup_s);
    let cells = &passes.outs[0];

    let mut report = Report {
        correct: true,
        attempted: cells.len() as u64,
        failed: cells.iter().filter(|c| !c.ok()).count() as u64,
        ..Report::default()
    };
    if report.failed > 0 {
        report.fail_check(format!("{} cells did not finish", report.failed));
    }
    if passes.outs.iter().any(|o| o != cells) {
        report.fail_check("a later pass disagrees with the first".into());
    }
    let served = st.campaign.cache_stats().served;
    if served != 0 {
        report.fail_check(format!("{served} cells were served from a store"));
    }
    let slowdown = sim_slowdown(&st.jobs, cells);
    let paper_err_pct = (slowdown - PAPER_LIGHTWSP_GEOMEAN).abs() / PAPER_LIGHTWSP_GEOMEAN * 100.0;
    let ops_per_s = cells.len() as f64 / passes.pass_s;
    report.notes.push(format!(
        "fig-matrix: {} cells, LightWSP geomean {slowdown:.4} (paper {PAPER_LIGHTWSP_GEOMEAN})",
        cells.len(),
    ));
    report.notes.push(passes.summary());

    if !traced {
        report.metrics = crate::end_to_end(
            setup_s,
            ops_per_s,
            &[("sim_slowdown", slowdown), ("paper_err_pct", paper_err_pct)],
        );
        return report;
    }

    let mut t = Tracer::new();
    let ((traced_cells, traced_wall_s), iv) = passes
        .clock
        .time_long(|| mirror(&mut t, &opts, &specs, &st.jobs, &order));
    let traced_pass_s = traced_wall_s * passes.clock.speed(&iv);
    add_modelled_counters(&mut t, &st.jobs, &traced_cells);
    if traced_cells != *cells {
        report.fail_check("traced cells differ from the untraced run's".into());
    }
    crate::check_fidelity(
        &mut report,
        &t,
        &[("cells", traced_cells.len() as u64, cells.len() as u64)],
    );
    report.metrics = crate::per_layer(&t, traced_pass_s, passes.pass_s);
    report.tracer = Some(t);
    report
}

/// A program pair as `Campaign` caches it: the original binary (for
/// uninstrumented schemes) and the instrumented one.
struct Programs {
    raw: Arc<Program>,
    instrumented: Arc<Program>,
    recipes: Arc<RecoveryRecipes>,
}

/// Traced mirror of the campaign: set-up (compile cache and baselines)
/// then one pass in `order`, each cell as `Campaign::simulate` runs it.
/// Returns the cells in figure order and the wall time of the pass.
fn mirror(
    t: &mut Tracer,
    opts: &ExperimentOptions,
    specs: &[WorkloadSpec],
    jobs: &[Job],
    order: &[usize],
) -> (Vec<Cell>, f64) {
    t.enter("core.campaign");
    let mut programs = Vec::with_capacity(specs.len());
    let mut baselines = Vec::with_capacity(specs.len());
    let no_recipes = Arc::new(RecoveryRecipes::default());
    for (i, spec) in specs.iter().enumerate() {
        t.set_op(i as u64);
        // One generation per compile key, as the campaign's cache keys
        // the original and the instrumented binary separately.
        let generate = |t: &mut Tracer| {
            t.add("workloads.programs", 1);
            t.span("workloads.generate", || {
                spec.clone().scaled_to(opts.insts_per_thread).generate()
            })
        };
        let raw = Arc::new(generate(t));
        let source = generate(t);
        let c = t.span("compiler.instrument", || {
            instrument(&source, &opts.compiler)
        });
        t.add("compiler.programs", 1);
        t.add("compiler.static_insts", c.stats.static_insts);
        t.add("compiler.final_boundaries", c.stats.final_boundaries);
        let p = Programs {
            raw,
            instrumented: Arc::new(c.program),
            recipes: Arc::new(c.recipes),
        };
        let base = simulate(t, opts, spec, Scheme::Baseline, &p, &no_recipes);
        baselines.push(base.stats.cycles.max(1));
        programs.push(p);
    }

    let t0 = Instant::now();
    let mut cells = vec![None; jobs.len()];
    for &k in order {
        t.set_op(k as u64);
        let job = &jobs[k];
        let w = k / SCHEMES.len();
        let r = simulate(t, opts, &job.spec, job.scheme, &programs[w], &no_recipes);
        let slowdown = r.stats.cycles as f64 / baselines[w] as f64;
        cells[k] = Some(cell(slowdown, r));
    }
    let pass_s = t0.elapsed().as_secs_f64();
    t.exit();
    let cells = cells
        .into_iter()
        .map(|c| c.expect("every cell ran"))
        .collect();
    (cells, pass_s)
}

/// One cell as `Campaign::simulate` runs it.
fn simulate(
    t: &mut Tracer,
    opts: &ExperimentOptions,
    spec: &WorkloadSpec,
    scheme: Scheme,
    programs: &Programs,
    no_recipes: &Arc<RecoveryRecipes>,
) -> RunResult {
    let threads = opts.threads.unwrap_or(spec.threads);
    let (program, recipes) = if scheme.is_instrumented() {
        (programs.instrumented.clone(), programs.recipes.clone())
    } else {
        (programs.raw.clone(), no_recipes.clone())
    };
    let mut cfg = opts.sim.clone();
    cfg.scheme = scheme;
    cfg.num_cores = threads;
    let window = spec.working_set.next_power_of_two();
    let heap = lightwsp_ir::layout::HEAP_BASE;
    cfg.warm_dram = vec![(heap - 0x8000, heap + window * threads as u64)];
    let warm: u64 = cfg
        .warm_dram
        .iter()
        .map(|&(a, b)| (b - a).div_ceil(cfg.mem.line_bytes))
        .sum();
    t.add("sim.warm_lines", warm);
    t.add("sim.machines", 1);
    let mut m = t.span("sim.machine_new", || {
        Machine::new(program, recipes, cfg, threads)
    });
    let completion = t.span("sim.run", || m.run());
    t.add("sim.cycles", m.stats().cycles);
    t.add("sim.insts", m.stats().insts);
    RunResult {
        workload: spec.name,
        scheme,
        threads,
        completion,
        stats: m.stats().clone(),
    }
}

//! Experiment orchestration: compile → simulate → normalise.
//!
//! Every figure of the evaluation reports *execution slowdown*
//! normalised to "the unmodified program … under Intel Optane's memory
//! mode" (§V-A) — i.e. [`Scheme::Baseline`] running the uninstrumented
//! binary. [`Experiment`] caches those baseline runs per workload so a
//! figure sweeping many schemes/configurations pays for each baseline
//! once.
//!
//! ## Experiment scale
//!
//! The paper simulates 5 × 10⁹ instructions per benchmark on gem5 with
//! the full Table I hierarchy (64 KB L1, 16 MB L2, 4 GB DRAM cache).
//! Runs of ~10⁵ instructions cannot exercise a 16 MB L2, so the
//! experiment configuration scales the cache hierarchy down 32× (16 KB
//! L1, 512 KB L2) while the workload roster scales its working sets by
//! the same factor — preserving the residency relationships that drive
//! every effect the paper measures. All latencies, queue sizes, persist
//! path parameters, WPQ sizes and protocol costs remain at their
//! Table I values.

use lightwsp_compiler::prune::RecoveryRecipes;
use lightwsp_compiler::{instrument, Compiled, CompilerConfig};
use lightwsp_ir::fxhash::FxHashMap;
use lightwsp_sim::{Completion, Machine, Scheme, SimConfig, SimStats};
use lightwsp_workloads::WorkloadSpec;

/// Configuration of an experiment campaign.
#[derive(Clone, Debug)]
pub struct ExperimentOptions {
    /// Simulator template; the `scheme` field is overwritten per run.
    pub sim: SimConfig,
    /// Compiler configuration for instrumented schemes.
    pub compiler: CompilerConfig,
    /// Target dynamic instructions per thread.
    pub insts_per_thread: u64,
    /// Overrides the workload's own thread count when set (Fig. 16).
    pub threads: Option<usize>,
}

impl ExperimentOptions {
    /// The paper's default evaluation configuration at experiment scale.
    pub fn paper_default() -> ExperimentOptions {
        let mut sim = SimConfig::new(Scheme::Baseline);
        sim.mem.l1_bytes = 16 * 1024;
        sim.mem.l2_bytes = 512 * 1024;
        ExperimentOptions {
            sim,
            compiler: CompilerConfig::default(),
            insts_per_thread: 60_000,
            threads: None,
        }
    }

    /// A faster variant for tests.
    pub fn quick() -> ExperimentOptions {
        let mut o = ExperimentOptions::paper_default();
        o.insts_per_thread = 12_000;
        o
    }
}

/// The outcome of one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Scheme simulated.
    pub scheme: Scheme,
    /// Threads simulated.
    pub threads: usize,
    /// Whether the run finished before the cycle cap.
    pub completion: Completion,
    /// Full statistics.
    pub stats: SimStats,
}

impl RunResult {
    /// Cycles taken (the normalisation numerator/denominator).
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }
}

/// Runs experiments with per-workload baseline caching.
pub struct Experiment {
    opts: ExperimentOptions,
    /// Keyed by (workload name, thread count); workload names are
    /// `&'static str` so the hot `slowdown` path never allocates a key.
    baseline_cycles: FxHashMap<(&'static str, usize), u64>,
}

impl Experiment {
    /// Creates a campaign with the given options.
    pub fn new(opts: ExperimentOptions) -> Experiment {
        Experiment {
            opts,
            baseline_cycles: FxHashMap::default(),
        }
    }

    /// The active options.
    pub fn options(&self) -> &ExperimentOptions {
        &self.opts
    }

    /// Mutable options (between runs; cached baselines are kept, so only
    /// change scheme-side knobs this way).
    pub fn options_mut(&mut self) -> &mut ExperimentOptions {
        &mut self.opts
    }

    /// Compiles `spec` for `scheme` (instrumented schemes get the full
    /// pass pipeline; hardware-only schemes run the original binary).
    pub fn compile(&self, spec: &WorkloadSpec, scheme: Scheme) -> Compiled {
        let program = spec
            .clone()
            .scaled_to(self.opts.insts_per_thread)
            .generate();
        if scheme.is_instrumented() {
            instrument(&program, &self.opts.compiler)
        } else {
            Compiled {
                program,
                recipes: RecoveryRecipes::default(),
                stats: Default::default(),
            }
        }
    }

    /// Thread count for `spec` under the current options.
    pub fn threads_for(&self, spec: &WorkloadSpec) -> usize {
        self.opts.threads.unwrap_or(spec.threads)
    }

    /// Builds the ready-to-run machine for `spec` under `scheme` — the
    /// same compilation, warm-DRAM window and core count
    /// [`Experiment::run`] uses — without running it. Benchmarks use
    /// this to time `Machine::run` in isolation, the way the campaign
    /// amortizes compilations across a figure's cells.
    pub fn machine_for(&self, spec: &WorkloadSpec, scheme: Scheme) -> Machine {
        let threads = self.threads_for(spec);
        let compiled = self.compile(spec, scheme);
        let mut cfg = self.opts.sim.clone();
        cfg.scheme = scheme;
        cfg.num_cores = threads;
        // Warm DRAM cache over the workload's data (shared counters,
        // scratch, and every thread's private window), emulating the
        // paper's fast-forward (§V-A).
        let window = spec.working_set.next_power_of_two();
        let heap = lightwsp_ir::layout::HEAP_BASE;
        cfg.warm_dram = vec![(heap - 0x8000, heap + window * threads as u64)];
        Machine::new(compiled.program, compiled.recipes, cfg, threads)
    }

    /// Runs `spec` under `scheme` and returns the result.
    pub fn run(&mut self, spec: &WorkloadSpec, scheme: Scheme) -> RunResult {
        let mut machine = self.machine_for(spec, scheme);
        let completion = machine.run();
        RunResult {
            workload: spec.name,
            scheme,
            threads: self.threads_for(spec),
            completion,
            stats: machine.stats().clone(),
        }
    }

    /// Baseline cycles for `spec` (cached).
    pub fn baseline_cycles(&mut self, spec: &WorkloadSpec) -> u64 {
        let key = (spec.name, self.threads_for(spec));
        if let Some(&c) = self.baseline_cycles.get(&key) {
            return c;
        }
        let r = self.run(spec, Scheme::Baseline);
        let c = r.cycles().max(1);
        self.baseline_cycles.insert(key, c);
        c
    }

    /// Execution slowdown of `scheme` on `spec`, normalised to the
    /// memory-mode baseline (the y-axis of Figs. 7, 9–13, 15–17).
    pub fn slowdown(&mut self, spec: &WorkloadSpec, scheme: Scheme) -> f64 {
        let base = self.baseline_cycles(spec) as f64;
        let r = self.run(spec, scheme);
        r.cycles() as f64 / base
    }

    /// Slowdown plus the full run result (when a figure needs both).
    pub fn slowdown_with_stats(&mut self, spec: &WorkloadSpec, scheme: Scheme) -> (f64, RunResult) {
        let base = self.baseline_cycles(spec) as f64;
        let r = self.run(spec, scheme);
        (r.cycles() as f64 / base, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightwsp_workloads::workload;

    #[test]
    fn baseline_is_cached() {
        let mut e = Experiment::new(ExperimentOptions::quick());
        let w = workload("hmmer").unwrap();
        let a = e.baseline_cycles(&w);
        let b = e.baseline_cycles(&w);
        assert_eq!(a, b);
        assert!(a > 1000);
    }

    #[test]
    fn slowdown_of_baseline_is_one() {
        let mut e = Experiment::new(ExperimentOptions::quick());
        let w = workload("hmmer").unwrap();
        let s = e.slowdown(&w, Scheme::Baseline);
        assert!((s - 1.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn lightwsp_slowdown_plausible_on_compute_workload() {
        let mut e = Experiment::new(ExperimentOptions::quick());
        let w = workload("hmmer").unwrap();
        let s = e.slowdown(&w, Scheme::LightWsp);
        assert!((0.98..1.6).contains(&s), "hmmer LightWSP slowdown {s:.3}");
    }

    #[test]
    fn runs_are_deterministic() {
        let mut e1 = Experiment::new(ExperimentOptions::quick());
        let mut e2 = Experiment::new(ExperimentOptions::quick());
        let w = workload("bzip2").unwrap();
        let a = e1.run(&w, Scheme::LightWsp);
        let b = e2.run(&w, Scheme::LightWsp);
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.insts, b.stats.insts);
        assert_eq!(a.stats.regions, b.stats.regions);
    }

    #[test]
    fn thread_override_applies() {
        let mut o = ExperimentOptions::quick();
        o.threads = Some(2);
        let mut e = Experiment::new(o);
        let w = workload("vacation").unwrap();
        let r = e.run(&w, Scheme::Baseline);
        assert_eq!(r.threads, 2);
    }
}

//! Experiment configuration and run results.
//!
//! Every figure of the evaluation reports *execution slowdown*
//! normalised to "the unmodified program … under Intel Optane's memory
//! mode" (§V-A) — i.e. [`Scheme::Baseline`] running the uninstrumented
//! binary. A [`Campaign`](crate::Campaign) runs each cell and caches
//! those baseline runs, so a figure sweeping many schemes and
//! configurations pays for each baseline once.
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

use lightwsp_compiler::CompilerConfig;
use lightwsp_sim::{Completion, Scheme, SimConfig, SimStats};

/// Configuration of an experiment campaign.
#[derive(Clone, Debug)]
pub struct ExperimentOptions {
    /// Simulator template; [`Job::sim_config`](crate::Job::sim_config)
    /// sets its scheme, core count and warm-DRAM window per run.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Campaign, Job};
    use lightwsp_workloads::workload;

    fn job(name: &str, scheme: Scheme) -> Job {
        Job::new(
            &ExperimentOptions::quick(),
            &workload(name).unwrap(),
            scheme,
        )
    }

    #[test]
    fn baseline_is_cached() {
        let c = Campaign::with_workers(1);
        let j = job("hmmer", Scheme::LightWsp);
        let a = c.baseline_cycles(&j);
        let b = c.baseline_cycles(&j);
        assert_eq!(a, b);
        assert!(a > 1000);
        assert_eq!(c.cache_stats().simulated, 1, "the baseline ran twice");
    }

    #[test]
    fn slowdown_of_baseline_is_one() {
        let (s, _) = Campaign::with_workers(1).slowdown(&job("hmmer", Scheme::Baseline));
        assert!((s - 1.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn lightwsp_slowdown_plausible_on_compute_workload() {
        let (s, _) = Campaign::with_workers(1).slowdown(&job("hmmer", Scheme::LightWsp));
        assert!((0.98..1.6).contains(&s), "hmmer LightWSP slowdown {s:.3}");
    }

    #[test]
    fn runs_are_deterministic() {
        let j = job("bzip2", Scheme::LightWsp);
        let a = Campaign::with_workers(1).run_one(&j);
        let b = Campaign::with_workers(1).run_one(&j);
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.insts, b.stats.insts);
        assert_eq!(a.stats.regions, b.stats.regions);
    }

    #[test]
    fn thread_override_applies() {
        let mut o = ExperimentOptions::quick();
        o.threads = Some(2);
        let j = Job::new(&o, &workload("vacation").unwrap(), Scheme::Baseline);
        let r = Campaign::with_workers(1).run_one(&j);
        assert_eq!(r.threads, 2);
        assert_eq!(j.sim_config().num_cores, 2);
    }
}

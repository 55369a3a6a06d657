//! Parallel experiment campaigns.
//!
//! A [`Campaign`] fans a list of [`Job`]s — (workload, scheme, options)
//! triples — across scoped worker threads. Workers pull jobs from a
//! shared atomic cursor (dynamic self-scheduling, so a slow simulation
//! never leaves other workers idle), and two guarded caches are shared
//! by all workers:
//!
//! * a **compiled-program cache** keyed by (workload, instruction
//!   budget, instrumented?, compiler config) — a sweep like Fig. 11
//!   compiles each workload once per compiler configuration and every
//!   machine then shares the same [`Arc`]'d program;
//! * a **baseline-cycles cache** keyed by (workload, thread count,
//!   simulator config) — every slowdown normalisation reuses one
//!   baseline run per configuration, exactly like the serial
//!   [`Experiment`](crate::Experiment) but shared across schemes *and*
//!   across figures when one campaign drives the whole evaluation.
//!
//! **Determinism:** each job is an independent deterministic
//! simulation, results are written back by job index, and the caches
//! only ever deduplicate work whose output is bit-identical to an
//! uncached computation. `run_many` therefore returns byte-identical
//! results for any worker count, including 1 — the regression test in
//! `tests/` pins this against the serial `Experiment` path.
//!
//! Worker count: [`Campaign::from_env`] reads `LIGHTWSP_THREADS` and
//! rejects anything but a positive integer; unset, and for
//! [`Campaign::new`], it is `std::thread::available_parallelism()`.

use crate::experiment::{ExperimentOptions, RunResult};
use lightwsp_compiler::instrument;
use lightwsp_compiler::prune::RecoveryRecipes;
use lightwsp_ir::fxhash::{fx_hash, FxHashMap};
use lightwsp_ir::Program;
use lightwsp_sim::{Completion, Machine, Scheme};
use lightwsp_store::{digest_debug, ResultStore, StoreKey};
use lightwsp_workloads::WorkloadSpec;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One unit of work: simulate `spec` under `scheme` with `opts`.
#[derive(Clone, Debug)]
pub struct Job {
    /// Experiment configuration for this job (sweeps vary it per job).
    pub opts: ExperimentOptions,
    /// The workload to run.
    pub spec: WorkloadSpec,
    /// The scheme to simulate.
    pub scheme: Scheme,
}

impl Job {
    /// Convenience constructor (clones the options and spec).
    pub fn new(opts: &ExperimentOptions, spec: &WorkloadSpec, scheme: Scheme) -> Job {
        Job {
            opts: opts.clone(),
            spec: spec.clone(),
            scheme,
        }
    }
}

/// A compilation shared between machines via `Arc` (see
/// [`Machine::new`]'s `impl Into<Arc<_>>` parameters).
#[derive(Clone)]
struct SharedCompile {
    program: Arc<Program>,
    recipes: Arc<RecoveryRecipes>,
}

/// Per-key once-cell: the outer map hands out the slot under a short
/// lock; the actual compile/simulate happens under the slot's own lock,
/// so two workers missing on *different* keys never serialise, and two
/// workers racing on the *same* key compute it once.
type Slot<T> = Arc<Mutex<Option<T>>>;

fn get_or_compute<T: Clone>(
    map: &Mutex<FxHashMap<u64, Slot<T>>>,
    key: u64,
    f: impl FnOnce() -> T,
) -> T {
    let slot = map.lock().unwrap().entry(key).or_default().clone();
    let mut guard = slot.lock().unwrap();
    if guard.is_none() {
        *guard = Some(f());
    }
    guard.clone().unwrap()
}

/// Parallel experiment runner with shared compile/baseline caches and
/// an optional persistent result store (see
/// [`attach_store`](Campaign::attach_store)).
pub struct Campaign {
    workers: usize,
    compiled: Mutex<FxHashMap<u64, Slot<SharedCompile>>>,
    baselines: Mutex<FxHashMap<u64, Slot<u64>>>,
    store: Option<ResultStore>,
    sim_served: AtomicU64,
    sim_computed: AtomicU64,
}

/// Point-in-time cache counters of one campaign (satellite stats for
/// `BENCH_*.json` meta blocks).
#[derive(Clone, Copy, Debug, Default)]
pub struct CampaignCacheStats {
    /// Simulation cells served from the attached store.
    pub served: u64,
    /// Simulation cells actually simulated (store miss or no store).
    pub simulated: u64,
    /// The attached store's own counters, if a store is attached.
    pub store: Option<lightwsp_store::CacheStats>,
}

impl Default for Campaign {
    fn default() -> Campaign {
        Campaign::new()
    }
}

/// A `LIGHTWSP_THREADS` value that is not a worker count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BadThreads(pub String);

impl std::fmt::Display for BadThreads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LIGHTWSP_THREADS={:?} is not a worker count; accepted: a positive integer, \
             or unset for one worker per core",
            self.0
        )
    }
}

impl std::error::Error for BadThreads {}

/// Parses a `LIGHTWSP_THREADS` value: `None` (unset) means no
/// override.
///
/// # Errors
///
/// Returns [`BadThreads`] for anything but a positive integer.
pub fn parse_threads(value: Option<&str>) -> Result<Option<usize>, BadThreads> {
    match value {
        None => Ok(None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(BadThreads(v.to_string())),
        },
    }
}

fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Campaign {
    /// A campaign with one worker per available core.
    pub fn new() -> Campaign {
        Campaign::with_workers(available_workers())
    }

    /// A campaign sized by `LIGHTWSP_THREADS`, or one worker per
    /// available core when it is unset.
    ///
    /// # Errors
    ///
    /// Returns [`BadThreads`] when the variable is set to anything but
    /// a positive integer.
    pub fn from_env() -> Result<Campaign, BadThreads> {
        let value = std::env::var("LIGHTWSP_THREADS").ok();
        let workers = parse_threads(value.as_deref())?.unwrap_or_else(available_workers);
        Ok(Campaign::with_workers(workers))
    }

    /// A campaign with an explicit worker count (≥ 1).
    pub fn with_workers(workers: usize) -> Campaign {
        Campaign {
            workers: workers.max(1),
            compiled: Mutex::new(FxHashMap::default()),
            baselines: Mutex::new(FxHashMap::default()),
            store: None,
            sim_served: AtomicU64::new(0),
            sim_computed: AtomicU64::new(0),
        }
    }

    /// Attaches a persistent result store: subsequent
    /// [`run_one`](Campaign::run_one)/[`run_many`](Campaign::run_many)
    /// calls are served from the store when a record exists for the
    /// job's `(workload, scheme, config-digest, code-digest)` key, and
    /// record their result (including the measured wall-clock) when
    /// not. Baselines flow through the same cache, so a warm re-run of
    /// an unchanged evaluation simulates nothing.
    pub fn attach_store(&mut self, store: ResultStore) {
        self.store = Some(store);
    }

    /// The attached result store, if any (bins reuse the handle for
    /// their own record families).
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// Cache counters: cells served from the store vs simulated.
    pub fn cache_stats(&self) -> CampaignCacheStats {
        CampaignCacheStats {
            served: self.sim_served.load(Ordering::Relaxed),
            simulated: self.sim_computed.load(Ordering::Relaxed),
            store: self.store.as_ref().map(|s| s.stats()),
        }
    }

    /// The worker count jobs fan out over.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Thread count a job simulates (options override, else the spec's).
    fn threads_for(job: &Job) -> usize {
        job.opts.threads.unwrap_or(job.spec.threads)
    }

    /// Fingerprint of everything a compilation depends on.
    fn compile_key(job: &Job) -> u64 {
        let instrumented = job.scheme.is_instrumented();
        fx_hash(&format!(
            "{:?}|{}|{}|{:?}",
            job.spec,
            job.opts.insts_per_thread,
            instrumented,
            // Uninstrumented schemes all run the original binary; don't
            // fragment their cache entry by compiler config.
            if instrumented {
                Some(&job.opts.compiler)
            } else {
                None
            },
        ))
    }

    /// Fingerprint of everything a baseline run depends on.
    fn baseline_key(job: &Job) -> u64 {
        fx_hash(&format!(
            "{:?}|{}|{}|{:?}",
            job.spec,
            job.opts.insts_per_thread,
            Self::threads_for(job),
            job.opts.sim,
        ))
    }

    fn compiled_for(&self, job: &Job) -> SharedCompile {
        get_or_compute(&self.compiled, Self::compile_key(job), || {
            let program = job
                .spec
                .clone()
                .scaled_to(job.opts.insts_per_thread)
                .generate();
            if job.scheme.is_instrumented() {
                let c = instrument(&program, &job.opts.compiler);
                SharedCompile {
                    program: Arc::new(c.program),
                    recipes: Arc::new(c.recipes),
                }
            } else {
                SharedCompile {
                    program: Arc::new(program),
                    recipes: Arc::new(RecoveryRecipes::default()),
                }
            }
        })
    }

    /// The store coordinate of one run record: the config digest
    /// covers everything [`simulate`](Campaign::simulate) consumes —
    /// spec, budget, thread count, simulator config, and (for
    /// instrumented schemes only, mirroring
    /// [`compile_key`](Campaign::compile_key)) the compiler config —
    /// so a knob change invalidates exactly the cells it affects.
    fn run_key(code: u64, job: &Job) -> StoreKey {
        let instrumented = job.scheme.is_instrumented();
        let config = digest_debug(&(
            &job.spec,
            job.opts.insts_per_thread,
            Self::threads_for(job),
            &job.opts.sim,
            instrumented.then_some(&job.opts.compiler),
        ));
        StoreKey::new("run", job.spec.name, job.scheme.name(), config, 0, code)
    }

    /// Serialises a run result (+ measured wall-clock) for the store.
    fn encode_run(r: &RunResult, wall_ms: f64) -> String {
        format!(
            "completion={} threads={} wall_ms={:016x}\n{}",
            match r.completion {
                Completion::Finished => "F",
                Completion::MaxCycles => "M",
            },
            r.threads,
            wall_ms.to_bits(),
            r.stats.encode_record(),
        )
    }

    /// Parses [`encode_run`](Campaign::encode_run) output back into a
    /// result for `job` (workload/scheme come from the job, matching
    /// the key the record was stored under).
    fn decode_run(text: &str, job: &Job) -> Result<(RunResult, f64), String> {
        let (head, stats_line) = text.split_once('\n').ok_or("run record missing stats")?;
        let mut completion = None;
        let mut threads = None;
        let mut wall_bits = None;
        for pair in head.split_whitespace() {
            match pair.split_once('=') {
                Some(("completion", "F")) => completion = Some(Completion::Finished),
                Some(("completion", "M")) => completion = Some(Completion::MaxCycles),
                Some(("threads", v)) => threads = v.parse().ok(),
                Some(("wall_ms", v)) => wall_bits = u64::from_str_radix(v, 16).ok(),
                _ => return Err(format!("bad run field {pair:?}")),
            }
        }
        Ok((
            RunResult {
                workload: job.spec.name,
                scheme: job.scheme,
                threads: threads.ok_or("missing threads")?,
                completion: completion.ok_or("missing completion")?,
                stats: lightwsp_sim::SimStats::decode_record(stats_line)?,
            },
            f64::from_bits(wall_bits.ok_or("missing wall_ms")?),
        ))
    }

    /// The uncached simulation path (same semantics as
    /// `Experiment::run`, but through the shared compile cache).
    fn simulate(&self, job: &Job) -> RunResult {
        let threads = Self::threads_for(job);
        let sc = self.compiled_for(job);
        let mut cfg = job.opts.sim.clone();
        cfg.scheme = job.scheme;
        cfg.num_cores = threads;
        let window = job.spec.working_set.next_power_of_two();
        let heap = lightwsp_ir::layout::HEAP_BASE;
        cfg.warm_dram = vec![(heap - 0x8000, heap + window * threads as u64)];
        let mut machine = Machine::new(sc.program, sc.recipes, cfg, threads);
        let completion = machine.run();
        RunResult {
            workload: job.spec.name,
            scheme: job.scheme,
            threads,
            completion,
            stats: machine.stats().clone(),
        }
    }

    /// Runs one job, serving it from the attached store when a record
    /// for its digest key exists.
    pub fn run_one(&self, job: &Job) -> RunResult {
        self.run_one_timed(job).0
    }

    /// Like [`run_one`](Campaign::run_one), also returning the job's
    /// wall-clock milliseconds: measured on a simulate, served verbatim
    /// from the record on a store hit (warm re-runs reproduce the cold
    /// run's benchmark records byte-for-byte).
    pub fn run_one_timed(&self, job: &Job) -> (RunResult, f64) {
        let Some(store) = &self.store else {
            let t0 = std::time::Instant::now();
            let r = self.simulate(job);
            self.sim_computed.fetch_add(1, Ordering::Relaxed);
            return (r, t0.elapsed().as_secs_f64() * 1e3);
        };
        let key = Self::run_key(store.code(), job);
        if let Some(raw) = store.get(&key) {
            if let Ok(hit) = Self::decode_run(&raw, job) {
                self.sim_served.fetch_add(1, Ordering::Relaxed);
                return hit;
            }
        }
        let t0 = std::time::Instant::now();
        let r = self.simulate(job);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        store.put(key, Self::encode_run(&r, wall_ms));
        self.sim_computed.fetch_add(1, Ordering::Relaxed);
        (r, wall_ms)
    }

    /// Baseline cycles for a job's (workload, options), cached.
    pub fn baseline_cycles(&self, job: &Job) -> u64 {
        get_or_compute(&self.baselines, Self::baseline_key(job), || {
            let base_job = Job {
                scheme: Scheme::Baseline,
                ..job.clone()
            };
            self.run_one(&base_job).cycles().max(1)
        })
    }

    /// Runs every job, fanning across the worker pool; results are in
    /// job order regardless of scheduling.
    pub fn run_many(&self, jobs: &[Job]) -> Vec<RunResult> {
        self.map_jobs(jobs, |job| self.run_one(job))
    }

    /// Like [`run_many`](Campaign::run_many) but returns each job's
    /// slowdown versus its cached baseline alongside the run result.
    pub fn slowdown_many(&self, jobs: &[Job]) -> Vec<(f64, RunResult)> {
        self.map_jobs(jobs, |job| {
            let base = self.baseline_cycles(job) as f64;
            let r = self.run_one(job);
            (r.cycles() as f64 / base, r)
        })
    }

    /// Slowdowns only (the common figure shape).
    pub fn slowdowns(&self, jobs: &[Job]) -> Vec<f64> {
        self.slowdown_many(jobs)
            .into_iter()
            .map(|(s, _)| s)
            .collect()
    }

    /// Like [`run_many`](Campaign::run_many), with each job's
    /// wall-clock milliseconds (measured inside the worker) attached —
    /// the machine-readable benchmark record `all_figures` emits.
    pub fn run_many_timed(&self, jobs: &[Job]) -> Vec<(RunResult, f64)> {
        self.map_jobs(jobs, |job| self.run_one_timed(job))
    }

    fn map_jobs<T, F>(&self, jobs: &[Job], f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Job) -> T + Sync,
    {
        self.map_parallel(jobs, |job, _| f(job))
    }

    /// Fans `f` over arbitrary `items` on the campaign's worker pool
    /// (dynamic self-scheduling, results in item order) — the engine
    /// behind [`run_many`](Campaign::run_many), exposed so other sweeps
    /// (e.g. the crash auditor's per-crash-point fan-out) reuse the same
    /// pool and its worker count. `f` receives each item and
    /// its index.
    pub fn map_parallel<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I, usize) -> T + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n);
        if workers == 1 {
            return items.iter().enumerate().map(|(i, it)| f(it, i)).collect();
        }
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(&items[i], i);
                    results.lock().unwrap()[i] = Some(r);
                });
            }
        });
        results
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|o| o.expect("every item slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightwsp_workloads::workload;

    fn jobs3() -> Vec<Job> {
        let opts = ExperimentOptions::quick();
        ["bzip2", "hmmer", "xz"]
            .iter()
            .flat_map(|n| {
                let w = workload(n).unwrap();
                [
                    Job::new(&opts, &w, Scheme::LightWsp),
                    Job::new(&opts, &w, Scheme::Ppa),
                ]
            })
            .collect()
    }

    #[test]
    fn results_are_in_job_order() {
        let c = Campaign::with_workers(4);
        let jobs = jobs3();
        let rs = c.run_many(&jobs);
        assert_eq!(rs.len(), jobs.len());
        for (j, r) in jobs.iter().zip(&rs) {
            assert_eq!(j.spec.name, r.workload);
            assert_eq!(j.scheme, r.scheme);
        }
    }

    #[test]
    fn compile_cache_is_shared_across_schemes() {
        // Two instrumented schemes with the same compiler config share
        // one compilation; this is observational (timing-free): both
        // runs must succeed and agree with fresh-compile runs.
        let c = Campaign::with_workers(2);
        let opts = ExperimentOptions::quick();
        let w = workload("bzip2").unwrap();
        let jobs = vec![
            Job::new(&opts, &w, Scheme::LightWsp),
            Job::new(&opts, &w, Scheme::Capri),
        ];
        let rs = c.run_many(&jobs);
        let mut exp = crate::Experiment::new(opts);
        let a = exp.run(&w, Scheme::LightWsp);
        let b = exp.run(&w, Scheme::Capri);
        assert_eq!(rs[0].stats.cycles, a.stats.cycles);
        assert_eq!(rs[1].stats.cycles, b.stats.cycles);
    }

    #[test]
    fn store_serves_warm_runs_and_knob_change_invalidates_exactly() {
        let store = ResultStore::in_memory_with(0xC0DE);
        let opts = ExperimentOptions::quick();
        let w = workload("bzip2").unwrap();
        let jobs = vec![
            Job::new(&opts, &w, Scheme::LightWsp), // instrumented
            Job::new(&opts, &w, Scheme::Baseline), // uninstrumented
        ];

        let mut cold = Campaign::with_workers(2);
        cold.attach_store(store.clone());
        let cold_rs = cold.run_many_timed(&jobs);
        let cs = cold.cache_stats();
        assert_eq!((cs.served, cs.simulated), (0, 2));

        // Warm: same config digest — both cells served, results and
        // wall-clocks byte-identical to the cold run's records.
        let mut warm = Campaign::with_workers(2);
        warm.attach_store(store.clone());
        let warm_rs = warm.run_many_timed(&jobs);
        let ws = warm.cache_stats();
        assert_eq!((ws.served, ws.simulated), (2, 0));
        for ((cr, cw), (wr, ww)) in cold_rs.iter().zip(&warm_rs) {
            assert_eq!(cr.stats, wr.stats);
            assert_eq!(cr.completion, wr.completion);
            assert_eq!(cw.to_bits(), ww.to_bits());
        }

        // A compiler-knob change invalidates exactly the instrumented
        // cell; the uninstrumented baseline is still served.
        let mut tweaked_opts = opts.clone();
        tweaked_opts.compiler.store_threshold = tweaked_opts.compiler.store_threshold.max(2) * 2;
        let tweaked = vec![
            Job::new(&tweaked_opts, &w, Scheme::LightWsp),
            Job::new(&tweaked_opts, &w, Scheme::Baseline),
        ];
        let mut knob = Campaign::with_workers(2);
        knob.attach_store(store.clone());
        let _ = knob.run_many(&tweaked);
        let ks = knob.cache_stats();
        assert_eq!((ks.served, ks.simulated), (1, 1));

        // A code-digest change invalidates everything.
        let mut other_code = Campaign::with_workers(2);
        other_code.attach_store(ResultStore::in_memory_with(0xBEEF));
        // (fresh in-memory store: models the same directory under a
        // different code digest — every key differs in `code`)
        let _ = other_code.run_many(&jobs);
        let os = other_code.cache_stats();
        assert_eq!((os.served, os.simulated), (0, 2));
    }

    #[test]
    fn baseline_cache_matches_experiment() {
        let c = Campaign::with_workers(2);
        let opts = ExperimentOptions::quick();
        let w = workload("xz").unwrap();
        let job = Job::new(&opts, &w, Scheme::LightWsp);
        let mut exp = crate::Experiment::new(opts);
        assert_eq!(c.baseline_cycles(&job), exp.baseline_cycles(&w));
    }
}

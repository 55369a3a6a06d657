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
//!   baseline run per configuration, shared across schemes *and* across
//!   figures when one campaign drives the whole evaluation.
//!
//! The rules of a run live on [`Job`]: its thread count
//! ([`Job::threads`]), its compilation ([`Job::compile`]) and its
//! simulator config ([`Job::sim_config`]). The campaign only caches
//! around them, so [`Campaign::machine`] builds every figure machine.
//!
//! **Determinism:** each job is an independent deterministic
//! simulation, results are written back by job index, and the caches
//! only ever deduplicate work whose output is bit-identical to an
//! uncached computation. `run_many` therefore returns byte-identical
//! results for any worker count, including 1 — the regression test in
//! `tests/` pins this against running each job on a fresh one-worker
//! campaign of its own.
//!
//! Worker count: [`Campaign::from_env`] reads `LIGHTWSP_THREADS` and
//! rejects anything but a positive integer; unset, and for
//! [`Campaign::new`], it is `std::thread::available_parallelism()`.
//!
//! **Result store:** a campaign optionally holds a persistent
//! [`ResultStore`] ([`Campaign::attach_store`]), and [`Campaign::memo`]
//! is the one path to it: whole runs, audit reports, sweeps and the
//! bench bins' wall-clocks are all served and recorded through it.

use crate::cache::Record;
use crate::experiment::{ExperimentOptions, RunResult};
use lightwsp_compiler::prune::RecoveryRecipes;
use lightwsp_compiler::{instrument, Compiled, CompilerConfig};
use lightwsp_ir::fxhash::{fx_hash, FxHashMap};
use lightwsp_ir::Program;
use lightwsp_sim::{Machine, Scheme, SimConfig};
use lightwsp_store::{digest_debug, ResultStore, StoreKey};
use lightwsp_workloads::WorkloadSpec;
use std::convert::Infallible;
use std::fmt::{Debug, Display};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

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

    /// The thread count the job simulates: the options' override
    /// (Fig. 16), else the workload's own.
    pub fn threads(&self) -> usize {
        self.opts.threads.unwrap_or(self.spec.threads)
    }

    /// The compiler config the job's binary depends on: `None` for the
    /// hardware-only schemes, which run the original program.
    fn compiler(&self) -> Option<&CompilerConfig> {
        self.scheme.is_instrumented().then_some(&self.opts.compiler)
    }

    /// Generates the workload at the job's instruction budget and
    /// compiles it: instrumented schemes get the full pass pipeline,
    /// hardware-only schemes run the original binary.
    pub fn compile(&self) -> Compiled {
        let program = self
            .spec
            .clone()
            .scaled_to(self.opts.insts_per_thread)
            .generate();
        match self.compiler() {
            Some(config) => instrument(&program, config),
            None => Compiled {
                program,
                recipes: RecoveryRecipes::default(),
                stats: Default::default(),
            },
        }
    }

    /// The simulator config the job runs under: the options' template
    /// with the job's scheme, one core per thread, and the DRAM cache
    /// warmed over the workload's data (shared counters, scratch and
    /// every thread's private window), emulating the paper's
    /// fast-forward (§V-A).
    pub fn sim_config(&self) -> SimConfig {
        let threads = self.threads();
        let mut cfg = self.opts.sim.clone();
        cfg.scheme = self.scheme;
        cfg.num_cores = threads;
        let window = self.spec.working_set.next_power_of_two();
        let heap = lightwsp_ir::layout::HEAP_BASE;
        cfg.warm_dram = vec![(heap - 0x8000, heap + window * threads as u64)];
        cfg
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

/// A compute that panics poisons the slot's lock but leaves the slot
/// `None`, so both locks are taken through the poison and the next
/// caller for the key recomputes instead of panicking in turn.
fn get_or_compute<T: Clone>(
    map: &Mutex<FxHashMap<u64, Slot<T>>>,
    key: u64,
    f: impl FnOnce() -> T,
) -> T {
    let slot = map
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry(key)
        .or_default()
        .clone();
    let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
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
    runs: AtomicU64,
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
            runs: AtomicU64::new(0),
            sim_computed: AtomicU64::new(0),
        }
    }

    /// Attaches a persistent result store: from then on every
    /// [`memo`](Campaign::memo) — each run of
    /// [`run_one`](Campaign::run_one)/[`run_many`](Campaign::run_many),
    /// baselines included, and each audit and sweep driven through this
    /// campaign — is served from the store when it holds a record for
    /// the same inputs and code digest, and recorded (with its measured
    /// wall-clock, for runs) when not. A warm re-run of an unchanged
    /// evaluation therefore simulates nothing.
    pub fn attach_store(&mut self, store: ResultStore) {
        self.store = Some(store);
    }

    /// The attached result store, if any (for flushing and counters).
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// The one path to the attached store: serves the `kind` record of
    /// `workload`/`scheme` keyed on the digest of `config` (every input
    /// that shapes the result) and the store's code digest, or runs
    /// `compute` and records what it returns. Errors are never
    /// recorded, and a record that fails to decode is recomputed and
    /// overwritten. Without a store this just computes; the key is
    /// built only when a store is attached.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error.
    pub fn memo<T: Record, E>(
        &self,
        kind: &str,
        workload: impl Display,
        scheme: impl Display,
        config: impl Debug,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let Some(store) = &self.store else {
            return compute();
        };
        let key = StoreKey::new(
            kind,
            workload.to_string(),
            scheme.to_string(),
            digest_debug(&config),
            0,
            store.code(),
        );
        if let Some(hit) = store.get(&key).and_then(|raw| T::decode(&raw).ok()) {
            return Ok(hit);
        }
        let value = compute()?;
        store.put(key, value.encode());
        Ok(value)
    }

    /// Cache counters: cells served from the store vs simulated.
    pub fn cache_stats(&self) -> CampaignCacheStats {
        let simulated = self.sim_computed.load(Ordering::Relaxed);
        CampaignCacheStats {
            served: self.runs.load(Ordering::Relaxed).saturating_sub(simulated),
            simulated,
            store: self.store.as_ref().map(|s| s.stats()),
        }
    }

    /// The worker count jobs fan out over.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Fingerprint of everything a compilation depends on.
    /// Uninstrumented schemes all run the original binary, so their
    /// entry is not fragmented by compiler config.
    fn compile_key(job: &Job) -> u64 {
        fx_hash(&format!(
            "{:?}|{}|{:?}",
            job.spec,
            job.opts.insts_per_thread,
            job.compiler(),
        ))
    }

    /// Fingerprint of everything a baseline run depends on.
    fn baseline_key(job: &Job) -> u64 {
        fx_hash(&format!(
            "{:?}|{}|{}|{:?}",
            job.spec,
            job.opts.insts_per_thread,
            job.threads(),
            job.opts.sim,
        ))
    }

    fn compiled_for(&self, job: &Job) -> SharedCompile {
        get_or_compute(&self.compiled, Self::compile_key(job), || {
            let c = job.compile();
            SharedCompile {
                program: Arc::new(c.program),
                recipes: Arc::new(c.recipes),
            }
        })
    }

    /// Builds `job`'s ready-to-run machine from the shared compile
    /// cache without running it: the machine every figure cell runs,
    /// for callers that time or step `Machine::run` themselves.
    pub fn machine(&self, job: &Job) -> Machine {
        let sc = self.compiled_for(job);
        Machine::new(sc.program, sc.recipes, job.sim_config(), job.threads())
    }

    /// The uncached simulation path.
    fn simulate(&self, job: &Job) -> RunResult {
        let mut machine = self.machine(job);
        let completion = machine.run();
        RunResult {
            workload: job.spec.name,
            scheme: job.scheme,
            threads: job.threads(),
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
        self.runs.fetch_add(1, Ordering::Relaxed);
        // The key covers everything `simulate` consumes — spec, budget,
        // thread count, simulator config, and (for instrumented schemes
        // only, mirroring `compile_key`) the compiler config — so a knob
        // change invalidates exactly the cells it affects.
        let config = (
            &job.spec,
            job.opts.insts_per_thread,
            job.threads(),
            &job.opts.sim,
            job.compiler(),
        );
        let Ok(timed) = self.memo("run", job.spec.name, job.scheme.name(), config, || {
            let t0 = Instant::now();
            let r = self.simulate(job);
            self.sim_computed.fetch_add(1, Ordering::Relaxed);
            Ok::<_, Infallible>((r, t0.elapsed().as_secs_f64() * 1e3))
        });
        timed
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

    /// Execution slowdown of one job, normalised to its cached
    /// memory-mode baseline (the y-axis of Figs. 7, 9–13, 15–17), with
    /// the job's run result.
    pub fn slowdown(&self, job: &Job) -> (f64, RunResult) {
        let base = self.baseline_cycles(job) as f64;
        let r = self.run_one(job);
        (r.cycles() as f64 / base, r)
    }

    /// Runs every job, fanning across the worker pool; results are in
    /// job order regardless of scheduling.
    pub fn run_many(&self, jobs: &[Job]) -> Vec<RunResult> {
        self.map_jobs(jobs, |job| self.run_one(job))
    }

    /// [`slowdown`](Campaign::slowdown) of every job, fanned across the
    /// worker pool, in job order.
    pub fn slowdown_many(&self, jobs: &[Job]) -> Vec<(f64, RunResult)> {
        self.map_jobs(jobs, |job| self.slowdown(job))
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

    /// Runs `f` on one contiguous chunk of `items` per worker, with the
    /// index of the chunk's first item, and returns the results in chunk
    /// order. This is the crash audits' fan-out: merged in order, the
    /// results equal one serial chunk's at any worker count.
    pub fn map_chunks<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &[I]) -> T + Sync,
    {
        let len = items.len().div_ceil(self.workers).max(1);
        let chunks: Vec<(usize, &[I])> = items
            .chunks(len)
            .enumerate()
            .map(|(i, c)| (i * len, c))
            .collect();
        self.map_parallel(&chunks, |&(start, chunk), _| f(start, chunk))
    }

    /// Fans `f` over arbitrary `items` on the campaign's worker pool
    /// (dynamic self-scheduling, results in item order) — the engine
    /// behind [`run_many`](Campaign::run_many), exposed so other sweeps
    /// (e.g. [`map_chunks`](Campaign::map_chunks)) reuse the same pool
    /// and its worker count. `f` receives each item and its index.
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

/// Calls an entry point that takes a campaign on one with an in-memory
/// store, twice: the second call must be served (one more store hit,
/// no put, an equal result). Then `changed` — the same call with one
/// keyed input changed — must miss.
#[cfg(test)]
pub(crate) fn assert_served<T: PartialEq + Debug>(
    call: impl Fn(&Campaign) -> T,
    changed: impl Fn(&Campaign) -> T,
) {
    let mut c = Campaign::with_workers(2);
    c.attach_store(ResultStore::in_memory_with(0xC0DE));
    let stats = |c: &Campaign| c.store().map(ResultStore::stats).unwrap();
    let cold = call(&c);
    let before = stats(&c);
    let warm = call(&c);
    let after = stats(&c);
    assert_eq!(
        warm, cold,
        "the served result differs from the computed one"
    );
    assert_eq!(
        (after.hits, after.puts),
        (before.hits + 1, before.puts),
        "the second call was not served"
    );
    let _ = changed(&c);
    let last = stats(&c);
    assert_eq!(
        (last.hits, last.misses),
        (after.hits, after.misses + 1),
        "a call with a changed input was served"
    );
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
    fn a_panicking_compute_leaves_the_key_recomputable() {
        let map = Mutex::new(FxHashMap::default());
        let panicked = std::panic::catch_unwind(|| {
            get_or_compute(&map, 7, || -> u64 { panic!("compute failed") })
        });
        assert!(panicked.is_err());
        assert_eq!(get_or_compute(&map, 7, || 42u64), 42);
        assert_eq!(get_or_compute(&map, 7, || 0u64), 42, "computed once");
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
        // runs must succeed and agree with fresh-compile runs, each on
        // a campaign of its own.
        let c = Campaign::with_workers(2);
        let opts = ExperimentOptions::quick();
        let w = workload("bzip2").unwrap();
        let jobs = vec![
            Job::new(&opts, &w, Scheme::LightWsp),
            Job::new(&opts, &w, Scheme::Capri),
        ];
        let rs = c.run_many(&jobs);
        for (job, r) in jobs.iter().zip(&rs) {
            let fresh = Campaign::with_workers(1).run_one(job);
            assert_eq!(r.stats.cycles, fresh.stats.cycles);
        }
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
    fn memo_serves_and_recomputes_what_fails_to_decode() {
        let memo = |c: &Campaign, name: &str, v: Result<f64, &'static str>| {
            c.memo("test", name, "wall", 7, || v)
        };
        // Without a store every call computes.
        let bare = Campaign::with_workers(1);
        assert_eq!(memo(&bare, "x", Ok(1.5)), Ok(1.5));
        assert_eq!(memo(&bare, "x", Ok(2.5)), Ok(2.5));

        let mut c = Campaign::with_workers(1);
        c.attach_store(ResultStore::in_memory_with(1));
        assert_eq!(memo(&c, "x", Ok(1.5)), Ok(1.5));
        assert_eq!(memo(&c, "x", Ok(2.5)), Ok(1.5), "served");
        // Errors are never recorded.
        assert_eq!(memo(&c, "y", Err("failed")), Err("failed"));
        assert_eq!(memo(&c, "y", Ok(3.5)), Ok(3.5));
        // A record that fails to decode is recomputed and overwritten.
        let store = c.store().unwrap();
        let key = store.kind_entries("test")[0].key.clone();
        assert_eq!(key.workload, "x");
        store.put(key.clone(), "garbage".into());
        assert_eq!(memo(&c, "x", Ok(4.5)), Ok(4.5));
        assert_eq!(store.get(&key), Some(4.5f64.encode()));
    }

    #[test]
    fn baseline_cache_matches_experiment() {
        // A job's cached baseline is its workload's memory-mode run, as
        // a fresh campaign of its own runs it.
        let c = Campaign::with_workers(2);
        let opts = ExperimentOptions::quick();
        let w = workload("xz").unwrap();
        let job = Job::new(&opts, &w, Scheme::LightWsp);
        let fresh = Campaign::with_workers(1).run_one(&Job::new(&opts, &w, Scheme::Baseline));
        assert_eq!(c.baseline_cycles(&job), fresh.cycles().max(1));
    }
}

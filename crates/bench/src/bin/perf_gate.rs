//! Perf gate: every fast path of [`AXES`] timed against the reference
//! implementation it is diffed against, each measurement gated by a
//! floor from one table ([`GATES`]). Exits non-zero when any row falls
//! below its floor.
//!
//! | axis | what is timed |
//! |---|---|
//! | `step` | `Machine::run` on the 90 single-thread Fig. 7 + Fig. 11 cells, and on 15 eight-thread Fig. 7 cells |
//! | `exec` | the bare engines on the pure-compute variants of the compute-dense kernels, and `Machine::run` on every single-thread Fig. 7 cell (gated on the compute-dense ones) |
//! | `mem` | the cache models on four synthetic L1 access streams |
//! | `sweep` | dense capture-only crash sweeps (hmmer, vacation), and the litmus suite's exhaustive audit and per-cycle capture sweeps |
//!
//! Both sides of every measurement must do identical work: cycles and
//! instructions per cell, retired instructions per kernel, hit/miss and
//! snoop counts per stream, a digest of every capture per sweep, the
//! outcome of every litmus. A mismatch is a parity break and panics.
//!
//! Only `Machine::run` and the sweep loops are timed; compilation,
//! decoding and point preparation happen outside the timers. Dense
//! machine-level cells share most of their cost (persist machinery,
//! memory modelling) between the engines, so their floors are
//! no-regression floors, not the dispatch-level bar; `EXPERIMENTS.md`
//! has the numbers.
//!
//! The `exec` dispatch rows hand each batch an unbounded retire budget,
//! so a batch runs until the next timed event. Inside the machine the
//! retire stage grants at most `SimConfig::width` slots per call, so
//! these rows bound the engine's dispatch speed from above rather than
//! reproduce the simulator's batch sizes.
//!
//! Writes `results/perf_gate.txt`. `--quick` uses the quick instruction
//! budget for the machine cells and a smaller dense-sweep point budget.

use lightwsp_bench::Cli;
use lightwsp_compiler::Compiled;
use lightwsp_core::oracle::litmus_sweep;
use lightwsp_core::{Campaign, ExperimentOptions, Job, Scheme};
use lightwsp_ir::{DecodedProgram, DynEvent, Interp, Memory, Program};
use lightwsp_mem::cache::{SetAssocCache, VictimPolicy};
use lightwsp_mem::cache_ref::SetAssocCacheRef;
use lightwsp_mem::line_filter::LineFilter;
use lightwsp_model::harness::{sim_config, CaseSpec, EnumMode, PointPolicy};
use lightwsp_model::litmus_suite;
use lightwsp_sim::crash::check_capture;
use lightwsp_sim::{
    Axis, CrashInjector, CrashPoint, CrashPointKind, ExecMode, SimConfig, StepMode, SweepMode, AXES,
};
use lightwsp_workloads::{all_workloads, suite_workloads, workload, Suite, WorkloadSpec};
use std::fmt::{Debug, Write as _};
use std::hint::black_box;
use std::time::Instant;

/// One row of the gate table: a fast-vs-reference wall-time ratio and
/// the floor it must clear.
#[derive(Clone, Copy, Debug)]
struct Gate {
    axis: &'static str,
    metric: &'static str,
    floor: f64,
    /// The ratio must strictly exceed the floor.
    strict: bool,
}

impl Gate {
    fn passes(&self, value: f64) -> bool {
        if self.strict {
            value > self.floor
        } else {
            value >= self.floor
        }
    }
}

const fn gate(axis: &'static str, metric: &'static str, floor: f64, strict: bool) -> Gate {
    Gate {
        axis,
        metric,
        floor,
        strict,
    }
}

const STEP_BATCH: Gate = gate("step", "fig07+fig11 cells, batch", 1.0, false);
// Measured 1.38–1.51x over repeated full and quick runs; the loop that
// visited every core on every stepped cycle scored about 1.1x on nine
// of these cells.
const STEP_MT_BATCH: Gate = gate("step", "8-thread fig07 cells, batch", 1.25, false);
const DISPATCH_GEOMEAN: Gate = gate("exec", "dispatch kernels, geomean", 2.0, false);
const DISPATCH_KERNEL_MIN: Gate = gate("exec", "dispatch kernels, slowest", 1.5, false);
// Below 1.0 to absorb scheduler-noise bursts on millisecond-scale
// cells; a real per-cell regression shows up far below it.
const DENSE_CELL_MIN: Gate = gate("exec", "dense fig07 cells, slowest", 0.85, false);
const DENSE_GEOMEAN: Gate = gate("exec", "dense fig07 cells, geomean", 1.0, false);
const STREAM_GEOMEAN: Gate = gate("mem", "micro streams, geomean", 1.3, false);
const STREAM_MIN: Gate = gate("mem", "micro streams, slowest", 0.9, false);
const DENSE_CAPTURE_BATCH: Gate = gate("sweep", "hmmer+vacation dense captures, batch", 1.0, false);
const LITMUS_AUDIT: Gate = gate("sweep", "litmus exhaustive audit, batch", 1.0, true);
const LITMUS_CAPTURE: Gate = gate("sweep", "litmus per-cycle captures, batch", 1.0, true);

/// The gate table, in report order.
const GATES: [Gate; 11] = [
    STEP_BATCH,
    STEP_MT_BATCH,
    DISPATCH_GEOMEAN,
    DISPATCH_KERNEL_MIN,
    DENSE_CELL_MIN,
    DENSE_GEOMEAN,
    STREAM_GEOMEAN,
    STREAM_MIN,
    DENSE_CAPTURE_BATCH,
    LITMUS_AUDIT,
    LITMUS_CAPTURE,
];

/// Renders the measured rows as a table and returns it with the
/// verdict: true when every row clears its floor.
fn verdict(rows: &[(Gate, f64)]) -> (String, bool) {
    let mut out = format!(
        "{:<6} {:<38} {:>8} {:>8}  verdict\n",
        "axis", "metric", "speedup", "floor"
    );
    let mut pass = true;
    for (gate, value) in rows {
        let ok = gate.passes(*value);
        pass &= ok;
        let _ = writeln!(
            out,
            "{:<6} {:<38} {:>7.2}x {:>2}{:.2}x  {}",
            gate.axis,
            gate.metric,
            value,
            if gate.strict { ">" } else { ">=" },
            gate.floor,
            if ok { "ok" } else { "FAIL" },
        );
    }
    (out, pass)
}

/// The compute-dense half of the Fig. 7 matrix: high ALU density and
/// cache-resident working sets.
const COMPUTE_DENSE: [&str; 7] = [
    "hmmer", "h264ref", "namd", "imagick", "leela", "nab", "namd17",
];

/// Minimum accumulated measured time per side before best-of-N is
/// trusted, and the round cap that bounds slow cells.
const MIN_TOTAL_S: f64 = 0.008;
const MAX_REPS: u32 = 60;

/// Best-of wall seconds of one fast-vs-reference comparison.
struct Race {
    fast_s: f64,
    reference_s: f64,
}

impl Race {
    fn speedup(&self) -> f64 {
        self.reference_s / self.fast_s.max(1e-12)
    }
}

/// Runs `fast` and `reference` alternately — at least `reps` rounds,
/// and more on sub-millisecond work until [`MIN_TOTAL_S`] has
/// accumulated (at most [`MAX_REPS`]), so a scheduler-noise burst hits
/// both sides alike — and keeps each side's best time. Each closure
/// returns its timed seconds and a witness of the work it did.
///
/// # Panics
///
/// Panics if the witnesses differ: the two sides did different work,
/// a parity break that voids the comparison.
fn race<W: PartialEq + Debug>(
    what: &str,
    reps: u32,
    mut fast: impl FnMut() -> (f64, W),
    mut reference: impl FnMut() -> (f64, W),
) -> (Race, W) {
    let mut r = Race {
        fast_s: f64::INFINITY,
        reference_s: f64::INFINITY,
    };
    let mut total = 0.0;
    let mut rep = 0;
    loop {
        let (rs, rw) = reference();
        let (fs, fw) = fast();
        assert_eq!(fw, rw, "parity break: {what}");
        r.fast_s = r.fast_s.min(fs);
        r.reference_s = r.reference_s.min(rs);
        total += fs + rs;
        rep += 1;
        if rep >= reps.max(1) && (total >= MIN_TOTAL_S || rep >= MAX_REPS) {
            return (r, fw);
        }
    }
}

fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

/// One single-thread cell of a figure.
struct Cell {
    figure: String,
    job: Job,
}

/// Every single-thread workload under the four Fig. 7 schemes (the
/// baseline normaliser runs are part of the figure's cost).
fn fig07_cells(opts: &ExperimentOptions) -> Vec<Cell> {
    let schemes = [
        Scheme::Baseline,
        Scheme::Capri,
        Scheme::Ppa,
        Scheme::LightWsp,
    ];
    all_workloads()
        .iter()
        .filter(|w| w.threads == 1)
        .flat_map(|w| {
            schemes.iter().map(move |&scheme| Cell {
                figure: "fig07".to_string(),
                job: Job::new(opts, w, scheme),
            })
        })
        .collect()
}

/// The Fig. 11 WPQ 256/128 sweep of LightWSP with
/// `store_threshold = WPQ/2`, single-thread workloads. Its WPQ-64 point
/// is Fig. 7's LightWSP config, already among [`fig07_cells`].
fn fig11_cells(opts: &ExperimentOptions) -> Vec<Cell> {
    let mut cells = Vec::new();
    for wpq in [256usize, 128] {
        let mut o = opts.clone();
        o.sim.mem = o.sim.mem.with_wpq_entries(wpq);
        o.compiler.store_threshold = (wpq / 2) as u32;
        for suite in Suite::all() {
            for w in suite_workloads(suite).iter().filter(|w| w.threads == 1) {
                cells.push(Cell {
                    figure: format!("fig11-wpq{wpq}"),
                    job: Job::new(&o, w, Scheme::LightWsp),
                });
            }
        }
    }
    cells
}

/// Eight-thread Fig. 7 cells on the paper's eight cores, the shape that
/// holds nearly all of the figure's simulation time: two WPQ-saturated
/// workloads, a lock-heavy and a skip-heavy one, and two transactional
/// ones, under every persist-path scheme of the figure.
fn fig07_mt_cells(opts: &ExperimentOptions) -> Vec<Cell> {
    let schemes = [Scheme::Capri, Scheme::Ppa, Scheme::LightWsp];
    ["labyrinth", "lu-cg", "vacation", "rb", "tpcc"]
        .into_iter()
        .flat_map(|name| {
            let w = workload(name).expect("eight-thread workload exists");
            assert_eq!(w.threads, 8, "{name}");
            schemes.map(|scheme| Cell {
                figure: "fig07".to_string(),
                job: Job::new(opts, &w, scheme),
            })
        })
        .collect()
}

/// Times `Machine::run` on `cell` with every axis at its default
/// against the same run with `to_reference` applied to its config;
/// witness `(cycles, insts)`. Both sides build their machines from
/// `c`'s compile cache.
fn race_cell(
    c: &Campaign,
    cell: &Cell,
    reps: u32,
    to_reference: fn(&mut SimConfig),
) -> (Race, (u64, u64)) {
    let run = |job: &Job| {
        let mut m = c.machine(job);
        let t0 = Instant::now();
        m.run();
        let dt = t0.elapsed().as_secs_f64();
        (dt, (m.stats().cycles, m.stats().insts))
    };
    let mut reference = cell.job.clone();
    to_reference(&mut reference.opts.sim);
    let what = format!(
        "{} {} {:?}",
        cell.figure, cell.job.spec.name, cell.job.scheme
    );
    race(&what, reps, || run(&cell.job), || run(&reference))
}

fn gate_step(c: &Campaign, opts: &ExperimentOptions, out: &mut String) -> Vec<(Gate, f64)> {
    let mut single = fig07_cells(opts);
    single.extend(fig11_cells(opts));
    let eight = fig07_mt_cells(opts);
    vec![
        (STEP_BATCH, race_step_batch(c, &single, out)),
        (STEP_MT_BATCH, race_step_batch(c, &eight, out)),
    ]
}

/// Races skip-ahead against the per-cycle stepper on every cell, one
/// report line each; returns the batch wall-time ratio.
fn race_step_batch(c: &Campaign, cells: &[Cell], out: &mut String) -> f64 {
    let (mut fast, mut reference) = (0.0, 0.0);
    for cell in cells {
        let (r, (cycles, _)) = race_cell(c, cell, 3, |s| s.step_mode = StepMode::Reference);
        fast += r.fast_s;
        reference += r.reference_s;
        let _ = writeln!(
            out,
            "  {:>12} {:>12} {:>9}: ref {:>8.2}ms fast {:>8.2}ms {:>5.2}x ({cycles} cycles)",
            cell.figure,
            cell.job.spec.name,
            cell.job.scheme.name(),
            r.reference_s * 1e3,
            r.fast_s * 1e3,
            r.speedup(),
        );
    }
    reference / f64::max(fast, 1e-12)
}

/// The pure-compute variant of a dense workload: loads and stores are
/// folded into the ALU mix (per-iteration instruction count kept), so
/// every instruction retires locally and wall time *is* dispatch.
fn pure_variant(name: &str) -> WorkloadSpec {
    let mut spec = workload(name).expect("compute-dense workload exists");
    spec.alu_per_iter += spec.loads_per_iter + spec.stores_per_iter;
    spec.loads_per_iter = 0;
    spec.stores_per_iter = 0;
    spec
}

fn run_tree(p: &Program) -> (f64, u64) {
    let mut mem = Memory::new();
    let mut t = Interp::new(p, 0);
    let t0 = Instant::now();
    while !t.finished() {
        t.step(p, &mut mem);
    }
    (t0.elapsed().as_secs_f64(), t.insts_executed())
}

fn run_decoded(p: &Program, dec: &DecodedProgram) -> (f64, u64) {
    let mut mem = Memory::new();
    let mut t = Interp::new(p, 0);
    let t0 = Instant::now();
    while !t.finished() {
        if let (_, Some(DynEvent::Halt)) = t.step_batch(dec, &mut mem, u32::MAX >> 1) {
            break;
        }
    }
    (t0.elapsed().as_secs_f64(), t.insts_executed())
}

fn gate_exec(c: &Campaign, opts: &ExperimentOptions, out: &mut String) -> Vec<(Gate, f64)> {
    // Dispatch level: the bare engines, no timing simulator, with an
    // unbounded batch budget.
    let mut kernels = Vec::new();
    for name in COMPUTE_DENSE {
        let p = pure_variant(name).scaled_to(60_000).generate();
        let dec = DecodedProgram::decode(&p);
        let (r, insts) = race(
            &format!("kernel {name}"),
            20,
            || run_decoded(&p, &dec),
            || run_tree(&p),
        );
        let _ = writeln!(
            out,
            "  dispatch {name:>10}: tree {:>7.3}ms decoded {:>7.3}ms {:>5.2}x ({insts} insts)",
            r.reference_s * 1e3,
            r.fast_s * 1e3,
            r.speedup(),
        );
        kernels.push(r.speedup());
    }

    // Machine level: every single-thread Fig. 7 cell under both
    // engines, gated on the compute-dense ones.
    let mut dense = Vec::new();
    for cell in &fig07_cells(opts) {
        let (r, (cycles, _)) = race_cell(c, cell, 5, |s| s.exec_mode = ExecMode::Reference);
        let is_dense = COMPUTE_DENSE.contains(&cell.job.spec.name);
        if is_dense {
            dense.push(r.speedup());
        }
        let _ = writeln!(
            out,
            "  {:>12} {:>9}{}: ref {:>8.2}ms decoded {:>8.2}ms {:>5.2}x ({cycles} cycles)",
            cell.job.spec.name,
            cell.job.scheme.name(),
            if is_dense { " [dense]" } else { "        " },
            r.reference_s * 1e3,
            r.fast_s * 1e3,
            r.speedup(),
        );
    }
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    vec![
        (DISPATCH_GEOMEAN, geomean(kernels.iter().copied())),
        (DISPATCH_KERNEL_MIN, min(&kernels)),
        (DENSE_CELL_MIN, min(&dense)),
        (DENSE_GEOMEAN, geomean(dense.iter().copied())),
    ]
}

/// L1 geometry of the paper's Table I system (128 sets × 8 ways × 64 B).
const L1_GEOMETRY: (usize, usize, u64) = (128, 8, 64);

/// Deterministic LCG: reproducible streams without an RNG in the loop.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 16
}

/// One synthetic L1 access stream.
struct Stream {
    name: &'static str,
    /// `(addr, is_write)` accesses.
    trace: Vec<(u64, bool)>,
    /// Addresses resident in the snooped persist front end.
    buffer: Vec<u64>,
}

/// The four standard streams of `n` accesses each.
fn micro_streams(n: usize) -> Vec<Stream> {
    let (sets, _, line) = L1_GEOMETRY;
    let resident: Vec<u64> = (0..(sets as u64 * 4)).map(|i| i * line).collect();
    let mut st = 0x5eed_u64;
    let span = sets as u64 * 16;
    let snoop_trace: Vec<(u64, bool)> = (0..n)
        .map(|_| {
            let r = lcg(&mut st);
            ((r % span) * line, r & 2 == 0)
        })
        .collect();
    let snoop_buffer: Vec<u64> = (0..48).map(|_| (lcg(&mut st) % span) * line + 8).collect();
    let unsnooped = |name, trace| Stream {
        name,
        trace,
        buffer: Vec::new(),
    };
    vec![
        // Back-to-back hits on one line: the MRU way memo.
        unsnooped(
            "hit_streak",
            (0..n)
                .map(|i| (0x4000 + (i as u64 % 8) * 8, i % 4 == 0))
                .collect(),
        ),
        // Hits spread over many sets and ways: the tag scan.
        unsnooped(
            "resident_walk",
            (0..n)
                .map(|i| (resident[i % resident.len()], false))
                .collect(),
        ),
        // Every access a miss with a clean eviction: the victim scan.
        unsnooped(
            "evict_churn",
            (0..n)
                .map(|i| (0x10_0000 + (i as u64) * line * sets as u64, false))
                .collect(),
        ),
        // Random writes under a populated front end: the dirty-victim
        // snoop (filter probe vs linear scan) on the hot path.
        Stream {
            name: "snoop_mix",
            trace: snoop_trace,
            buffer: snoop_buffer,
        },
    ]
}

fn gate_mem(out: &mut String) -> Vec<(Gate, f64)> {
    let (sets, ways, line) = L1_GEOMETRY;
    let policy = VictimPolicy::Full;
    let mut speedups = Vec::new();
    for Stream {
        name,
        trace,
        buffer,
    } in micro_streams(200_000)
    {
        let fast = || {
            // The residency filter rejects the common no-occupant snoop
            // in one probe; positives are confirmed by the scan.
            let mut filter = LineFilter::new(line);
            for &a in &buffer {
                filter.insert(a);
            }
            let mut cache = SetAssocCache::new(sets, ways, line);
            let t0 = Instant::now();
            for &(addr, w) in &trace {
                black_box(cache.access(addr, w, policy, |la| {
                    filter.maybe_contains_line(la) && buffer.iter().any(|&b| b / line == la / line)
                }));
            }
            let dt = t0.elapsed().as_secs_f64();
            (dt, (cache.hit_miss(), cache.snoop_stats()))
        };
        let reference = || {
            let mut cache = SetAssocCacheRef::new(sets, ways, line);
            let t0 = Instant::now();
            for &(addr, w) in &trace {
                black_box(cache.access(addr, w, policy, |la| {
                    buffer.iter().any(|&b| b / line == la / line)
                }));
            }
            let dt = t0.elapsed().as_secs_f64();
            (dt, (cache.hit_miss(), cache.snoop_stats()))
        };
        let (r, _) = race(&format!("stream {name}"), 5, fast, reference);
        let _ = writeln!(
            out,
            "  {name:>13}: ref {:>6.2}ns/access fast {:>6.2}ns/access {:>5.2}x",
            r.reference_s * 1e9 / trace.len() as f64,
            r.fast_s * 1e9 / trace.len() as f64,
            r.speedup(),
        );
        speedups.push(r.speedup());
    }
    vec![
        (STREAM_GEOMEAN, geomean(speedups.iter().copied())),
        (
            STREAM_MIN,
            speedups.iter().copied().fold(f64::INFINITY, f64::min),
        ),
    ]
}

/// SplitMix64-style mixing fold for the capture digest.
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A capture-only sweep over sorted `points` in `mode`: power cut plus
/// structural check at every point, no resume. Returns the sweep's
/// seconds and `(audited, violations, digest)`, the digest folding
/// every capture's cut state, resolution and image sizes.
fn capture_sweep(
    compiled: &Compiled,
    cfg: &SimConfig,
    threads: usize,
    points: &[CrashPoint],
    mode: SweepMode,
) -> (f64, (usize, usize, u64)) {
    let injector = CrashInjector::new(compiled, cfg.clone(), threads).with_sweep_mode(mode);
    let (mut audited, mut violations) = (0, Vec::new());
    let mut digest = 0x5357_4545_5021_u64;
    let t0 = Instant::now();
    let mut sweeper = injector.sweeper();
    for &p in points {
        digest = mix(digest, p.cycle);
        let Some((cap, pm_after)) = sweeper.cut_at(p) else {
            continue;
        };
        audited += 1;
        check_capture(&cap, &pm_after, p, &mut violations);
        for v in [cap.at_cycle, cap.commit_frontier, cap.last_allocated] {
            digest = mix(digest, v);
        }
        for &r in &cap.survivable {
            digest = mix(digest, r);
        }
        for res in &cap.per_mc {
            for e in res.flushed.iter().chain(&res.discarded) {
                digest = mix(mix(mix(digest, e.addr), e.val), e.region);
            }
            for &(region, addr, old) in &res.rolled_back {
                digest = mix(mix(mix(digest, region), addr), old);
            }
        }
        for pt in &cap.report.resume_points {
            digest = mix(digest, pt.encode());
        }
        digest = mix(digest, cap.pm_before.len() as u64);
        digest = mix(digest, pm_after.len() as u64);
    }
    (
        t0.elapsed().as_secs_f64(),
        (audited, violations.len(), digest),
    )
}

/// Fork against rerun on one capture sweep.
fn race_sweep(
    what: &str,
    compiled: &Compiled,
    cfg: &SimConfig,
    threads: usize,
    points: &[CrashPoint],
) -> (Race, (usize, usize, u64)) {
    race(
        what,
        1,
        || capture_sweep(compiled, cfg, threads, points, SweepMode::Fork),
        || capture_sweep(compiled, cfg, threads, points, SweepMode::Rerun),
    )
}

fn gate_sweep(
    c: &Campaign,
    opts: &ExperimentOptions,
    quick: bool,
    out: &mut String,
) -> Vec<(Gate, f64)> {
    // Dense capture sweeps: every mechanism-window point plus seeded
    // cycles, where rerun pays the O(P·H) prefix replay.
    let mut opts = opts.clone();
    opts.insts_per_thread = opts.insts_per_thread.min(20_000);
    let (cap_per_kind, seeded) = if quick { (8, 60) } else { (32, 240) };
    let (mut fork, mut rerun) = (0.0, 0.0);
    for name in ["hmmer", "vacation"] {
        let mut w = workload(name).expect("known workload");
        w.threads = w.threads.min(2);
        let job = Job::new(&opts, &w, Scheme::LightWsp);
        let threads = job.threads();
        let mut cfg = opts.sim.clone();
        cfg.scheme = job.scheme;
        cfg.num_cores = threads;
        let compiled = job.compile();
        let golden = CrashInjector::new(&compiled, cfg.clone(), threads)
            .golden_points(cap_per_kind, 0x5EE9, seeded)
            .expect("golden run completes");
        let (points, horizon) = (golden.points, golden.cycles);
        let (r, (audited, violations, _)) = race_sweep(name, &compiled, &cfg, threads, &points);
        assert_eq!(violations, 0, "{name}: capture violations");
        let _ = writeln!(
            out,
            "  {name:>10}: {} points over {horizon} cycles ({audited} audited): \
             rerun {:>8.2}ms fork {:>8.2}ms {:>5.2}x",
            points.len(),
            r.reference_s * 1e3,
            r.fast_s * 1e3,
            r.speedup(),
        );
        fork += r.fast_s;
        rerun += r.reference_s;
    }
    let mut rows = vec![(DENSE_CAPTURE_BATCH, rerun / f64::max(fork, 1e-12))];

    // The litmus suite's exhaustive model audit (a capture at every
    // cycle of each traced run, checked against the model; no point
    // resumes), in both step modes; the outcomes must be identical.
    let (mut fork, mut rerun) = (0.0, 0.0);
    for step in [StepMode::SkipAhead, StepMode::Reference] {
        let sweep = |mode| {
            move || {
                let t0 = Instant::now();
                let (_, outcomes) = litmus_sweep(c, step, mode, EnumMode::Overapprox);
                (t0.elapsed().as_secs_f64(), outcomes)
            }
        };
        let (r, outcomes) = race(
            &format!("litmus audit ({})", step.name()),
            1,
            sweep(SweepMode::Fork),
            sweep(SweepMode::Rerun),
        );
        let _ = writeln!(
            out,
            "  litmus audit ({:<10}): {} litmuses, outcomes identical: rerun {:.3}s fork {:.3}s",
            step.name(),
            outcomes.len(),
            r.reference_s,
            r.fast_s,
        );
        fork += r.fast_s;
        rerun += r.reference_s;
    }
    rows.push((LITMUS_AUDIT, rerun / f64::max(fork, 1e-12)));

    // Per-cycle capture sweeps over every litmus: the part the fork
    // engine replaces, without the traced runs and model checks both
    // modes share.
    let (mut fork, mut rerun, mut total_points) = (0.0, 0.0, 0);
    let suite = litmus_suite();
    for l in &suite {
        let cfg = sim_config(&CaseSpec {
            name: l.name.to_string(),
            threads: l.threads,
            num_mcs: l.num_mcs,
            wpq_entries: l.wpq_entries,
            step_mode: StepMode::SkipAhead,
            sweep_mode: SweepMode::Fork,
            mutant: None,
            policy: PointPolicy::Exhaustive { max_horizon: 4096 },
            seed: 0x11735,
            enum_mode: EnumMode::Overapprox,
        });
        let (_, horizon) =
            CrashInjector::new(&l.compiled, cfg.clone(), l.threads).traced_timelines();
        let points: Vec<CrashPoint> = (1..horizon)
            .map(|cycle| CrashPoint {
                cycle,
                kind: CrashPointKind::Seeded,
            })
            .collect();
        let (r, _) = race_sweep(l.name, &l.compiled, &cfg, l.threads, &points);
        fork += r.fast_s;
        rerun += r.reference_s;
        total_points += points.len();
    }
    let _ = writeln!(
        out,
        "  litmus captures: {} litmuses, {total_points} points: rerun {rerun:.3}s fork {fork:.3}s",
        suite.len(),
    );
    rows.push((LITMUS_CAPTURE, rerun / f64::max(fork, 1e-12)));
    rows
}

fn main() {
    let cli = Cli::from_env(false);
    let opts = cli.options();
    let c = lightwsp_bench::campaign();
    let mut out = String::from("== perf gate: every fast path against its reference ==\n");
    let header = |out: &mut String, axis: &Axis| {
        let _ = writeln!(out, "{}: {} vs {}", axis.name, axis.fast, axis.reference);
    };
    let [step, exec, mem, sweep] = &AXES;
    header(&mut out, step);
    let mut rows = gate_step(&c, &opts, &mut out);
    header(&mut out, exec);
    rows.extend(gate_exec(&c, &opts, &mut out));
    header(&mut out, mem);
    rows.extend(gate_mem(&mut out));
    header(&mut out, sweep);
    rows.extend(gate_sweep(&c, &opts, cli.quick, &mut out));
    debug_assert_eq!(rows.len(), GATES.len());
    let (table, pass) = verdict(&rows);
    out.push_str(&table);
    out.push_str(if pass { "PASS\n" } else { "FAIL\n" });
    lightwsp_bench::emit_text("perf_gate", &out);
    if !pass {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_below_its_floor_fails_the_gate() {
        let at_floor: Vec<(Gate, f64)> = GATES.iter().map(|g| (*g, g.floor)).collect();
        let above: Vec<(Gate, f64)> = GATES.iter().map(|g| (*g, g.floor + 0.01)).collect();
        assert!(verdict(&above).1, "every row above its floor passes");
        for i in 0..GATES.len() {
            let mut rows = above.clone();
            rows[i].1 = GATES[i].floor - 0.01;
            let (table, pass) = verdict(&rows);
            assert!(!pass, "row {i} below its floor must fail");
            assert!(table.contains("FAIL"), "{table}");
            // Strict rows also fail exactly at the floor.
            rows[i] = at_floor[i];
            assert_eq!(verdict(&rows).1, !GATES[i].strict, "row {i} at its floor");
        }
    }

    #[test]
    fn every_axis_has_gate_rows() {
        for axis in &AXES {
            assert!(
                GATES.iter().any(|g| g.axis == axis.name),
                "axis {} has no gate row",
                axis.name
            );
        }
    }
}

//! The figure/table generators. Each function reproduces one evaluation
//! artifact of the paper, or one beyond-paper study, and returns it
//! ready for rendering; `all_figures` drives them.
//!
//! Every generator fans its simulations through a shared [`Campaign`]:
//! the campaign returns results in job order, and its caches only
//! deduplicate bit-identical work — so figure numbers are byte-for-byte
//! those of running each job on a fresh campaign of its own, at any
//! worker count. Passing one `Campaign` to several generators
//! additionally shares baseline runs and compilations *across* figures
//! (e.g. Figs. 7/13/15/17 all reuse the default-config compilations).

use lightwsp_core::report::Figure;
use lightwsp_core::{Campaign, ExperimentOptions, Job, RunResult, Scheme};
use lightwsp_mem::cache::VictimPolicy;
use lightwsp_mem::energy::{lightwsp_battery_joules, required_joules, PowerSupply};
use lightwsp_mem::{cam, CxlDevice};
use lightwsp_workloads::{
    all_workloads, geomean, memory_intensive, suite_workloads, workload, Suite,
};

/// Cross-product of `specs` × `schemes` (spec-major), one job each.
fn cross(
    opts: &ExperimentOptions,
    specs: &[lightwsp_core::WorkloadSpec],
    schemes: &[Scheme],
) -> Vec<Job> {
    specs
        .iter()
        .flat_map(|w| schemes.iter().map(|&s| Job::new(opts, w, s)))
        .collect()
}

/// The Fig. 11/12/13/15/17 shape: for each (series, options) variant,
/// one LightWSP slowdown geomean per suite.
fn suite_geomean_sweep(c: &Campaign, fig: &mut Figure, variants: &[(String, ExperimentOptions)]) {
    let mut jobs = Vec::new();
    for (_, o) in variants {
        for suite in Suite::all() {
            for w in suite_workloads(suite) {
                jobs.push(Job::new(o, &w, Scheme::LightWsp));
            }
        }
    }
    let mut slowdowns = c.slowdowns(&jobs).into_iter();
    for (series, _) in variants {
        for suite in Suite::all() {
            let vals: Vec<f64> = (&mut slowdowns)
                .take(suite_workloads(suite).len())
                .collect();
            fig.push(suite, suite.name(), series, geomean(vals));
        }
    }
}

/// Fig. 7: slowdown of Capri, PPA and LightWSP vs the memory-mode
/// baseline across every workload.
pub fn fig07(c: &Campaign, opts: &ExperimentOptions) -> Figure {
    let mut fig = Figure::new(
        "fig07",
        "Slowdown of Capri, PPA and LightWSP (baseline: Optane memory mode)",
        "slowdown",
    );
    let schemes = [Scheme::Capri, Scheme::Ppa, Scheme::LightWsp];
    let jobs = cross(opts, &all_workloads(), &schemes);
    for (job, s) in jobs.iter().zip(c.slowdowns(&jobs)) {
        fig.push(job.spec.suite, job.spec.name, job.scheme.name(), s);
    }
    fig
}

/// Fig. 8: region-level persistence efficiency (Eq. 1) of PPA and
/// LightWSP, averaged per suite.
pub fn fig08(c: &Campaign, opts: &ExperimentOptions) -> Figure {
    let mut fig = Figure::new("fig08", "Region-level persistence efficiency", "%");
    let mut jobs = Vec::new();
    for suite in Suite::all() {
        for scheme in [Scheme::Ppa, Scheme::LightWsp] {
            for w in suite_workloads(suite) {
                jobs.push(Job::new(opts, &w, scheme));
            }
        }
    }
    let mut results = c.run_many(&jobs).into_iter();
    for suite in Suite::all() {
        for scheme in [Scheme::Ppa, Scheme::LightWsp] {
            let n = suite_workloads(suite).len();
            let sum: f64 = (&mut results)
                .take(n)
                .map(|r| r.stats.persistence_efficiency())
                .sum();
            fig.push(suite, suite.name(), scheme.name(), sum / n as f64);
        }
    }
    fig
}

/// Fig. 9: ideal PSP (no DRAM cache) vs LightWSP on the
/// memory-intensive subset.
pub fn fig09(c: &Campaign, opts: &ExperimentOptions) -> Figure {
    let mut fig = Figure::new(
        "fig09",
        "Ideal PSP vs LightWSP, memory-intensive applications",
        "slowdown",
    );
    let jobs = cross(
        opts,
        &memory_intensive(),
        &[Scheme::PspIdeal, Scheme::LightWsp],
    );
    for (job, s) in jobs.iter().zip(c.slowdowns(&jobs)) {
        fig.push(job.spec.suite, job.spec.name, job.scheme.name(), s);
    }
    fig
}

/// Fig. 10: cWSP vs LightWSP per suite (NPB excluded, as in the paper).
pub fn fig10(c: &Campaign, opts: &ExperimentOptions) -> Figure {
    let mut fig = Figure::new("fig10", "LightWSP vs cWSP (NPB excluded)", "slowdown");
    let suites: Vec<Suite> = Suite::all()
        .into_iter()
        .filter(|&s| s != Suite::Npb)
        .collect();
    let mut jobs = Vec::new();
    for &suite in &suites {
        for scheme in [Scheme::Cwsp, Scheme::LightWsp] {
            for w in suite_workloads(suite) {
                jobs.push(Job::new(opts, &w, scheme));
            }
        }
    }
    let mut slowdowns = c.slowdowns(&jobs).into_iter();
    for &suite in &suites {
        for scheme in [Scheme::Cwsp, Scheme::LightWsp] {
            let vals: Vec<f64> = (&mut slowdowns)
                .take(suite_workloads(suite).len())
                .collect();
            fig.push(suite, suite.name(), scheme.name(), geomean(vals));
        }
    }
    fig
}

/// Fig. 11: WPQ-size sensitivity (256/128/64 entries, threshold = half
/// the WPQ), per suite.
pub fn fig11(c: &Campaign, opts: &ExperimentOptions) -> Figure {
    let mut fig = Figure::new("fig11", "WPQ size sensitivity (LightWSP)", "slowdown");
    let variants: Vec<(String, ExperimentOptions)> = [256usize, 128, 64]
        .iter()
        .map(|&wpq| {
            let mut o = opts.clone();
            o.sim.mem = o.sim.mem.with_wpq_entries(wpq);
            o.compiler.store_threshold = (wpq / 2) as u32;
            (format!("WPQ-{wpq}"), o)
        })
        .collect();
    suite_geomean_sweep(c, &mut fig, &variants);
    fig
}

/// Fig. 12: store-threshold sensitivity (16/32/64) at a fixed 64-entry
/// WPQ, per suite.
pub fn fig12(c: &Campaign, opts: &ExperimentOptions) -> Figure {
    let mut fig = Figure::new("fig12", "Store-threshold sensitivity (WPQ 64)", "slowdown");
    let variants: Vec<(String, ExperimentOptions)> = [16u32, 32, 64]
        .iter()
        .map(|&thr| {
            let mut o = opts.clone();
            o.compiler.store_threshold = thr;
            (format!("St-Threshold-{thr}"), o)
        })
        .collect();
    suite_geomean_sweep(c, &mut fig, &variants);
    fig
}

/// Fig. 13: victim-selection-policy sensitivity (full/half/zero).
pub fn fig13(c: &Campaign, opts: &ExperimentOptions) -> Figure {
    let mut fig = Figure::new("fig13", "Victim selection policies (LightWSP)", "slowdown");
    let variants: Vec<(String, ExperimentOptions)> =
        [VictimPolicy::Full, VictimPolicy::Half, VictimPolicy::Zero]
            .iter()
            .map(|&policy| {
                let mut o = opts.clone();
                o.sim.victim_policy = policy;
                (policy.name().to_string(), o)
            })
            .collect();
    suite_geomean_sweep(c, &mut fig, &variants);
    fig
}

/// Fig. 14: L1 miss rate under the three victim policies plus the
/// no-snooping stale-load configuration.
pub fn fig14(c: &Campaign, opts: &ExperimentOptions) -> Figure {
    let mut fig = Figure::new("fig14", "L1 miss rate with/without buffer snooping", "%");
    let policies = [
        VictimPolicy::Full,
        VictimPolicy::Half,
        VictimPolicy::Zero,
        VictimPolicy::StaleLoad,
    ];
    let mut jobs = Vec::new();
    for &policy in &policies {
        let mut o = opts.clone();
        o.sim.victim_policy = policy;
        for suite in Suite::all() {
            for w in suite_workloads(suite) {
                jobs.push(Job::new(&o, &w, Scheme::LightWsp));
            }
        }
    }
    let mut results = c.run_many(&jobs).into_iter();
    for &policy in &policies {
        for suite in Suite::all() {
            let mut misses = 0u64;
            let mut total = 0u64;
            let mut stale = 0u64;
            for r in (&mut results).take(suite_workloads(suite).len()) {
                misses += r.stats.l1_misses;
                total += r.stats.l1_hits + r.stats.l1_misses;
                stale += r.stats.stale_loads;
            }
            // Stale loads force refetches: they surface as additional
            // effective misses, exactly the Fig. 14 penalty.
            let rate = (misses + stale) as f64 / total.max(1) as f64 * 100.0;
            fig.push(suite, suite.name(), policy.name(), rate);
        }
    }
    fig
}

/// Fig. 15: persist-path bandwidth sensitivity (4/2/1 GB/s).
pub fn fig15(c: &Campaign, opts: &ExperimentOptions) -> Figure {
    let mut fig = Figure::new("fig15", "Persist-path bandwidth sensitivity", "slowdown");
    let variants: Vec<(String, ExperimentOptions)> = [4u64, 2, 1]
        .iter()
        .map(|&gbps| {
            let mut o = opts.clone();
            o.sim.mem = o.sim.mem.with_persist_bandwidth_gbps(gbps);
            (format!("{gbps}GB/s"), o)
        })
        .collect();
    suite_geomean_sweep(c, &mut fig, &variants);
    fig
}

/// Fig. 16 + §V-F5: thread-count scaling on the multi-threaded suites,
/// plus WPQ-overflow rates.
pub fn fig16(c: &Campaign, opts: &ExperimentOptions) -> (Figure, String) {
    let mut fig = Figure::new("fig16", "Thread-count scaling (LightWSP)", "slowdown");
    let mut overflow_text =
        String::from("== §V-F5 — WPQ overflow rate (overflows per 10k instructions) ==\n");
    let mt_suites = [Suite::Stamp, Suite::Npb, Suite::Splash3, Suite::Whisper];
    let thread_counts = [8usize, 16, 32, 64];
    let mut jobs = Vec::new();
    for &threads in &thread_counts {
        let mut o = opts.clone();
        o.threads = Some(threads);
        // Keep total simulated work bounded at high thread counts.
        if threads > 8 {
            o.insts_per_thread = (o.insts_per_thread * 8 / threads as u64).max(4_000);
        }
        for suite in mt_suites {
            for w in suite_workloads(suite) {
                jobs.push(Job::new(&o, &w, Scheme::LightWsp));
            }
        }
    }
    let mut results = c.slowdown_many(&jobs).into_iter();
    for &threads in &thread_counts {
        for suite in mt_suites {
            let n = suite_workloads(suite).len();
            let mut vals = Vec::with_capacity(n);
            let mut ovf = 0.0;
            for (sd, r) in (&mut results).take(n) {
                vals.push(sd);
                ovf += r.stats.overflows_per_10k_insts();
            }
            fig.push(
                suite,
                suite.name(),
                &format!("{threads}-thread"),
                geomean(vals),
            );
            overflow_text.push_str(&format!(
                "{:<10} {:>2} threads: {:.3}\n",
                suite.name(),
                threads,
                ovf / n as f64
            ));
        }
    }
    // §V-F5 claim: enlarging the WPQ to 256 reduces the 64-thread
    // overflow rate several-fold.
    let mut o = opts.clone();
    o.threads = Some(64);
    o.insts_per_thread = (o.insts_per_thread / 8).max(4_000);
    o.sim.mem = o.sim.mem.with_wpq_entries(256);
    o.compiler.store_threshold = 128;
    let big_jobs: Vec<Job> = mt_suites
        .iter()
        .flat_map(|&suite| suite_workloads(suite))
        .map(|w| Job::new(&o, &w, Scheme::LightWsp))
        .collect();
    let big = c.run_many(&big_jobs);
    let ovf: f64 = big.iter().map(|r| r.stats.overflows_per_10k_insts()).sum();
    overflow_text.push_str(&format!(
        "all MT     64 threads, WPQ-256: {:.3}\n",
        ovf / big.len() as f64
    ));
    (fig, overflow_text)
}

/// Fig. 17 + Table III: CXL-device sensitivity.
pub fn fig17(c: &Campaign, opts: &ExperimentOptions) -> Figure {
    let mut fig = Figure::new("fig17", "CXL device sensitivity (LightWSP)", "slowdown");
    let variants: Vec<(String, ExperimentOptions)> = CxlDevice::all()
        .into_iter()
        .map(|dev| {
            let mut o = opts.clone();
            o.sim.mem = o.sim.mem.with_cxl(dev);
            (dev.name().to_string(), o)
        })
        .collect();
    suite_geomean_sweep(c, &mut fig, &variants);
    fig
}

/// Fig. 18: WPQ load-hit rate (hits per million instructions) for WPQ
/// sizes 256/128/64.
pub fn fig18(c: &Campaign, opts: &ExperimentOptions) -> Figure {
    let mut fig = Figure::new("fig18", "WPQ hit rate on LLC load misses", "hits/Minst");
    let wpqs = [256usize, 128, 64];
    let mut jobs = Vec::new();
    for &wpq in &wpqs {
        let mut o = opts.clone();
        o.sim.mem = o.sim.mem.with_wpq_entries(wpq);
        o.compiler.store_threshold = (wpq / 2) as u32;
        for suite in Suite::all() {
            for w in suite_workloads(suite) {
                jobs.push(Job::new(&o, &w, Scheme::LightWsp));
            }
        }
    }
    let mut results = c.run_many(&jobs).into_iter();
    for &wpq in &wpqs {
        for suite in Suite::all() {
            let n = suite_workloads(suite).len();
            let hits: f64 = (&mut results)
                .take(n)
                .map(|r| r.stats.wpq_hits_per_minsts())
                .sum();
            fig.push(suite, suite.name(), &format!("WPQ-{wpq}"), hits / n as f64);
        }
    }
    fig
}

/// Table II: buffer-conflict rate per suite (conflicts per snoop, ‰).
pub fn tab02(c: &Campaign, opts: &ExperimentOptions) -> Figure {
    let mut fig = Figure::new("tab02", "Buffer-conflict rate", "permille");
    let mut jobs = Vec::new();
    for suite in Suite::all() {
        for w in suite_workloads(suite) {
            jobs.push(Job::new(opts, &w, Scheme::LightWsp));
        }
    }
    let mut results = c.run_many(&jobs).into_iter();
    for suite in Suite::all() {
        let mut snoops = 0u64;
        let mut conflicts = 0u64;
        for r in (&mut results).take(suite_workloads(suite).len()) {
            snoops += r.stats.snoops;
            conflicts += r.stats.snoop_conflicts;
        }
        let rate = conflicts as f64 / snoops.max(1) as f64 * 1000.0;
        fig.push(suite, suite.name(), "conflict-rate", rate);
    }
    fig
}

/// §V-G2: CAM search-latency table (the CACTI-substitute model).
pub fn tab_cam() -> String {
    let mut out = String::from("== §V-G2 — CAM search latency (analytical model) ==\n");
    out.push_str("entries  bytes  latency_ns  cycles@2GHz\n");
    for (entries, bytes) in [(16usize, 8usize), (64, 8), (128, 8), (256, 8), (64, 64)] {
        out.push_str(&format!(
            "{entries:>7}  {bytes:>5}  {:>10.3}  {:>11}\n",
            cam::search_latency_ns(entries, bytes),
            cam::search_latency_cycles(entries, bytes)
        ));
    }
    out.push_str("paper: 64-entry 8-byte search = 0.99 ns (2 cycles)\n");
    out
}

/// §V-G3: dynamic instruction-count and region statistics.
pub fn tab_region_stats(c: &Campaign, opts: &ExperimentOptions) -> String {
    let mut out = String::from("== §V-G3 — instruction count and region statistics ==\n");
    out.push_str(&format!(
        "{:<14}{:>10}{:>14}{:>14}\n",
        "workload", "instr %", "insts/region", "stores/region"
    ));
    let jobs: Vec<Job> = all_workloads()
        .iter()
        .map(|w| Job::new(opts, w, Scheme::LightWsp))
        .collect();
    let results: Vec<RunResult> = c.run_many(&jobs);
    let (mut fi, mut fr, mut fs, mut n) = (0.0, 0.0, 0.0, 0usize);
    for (job, r) in jobs.iter().zip(&results) {
        let s = &r.stats;
        out.push_str(&format!(
            "{:<14}{:>9.2}%{:>14.2}{:>14.2}\n",
            job.spec.name,
            s.instrumentation_fraction() * 100.0,
            s.insts_per_region(),
            s.stores_per_region()
        ));
        fi += s.instrumentation_fraction() * 100.0;
        fr += s.insts_per_region();
        fs += s.stores_per_region();
        n += 1;
    }
    out.push_str(&format!(
        "{:<14}{:>9.2}%{:>14.2}{:>14.2}\n",
        "average",
        fi / n as f64,
        fr / n as f64,
        fs / n as f64
    ));
    out.push_str("paper: +7.03% instructions, 91.33 insts/region, 11.29 stores/region\n");
    out
}

/// §V-G4: hardware-cost comparison (analytical, from the designs).
pub fn tab_hw_cost() -> String {
    let cores = 8u64;
    let mcs = 2u64;
    // LightWSP: a 2-byte flush-ID register per MC; the front-end buffer
    // reuses the existing 1 KB write-combining buffer and the WPQ is the
    // commodity 512 B iMC structure.
    let lightwsp_total = 2 * mcs;
    let mut out = String::from("== §V-G4 — hardware cost ==\n");
    out.push_str(&format!(
        "LightWSP : {} B total ({} B flush-ID per MC × {} MCs) → {:.1} B/core\n",
        lightwsp_total,
        2,
        mcs,
        lightwsp_total as f64 / cores as f64
    ));
    out.push_str("PPA      : 337 B/core (store-integrity bookkeeping in rename/PRF)\n");
    out.push_str("Capri    : 54 KB/core (front-end + back-end undo/redo buffers)\n");
    out.push_str("paper: LightWSP 0.5 B/core, PPA 337 B/core, Capri 54 KB/core\n");
    out
}

/// §II-C1 motivation: JIT-checkpointing feasibility per PSU class vs
/// LightWSP's battery requirement (analytical).
pub fn tab_jit_energy() -> String {
    let mut out = String::from("== §II-C1 — JIT-checkpoint residual-energy feasibility ==\n");
    let configs: [(&str, u64, u64); 5] = [
        ("32 cores + 16 KB cache", 32, 16 << 10),
        ("64 cores + 40 MB cache", 64, 40 << 20),
        ("8 cores + 16 MB LLC", 8, 16 << 20),
        ("8 cores + 4 GB DRAM cache", 8, 4 << 30),
        ("64 cores + 1 TB DRAM", 64, 1 << 40),
    ];
    out.push_str(&format!(
        "{:<28}{:>12}{:>12}{:>12}\n",
        "volatile state", "needed (J)", "ATX PSU", "server PSU"
    ));
    let (atx, server) = (PowerSupply::atx(), PowerSupply::server());
    let feasible = |psu: &PowerSupply, cores, bytes| {
        if psu.can_checkpoint(cores, bytes) {
            "ok"
        } else {
            "INFEASIBLE"
        }
    };
    for (name, cores, bytes) in configs {
        out.push_str(&format!(
            "{:<28}{:>12.3}{:>12}{:>12}\n",
            name,
            required_joules(cores, bytes),
            feasible(&atx, cores, bytes),
            feasible(&server, cores, bytes),
        ));
    }
    out.push_str(&format!(
        "\nLightWSP battery requirement (2 MCs x 512 B WPQ): {:.2e} J\n",
        lightwsp_battery_joules(2, 512)
    ));
    out.push_str(
        "paper (via LightPC): server PSU tops out at 64 cores/40 MB; ATX at 32 cores/16 KB;\n\
         no PSU covers a terabyte-class DRAM cache -> JIT checkpointing cannot achieve WSP cheaply.\n",
    );
    out
}

/// Ablations of the design choices DESIGN.md §5 calls out: LRPO vs a
/// naive sfence at every boundary (§III-B's strawman), no loop
/// unrolling and a capped unroll factor (§IV-A region-size extension),
/// and no checkpoint pruning (§IV-A). Each row is the LightWSP geomean
/// slowdown over a representative workload set, against the same
/// memory-mode baseline.
pub fn ablations(c: &Campaign, opts: &ExperimentOptions) -> Figure {
    let mut fig = Figure::new("ablations", "LightWSP design ablations", "slowdown");
    let names = [
        "bzip2",
        "hmmer",
        "lbm",
        "libquantum",
        "mcf",
        "xz",
        "vacation",
        "radix",
        "tpcc",
    ];
    let specs: Vec<_> = names.iter().map(|n| workload(n).unwrap()).collect();
    let variant = |tweak: fn(&mut ExperimentOptions)| {
        let mut o = opts.clone();
        tweak(&mut o);
        o
    };
    let variants = [
        ("LightWSP (full)", opts.clone()),
        ("no LRPO (sfence)", variant(|o| o.sim.disable_lrpo = true)),
        ("no unrolling", variant(|o| o.compiler.unroll = false)),
        (
            "no pruning",
            variant(|o| o.compiler.prune_checkpoints = false),
        ),
        ("unroll ≤2", variant(|o| o.compiler.max_unroll_factor = 2)),
    ];
    let mut jobs = Vec::new();
    for (_, o) in &variants {
        jobs.extend(cross(o, &specs, &[Scheme::LightWsp]));
    }
    let mut slowdowns = c.slowdowns(&jobs).into_iter();
    for (series, _) in &variants {
        let vals: Vec<f64> = (&mut slowdowns).take(specs.len()).collect();
        // One grouping row: the set mixes suites.
        fig.push(Suite::Cpu2006, "geomean(9 apps)", series, geomean(vals));
    }
    fig
}

/// Memory-controller scaling, beyond the paper: LightWSP's claim is
/// cheap support for multiple memory controllers (§III-B, §IV-B). The
/// sweep scales the machine from 1 to 4 MCs, LightWSP's lazy ordering
/// against Capri's stop-and-wait, per suite.
pub fn mc_scaling(c: &Campaign, opts: &ExperimentOptions) -> Figure {
    let mut fig = Figure::new("mc_scaling", "Memory-controller scaling", "slowdown");
    let mcs = [1usize, 2, 4];
    let suites = [Suite::Cpu2006, Suite::Whisper];
    let schemes = [Scheme::LightWsp, Scheme::Capri];
    let mut jobs = Vec::new();
    for &n in &mcs {
        let mut o = opts.clone();
        o.sim.mem.num_mcs = n;
        for suite in suites {
            for &scheme in &schemes {
                jobs.extend(cross(&o, &suite_workloads(suite), &[scheme]));
            }
        }
    }
    let mut slowdowns = c.slowdowns(&jobs).into_iter();
    for &n in &mcs {
        for suite in suites {
            for &scheme in &schemes {
                let vals: Vec<f64> = (&mut slowdowns)
                    .take(suite_workloads(suite).len())
                    .collect();
                let series = format!("{}@{n}MC", scheme.name());
                fig.push(suite, suite.name(), &series, geomean(vals));
            }
        }
    }
    fig
}

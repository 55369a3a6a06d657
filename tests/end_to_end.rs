//! Cross-crate integration tests: workload generation → compilation →
//! simulation → normalisation, for every scheme.

use lightwsp_core::{Campaign, ExperimentOptions, Job, Scheme, WorkloadSpec};
use lightwsp_workloads::{suite_workloads, workload, Suite};

/// A quick-budget job for `w` under `scheme`.
fn quick(w: &WorkloadSpec, scheme: Scheme) -> Job {
    Job::new(&ExperimentOptions::quick(), w, scheme)
}

/// The slowdown of `w` under `scheme` with `opts`.
fn slowdown(c: &Campaign, opts: &ExperimentOptions, w: &WorkloadSpec, scheme: Scheme) -> f64 {
    c.slowdown(&Job::new(opts, w, scheme)).0
}

#[test]
fn every_scheme_completes_on_a_representative_workload() {
    let c = Campaign::new();
    let w = workload("bzip2").unwrap();
    for scheme in Scheme::ALL {
        let r = c.run_one(&quick(&w, scheme));
        assert_eq!(
            r.completion,
            lightwsp_core::Completion::Finished,
            "{} did not finish",
            scheme.name()
        );
        assert!(
            r.stats.insts > 5_000,
            "{}: {} insts",
            scheme.name(),
            r.stats.insts
        );
    }
}

#[test]
fn slowdown_ordering_matches_the_paper() {
    // Fig. 7's headline: Capri ≫ {PPA, LightWSP} ≈ baseline-ish; and
    // Fig. 10: cWSP ≤ LightWSP.
    let (c, opts) = (Campaign::new(), ExperimentOptions::quick());
    let w = workload("milc").unwrap();
    let capri = slowdown(&c, &opts, &w, Scheme::Capri);
    let lwsp = slowdown(&c, &opts, &w, Scheme::LightWsp);
    let cwsp = slowdown(&c, &opts, &w, Scheme::Cwsp);
    assert!(capri > lwsp, "capri {capri:.3} vs lightwsp {lwsp:.3}");
    assert!(lwsp < 1.6, "lightwsp overhead out of range: {lwsp:.3}");
    assert!(
        cwsp <= lwsp * 1.05,
        "cwsp {cwsp:.3} should not exceed lightwsp {lwsp:.3}"
    );
    // PPA's boundary stalls amortise over longer runs; bound it on a
    // cache-friendly workload where the quick budget suffices. (xz, not
    // hmmer: the offline rand shim's stream makes generated hmmer far
    // less cache-friendly than upstream's, so its quick-budget PPA
    // overhead no longer reflects the amortised figure.)
    let hm = workload("xz").unwrap();
    let ppa = slowdown(&c, &opts, &hm, Scheme::Ppa);
    assert!(ppa < 1.3, "ppa overhead out of range: {ppa:.3}");
}

#[test]
fn psp_loses_the_dram_cache_on_memory_intensive_workloads() {
    let (c, opts) = (Campaign::new(), ExperimentOptions::quick());
    for w in lightwsp_workloads::memory_intensive() {
        if w.suite.is_multithreaded() {
            continue; // keep the quick test fast
        }
        let psp = slowdown(&c, &opts, &w, Scheme::PspIdeal);
        let lwsp = slowdown(&c, &opts, &w, Scheme::LightWsp);
        assert!(
            psp > lwsp + 0.2,
            "{}: PSP {psp:.3} must clearly lose to LightWSP {lwsp:.3}",
            w.name
        );
    }
}

#[test]
fn multithreaded_suite_runs_and_synchronises() {
    let mut opts = ExperimentOptions::quick();
    opts.insts_per_thread = 6_000;
    let c = Campaign::new();
    for w in suite_workloads(Suite::Whisper) {
        let r = c.run_one(&Job::new(&opts, &w, Scheme::LightWsp));
        assert_eq!(
            r.completion,
            lightwsp_core::Completion::Finished,
            "{}",
            w.name
        );
        assert!(r.threads == 8);
        assert!(
            r.stats.stall_lock_spin > 0 || r.stats.regions > 0,
            "{}",
            w.name
        );
    }
}

#[test]
fn instrumentation_overhead_is_in_the_paper_ballpark() {
    // §V-G3: the paper reports +7.03% dynamic instructions; generated
    // workloads should land within a few points of that.
    let c = Campaign::new();
    let mut total = 0.0;
    let mut n = 0;
    for name in ["bzip2", "hmmer", "lbm", "xz", "imagick"] {
        let w = workload(name).unwrap();
        let r = c.run_one(&quick(&w, Scheme::LightWsp));
        total += r.stats.instrumentation_fraction();
        n += 1;
    }
    let avg = total / n as f64 * 100.0;
    assert!(
        (1.0..15.0).contains(&avg),
        "instrumentation {avg:.2}% out of band"
    );
}

#[test]
fn region_statistics_are_in_the_paper_ballpark() {
    // §V-G3: 91.33 insts/region and 11.29 stores/region on average.
    let w = workload("hmmer").unwrap();
    let r = Campaign::new().run_one(&quick(&w, Scheme::LightWsp));
    let ipr = r.stats.insts_per_region();
    let spr = r.stats.stores_per_region();
    assert!((30.0..300.0).contains(&ipr), "insts/region {ipr:.1}");
    assert!((2.0..33.0).contains(&spr), "stores/region {spr:.1}");
}

#[test]
fn wpq_sensitivity_monotone() {
    // Fig. 11: a larger WPQ is never slower.
    let c = Campaign::new();
    let w = workload("tpcc").unwrap();
    let mut slow = ExperimentOptions::quick();
    slow.sim.mem = slow.sim.mem.with_wpq_entries(16);
    slow.compiler.store_threshold = 8;
    let small = slowdown(&c, &slow, &w, Scheme::LightWsp);

    let mut fast = ExperimentOptions::quick();
    fast.sim.mem = fast.sim.mem.with_wpq_entries(256);
    fast.compiler.store_threshold = 128;
    let big = slowdown(&c, &fast, &w, Scheme::LightWsp);
    assert!(
        big <= small * 1.02,
        "WPQ-256 ({big:.3}) should not lose to WPQ-16 ({small:.3})"
    );
}

#[test]
fn persist_bandwidth_sensitivity_monotone() {
    // Fig. 15: less persist-path bandwidth is never faster.
    let c = Campaign::new();
    let w = workload("lbm").unwrap();
    let mut o1 = ExperimentOptions::quick();
    o1.sim.mem = o1.sim.mem.with_persist_bandwidth_gbps(1);
    let s1 = slowdown(&c, &o1, &w, Scheme::LightWsp);
    let mut o4 = ExperimentOptions::quick();
    o4.sim.mem = o4.sim.mem.with_persist_bandwidth_gbps(4);
    let s4 = slowdown(&c, &o4, &w, Scheme::LightWsp);
    assert!(s4 <= s1 * 1.02, "4GB/s ({s4:.3}) vs 1GB/s ({s1:.3})");
}

#[test]
fn cxl_pmem_is_slowest_cxl_device() {
    // Fig. 17: CXL-PMem (lowest bandwidth, Optane latencies) shows the
    // largest overhead among the CXL devices.
    use lightwsp_mem::CxlDevice;
    let c = Campaign::new();
    let w = workload("milc").unwrap();
    let run = |dev: CxlDevice| {
        let mut o = ExperimentOptions::quick();
        o.sim.mem = o.sim.mem.with_cxl(dev);
        slowdown(&c, &o, &w, Scheme::LightWsp)
    };
    let fastest = run(CxlDevice::CxlI);
    let slowest = run(CxlDevice::CxlPmem);
    assert!(
        slowest >= fastest * 0.98,
        "CXL-PMem ({slowest:.3}) should not beat CXL-I ({fastest:.3})"
    );
}

#[test]
fn machine_functional_state_matches_pure_interpreter() {
    // Differential test: the timing machine's architectural memory must
    // equal a pure functional interpretation of the same (instrumented)
    // program — timing never changes semantics (single-threaded).
    use lightwsp_ir::interp::{Interp, Memory};
    let job = quick(&workload("bzip2").unwrap(), Scheme::LightWsp);
    let compiled = job.compile();

    let mut pure_mem = Memory::new();
    let mut t = Interp::new(&compiled.program, 0);
    t.run(&compiled.program, &mut pure_mem, 50_000_000);
    assert!(t.finished());

    let mut cfg = job.opts.sim.clone();
    cfg.scheme = Scheme::LightWsp;
    let mut m =
        lightwsp_core::Machine::new(compiled.program.clone(), compiled.recipes.clone(), cfg, 1);
    assert_eq!(m.run(), lightwsp_core::Completion::Finished);

    // The machine seeds the checkpoint image before start; compare only
    // program data (heap + locks) where both must agree exactly.
    for (addr, val) in pure_mem.iter() {
        if addr >= lightwsp_ir::layout::LOCK_BASE {
            assert_eq!(
                m.volatile_contents().read_word(addr),
                val,
                "functional divergence at {addr:#x}"
            );
        }
    }
}

//! Ablation studies for the design choices DESIGN.md §5 calls out:
//!
//! 1. **LRPO vs naive sfence** — disable lazy region-level persist
//!    ordering and stall at every boundary (§III-B's strawman);
//! 2. **region-size extension off** — no loop unrolling (§IV-A);
//! 3. **checkpoint pruning off** (§IV-A);
//! 4. **region combining contribution** — threshold boundaries kept.
//!
//! Each row reports the geomean slowdown across a representative
//! workload set, against the same memory-mode baseline.
use lightwsp_core::report::Figure;
use lightwsp_core::{Experiment, Scheme};
use lightwsp_workloads::workload;

fn geo(exp: &mut Experiment, names: &[&str]) -> f64 {
    lightwsp_workloads::geomean(
        names
            .iter()
            .map(|n| exp.slowdown(&workload(n).unwrap(), Scheme::LightWsp)),
    )
}

fn main() {
    let base_opts = lightwsp_bench::Cli::from_env(false).options();
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
    let mut fig = Figure::new("ablations", "LightWSP design ablations", "slowdown");
    let suite = lightwsp_workloads::Suite::Cpu2006; // single grouping row

    let mut exp = Experiment::new(base_opts.clone());
    fig.push(
        suite,
        "geomean(9 apps)",
        "LightWSP (full)",
        geo(&mut exp, &names),
    );

    let mut o = base_opts.clone();
    o.sim.disable_lrpo = true;
    let mut exp = Experiment::new(o);
    fig.push(
        suite,
        "geomean(9 apps)",
        "no LRPO (sfence)",
        geo(&mut exp, &names),
    );

    let mut o = base_opts.clone();
    o.compiler.unroll = false;
    let mut exp = Experiment::new(o);
    fig.push(
        suite,
        "geomean(9 apps)",
        "no unrolling",
        geo(&mut exp, &names),
    );

    let mut o = base_opts.clone();
    o.compiler.prune_checkpoints = false;
    let mut exp = Experiment::new(o);
    fig.push(
        suite,
        "geomean(9 apps)",
        "no pruning",
        geo(&mut exp, &names),
    );

    let mut o = base_opts;
    o.compiler.max_unroll_factor = 2;
    let mut exp = Experiment::new(o);
    fig.push(suite, "geomean(9 apps)", "unroll ≤2", geo(&mut exp, &names));

    lightwsp_bench::emit(&fig);
}

//! Extension study: LightWSP's headline claim is cheap support for
//! multiple memory controllers (§III-B, §IV-B). This sweep scales the
//! machine from 1 to 4 MCs and shows the overhead stays flat — the lazy
//! ordering protocol neither needs nor costs anything extra per MC,
//! unlike Capri's stop-and-wait which degrades.
use lightwsp_core::report::Figure;
use lightwsp_core::{Experiment, Scheme};
use lightwsp_workloads::{suite_workloads, Suite};

fn main() {
    let base = lightwsp_bench::Cli::from_env(false).options();
    let mut fig = Figure::new("mc_scaling", "Memory-controller scaling", "slowdown");
    for mcs in [1usize, 2, 4] {
        let mut o = base.clone();
        o.sim.mem.num_mcs = mcs;
        let mut exp = Experiment::new(o);
        for suite in [Suite::Cpu2006, Suite::Whisper] {
            for scheme in [Scheme::LightWsp, Scheme::Capri] {
                let vals: Vec<f64> = suite_workloads(suite)
                    .iter()
                    .map(|w| exp.slowdown(w, scheme))
                    .collect();
                fig.push(
                    suite,
                    suite.name(),
                    &format!("{}@{}MC", scheme.name(), mcs),
                    lightwsp_workloads::geomean(vals),
                );
            }
        }
    }
    lightwsp_bench::emit(&fig);
}

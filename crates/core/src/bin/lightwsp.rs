//! `lightwsp` — command-line driver for the reproduction.
//!
//! ```text
//! lightwsp list                         # the 39 workload entries
//! lightwsp run <workload> [scheme]      # run one workload, print stats
//! lightwsp compare <workload>           # all schemes side by side
//! lightwsp recover <workload> [cycles]  # crash-consistency check
//! lightwsp trace <workload> [n]         # region lifetimes through LRPO
//! lightwsp regions <workload>           # static region structure
//! ```

use lightwsp_core::recovery::check_workload_recovery;
use lightwsp_core::{Experiment, ExperimentOptions, Scheme};
use lightwsp_workloads::{all_workloads, workload};
use std::process::ExitCode;

fn parse_scheme(s: &str) -> Option<Scheme> {
    Scheme::ALL
        .into_iter()
        .find(|x| x.name().eq_ignore_ascii_case(s))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  lightwsp list\n  lightwsp run <workload> [scheme]\n  \
         lightwsp compare <workload>\n  lightwsp recover <workload> [failure-cycle...]\n  \
         lightwsp trace <workload> [n]\n  lightwsp regions <workload>\n\
         schemes: {}",
        Scheme::ALL.map(|s| s.name()).join(", ")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = ExperimentOptions::paper_default();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!(
                "{:<14}{:<10}{:>9}{:>12}{:>8}",
                "name", "suite", "threads", "working-set", "store%"
            );
            for w in all_workloads() {
                println!(
                    "{:<14}{:<10}{:>9}{:>11}K{:>7.1}%",
                    w.name,
                    w.suite.name(),
                    w.threads,
                    w.working_set / 1024,
                    w.store_fraction() * 100.0
                );
            }
            ExitCode::SUCCESS
        }
        Some("run") => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let Some(w) = workload(name) else {
                eprintln!("unknown workload '{name}' (try `lightwsp list`)");
                return ExitCode::FAILURE;
            };
            let scheme = match args.get(2) {
                None => Scheme::LightWsp,
                Some(s) => match parse_scheme(s) {
                    Some(s) => s,
                    None => return usage(),
                },
            };
            let mut exp = Experiment::new(opts);
            let (sd, r) = exp.slowdown_with_stats(&w, scheme);
            let s = &r.stats;
            println!(
                "{} under {} ({} threads):",
                w.name,
                scheme.name(),
                r.threads
            );
            println!("  slowdown vs baseline : {sd:.3}");
            println!(
                "  cycles / insts / IPC : {} / {} / {:.2}",
                s.cycles,
                s.insts,
                s.ipc()
            );
            println!(
                "  regions (committed)  : {} ({})",
                s.regions, s.regions_committed
            );
            println!("  insts/region         : {:.1}", s.insts_per_region());
            println!("  stores/region        : {:.1}", s.stores_per_region());
            println!(
                "  instrumentation      : {:.2}%",
                s.instrumentation_fraction() * 100.0
            );
            println!(
                "  persistence efficiency: {:.1}%",
                s.persistence_efficiency()
            );
            println!(
                "  stalls (sb/load/bdry/spin): {} / {} / {} / {}",
                s.stall_sb_full, s.stall_load_miss, s.stall_boundary_wait, s.stall_lock_spin
            );
            println!(
                "  WPQ occupancy mean/max: {:.1} / {} of {}",
                s.wpq_mean_occupancy,
                s.wpq_max_occupancy,
                exp.options().sim.mem.wpq_entries
            );
            ExitCode::SUCCESS
        }
        Some("compare") => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let Some(w) = workload(name) else {
                eprintln!("unknown workload '{name}'");
                return ExitCode::FAILURE;
            };
            let mut exp = Experiment::new(opts);
            println!(
                "{:<12}{:>10}{:>10}{:>14}",
                "scheme", "slowdown", "IPC", "persist-eff"
            );
            for scheme in Scheme::ALL {
                let (sd, r) = exp.slowdown_with_stats(&w, scheme);
                let eff = if scheme.uses_persist_path() {
                    format!("{:.1}%", r.stats.persistence_efficiency())
                } else {
                    "-".into()
                };
                println!(
                    "{:<12}{:>10.3}{:>10.2}{:>14}",
                    scheme.name(),
                    sd,
                    r.stats.ipc(),
                    eff
                );
            }
            ExitCode::SUCCESS
        }
        Some("recover") => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let Some(w) = workload(name) else {
                eprintln!("unknown workload '{name}'");
                return ExitCode::FAILURE;
            };
            let points: Vec<u64> = if args.len() > 2 {
                args[2..].iter().filter_map(|a| a.parse().ok()).collect()
            } else {
                (1..10).map(|i| i * 3_000).collect()
            };
            match check_workload_recovery(&w, &opts, &points) {
                Ok(rep) => {
                    println!(
                        "{name}: crash-consistent across {} failure(s); {} durable words \
                         compared; golden {} cycles, recovered {} cycles",
                        rep.failures, rep.words_compared, rep.golden_cycles, rep.recovery_cycles
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{name}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("regions") => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let Some(w) = workload(name) else {
                eprintln!("unknown workload '{name}'");
                return ExitCode::FAILURE;
            };
            let exp = Experiment::new(opts.clone());
            let compiled = exp.compile(&w, Scheme::LightWsp);
            print!(
                "{}",
                lightwsp_compiler::regions::render_report(&compiled.program)
            );
            ExitCode::SUCCESS
        }
        Some("trace") => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let Some(w) = workload(name) else {
                eprintln!("unknown workload '{name}'");
                return ExitCode::FAILURE;
            };
            let n: usize = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(24);
            let exp = Experiment::new(opts.clone());
            let compiled = exp.compile(&w, Scheme::LightWsp);
            let mut cfg = opts.sim.clone();
            cfg.scheme = Scheme::LightWsp;
            cfg.num_cores = w.threads;
            cfg.trace_regions = n.max(256);
            let mut m =
                lightwsp_core::Machine::new(compiled.program, compiled.recipes, cfg, w.threads);
            m.run();
            print!("{}", m.region_trace().render(n));
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

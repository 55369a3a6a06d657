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
//!
//! `run`, `compare` and `trace` run on a [`Campaign`] sized by
//! `LIGHTWSP_THREADS`, so `trace` follows the very machine `run`
//! reports on. Bad input (an unknown subcommand, workload or scheme, a
//! count that does not parse, a surplus argument, a bad
//! `LIGHTWSP_THREADS`) exits with status 2, naming the accepted values.

use lightwsp_core::recovery::check_workload_recovery;
use lightwsp_core::{Campaign, ExperimentOptions, Job, Scheme, WorkloadSpec};
use lightwsp_workloads::{all_workloads, workload};
use std::process::ExitCode;

const USAGE: &str = "usage:\n  lightwsp list\n  lightwsp run <workload> [scheme]\n  \
                     lightwsp compare <workload>\n  lightwsp recover <workload> [failure-cycle...]\n  \
                     lightwsp trace <workload> [n]\n  lightwsp regions <workload>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

/// The workload named by `args[1]`.
fn workload_arg(args: &[String]) -> Result<WorkloadSpec, String> {
    let name = args
        .get(1)
        .ok_or_else(|| format!("missing <workload>\n{USAGE}"))?;
    workload(name).ok_or_else(|| {
        let names: Vec<&str> = all_workloads().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; accepted: {}", names.join(", "))
    })
}

fn scheme_arg(s: &str) -> Result<Scheme, String> {
    Scheme::ALL
        .into_iter()
        .find(|x| x.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| {
            let names = Scheme::ALL.map(|s| s.name()).join(", ");
            format!("unknown scheme {s:?}; accepted: {names}")
        })
}

/// Rejects any argument past the first `n`.
fn at_most(args: &[String], n: usize) -> Result<(), String> {
    match args.get(n) {
        Some(extra) => Err(format!("unexpected argument {extra:?}\n{USAGE}")),
        None => Ok(()),
    }
}

fn cli(args: &[String]) -> Result<ExitCode, String> {
    let campaign = Campaign::from_env().map_err(|e| e.to_string())?;
    let opts = ExperimentOptions::paper_default();
    match args.first().map(String::as_str) {
        Some("list") => {
            at_most(args, 1)?;
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
        }
        Some("run") => {
            let w = workload_arg(args)?;
            let scheme = args
                .get(2)
                .map_or(Ok(Scheme::LightWsp), |s| scheme_arg(s))?;
            at_most(args, 3)?;
            let (sd, r) = campaign.slowdown(&Job::new(&opts, &w, scheme));
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
                s.wpq_mean_occupancy, s.wpq_max_occupancy, opts.sim.mem.wpq_entries
            );
        }
        Some("compare") => {
            let w = workload_arg(args)?;
            at_most(args, 2)?;
            let jobs: Vec<Job> = Scheme::ALL
                .iter()
                .map(|&scheme| Job::new(&opts, &w, scheme))
                .collect();
            println!(
                "{:<12}{:>10}{:>10}{:>14}",
                "scheme", "slowdown", "IPC", "persist-eff"
            );
            for (sd, r) in campaign.slowdown_many(&jobs) {
                let eff = if r.scheme.uses_persist_path() {
                    format!("{:.1}%", r.stats.persistence_efficiency())
                } else {
                    "-".into()
                };
                println!(
                    "{:<12}{:>10.3}{:>10.2}{:>14}",
                    r.scheme.name(),
                    sd,
                    r.stats.ipc(),
                    eff
                );
            }
        }
        Some("recover") => {
            let w = workload_arg(args)?;
            let points: Vec<u64> = if args.len() > 2 {
                args[2..]
                    .iter()
                    .map(|a| {
                        a.parse().map_err(|_| {
                            format!(
                                "{a:?} is not a failure cycle; accepted: a non-negative integer"
                            )
                        })
                    })
                    .collect::<Result<_, _>>()?
            } else {
                (1..10).map(|i| i * 3_000).collect()
            };
            match check_workload_recovery(&w, &opts, &points) {
                Ok(rep) => println!(
                    "{}: crash-consistent across {} failure(s); {} durable words \
                     compared; golden {} cycles, recovered {} cycles",
                    w.name,
                    rep.failures,
                    rep.words_compared,
                    rep.golden_cycles,
                    rep.recovery_cycles
                ),
                Err(e) => {
                    eprintln!("{}: {e}", w.name);
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        Some("regions") => {
            let w = workload_arg(args)?;
            at_most(args, 2)?;
            let compiled = Job::new(&opts, &w, Scheme::LightWsp).compile();
            print!(
                "{}",
                lightwsp_compiler::regions::render_report(&compiled.program)
            );
        }
        Some("trace") => {
            let w = workload_arg(args)?;
            let n = match args.get(2).map(|a| (a, a.parse::<usize>())) {
                None => 24,
                Some((_, Ok(n))) if n > 0 => n,
                Some((a, _)) => {
                    return Err(format!(
                        "{a:?} is not a region count; accepted: a positive integer"
                    ))
                }
            };
            at_most(args, 3)?;
            let mut traced = opts;
            traced.sim.trace_regions = n.max(256);
            let mut m = campaign.machine(&Job::new(&traced, &w, Scheme::LightWsp));
            m.run();
            print!("{}", m.region_trace().render(n));
        }
        Some(other) => {
            return Err(format!(
                "unknown subcommand {other:?}; accepted: list, run, compare, recover, trace, \
                 regions\n{USAGE}"
            ))
        }
        None => return Err(USAGE.to_string()),
    }
    Ok(ExitCode::SUCCESS)
}

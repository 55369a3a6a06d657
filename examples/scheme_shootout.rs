//! Head-to-head of every persistence scheme on two paper workloads —
//! the memory-intensive `lbm` (where PSP's lost DRAM cache hurts) and
//! the write-intensive `tpcc` (where ordering schemes differ most).
//!
//! ```sh
//! cargo run --release --example scheme_shootout
//! ```

use lightwsp_core::{Campaign, ExperimentOptions, Job, Scheme};
use lightwsp_workloads::workload;

fn main() {
    let c = Campaign::new();
    let opts = ExperimentOptions::paper_default();
    let schemes = [
        Scheme::Baseline,
        Scheme::PspIdeal,
        Scheme::Capri,
        Scheme::Ppa,
        Scheme::Cwsp,
        Scheme::LightWsp,
    ];

    for name in ["lbm", "tpcc"] {
        let w = workload(name).expect("known workload");
        println!("\n=== {name} ({} threads) ===", w.threads);
        println!(
            "{:<12}{:>10}{:>12}{:>14}{:>12}",
            "scheme", "slowdown", "IPC", "persist-eff", "regions"
        );
        let jobs: Vec<Job> = schemes.iter().map(|&s| Job::new(&opts, &w, s)).collect();
        for (sd, r) in c.slowdown_many(&jobs) {
            let scheme = r.scheme;
            let eff = if scheme.uses_persist_path() {
                format!("{:.1}%", r.stats.persistence_efficiency())
            } else {
                "-".to_string()
            };
            println!(
                "{:<12}{:>10.3}{:>12.2}{:>14}{:>12}",
                scheme.name(),
                sd,
                r.stats.ipc(),
                eff,
                r.stats.regions
            );
        }
    }
    println!(
        "\nReading the table: LightWSP matches PPA/cWSP without their hardware \
         cost,\nCapri pays its 64-byte persist path, and ideal PSP pays full PM \
         latency\non every L2 miss (no DRAM cache) — the paper's Figs. 7, 9, 10."
    );
}

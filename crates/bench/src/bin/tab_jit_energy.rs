//! Reproduces the §II-C1 motivation: JIT-checkpointing feasibility per
//! PSU class vs LightWSP's battery requirement.
use lightwsp_mem::energy::{lightwsp_battery_joules, required_joules, PowerSupply};

fn main() {
    lightwsp_bench::Cli::from_env(false);
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
    for (name, cores, bytes) in configs {
        out.push_str(&format!(
            "{:<28}{:>12.3}{:>12}{:>12}\n",
            name,
            required_joules(cores, bytes),
            if atx.can_checkpoint(cores, bytes) {
                "ok"
            } else {
                "INFEASIBLE"
            },
            if server.can_checkpoint(cores, bytes) {
                "ok"
            } else {
                "INFEASIBLE"
            },
        ));
    }
    out.push_str(&format!(
        "\nLightWSP battery requirement (2 MCs x 512 B WPQ): {:.2e} J\n",
        lightwsp_battery_joules(2, 512)
    ));
    out.push_str("paper (via LightPC): server PSU tops out at 64 cores/40 MB; ATX at 32 cores/16 KB;\n\
                  no PSU covers a terabyte-class DRAM cache -> JIT checkpointing cannot achieve WSP cheaply.\n");
    lightwsp_bench::emit_text("secIIC1_energy", &out);
}

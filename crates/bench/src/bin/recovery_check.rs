//! Crash-consistency validation sweep (§IV-F): injects power failures
//! into a sample of workloads and verifies byte-exact recovery.
use lightwsp_core::recovery::check_workload_recovery;
use lightwsp_workloads::workload;

fn main() {
    let mut opts = lightwsp_bench::Cli::from_env(false).options();
    opts.insts_per_thread = opts.insts_per_thread.min(20_000);
    let mut out = String::from("== §IV-F — crash-consistency validation ==\n");
    let mut failures_total = 0u64;
    for name in ["hmmer", "lbm", "mcf", "xz", "vacation", "radix", "tpcc"] {
        let mut w = workload(name).expect("known workload");
        if w.threads > 4 {
            w.threads = 4; // keep the sweep fast; recovery is thread-count agnostic
        }
        let points: Vec<u64> = (1..12).map(|i| i * 2_500).collect();
        match check_workload_recovery(&w, &opts, &points) {
            Ok(rep) => {
                failures_total += rep.failures;
                out.push_str(&format!(
                    "{name:<12} OK  failures={} words={} golden={}cyc recovered={}cyc\n",
                    rep.failures, rep.words_compared, rep.golden_cycles, rep.recovery_cycles
                ));
            }
            Err(e) => {
                out.push_str(&format!("{name:<12} FAILED: {e}\n"));
            }
        }
    }
    out.push_str(&format!("total injected failures: {failures_total}\n"));
    lightwsp_bench::emit_text("recovery_check", &out);
    assert!(
        !out.contains("FAILED"),
        "crash-consistency violation detected"
    );
}

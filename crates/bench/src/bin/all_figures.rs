//! Regenerates every table and figure of the paper's evaluation into
//! `results/`, fanning all simulations across one shared
//! [`Campaign`](lightwsp_core::Campaign) and writing the
//! machine-readable `BENCH_eval.json` (per-run records, figure
//! wall-clocks, campaign metadata).
//!
//! Flags and environment:
//!
//! * `--quick` — reduced instruction budget for smoke runs;
//! * `--filter=<p,p,...>` (or `LIGHTWSP_FILTER`) — run only the
//!   sections whose id contains a pattern (`fig07`…`fig18`, `tab02`,
//!   `cam`, `regions`, `hwcost`, `runs`); `w:<pat>` narrows the
//!   per-run matrix by workload name. A pattern that matches nothing
//!   is an error. A filtered run still rewrites `BENCH_eval.json`,
//!   holding only the selected sections;
//! * `LIGHTWSP_STORE=<dir>` — attach the persistent result store:
//!   cells whose configuration and code digests match are served
//!   instead of re-simulated, making warm re-runs regenerate
//!   `BENCH_eval.json` byte-identically (bar the `"cache"` line) in a
//!   fraction of the cold wall-clock;
//! * `LIGHTWSP_THREADS`, `LIGHTWSP_DIGEST_SALT` as everywhere else.
//!
//! The heavy lifting lives in [`lightwsp_bench::evalrun`].
use lightwsp_bench::evalrun::{run_eval, EvalOptions};

fn main() {
    let eo = EvalOptions::from_env_args();
    let summary = run_eval(&eo);
    if let Err(e) = std::fs::write("BENCH_eval.json", &summary.json) {
        eprintln!("warning: could not write BENCH_eval.json: {e}");
    }
    if let Some(store) = &eo.store {
        if let Err(e) = store.flush() {
            eprintln!("warning: could not flush result store: {e}");
        }
    }
    eprintln!("{}", summary.headline);
}

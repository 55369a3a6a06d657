//! Command line of the benchmark:
//!
//! ```text
//! lwbench --workload <fig-matrix|kv-audit|model-fuzz> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints summary lines, then the result as one JSON object on the last
//! line of standard output. A traced run also writes its spans to
//! `spans/<workload>-seed<n>.tsv` in this package's directory.

use lwbench::{Scale, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload
            .ok_or_else(|| format!("--workload is required ({})", names.join(", ")))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let set = lwbench::lightwsp_env();
    if !set.is_empty() {
        eprintln!(
            "lwbench: refusing to run with {} set; unset every LIGHTWSP_* variable",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lwbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = lwbench::run(
        args.workload,
        Scale::Full,
        args.seed,
        args.seconds,
        args.trace,
    );
    for line in &report.notes {
        println!("{line}");
    }
    if let Some(t) = &report.tracer {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("spans");
        let path = dir.join(format!("{}-seed{}.tsv", args.workload.name(), args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, t.render())) {
            Ok(()) => println!("{} spans written to {}", t.len(), path.display()),
            Err(e) => eprintln!("lwbench: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

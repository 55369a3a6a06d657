//! # lwbench — the LightWSP simulator's benchmark
//!
//! Three workloads drive the simulator through the public entry points
//! the bench bins use, each as a closed loop on one process and one
//! `Campaign` worker with no result store attached:
//!
//! * [`fig`] — `fig-matrix`, the Fig. 7 matrix through
//!   `Campaign::slowdown_many`;
//! * [`kv`] — `kv-audit`, the KV/queue service crash audit through
//!   `dsaudit::audit_recoverable_ds`;
//! * [`fuzz`] — `model-fuzz`, the LRPO model fuzz sweep through
//!   `oracle::fuzz_sweep`.
//!
//! An untraced run times the set-up and then whole passes over the
//! workload's ops on a [`clock::Clock`], which corrects wall time for
//! the host's drifting speed, and reports the end-to-end metrics. A
//! traced run additionally replays one pass through the workload's own
//! mirror of its driver, which opens a [`trace::Tracer`] span around every call
//! into a layer, and reports the per-layer metrics. `README.md` in this
//! directory records the design.

pub mod clock;
pub mod fig;
pub mod fuzz;
pub mod kv;
pub mod trace;

use clock::{Clock, Interval};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use trace::Tracer;

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 7 matrix.
    FigMatrix,
    /// The KV/queue service crash audit.
    KvAudit,
    /// The LRPO model fuzz sweep.
    ModelFuzz,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::FigMatrix, Workload::KvAudit, Workload::ModelFuzz];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FigMatrix => "fig-matrix",
            Workload::KvAudit => "kv-audit",
            Workload::ModelFuzz => "model-fuzz",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size: the benchmark's own (`Full`) or the test-sized one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` documents.
    Full,
    /// The small sizes the benchmark's own tests run.
    Tiny,
}

/// One metric as printed.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Ops attempted in one pass.
    pub attempted: u64,
    /// Ops of one pass that failed their output check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable summary lines.
    pub notes: Vec<String>,
    /// The traced run's spans (traced runs only).
    pub tracer: Option<Tracer>,
}

impl Report {
    /// Records a failed output check; the run's result is then incorrect.
    pub fn fail_check(&mut self, what: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {what}"));
    }

    /// The value of metric `name`, if present.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result the benchmark prints last. A metric
    /// that is not finite cannot be printed as a JSON number; it is
    /// printed as 0 and the result marked incorrect.
    pub fn json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && finite,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Every `LIGHTWSP_*` environment variable that is set. Any of them
/// changes what is measured: `LIGHTWSP_STORE` serves repeated runs from
/// disk, and the mode, thread and filter variables change the program.
pub fn lightwsp_env() -> Vec<String> {
    let mut vars: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LIGHTWSP_"))
        .collect();
    vars.sort();
    vars
}

/// Runs `workload` at `scale` with inputs made from `seed`: set-up,
/// then passes over the workload's ops for at least `seconds`, then
/// (when `traced`) one pass through the traced mirror.
pub fn run(workload: Workload, scale: Scale, seed: u64, seconds: f64, traced: bool) -> Report {
    match workload {
        Workload::FigMatrix => fig::run(scale, seed, seconds, traced),
        Workload::KvAudit => kv::run(scale, seconds, traced),
        Workload::ModelFuzz => fuzz::run(scale, seed, seconds, traced),
    }
}

// ---------------------------------------------------------------------
// Timing
// ---------------------------------------------------------------------

/// Passes run at least this often, so every op time is a median of
/// two or more samples. With the host's drift taken out by the
/// [`Clock`], two passes hold the spread of ten runs' `ops_per_s` to a
/// few percent, and a third would put three workloads' runs past the
/// time the benchmark may take.
pub const MIN_PASSES: usize = 2;

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// One timed pass: the interval of each op group (one group per
/// separately timed call) and the pass's outputs.
pub struct Pass<O> {
    /// Each op group's interval on the run's [`Clock`], in a fixed
    /// group order.
    pub groups: Vec<Interval>,
    /// The outputs the pass produced.
    pub out: O,
}

/// The measured phase of a run. Times are reference seconds (see
/// [`clock`]) unless named wall.
pub struct Measured<S, O> {
    /// The state of the last set-up.
    pub state: S,
    /// Median reference seconds of one set-up.
    pub setup_s: f64,
    /// Outputs of every pass, in order.
    pub outs: Vec<O>,
    /// Estimated reference seconds of one pass: the sum over op groups
    /// of the group's median time across passes.
    pub pass_s: f64,
    /// Wall seconds of one pass, estimated as `pass_s` is.
    pub pass_wall_s: f64,
    /// Wall seconds of each pass.
    pub each_s: Vec<f64>,
    /// Wall seconds of the whole phase.
    pub wall_s: f64,
    /// The clock the phase was timed on, with its reference samples.
    pub clock: Clock,
}

impl<S, O> Measured<S, O> {
    /// One summary line: passes, wall and reference times, host speed.
    pub fn summary(&self) -> String {
        format!(
            "{} passes in {:.2} s wall (each {:.2?} s), median pass {:.3} s \
             ({:.3} s wall), set-up {:.3} s (reference seconds; host speed {:.3} of reference)",
            self.outs.len(),
            self.wall_s,
            self.each_s,
            self.pass_s,
            self.pass_wall_s,
            self.setup_s,
            self.clock.median_speed()
        )
    }
}

/// Runs `setups_per_pass` set-ups and then one pass on the last
/// set-up's state, over and over, until `seconds` have elapsed and at
/// least [`MIN_PASSES`] passes ran. Interleaving puts the set-up
/// samples in the same stretch of time as the passes, so a slow
/// stretch of the host moves both alike. Each state is dropped before
/// the next set-up starts, outside the timed interval. Every set-up and
/// op group is timed on one [`Clock`], and converted to reference
/// seconds once the phase is over, when the reference samples on both
/// sides of every interval are in.
pub fn measure<S, O>(
    seconds: f64,
    setups_per_pass: usize,
    mut setup: impl FnMut() -> S,
    mut pass: impl FnMut(&S, &mut Clock) -> Pass<O>,
) -> Measured<S, O> {
    let mut clock = Clock::new();
    let mut setups = Vec::new();
    let mut groups: Vec<Vec<Interval>> = Vec::new();
    let mut outs = Vec::new();
    let mut state = None;
    while outs.len() < MIN_PASSES || clock.now() < seconds {
        for _ in 0..setups_per_pass.max(1) {
            drop(state.take());
            let (s, iv) = clock.time_long(&mut setup);
            setups.push(iv);
            state = Some(s);
        }
        let p = pass(
            state.as_ref().expect("set up before every pass"),
            &mut clock,
        );
        if let Some(first) = groups.first() {
            assert_eq!(first.len(), p.groups.len(), "passes time the same groups");
        }
        groups.push(p.groups);
        outs.push(p.out);
    }
    // The last interval's trailing samples.
    clock.sample();
    let reference = |ivs: &[Interval]| -> Vec<f64> {
        ivs.iter().map(|iv| clock.reference_seconds(iv)).collect()
    };
    let wall = |ivs: &[Interval]| -> Vec<f64> { ivs.iter().map(Interval::wall).collect() };
    let per_group = |secs: &dyn Fn(&[Interval]) -> Vec<f64>| -> f64 {
        (0..groups[0].len())
            .map(|g| median(&secs(&groups.iter().map(|p| p[g]).collect::<Vec<_>>())))
            .sum()
    };
    Measured {
        state: state.expect("at least one set-up"),
        setup_s: median(&reference(&setups)),
        pass_s: per_group(&reference),
        pass_wall_s: per_group(&wall),
        outs,
        each_s: groups
            .iter()
            .map(|p| p.iter().map(Interval::wall).sum())
            .collect(),
        wall_s: clock.now(),
        clock,
    }
}

/// Peak resident set of this process (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// The end-to-end metrics with their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_slowdown", "x"),
    ("paper_err_pct", "%"),
    ("sim_mcycles", "Mcycles"),
    ("witnessed_pct", "%"),
];

/// Value printed for an end-to-end metric the workload does not model
/// (every run prints every metric, and none may read 0).
pub const NOT_MODELLED: f64 = 1.0;

/// Fills the end-to-end list: the common three plus the workload's own
/// simulated metrics; the rest read [`NOT_MODELLED`].
pub fn end_to_end(setup_s: f64, ops_per_s: f64, own: &[(&str, f64)]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "setup_s" => setup_s,
                "ops_per_s" => ops_per_s,
                "peak_rss_mb" => peak_rss_mb(),
                _ => own
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(NOT_MODELLED, |&(_, v)| v),
            };
            Metric { name, value, unit }
        })
        .collect()
}

/// Per-layer metrics read off span self times, in `BENCHMARK.json`
/// order: `(metric, unit, span)`.
pub const SPAN_METRICS: [(&str, &str, &str); 24] = [
    ("workloads.generate_s", "s", "workloads.generate"),
    (
        "workloads.ds_check_image_s",
        "s",
        "workloads.ds_check_image",
    ),
    (
        "workloads.ds_check_final_s",
        "s",
        "workloads.ds_check_final",
    ),
    ("compiler.instrument_s", "s", "compiler.instrument"),
    ("sim.machine_new_s", "s", "sim.machine_new"),
    ("sim.run_s", "s", "sim.run"),
    ("sim.trace_s", "s", "sim.trace"),
    ("sim.golden_s", "s", "sim.golden"),
    ("sim.points_s", "s", "sim.points"),
    ("sim.advance_s", "s", "sim.advance"),
    ("sim.fork_s", "s", "sim.fork"),
    ("sim.power_cut_s", "s", "sim.power_cut"),
    ("sim.capture_s", "s", "sim.capture"),
    ("sim.check_capture_s", "s", "sim.check_capture"),
    ("sim.resume_s", "s", "sim.resume"),
    ("model.generate_s", "s", "model.generate"),
    ("model.extract_s", "s", "model.extract"),
    ("model.build_s", "s", "model.build"),
    ("model.check_image_s", "s", "model.check_image"),
    ("model.mutant_count_s", "s", "model.mutant_count"),
    ("core.campaign_self_s", "s", "core.campaign"),
    ("core.dsaudit_self_s", "s", "core.dsaudit"),
    ("core.oracle_self_s", "s", "core.oracle"),
    ("trace.bookkeeping_s", "s", "trace.bookkeeping"),
];

/// Per-layer counters the mirrors add to, with their units.
pub const COUNTERS: [(&str, &str); 38] = [
    ("workloads.programs", "count"),
    ("workloads.ds_check_image_calls", "count"),
    ("workloads.ds_violations", "count"),
    ("compiler.programs", "count"),
    ("compiler.static_insts", "count"),
    ("compiler.final_boundaries", "count"),
    ("sim.machines", "count"),
    ("sim.warm_lines", "count"),
    ("sim.cycles", "cycles"),
    ("sim.insts", "count"),
    ("sim.trace_cycles", "cycles"),
    ("sim.golden_cycles", "cycles"),
    ("sim.advance_cycles", "cycles"),
    ("sim.forks", "count"),
    ("sim.wpq_flushed", "count"),
    ("sim.wpq_discarded", "count"),
    ("sim.capture_violations", "count"),
    ("sim.points_prepared", "count"),
    ("sim.points_audited", "count"),
    ("sim.resumes", "count"),
    ("sim.resume_cycles", "cycles"),
    ("sim.resume_distinct_states", "count"),
    ("mem.l1_misses", "count"),
    ("mem.l2_misses", "count"),
    ("mem.dram_misses", "count"),
    ("mem.persist_stores", "count"),
    ("mem.wpq_overflows", "count"),
    ("mem.hol_blocked_cycles", "cycles"),
    ("sim.regions_committed", "count"),
    ("sim.stall_sb_full", "cycles"),
    ("sim.stall_load_miss", "cycles"),
    ("sim.stall_lock_spin", "cycles"),
    ("model.regions", "count"),
    ("model.images_checked", "count"),
    ("model.witnessed", "count"),
    ("model.exact_admitted", "count"),
    ("model.violations", "count"),
    ("trace.spans", "count"),
];

/// Ratios of useful work to attempts: `(metric, numerator, base)`.
pub const RATIOS: [(&str, &str, &str); 3] = [
    (
        "sim.audited_per_prepared",
        "sim.points_audited",
        "sim.points_prepared",
    ),
    (
        "sim.distinct_states_per_resume",
        "sim.resume_distinct_states",
        "sim.resumes",
    ),
    (
        "model.witnessed_per_checked",
        "model.witnessed",
        "model.images_checked",
    ),
];

/// Per-layer metrics computed from the others: `(metric, unit)`.
pub const DERIVED: [(&str, &str); 3] = [
    ("sim.ns_per_inst", "ns"),
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Counters that repeat exactly between two traced runs of one seed.
pub fn deterministic_counters(t: &Tracer) -> BTreeMap<&'static str, u64> {
    COUNTERS
        .iter()
        .filter(|(n, _)| *n != "trace.spans")
        .map(|&(n, _)| (n, t.counter(n)))
        .collect()
}

/// Every per-layer metric of a traced run. `traced_pass_s` is the
/// traced pass and `untraced_pass_s` the untraced median pass it is
/// compared with, both in reference seconds.
pub fn per_layer(t: &Tracer, traced_pass_s: f64, untraced_pass_s: f64) -> Vec<Metric> {
    let selfs = t.self_seconds();
    let mut out: Vec<Metric> = SPAN_METRICS
        .iter()
        .map(|&(name, unit, span)| Metric {
            name,
            value: selfs.get(span).copied().unwrap_or(0.0),
            unit,
        })
        .collect();
    for &(name, unit) in &COUNTERS {
        let value = if name == "trace.spans" {
            t.len() as f64
        } else {
            t.counter(name) as f64
        };
        out.push(Metric { name, value, unit });
    }
    let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    for &(name, num, base) in &RATIOS {
        out.push(Metric {
            name,
            value: ratio(t.counter(num) as f64, t.counter(base) as f64),
            unit: "ratio",
        });
    }
    let derived = [
        ratio(
            selfs.get("sim.run").copied().unwrap_or(0.0) * 1e9,
            t.counter("sim.insts") as f64,
        ),
        t.root_seconds(),
        (ratio(traced_pass_s, untraced_pass_s) - 1.0) * 100.0,
    ];
    for (&(name, unit), value) in DERIVED.iter().zip(derived) {
        out.push(Metric { name, value, unit });
    }
    out
}

/// Checks the traced run against the untraced one: each `(name,
/// traced, untraced)` count must match, and the layer self times must
/// sum to the traced wall time.
pub fn check_fidelity(report: &mut Report, t: &Tracer, counts: &[(&str, u64, u64)]) {
    for &(name, traced, untraced) in counts {
        if traced != untraced {
            report.fail_check(format!(
                "traced run's {name} = {traced}, untraced run's = {untraced}"
            ));
        }
    }
    let sum: f64 = t.self_seconds().values().sum();
    let wall = t.root_seconds();
    if (sum - wall).abs() > 1e-6 * wall.max(1.0) {
        report.fail_check(format!(
            "layer self times sum to {sum:.6} s, traced wall is {wall:.6} s"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let names: Vec<(&str, &str)> = END_TO_END
            .iter()
            .copied()
            .chain(SPAN_METRICS.iter().map(|&(n, u, _)| (n, u)))
            .chain(COUNTERS.iter().copied())
            .chain(RATIOS.iter().map(|&(n, _, _)| (n, "ratio")))
            .chain(DERIVED.iter().copied())
            .collect();
        for (name, unit) in &names {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let listed = json.matches("\"name\":").count();
        assert_eq!(listed, names.len() + Workload::ALL.len());
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_has_exactly_the_result_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.25,
                unit: "s",
            }],
            ..Report::default()
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn non_finite_metric_makes_the_result_incorrect() {
        let r = Report {
            correct: true,
            attempted: 1,
            metrics: vec![Metric {
                name: "x",
                value: f64::NAN,
                unit: "s",
            }],
            ..Report::default()
        };
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}

//! The result store's record codecs.
//!
//! The store ([`lightwsp_store`]) holds opaque string payloads. Every
//! value a campaign memoizes implements [`Record`], which turns it into
//! such a payload and back, and [`Campaign::memo`](crate::Campaign::memo)
//! is the one path between those values and the store: it keys each
//! record on the inputs that shape it plus the code digest, never
//! caches an error, and recomputes a record that fails to decode.
//!
//! Each audit stores the report type it returns, so a warm run serves
//! exactly what the cold run computed. The record families (the `kind`
//! field of a [`StoreKey`](lightwsp_store::StoreKey)):
//!
//! | kind | record | keyed in |
//! |---|---|---|
//! | `"run"` | [`RunResult`] and its wall-clock ms | [`Campaign::run_one_timed`](crate::Campaign::run_one_timed) |
//! | `"crashcell"` | [`CrashAuditReport`] | [`audit_workload_crashes`](crate::recovery::audit_workload_crashes) |
//! | `"dscell"` | [`DsAuditReport`] | [`audit_recoverable_ds`](crate::dsaudit::audit_recoverable_ds) |
//! | `"sweeprep"` | [`SweepReport`], with its [`CaseOutcome`]s for a litmus sweep | [`litmus_sweep`](crate::oracle::litmus_sweep), [`fuzz_sweep`](crate::oracle::fuzz_sweep) |
//! | `"killmatrix"` | a [`MutantKill`] list | [`mutant_kill_matrix`](crate::oracle::mutant_kill_matrix) |
//! | `"case"` | [`CaseOutcome`] | the `ds_service` bin, around `run_case` |
//! | `"metawall"` | a wall-clock `f64` | the bench bins' stage timings |
//!
//! Decoding builds each report as a struct literal, so a report field
//! without a codec fails to compile instead of silently dropping out of
//! warm runs. Typed parts decode through their stable names
//! ([`INVARIANTS`], [`CrashPointKind::name`], [`mutant_name`],
//! [`DETECTORS`], [`Scheme::name`], workload names); an unknown name is
//! a decode error, so the record is recomputed. Wall-clock values are
//! stored as `f64` bit patterns: a warm run renders the cold run's
//! timings digit for digit, which is what makes `BENCH_*.json`
//! byte-identical across warm re-runs.

use crate::dsaudit::DsAuditReport;
use crate::experiment::RunResult;
use crate::oracle::{mutant_name, MutantKill, SweepReport, ALL_MUTANTS, DETECTORS};
use lightwsp_model::harness::{CaseOutcome, MutantModelRow};
use lightwsp_sim::crash::INVARIANTS;
use lightwsp_sim::{
    Completion, CrashAuditReport, CrashPoint, CrashPointKind, InvariantViolation, Scheme, SimStats,
};
use lightwsp_workloads::all_workloads;
use std::collections::BTreeMap;

pub use lightwsp_store::{code_digest, code_digest_from_env, digest_debug, digest_str};

/// A value the result store can hold.
pub trait Record: Sized {
    /// Serialises for the store.
    fn encode(&self) -> String;

    /// Parses [`Record::encode`] output.
    ///
    /// # Errors
    ///
    /// Describes the first missing, malformed or unknown part.
    fn decode(text: &str) -> Result<Self, String>;
}

/// Escapes whitespace and backslashes, so escaped strings are safe
/// both as one-line list items and as `kv_line` values (which split on
/// whitespace).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            ' ' => out.push_str("\\s"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`esc`].
fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('s') => out.push(' '),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// Renders `name=value` pairs as one line (values must not contain
/// whitespace; strings go through [`esc`]).
fn kv_line(pairs: &[(&str, String)]) -> String {
    pairs
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Parses a [`kv_line`].
fn parse_kv(line: &str) -> Result<BTreeMap<&str, &str>, String> {
    let mut map = BTreeMap::new();
    for pair in line.split_whitespace() {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("malformed kv pair {pair:?}"))?;
        map.insert(k, v);
    }
    Ok(map)
}

/// The raw value of field `name`.
fn field<'a>(map: &BTreeMap<&str, &'a str>, name: &str) -> Result<&'a str, String> {
    map.get(name)
        .copied()
        .ok_or_else(|| format!("missing field {name}"))
}

fn kv_get<T: std::str::FromStr>(map: &BTreeMap<&str, &str>, name: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    field(map, name)?
        .parse()
        .map_err(|e| format!("field {name}: {e}"))
}

/// Appends one `tag\t<escaped item>` line per item.
fn list_lines<S: AsRef<str>>(out: &mut String, tag: &str, items: impl IntoIterator<Item = S>) {
    for item in items {
        out.push('\n');
        out.push_str(tag);
        out.push('\t');
        out.push_str(&esc(item.as_ref()));
    }
}

/// Splits a record into its head line and its unescaped list items.
fn split_record(text: &str) -> (&str, Vec<(&str, String)>) {
    let mut lines = text.lines();
    let head = lines.next().unwrap_or("");
    let items = lines
        .filter_map(|l| l.split_once('\t').map(|(tag, v)| (tag, unesc(v))))
        .collect();
    (head, items)
}

fn take_list(items: &[(&str, String)], tag: &str) -> Vec<String> {
    items
        .iter()
        .filter(|(t, _)| *t == tag)
        .map(|(_, v)| v.clone())
        .collect()
}

/// Decodes every `tag` item with `decode`.
fn take_typed<T>(
    items: &[(&str, String)],
    tag: &str,
    decode: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    items
        .iter()
        .filter(|(t, _)| *t == tag)
        .map(|(_, v)| decode(v))
        .collect()
}

/// The member of `all` whose `name` is `s`: how a typed part decodes.
fn named<T: Copy>(
    all: impl IntoIterator<Item = T>,
    name: impl Fn(T) -> &'static str,
    s: &str,
    what: &str,
) -> Result<T, String> {
    all.into_iter()
        .find(|&t| name(t) == s)
        .ok_or_else(|| format!("unknown {what} {s:?}"))
}

/// Comma-joins numbers for a kv value (no whitespace).
fn csv<T: ToString>(v: &[T]) -> String {
    v.iter().map(T::to_string).collect::<Vec<_>>().join(",")
}

/// Inverse of [`csv`]; an empty string is an empty vector.
fn from_csv<T: std::str::FromStr>(s: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|x| x.parse().map_err(|e| format!("list item {x:?}: {e}")))
        .collect()
}

fn encode_violation(v: &InvariantViolation) -> String {
    format!(
        "{} {} {} {}",
        v.invariant,
        v.point.cycle,
        v.point.kind.name(),
        v.detail
    )
}

fn decode_violation(s: &str) -> Result<InvariantViolation, String> {
    let mut parts = s.splitn(4, ' ');
    let mut next = || parts.next().ok_or_else(|| format!("short violation {s:?}"));
    Ok(InvariantViolation {
        invariant: named(INVARIANTS, |n| n, next()?, "invariant")?,
        point: CrashPoint {
            cycle: next()?
                .parse()
                .map_err(|e| format!("violation cycle: {e}"))?,
            kind: named(
                CrashPointKind::ALL,
                CrashPointKind::name,
                next()?,
                "crash-point kind",
            )?,
        },
        detail: next()?.to_string(),
    })
}

/// A wall-clock value, stored as its bit pattern.
impl Record for f64 {
    fn encode(&self) -> String {
        format!("{:016x}", self.to_bits())
    }

    fn decode(text: &str) -> Result<f64, String> {
        u64::from_str_radix(text, 16)
            .map(f64::from_bits)
            .map_err(|e| format!("bad f64 bits {text:?}: {e}"))
    }
}

/// A list: its records split by `#` lines.
impl<T: Record> Record for Vec<T> {
    fn encode(&self) -> String {
        self.iter().map(T::encode).collect::<Vec<_>>().join("\n#\n")
    }

    fn decode(text: &str) -> Result<Vec<T>, String> {
        if text.is_empty() {
            return Ok(Vec::new());
        }
        text.split("\n#\n").map(T::decode).collect()
    }
}

/// A pair: its two records split by a `##` line (so the first may not
/// itself be a pair).
impl<A: Record, B: Record> Record for (A, B) {
    fn encode(&self) -> String {
        format!("{}\n##\n{}", self.0.encode(), self.1.encode())
    }

    fn decode(text: &str) -> Result<(A, B), String> {
        let (a, b) = text
            .split_once("\n##\n")
            .ok_or("pair record missing its ## line")?;
        Ok((A::decode(a)?, B::decode(b)?))
    }
}

/// A whole run. Its workload decodes through the roster's names, so a
/// run of a spec named outside the roster is always recomputed.
impl Record for RunResult {
    fn encode(&self) -> String {
        let head = kv_line(&[
            ("workload", esc(self.workload)),
            ("scheme", self.scheme.name().to_string()),
            ("threads", self.threads.to_string()),
            (
                "completion",
                match self.completion {
                    Completion::Finished => "F",
                    Completion::MaxCycles => "M",
                }
                .to_string(),
            ),
        ]);
        format!("{head}\n{}", self.stats.encode_record())
    }

    fn decode(text: &str) -> Result<RunResult, String> {
        let (head, stats) = text.split_once('\n').ok_or("run record missing stats")?;
        let map = parse_kv(head)?;
        Ok(RunResult {
            workload: named(
                all_workloads().iter().map(|w| w.name),
                |n| n,
                &unesc(field(&map, "workload")?),
                "workload",
            )?,
            scheme: named(Scheme::ALL, Scheme::name, field(&map, "scheme")?, "scheme")?,
            threads: kv_get(&map, "threads")?,
            completion: match field(&map, "completion")? {
                "F" => Completion::Finished,
                "M" => Completion::MaxCycles,
                other => return Err(format!("bad completion {other:?}")),
            },
            stats: SimStats::decode_record(stats)?,
        })
    }
}

impl Record for CrashAuditReport {
    fn encode(&self) -> String {
        let mut out = kv_line(&[
            ("points", self.points.to_string()),
            ("audited", self.audited.to_string()),
            ("beyond_end", self.beyond_end.to_string()),
            ("by_kind", csv(&self.audited_by_kind)),
            ("entries_flushed", self.entries_flushed.to_string()),
            ("entries_discarded", self.entries_discarded.to_string()),
            ("undo_rolled_back", self.undo_rolled_back.to_string()),
            ("golden_cycles", self.golden_cycles.to_string()),
        ]);
        list_lines(&mut out, "v", self.violations.iter().map(encode_violation));
        out
    }

    fn decode(text: &str) -> Result<CrashAuditReport, String> {
        let (head, items) = split_record(text);
        let map = parse_kv(head)?;
        let by_kind: Vec<usize> = from_csv(field(&map, "by_kind")?)?;
        Ok(CrashAuditReport {
            points: kv_get(&map, "points")?,
            audited: kv_get(&map, "audited")?,
            beyond_end: kv_get(&map, "beyond_end")?,
            audited_by_kind: by_kind
                .try_into()
                .map_err(|v: Vec<usize>| format!("by_kind needs 6 entries, got {}", v.len()))?,
            violations: take_typed(&items, "v", decode_violation)?,
            entries_flushed: kv_get(&map, "entries_flushed")?,
            entries_discarded: kv_get(&map, "entries_discarded")?,
            undo_rolled_back: kv_get(&map, "undo_rolled_back")?,
            golden_cycles: kv_get(&map, "golden_cycles")?,
        })
    }
}

impl Record for DsAuditReport {
    fn encode(&self) -> String {
        let mut out = kv_line(&[
            ("name", esc(&self.name)),
            ("points", self.points.to_string()),
            ("audited", self.audited.to_string()),
            ("beyond_end", self.beyond_end.to_string()),
            ("resumed", self.resumed.to_string()),
            ("golden_cycles", self.golden_cycles.to_string()),
        ]);
        list_lines(
            &mut out,
            "g",
            self.gate_violations.iter().map(encode_violation),
        );
        list_lines(&mut out, "d", &self.ds_violations);
        out
    }

    fn decode(text: &str) -> Result<DsAuditReport, String> {
        let (head, items) = split_record(text);
        let map = parse_kv(head)?;
        Ok(DsAuditReport {
            name: unesc(field(&map, "name")?),
            points: kv_get(&map, "points")?,
            audited: kv_get(&map, "audited")?,
            beyond_end: kv_get(&map, "beyond_end")?,
            resumed: kv_get(&map, "resumed")?,
            golden_cycles: kv_get(&map, "golden_cycles")?,
            gate_violations: take_typed(&items, "g", decode_violation)?,
            ds_violations: take_list(&items, "d"),
        })
    }
}

fn encode_mutant_row(row: &MutantModelRow) -> String {
    format!(
        "{}/{}/{}",
        row.name,
        row.count.map_or("-".to_string(), |c| c.to_string()),
        if row.killed { "killed" } else { "alive" }
    )
}

fn decode_mutant_row(s: &str) -> Result<MutantModelRow, String> {
    let mut it = s.split('/');
    let mut next = || it.next().ok_or_else(|| format!("short mutant row {s:?}"));
    Ok(MutantModelRow {
        name: next()?.to_string(),
        count: match next()? {
            "-" => None,
            c => Some(c.parse().map_err(|e| format!("mutant count: {e}"))?),
        },
        killed: match next()? {
            "killed" => true,
            "alive" => false,
            other => return Err(format!("bad mutant verdict {other:?}")),
        },
    })
}

impl Record for CaseOutcome {
    fn encode(&self) -> String {
        let mut pairs = vec![
            ("name", esc(&self.name)),
            ("points", self.points.to_string()),
            ("audited", self.audited.to_string()),
            ("admitted", self.admitted.to_string()),
            ("witnessed", self.witnessed.to_string()),
            ("cross", self.witnessed_cross_thread.to_string()),
            ("wbuckets", csv(&self.witnessed_buckets)),
        ];
        if let Some(e) = self.exact_admitted {
            pairs.push(("exact", e.to_string()));
        }
        if let Some(eb) = &self.exact_buckets {
            pairs.push(("ebuckets", csv(eb)));
        }
        let mut out = kv_line(&pairs);
        list_lines(
            &mut out,
            "mm",
            self.model_mutants.iter().map(encode_mutant_row),
        );
        list_lines(&mut out, "m", &self.model_violations);
        list_lines(&mut out, "s", &self.structural_violations);
        out
    }

    fn decode(text: &str) -> Result<CaseOutcome, String> {
        let (head, items) = split_record(text);
        let map = parse_kv(head)?;
        Ok(CaseOutcome {
            name: unesc(field(&map, "name")?),
            points: kv_get(&map, "points")?,
            audited: kv_get(&map, "audited")?,
            admitted: kv_get(&map, "admitted")?,
            exact_admitted: map
                .contains_key("exact")
                .then(|| kv_get(&map, "exact"))
                .transpose()?,
            witnessed: kv_get(&map, "witnessed")?,
            witnessed_cross_thread: kv_get(&map, "cross")?,
            witnessed_buckets: from_csv(field(&map, "wbuckets")?)?,
            exact_buckets: map.get("ebuckets").map(|v| from_csv(v)).transpose()?,
            model_mutants: take_typed(&items, "mm", decode_mutant_row)?,
            model_violations: take_list(&items, "m"),
            structural_violations: take_list(&items, "s"),
        })
    }
}

impl Record for SweepReport {
    fn encode(&self) -> String {
        let mut out = kv_line(&[
            ("cases", self.cases.to_string()),
            ("points", self.points.to_string()),
            ("audited", self.audited.to_string()),
            ("admitted", self.admitted.to_string()),
            ("exact", self.exact_admitted.to_string()),
            ("excomplete", self.exact_complete.to_string()),
            ("witnessed", self.witnessed.to_string()),
            ("cross", self.witnessed_cross_thread.to_string()),
        ]);
        list_lines(&mut out, "m", &self.model_violations);
        list_lines(&mut out, "s", &self.structural_violations);
        list_lines(&mut out, "e", &self.extract_errors);
        out
    }

    fn decode(text: &str) -> Result<SweepReport, String> {
        let (head, items) = split_record(text);
        let map = parse_kv(head)?;
        Ok(SweepReport {
            cases: kv_get(&map, "cases")?,
            points: kv_get(&map, "points")?,
            audited: kv_get(&map, "audited")?,
            admitted: kv_get(&map, "admitted")?,
            exact_admitted: kv_get(&map, "exact")?,
            exact_complete: kv_get(&map, "excomplete")?,
            witnessed: kv_get(&map, "witnessed")?,
            witnessed_cross_thread: kv_get(&map, "cross")?,
            model_violations: take_list(&items, "m"),
            structural_violations: take_list(&items, "s"),
            extract_errors: take_list(&items, "e"),
        })
    }
}

impl Record for MutantKill {
    fn encode(&self) -> String {
        let mut out = kv_line(&[("mutant", mutant_name(self.mutant).to_string())]);
        list_lines(
            &mut out,
            "k",
            self.killed_by
                .iter()
                .map(|(litmus, detector)| format!("{litmus}/{detector}")),
        );
        out
    }

    fn decode(text: &str) -> Result<MutantKill, String> {
        let (head, items) = split_record(text);
        let map = parse_kv(head)?;
        Ok(MutantKill {
            mutant: named(
                ALL_MUTANTS,
                mutant_name,
                field(&map, "mutant")?,
                "gating mutant",
            )?,
            killed_by: take_typed(&items, "k", |k| {
                let (litmus, detector) = k
                    .rsplit_once('/')
                    .ok_or_else(|| format!("kill {k:?} names no detector"))?;
                Ok((
                    litmus.to_string(),
                    named(DETECTORS, |d| d, detector, "detector")?,
                ))
            })?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightwsp_sim::GatingMutant;

    fn roundtrip<T: Record + PartialEq + std::fmt::Debug>(r: &T) {
        assert_eq!(&T::decode(&r.encode()).unwrap(), r);
    }

    fn violation(invariant: &'static str, cycle: u64, kind: CrashPointKind) -> InvariantViolation {
        InvariantViolation {
            invariant,
            point: CrashPoint { cycle, kind },
            detail: format!("PM at 0x40:\tgot 1\ngolden {cycle}\\ "),
        }
    }

    fn case(exact: bool) -> CaseOutcome {
        CaseOutcome {
            name: "mp + boundary".into(),
            points: 100,
            audited: 90,
            admitted: u128::from(u64::MAX) * 3,
            exact_admitted: exact.then_some(41),
            witnessed: 40,
            witnessed_cross_thread: 5,
            witnessed_buckets: vec![1, 30, 9],
            exact_buckets: exact.then(|| vec![1, 31, 9]),
            model_mutants: vec![
                MutantModelRow {
                    name: "drop_ack_order".into(),
                    count: Some(u128::from(u64::MAX) * 3),
                    killed: true,
                },
                MutantModelRow {
                    name: "unordered_prefixes".into(),
                    count: None,
                    killed: false,
                },
            ],
            model_violations: vec!["img outside\tset".into()],
            structural_violations: vec!["gate flushed\nearly".into()],
        }
    }

    #[test]
    fn crash_cell_roundtrip() {
        let r = CrashAuditReport {
            points: 10,
            audited: 8,
            beyond_end: 2,
            audited_by_kind: [1, 2, 3, 0, 1, 1],
            violations: vec![
                violation("gate-flush", 17, CrashPointKind::McSkew),
                violation("resume-state-equivalence", 90, CrashPointKind::Seeded),
            ],
            entries_flushed: 100,
            entries_discarded: 7,
            undo_rolled_back: 3,
            golden_cycles: 123_456,
        };
        roundtrip(&r);
        assert!(CrashAuditReport::decode("points=1").is_err());
        let unknown = r.encode().replace("gate-flush", "gate-flash");
        assert!(CrashAuditReport::decode(&unknown).is_err());
    }

    #[test]
    fn ds_cell_roundtrip() {
        let r = DsAuditReport {
            name: "kv service".into(),
            points: 500,
            audited: 480,
            beyond_end: 20,
            resumed: 24,
            golden_cycles: 9_999_999,
            gate_violations: vec![violation("survivable-prefix", 5, CrashPointKind::MidRegion)],
            ds_violations: vec!["stack-lost-op @cycle 42".into()],
        };
        roundtrip(&r);
        let unknown = r.encode().replace("mid-region", "mid-regime");
        assert!(DsAuditReport::decode(&unknown).is_err());
    }

    #[test]
    fn case_record_roundtrip_without_exact_fields() {
        // Over-approximate sweeps carry no exact fields; the record
        // must encode and decode without them.
        let c = case(false);
        roundtrip(&c);
        assert_eq!(c.exact_delta(), 0);
    }

    #[test]
    fn sweep_record_roundtrip_with_outcomes() {
        let rep = SweepReport {
            cases: 2,
            points: 200,
            audited: 180,
            admitted: 12,
            exact_admitted: 41,
            exact_complete: 1,
            witnessed: 40,
            witnessed_cross_thread: 5,
            model_violations: vec!["img outside set".into()],
            structural_violations: vec!["gate flushed early".into()],
            extract_errors: vec!["fuzz-7: shared\tlock".into()],
        };
        // A litmus sweep stores its outcomes beside the aggregate; a
        // fuzz sweep stores the aggregate alone.
        roundtrip(&(rep.clone(), vec![case(true), case(false)]));
        roundtrip(&(rep.clone(), Vec::<CaseOutcome>::new()));
        roundtrip(&rep);
    }

    #[test]
    fn kill_matrix_roundtrip() {
        let rows = vec![
            MutantKill {
                mutant: GatingMutant::FlushUnacked,
                killed_by: vec![("mp/2".into(), "model"), ("sb".into(), "structural")],
            },
            MutantKill {
                mutant: GatingMutant::FirstMcBoundary,
                killed_by: vec![],
            },
        ];
        roundtrip(&rows);
        let unknown = rows.encode().replace("structural", "structure");
        assert!(Vec::<MutantKill>::decode(&unknown).is_err());
    }

    #[test]
    fn run_record_and_wall_clock_roundtrip() {
        let run = RunResult {
            workload: "bzip2",
            scheme: Scheme::Cwsp,
            threads: 4,
            completion: Completion::MaxCycles,
            stats: SimStats {
                cycles: 123_456,
                insts: 7_890,
                ..SimStats::default()
            },
        };
        let wall = 1.234_567_8f64;
        let (r, w) = <(RunResult, f64)>::decode(&(run.clone(), wall).encode()).unwrap();
        assert_eq!(r, run);
        assert_eq!(w.to_bits(), wall.to_bits());
        let unknown = run.encode().replace("bzip2", "bzip3");
        assert!(RunResult::decode(&unknown).is_err());
    }
}

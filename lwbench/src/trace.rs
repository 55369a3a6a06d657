//! In-memory span recorder for the traced run.
//!
//! The benchmark's own mirror of each driver opens one span around
//! every call it makes into a layer's public function. A span holds its
//! name, start, end, parent and the op it belongs to; spans stay in
//! memory and are written out once, after the run. A layer's time is
//! the self time of its spans: duration minus the time covered by
//! child spans. The mirror's root span carries the driver's own time,
//! so the self times of all spans sum to the root's wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<u32>,
    op: u64,
}

/// Span and counter recorder for one traced run.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
    counters: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Sets the op id later spans are tagged with.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let span = Span {
            name,
            start: 0,
            end: 0,
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.spans.push(span);
        self.open.push(idx);
        // Read the clock last so the bookkeeping above is charged to
        // the parent, not to this span.
        self.spans[idx as usize].start = self.now();
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx as usize].end = end;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Adds `v` to the counter `name`.
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_default() += v;
    }

    /// The counter `name` (0 if never added to).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Self time in seconds per span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        assert!(self.open.is_empty(), "spans still open");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start - c) as f64 * 1e-9;
        }
        out
    }

    /// Wall time in seconds covered by the top-level spans.
    pub fn root_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end - s.start) as f64 * 1e-9)
            .sum()
    }

    /// Every span as tab-separated `id parent op name start_ns end_ns`
    /// lines, with `-` for a top-level span's parent.
    pub fn render(&self) -> String {
        let mut out = String::from("id\tparent\top\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_root_wall() {
        let mut t = Tracer::new();
        t.enter("root");
        t.span("a", || std::hint::black_box((0..10_000u64).sum::<u64>()));
        t.enter("b");
        t.span("a", || std::hint::black_box((0..10_000u64).sum::<u64>()));
        t.exit();
        t.exit();
        let total: f64 = t.self_seconds().values().sum();
        assert!((total - t.root_seconds()).abs() < 1e-9);
        assert_eq!(t.len(), 4);
        assert_eq!(t.render().lines().count(), 5);
    }
}

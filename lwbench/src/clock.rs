//! Reference-speed clock: wall time corrected for the host's speed.
//!
//! The measuring host is a shared virtual machine whose speed drifts:
//! identical work runs 30–60 % slower for seconds to minutes at a time,
//! all of it user CPU time. No estimator over the program's own times
//! can remove that, because the program's times are what drift. So the
//! clock measures the host alongside the program: it interleaves samples
//! of a fixed, benchmark-owned reference kernel with the timed calls,
//! and scales every interval by the host's speed at the time, read off
//! the samples taken within [`WINDOW_S`] of it. The result is reference
//! seconds: the wall seconds the interval would have taken on a host
//! that runs one sample in [`NOMINAL_SAMPLE_S`].
//!
//! The kernel is a set-associative cache model driven by a synthetic
//! address stream, the same kind of work as the simulator's inner loop,
//! run once over a table larger than the core's L2 cache and once over
//! one that fits in it, so it slows down with the simulator, large
//! machines and small ones alike, when the host does. (Measured on the
//! measuring host over 8 minutes of drift, the blend left 0.035–0.074 of
//! interquartile spread in 40-second medians of the workloads' times,
//! against 0.18–0.23 uncorrected; either table alone left 0.045–0.10.)
//! It is part of the benchmark, not of the program, so a change to the
//! program moves the program's times and leaves the reference alone.

use std::hint::black_box;
use std::time::Instant;

/// Sets of the reference kernel's large cache (3 MB of state, more
/// than a core's L2) and small cache (192 KB, well within it).
const LARGE_SETS: usize = 1 << 15;
const SMALL_SETS: usize = 1 << 11;
/// Ways per set.
const WAYS: usize = 8;
/// Accesses per cache in one reference sample.
const SAMPLE_ACCESSES: u32 = 60_000;
/// Seconds one sample takes at reference speed: about one sample on a
/// 2-vCPU Xeon (Sapphire Rapids) virtual machine at its fastest. At
/// that host's usual speed a sample takes 5–7.5 ms.
pub const NOMINAL_SAMPLE_S: f64 = 0.0045;
/// Samples taken within this many seconds of an interval give its host
/// speed.
pub const WINDOW_S: f64 = 1.0;
/// Samples taken on each side of a call long enough to hold none.
const BLOCK: usize = 5;

/// A timed interval, in seconds since the clock started.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    /// Start of the interval.
    pub start: f64,
    /// End of the interval.
    pub end: f64,
}

impl Interval {
    /// Wall seconds of the interval.
    pub fn wall(&self) -> f64 {
        self.end - self.start
    }
}

/// The reference kernel and the samples it has taken.
pub struct Clock {
    t0: Instant,
    large: Table,
    small: Table,
    /// `(mid-point, seconds)` of every sample, in time order.
    samples: Vec<(f64, f64)>,
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::new()
    }
}

impl Clock {
    /// A clock whose time starts now, with no samples yet.
    pub fn new() -> Clock {
        Clock {
            t0: Instant::now(),
            large: Table::new(LARGE_SETS),
            small: Table::new(SMALL_SETS),
            samples: Vec::new(),
        }
    }

    /// Seconds since the clock started.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Runs the reference kernel once and records how long it took.
    pub fn sample(&mut self) {
        let start = self.now();
        black_box(self.large.replay() + self.small.replay());
        let end = self.now();
        self.samples.push(((start + end) / 2.0, end - start));
    }

    /// Runs `f` right after one reference sample. For calls short
    /// enough that their neighbours' samples fall within [`WINDOW_S`].
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Interval) {
        self.sample();
        let start = self.now();
        let v = f();
        (
            v,
            Interval {
                start,
                end: self.now(),
            },
        )
    }

    /// Runs `f` between two blocks of reference samples. For calls
    /// that may last longer than [`WINDOW_S`].
    pub fn time_long<T>(&mut self, f: impl FnOnce() -> T) -> (T, Interval) {
        for _ in 0..BLOCK {
            self.sample();
        }
        let start = self.now();
        let v = f();
        let iv = Interval {
            start,
            end: self.now(),
        };
        for _ in 0..BLOCK {
            self.sample();
        }
        (v, iv)
    }

    /// The host's speed over `iv` relative to the reference: the
    /// nominal sample time over the median of the samples taken within
    /// [`WINDOW_S`] of it (1 when none was taken).
    pub fn speed(&self, iv: &Interval) -> f64 {
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| *t >= iv.start - WINDOW_S && *t <= iv.end + WINDOW_S)
            .map(|&(_, s)| s)
            .collect();
        if near.is_empty() {
            1.0
        } else {
            NOMINAL_SAMPLE_S / crate::median(&near)
        }
    }

    /// Reference seconds of `iv`: its wall time scaled by the host's
    /// speed over it.
    pub fn reference_seconds(&self, iv: &Interval) -> f64 {
        iv.wall() * self.speed(iv)
    }

    /// The host's median speed over every sample taken so far.
    pub fn median_speed(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|&(_, s)| s).collect();
        if all.is_empty() {
            1.0
        } else {
            NOMINAL_SAMPLE_S / crate::median(&all)
        }
    }
}

/// The state of one set-associative cache of the reference kernel.
struct Table {
    tags: Vec<u64>,
    stamps: Vec<u32>,
}

impl Table {
    fn new(sets: usize) -> Table {
        Table {
            tags: vec![u64::MAX; sets * WAYS],
            stamps: vec![0; sets * WAYS],
        }
    }

    /// One sample's work on this cache: [`SAMPLE_ACCESSES`] lookups of
    /// an LRU set-associative cache over a 64 MB address space, with a
    /// mix of random, sequential and nearby addresses. Every replay
    /// starts from an empty cache and replays the same stream, so every
    /// sample does the same work. Returns the misses so the work is not
    /// optimised away.
    fn replay(&mut self) -> u64 {
        const SPACE: u64 = 64 << 20;
        let (tags, stamps) = (&mut self.tags, &mut self.stamps);
        tags.fill(u64::MAX);
        stamps.fill(0);
        let sets = tags.len() / WAYS;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut addr = 0u64;
        let mut misses = 0u64;
        for now in 0..SAMPLE_ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            addr = match x & 3 {
                0 => x % SPACE,
                1 => addr + 64,
                _ => (addr + (x >> 40) % 4096) % SPACE,
            };
            let line = addr >> 6;
            let base = (line as usize & (sets - 1)) * WAYS;
            let way = match (0..WAYS).find(|&w| tags[base + w] == line) {
                Some(w) => w,
                None => {
                    misses += 1;
                    let victim = (1..WAYS).fold(0, |v, w| {
                        if stamps[base + w] < stamps[base + v] {
                            w
                        } else {
                            v
                        }
                    });
                    tags[base + victim] = line;
                    victim
                }
            };
            stamps[base + way] = now;
        }
        misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_seconds_scale_wall_time_by_speed() {
        let mut c = Clock::new();
        let ((), iv) = c.time_long(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        let s = c.speed(&iv);
        assert!(s.is_finite() && s > 0.0);
        assert!((c.reference_seconds(&iv) - iv.wall() * s).abs() < 1e-12);
        assert_eq!(c.samples.len(), 2 * BLOCK);
    }

    #[test]
    fn an_interval_far_from_every_sample_has_unit_speed() {
        let c = Clock::new();
        let iv = Interval {
            start: 100.0,
            end: 101.0,
        };
        assert_eq!(c.speed(&iv), 1.0);
    }

    #[test]
    fn every_sample_does_the_same_work() {
        for sets in [LARGE_SETS, SMALL_SETS] {
            let mut t = Table::new(sets);
            let first = t.replay();
            assert!(first > 0);
            assert_eq!(first, t.replay());
        }
    }
}

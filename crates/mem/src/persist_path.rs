//! The non-temporal persist path (§II-A, §III): a per-core FIFO channel
//! from the front-end buffer to the memory controllers, modelled as a
//! bandwidth gate (one 8-byte entry per `cycles_per_entry`, 4 GB/s by
//! default) followed by a fixed transit delay (20 ns worst case).
//!
//! Delivery is strictly in order; if the entry at the head targets a
//! full WPQ, everything behind it blocks (head-of-line blocking). This
//! per-lane FIFO order is what lets a boundary's arrival at an MC imply
//! that every earlier store of its region has arrived there too, which
//! the ordering protocol (§IV-B) relies on.
//!
//! The path is on-chip and volatile: entries still in flight are lost on
//! power failure (their region is necessarily unpersisted, because its
//! boundary travels behind them).

use crate::line_filter::LineFilter;
use crate::protocol::RegionId;
use std::collections::VecDeque;

/// What an entry on the persist path is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PersistKind {
    /// A data store (8 bytes).
    Data,
    /// A region boundary: the PC-checkpointing store, replicated into
    /// every MC's WPQ as the broadcast token (§IV-B).
    Boundary,
}

/// One 8-byte entry travelling toward the WPQs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PersistEntry {
    /// Byte address (8-byte aligned).
    pub addr: u64,
    /// The value being persisted.
    pub val: u64,
    /// The region this store belongs to (tagged as it leaves the store
    /// buffer, §IV-B).
    pub region: RegionId,
    /// Data or boundary.
    pub kind: PersistKind,
    /// Issuing core (diagnostics and per-core stats).
    pub core: usize,
}

/// The per-core persist path.
#[derive(Clone, Debug)]
pub struct PersistPath {
    in_flight: VecDeque<(u64, PersistEntry)>, // (arrival cycle, entry)
    next_issue: u64,
    latency: u64,
    cycles_per_entry: u64,
    /// Maximum entries in flight: the path is a wire/NoC lane with a
    /// small skid buffer, not a queue — when the head is blocked at a
    /// full WPQ, back-pressure must reach the front-end buffer.
    capacity: usize,
    /// Incremental line-residency signature over the in-flight entries:
    /// the eviction snoop's conflict check short-circuits on one table
    /// probe in the common no-occupant case.
    filter: LineFilter,
    issued: u64,
    hol_blocked_cycles: u64,
}

impl PersistPath {
    /// Creates a path with the given transit latency and bandwidth gate,
    /// snooped at `line_bytes` granularity.
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_entry` or `line_bytes` is zero.
    pub fn new(latency: u64, cycles_per_entry: u64, line_bytes: u64) -> PersistPath {
        assert!(cycles_per_entry > 0, "bandwidth gate must be positive");
        // Transit window plus a small skid buffer.
        let capacity = (2 * latency / cycles_per_entry).max(16) as usize;
        PersistPath {
            in_flight: VecDeque::new(),
            next_issue: 0,
            latency,
            cycles_per_entry,
            capacity,
            filter: LineFilter::new(line_bytes),
            issued: 0,
            hol_blocked_cycles: 0,
        }
    }

    /// True if the bandwidth gate admits another entry at `now` and the
    /// transit window has room.
    #[inline]
    pub fn can_issue(&self, now: u64) -> bool {
        now >= self.next_issue && self.in_flight.len() < self.capacity
    }

    /// Issues an entry onto the path at `now`.
    ///
    /// # Panics
    ///
    /// Panics if called while [`PersistPath::can_issue`] is false.
    pub fn issue(&mut self, now: u64, entry: PersistEntry) {
        self.issue_weighted(now, entry, 1);
    }

    /// Issues an entry that occupies `weight` bandwidth units (Capri's
    /// 64-byte cacheline flushes cost 8× an 8-byte store, §II-C).
    ///
    /// # Panics
    ///
    /// Panics if called while [`PersistPath::can_issue`] is false, or if
    /// `weight` is zero.
    #[inline]
    pub fn issue_weighted(&mut self, now: u64, entry: PersistEntry, weight: u64) {
        assert!(self.can_issue(now), "persist path bandwidth gate violated");
        assert!(weight > 0, "issue weight must be positive");
        self.next_issue = now + self.cycles_per_entry * weight;
        self.issued += 1;
        self.filter.insert(entry.addr);
        self.in_flight.push_back((now + self.latency, entry));
    }

    /// Event horizon: the cycle at which the head entry completes
    /// transit and becomes deliverable, if anything is in flight. A
    /// returned cycle `<= now` means the head has already arrived (it
    /// may be head-of-line blocked at a full WPQ — delivery must be
    /// retried every cycle, so the caller treats that as "active now").
    /// `None` means the path generates no event until new input arrives.
    #[inline]
    pub fn next_event(&self, _now: u64) -> Option<u64> {
        self.in_flight.front().map(|&(arrive, _)| arrive)
    }

    /// The cycle at which the bandwidth gate next admits an entry, or
    /// `None` while the transit window is at capacity (capacity frees
    /// only when the head pops — a [`PersistPath::next_event`] cycle).
    #[inline]
    pub fn issue_ready_at(&self) -> Option<u64> {
        (self.in_flight.len() < self.capacity).then_some(self.next_issue)
    }

    /// The head entry if it has completed transit by `now`.
    #[inline]
    pub fn head_arrived(&self, now: u64) -> Option<&PersistEntry> {
        match self.in_flight.front() {
            Some((arrive, e)) if *arrive <= now => Some(e),
            _ => None,
        }
    }

    /// Removes the head entry (after successful WPQ delivery).
    #[inline]
    pub fn pop_head(&mut self) -> Option<PersistEntry> {
        let popped = self.in_flight.pop_front().map(|(_, e)| e);
        if let Some(e) = &popped {
            self.filter.remove(e.addr);
        }
        popped
    }

    /// Records one cycle of head-of-line blocking (full target WPQ).
    pub fn note_hol_block(&mut self) {
        self.hol_blocked_cycles += 1;
    }

    /// True if any in-flight entry falls in the cache line at
    /// `line_addr` (used together with the front-end buffer for the
    /// eviction-snoop conflict check, §IV-G).
    ///
    /// At the path's own line granularity the residency signature
    /// rejects the common no-occupant case with one probe; a signature
    /// positive is confirmed by the linear scan, and a different
    /// `line_bytes` always scans. The combined answer is exact.
    pub fn conflicts_with_line(&self, line_addr: u64, line_bytes: u64) -> bool {
        if line_bytes == self.filter.line_bytes() && !self.filter.maybe_contains_line(line_addr) {
            return false;
        }
        self.in_flight
            .iter()
            .any(|(_, e)| e.addr / line_bytes == line_addr / line_bytes)
    }

    /// Number of in-flight entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.in_flight.len()
    }

    /// True if nothing is in flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Discards all in-flight entries (power failure).
    pub fn clear(&mut self) {
        self.in_flight.clear();
        self.filter.clear();
    }

    /// `(entries issued, cycles blocked at head-of-line)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.issued, self.hol_blocked_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(addr: u64, region: RegionId) -> PersistEntry {
        PersistEntry {
            addr,
            val: 1,
            region,
            kind: PersistKind::Data,
            core: 0,
        }
    }

    #[test]
    fn bandwidth_gate_spacing() {
        let mut p = PersistPath::new(40, 4, 64);
        assert!(p.can_issue(0));
        p.issue(0, entry(0, 1));
        assert!(!p.can_issue(3));
        assert!(p.can_issue(4));
        p.issue(4, entry(8, 1));
        assert_eq!(p.len(), 2);
    }

    #[test]
    #[should_panic(expected = "bandwidth gate")]
    fn issue_too_fast_panics() {
        let mut p = PersistPath::new(40, 4, 64);
        p.issue(0, entry(0, 1));
        p.issue(1, entry(8, 1));
    }

    #[test]
    fn transit_latency_respected() {
        let mut p = PersistPath::new(40, 4, 64);
        p.issue(0, entry(0, 1));
        assert!(p.head_arrived(39).is_none());
        assert!(p.head_arrived(40).is_some());
        assert_eq!(p.pop_head().unwrap().addr, 0);
        assert!(p.is_empty());
    }

    #[test]
    fn in_order_delivery() {
        let mut p = PersistPath::new(10, 1, 64);
        p.issue(0, entry(0, 1));
        p.issue(1, entry(8, 1));
        // Even at cycle 100 the head is the first-issued entry.
        assert_eq!(p.head_arrived(100).unwrap().addr, 0);
        p.pop_head();
        assert_eq!(p.head_arrived(100).unwrap().addr, 8);
    }

    #[test]
    fn conflict_check_by_line() {
        let mut p = PersistPath::new(10, 1, 64);
        p.issue(0, entry(0x148, 1));
        assert!(p.conflicts_with_line(0x140, 64));
        assert!(p.conflicts_with_line(0x100, 128));
        assert!(!p.conflicts_with_line(0x180, 64));
    }

    #[test]
    fn clear_models_power_failure() {
        let mut p = PersistPath::new(10, 1, 64);
        p.issue(0, entry(0, 1));
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.stats().0, 1, "issue count is a statistic, not state");
    }
}

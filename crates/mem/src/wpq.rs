//! The write pending queue (WPQ) used as a battery-backed redo buffer
//! (§III-A).
//!
//! Entries are 8-byte stores tagged with their region ID. The queue
//! *gates* (quarantines) them: entries flush to PM only when their
//! region matches the MC's flush ID and the region's boundary has been
//! acknowledged by every MC. The WPQ (and writes already issued from
//! it) are inside the persistence domain — their contents survive power
//! failure; everything upstream (store buffer, front-end buffer,
//! persist path) is volatile.

use crate::persist_path::{PersistEntry, PersistKind};
use crate::protocol::RegionId;
use std::collections::VecDeque;

/// One quarantined store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WpqEntry {
    /// Byte address (8-byte aligned).
    pub addr: u64,
    /// The value to persist.
    pub val: u64,
    /// The owning region.
    pub region: RegionId,
    /// True for the region-boundary token (the PC-checkpointing store,
    /// replicated to every MC; only the home copy writes PM).
    pub is_boundary: bool,
    /// True if this MC owns the entry's address (writes PM on flush).
    pub home: bool,
    /// The core that issued the store (per-core outstanding tracking).
    pub core: usize,
}

impl WpqEntry {
    /// Builds a WPQ entry from a delivered persist-path entry.
    pub fn from_persist(e: &PersistEntry, home: bool) -> WpqEntry {
        WpqEntry {
            addr: e.addr,
            val: e.val,
            region: e.region,
            is_boundary: e.kind == PersistKind::Boundary,
            home,
            core: e.core,
        }
    }
}

/// The battery-backed write pending queue of one MC.
#[derive(Clone, Debug)]
pub struct Wpq {
    /// Arrival-ordered queue. A ring buffer, because flush scheduling
    /// removes from the *front* (oldest-first) once per flushed entry —
    /// a `Vec` would shift the whole tail each time.
    entries: VecDeque<WpqEntry>,
    /// Entries per region, kept in lockstep with `entries` so the
    /// event-scan hot path answers [`Wpq::has_region`] /
    /// [`Wpq::count_region`] without walking the queue. Sorted by
    /// region ID and kept as a flat vec: regions arrive in roughly
    /// ascending order and drain from the oldest, so inserts probe from
    /// the back and lookups for the flush frontier hit the front — one
    /// compare each in the common case, no hashing.
    region_counts: Vec<(RegionId, u32)>,
    capacity: usize,
    inserts: u64,
    cam_searches: u64,
    cam_hits: u64,
    max_occupancy: usize,
    occupancy_accum: u64,
    occupancy_samples: u64,
}

impl Wpq {
    /// Creates a WPQ with `capacity` 8-byte entries (Table I: 64).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Wpq {
        assert!(capacity > 0, "WPQ capacity must be positive");
        Wpq {
            entries: VecDeque::with_capacity(capacity),
            region_counts: Vec::new(),
            capacity,
            inserts: 0,
            cam_searches: 0,
            cam_hits: 0,
            max_occupancy: 0,
            occupancy_accum: 0,
            occupancy_samples: 0,
        }
    }

    /// True if another entry fits.
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Inserts a delivered entry.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (callers must check
    /// [`Wpq::has_room`]; the persist path head-of-line blocks instead).
    #[inline]
    pub fn insert(&mut self, entry: WpqEntry) {
        assert!(
            self.has_room(),
            "WPQ overflow must be handled by the caller"
        );
        self.inserts += 1;
        self.count(entry.region);
        self.entries.push_back(entry);
        self.max_occupancy = self.max_occupancy.max(self.entries.len());
    }

    /// Adds one entry of `region` to the count index. New regions are
    /// the youngest almost always, so probe from the back.
    fn count(&mut self, region: RegionId) {
        let mut i = self.region_counts.len();
        while i > 0 {
            match self.region_counts[i - 1].0 {
                r if r == region => {
                    self.region_counts[i - 1].1 += 1;
                    return;
                }
                r if r < region => break,
                _ => i -= 1,
            }
        }
        self.region_counts.insert(i, (region, 1));
    }

    /// Removes one entry of `region` from the count index. Drained
    /// regions are the oldest almost always, so probe from the front.
    fn uncount(&mut self, region: RegionId) {
        let i = self
            .region_counts
            .iter()
            .position(|&(r, _)| r == region)
            .expect("count index out of sync");
        self.region_counts[i].1 -= 1;
        if self.region_counts[i].1 == 0 {
            self.region_counts.remove(i);
        }
    }

    /// CAM search for an LLC load miss (§IV-H): true if any entry falls
    /// within the cache line at `line_addr`.
    pub fn search_line(&mut self, line_addr: u64, line_bytes: u64) -> bool {
        self.cam_searches += 1;
        // One division to find the line base, then a range compare per
        // entry — not a division per entry.
        let lo = line_addr - line_addr % line_bytes;
        let hit = self
            .entries
            .iter()
            .any(|e| !e.is_boundary && e.addr.wrapping_sub(lo) < line_bytes);
        if hit {
            self.cam_hits += 1;
        }
        hit
    }

    /// Removes and returns the oldest entry of `region`, if any
    /// (allocation-free flush scheduling).
    pub fn take_one_of_region(&mut self, region: RegionId) -> Option<WpqEntry> {
        if !self.has_region(region) {
            return None;
        }
        let i = self.entries.iter().position(|e| e.region == region)?;
        self.uncount(region);
        // Gated flushing drains the frontier region, whose entries are
        // the oldest in the queue — `i == 0` is the common case and a
        // ring-buffer pop; interleaved younger regions pay the shift.
        if i == 0 {
            self.entries.pop_front()
        } else {
            self.entries.remove(i)
        }
    }

    /// Removes and returns the oldest entry regardless of region.
    pub fn take_one_oldest(&mut self) -> Option<WpqEntry> {
        let e = self.entries.pop_front()?;
        self.uncount(e.region);
        Some(e)
    }

    /// Removes and returns up to `max` entries of `region`, oldest
    /// first (flush scheduling).
    pub fn take_region(&mut self, region: RegionId, max: usize) -> Vec<WpqEntry> {
        let mut out = Vec::new();
        while out.len() < max {
            match self.take_one_of_region(region) {
                Some(e) => out.push(e),
                None => break,
            }
        }
        out
    }

    /// Removes and returns up to `max` entries in FIFO order regardless
    /// of region (ungated flushing, used by the PPA and cWSP baseline
    /// models that do not gate the WPQ).
    pub fn take_oldest(&mut self, max: usize) -> Vec<WpqEntry> {
        let n = max.min(self.entries.len());
        let out: Vec<WpqEntry> = self.entries.drain(..n).collect();
        for e in &out {
            self.uncount(e.region);
        }
        out
    }

    /// Number of entries belonging to `region` (one compare in the
    /// common frontier query, via the sorted count index).
    #[inline]
    pub fn count_region(&self, region: RegionId) -> usize {
        // The index is sorted ascending and queries target the flush
        // frontier — the oldest region — so scan from the front.
        for &(r, n) in &self.region_counts {
            if r >= region {
                return if r == region { n as usize } else { 0 };
            }
        }
        0
    }

    /// True if any entry belongs to `region` (via the count index).
    #[inline]
    pub fn has_region(&self, region: RegionId) -> bool {
        self.count_region(region) != 0
    }

    /// The §IV-D deadlock-detection bit: does the queue hold the
    /// boundary token for `region`?
    pub fn has_boundary_for(&self, region: RegionId) -> bool {
        self.entries
            .iter()
            .any(|e| e.is_boundary && e.region == region)
    }

    /// Drains every entry (power-failure recovery examines and then
    /// discards them).
    pub fn drain_all(&mut self) -> Vec<WpqEntry> {
        self.region_counts.clear();
        std::mem::take(&mut self.entries).into_iter().collect()
    }

    /// Read-only view of the queued entries in arrival order. Exposed
    /// for property tests that cross-check the O(1) per-region count
    /// index against a full recount; operational code uses the indexed
    /// accessors above.
    pub fn entries(&self) -> &VecDeque<WpqEntry> {
        &self.entries
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples the occupancy (call once per cycle for averages).
    pub fn sample_occupancy(&mut self) {
        self.occupancy_accum += self.entries.len() as u64;
        self.occupancy_samples += 1;
    }

    /// Records `cycles` consecutive occupancy samples at the current
    /// level in one step. Used by the event-driven stepper when it skips
    /// an interval during which the queue provably does not change:
    /// equivalent to calling [`Wpq::sample_occupancy`] once per cycle.
    pub fn sample_occupancy_n(&mut self, cycles: u64) {
        self.occupancy_accum += self.entries.len() as u64 * cycles;
        self.occupancy_samples += cycles;
    }

    /// `(inserts, CAM searches, CAM hits, max occupancy)`.
    pub fn stats(&self) -> (u64, u64, u64, usize) {
        (
            self.inserts,
            self.cam_searches,
            self.cam_hits,
            self.max_occupancy,
        )
    }

    /// Mean occupancy across sampled cycles.
    pub fn mean_occupancy(&self) -> f64 {
        if self.occupancy_samples == 0 {
            0.0
        } else {
            self.occupancy_accum as f64 / self.occupancy_samples as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(addr: u64, region: RegionId) -> WpqEntry {
        WpqEntry {
            addr,
            val: addr + 1,
            region,
            is_boundary: false,
            home: true,
            core: 0,
        }
    }

    fn boundary(region: RegionId) -> WpqEntry {
        WpqEntry {
            addr: 0x1000_0100,
            val: 0,
            region,
            is_boundary: true,
            home: true,
            core: 0,
        }
    }

    #[test]
    fn capacity_enforced() {
        let mut q = Wpq::new(2);
        q.insert(data(0, 1));
        q.insert(data(8, 1));
        assert!(!q.has_room());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn insert_into_full_panics() {
        let mut q = Wpq::new(1);
        q.insert(data(0, 1));
        q.insert(data(8, 1));
    }

    #[test]
    fn take_region_is_selective_and_ordered() {
        let mut q = Wpq::new(8);
        q.insert(data(0, 1));
        q.insert(data(8, 2));
        q.insert(data(16, 1));
        let taken = q.take_region(1, 10);
        assert_eq!(
            taken.iter().map(|e| e.addr).collect::<Vec<_>>(),
            vec![0, 16]
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.count_region(2), 1);
    }

    #[test]
    fn take_region_respects_max() {
        let mut q = Wpq::new(8);
        for i in 0..4 {
            q.insert(data(i * 8, 1));
        }
        let taken = q.take_region(1, 2);
        assert_eq!(taken.len(), 2);
        assert_eq!(q.count_region(1), 2);
    }

    #[test]
    fn cam_search_ignores_boundary_tokens() {
        let mut q = Wpq::new(8);
        q.insert(boundary(1));
        assert!(!q.search_line(0x1000_0100 & !63, 64));
        q.insert(data(0x200, 1));
        assert!(q.search_line(0x200, 64));
        let (_, searches, hits, _) = q.stats();
        assert_eq!((searches, hits), (2, 1));
    }

    #[test]
    fn deadlock_bit() {
        let mut q = Wpq::new(4);
        q.insert(data(0, 3));
        assert!(!q.has_boundary_for(3));
        q.insert(boundary(3));
        assert!(q.has_boundary_for(3));
        assert!(!q.has_boundary_for(4));
    }

    #[test]
    fn occupancy_tracking() {
        let mut q = Wpq::new(4);
        q.sample_occupancy();
        q.insert(data(0, 1));
        q.insert(data(8, 1));
        q.sample_occupancy();
        assert_eq!(q.stats().3, 2);
        assert!((q.mean_occupancy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn drain_all_empties() {
        let mut q = Wpq::new(4);
        q.insert(data(0, 1));
        q.insert(boundary(1));
        let drained = q.drain_all();
        assert_eq!(drained.len(), 2);
        assert!(q.is_empty());
    }
}

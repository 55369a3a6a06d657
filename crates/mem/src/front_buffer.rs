//! The front-end buffer (§III-A footnote 3): Intel's write-combining
//! buffer repurposed — with write combining disabled — as the staging
//! FIFO between the store buffer and the persist path.
//!
//! Its second job is **buffer snooping** (§IV-G): on a dirty L1
//! eviction, the cache CAM-searches this buffer (2 cycles, hidden under
//! the L2 access) for an entry to the same line; a hit is a *buffer
//! conflict* and redirects victim selection so a store always reaches
//! the MC before the cacheline eviction could, preventing stale loads.

use crate::line_filter::LineFilter;
use crate::persist_path::PersistEntry;
use std::collections::VecDeque;

/// The per-core front-end buffer.
#[derive(Clone, Debug)]
pub struct FrontBuffer {
    entries: VecDeque<PersistEntry>,
    capacity: usize,
    /// Incremental line-residency signature: rejects the eviction
    /// snoop's "any entry in line X?" with one table probe in the
    /// common no-occupant case (positives are confirmed by a scan).
    filter: LineFilter,
    pushes: u64,
    full_stalls: u64,
    searches: u64,
    search_hits: u64,
    max_occupancy: usize,
}

impl FrontBuffer {
    /// Creates a front-end buffer with `capacity` entries (aligned with
    /// the WPQ size, §IV-E) snooping at `line_bytes` granularity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `line_bytes` is zero.
    pub fn new(capacity: usize, line_bytes: u64) -> FrontBuffer {
        assert!(capacity > 0, "front buffer capacity must be positive");
        FrontBuffer {
            entries: VecDeque::new(),
            capacity,
            filter: LineFilter::new(line_bytes),
            pushes: 0,
            full_stalls: 0,
            searches: 0,
            search_hits: 0,
            max_occupancy: 0,
        }
    }

    /// True if another entry fits.
    #[inline]
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Accepts an entry from the store buffer; `false` (counted as a
    /// stall) if full.
    pub fn push(&mut self, entry: PersistEntry) -> bool {
        if !self.has_room() {
            self.full_stalls += 1;
            return false;
        }
        self.pushes += 1;
        self.filter.insert(entry.addr);
        self.entries.push_back(entry);
        self.max_occupancy = self.max_occupancy.max(self.entries.len());
        true
    }

    /// The oldest entry, if any.
    pub fn front(&self) -> Option<&PersistEntry> {
        self.entries.front()
    }

    /// Removes and returns the oldest entry (to the persist path).
    pub fn pop(&mut self) -> Option<PersistEntry> {
        let popped = self.entries.pop_front();
        if let Some(e) = &popped {
            self.filter.remove(e.addr);
        }
        popped
    }

    /// CAM search: is any buffered entry within the line at `line_addr`?
    ///
    /// At the buffer's own line granularity the residency signature
    /// answers the common no-occupant case with one table probe; a
    /// signature positive (real or collision) is confirmed by the
    /// linear scan, and a different `line_bytes` always scans. The
    /// combined answer is exact, so the search counters are identical
    /// to an always-scan implementation.
    pub fn search_line(&mut self, line_addr: u64, line_bytes: u64) -> bool {
        self.searches += 1;
        let hit = if line_bytes == self.filter.line_bytes()
            && !self.filter.maybe_contains_line(line_addr)
        {
            false
        } else {
            self.entries
                .iter()
                .any(|e| e.addr / line_bytes == line_addr / line_bytes)
        };
        if hit {
            self.search_hits += 1;
        }
        hit
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

    /// Discards everything (power failure: the buffer is volatile).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.filter.clear();
    }

    /// `(pushes, full-stalls, searches, search-hits, max occupancy)`.
    pub fn stats(&self) -> (u64, u64, u64, u64, usize) {
        (
            self.pushes,
            self.full_stalls,
            self.searches,
            self.search_hits,
            self.max_occupancy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist_path::PersistKind;

    fn entry(addr: u64) -> PersistEntry {
        PersistEntry {
            addr,
            val: 0,
            region: 1,
            kind: PersistKind::Data,
            core: 0,
        }
    }

    #[test]
    fn fifo_and_capacity() {
        let mut fb = FrontBuffer::new(2, 64);
        assert!(fb.push(entry(0)));
        assert!(fb.push(entry(8)));
        assert!(!fb.push(entry(16)), "full");
        assert_eq!(fb.pop().unwrap().addr, 0);
        assert!(fb.push(entry(16)));
        let (pushes, stalls, ..) = fb.stats();
        assert_eq!((pushes, stalls), (3, 1));
    }

    #[test]
    fn cam_search_by_line() {
        let mut fb = FrontBuffer::new(8, 64);
        fb.push(entry(0x148));
        assert!(fb.search_line(0x140, 64));
        assert!(!fb.search_line(0x180, 64));
        let (_, _, searches, hits, _) = fb.stats();
        assert_eq!((searches, hits), (2, 1));
    }

    #[test]
    fn cam_search_foreign_granularity_scans() {
        let mut fb = FrontBuffer::new(8, 64);
        fb.push(entry(0x148));
        // 128-byte probe ≠ the buffer's 64-byte table: linear fallback.
        assert!(fb.search_line(0x100, 128));
        assert!(!fb.search_line(0x200, 128));
    }

    #[test]
    fn filter_tracks_pop_and_clear() {
        let mut fb = FrontBuffer::new(8, 64);
        fb.push(entry(0x140));
        fb.push(entry(0x148));
        fb.pop();
        assert!(fb.search_line(0x140, 64), "second occupant remains");
        fb.pop();
        assert!(!fb.search_line(0x140, 64));
        fb.push(entry(0x180));
        fb.clear();
        assert!(!fb.search_line(0x180, 64));
    }

    #[test]
    fn max_occupancy_tracked() {
        let mut fb = FrontBuffer::new(4, 64);
        fb.push(entry(0));
        fb.push(entry(8));
        fb.pop();
        fb.push(entry(16));
        assert_eq!(fb.stats().4, 2);
    }
}

//! The per-core store buffer (SQ in Table I: 56 entries).
//!
//! Retired stores wait here before draining — one per cycle — into
//! *both* paths at once: the regular path (L1D write) and the persist
//! path (a copy pushed into the front-end buffer). When the front-end
//! buffer is full the store buffer cannot drain, and when the store
//! buffer is full the core stalls; this is the back-pressure chain
//! (§III-C) that the region-size threshold exists to keep empty.

use crate::persist_path::PersistEntry;
use std::collections::VecDeque;

/// A bounded FIFO of retired-but-unwritten stores.
#[derive(Clone, Debug)]
pub struct StoreBuffer {
    entries: VecDeque<PersistEntry>,
    capacity: usize,
    pushes: u64,
    full_stalls: u64,
}

impl StoreBuffer {
    /// Creates a store buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> StoreBuffer {
        assert!(capacity > 0, "store buffer capacity must be positive");
        StoreBuffer {
            entries: VecDeque::new(),
            capacity,
            pushes: 0,
            full_stalls: 0,
        }
    }

    /// True if another store can be accepted this cycle.
    #[inline]
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Accepts a retired store. Returns `false` (and counts a stall) if
    /// the buffer is full.
    #[inline]
    pub fn push(&mut self, entry: PersistEntry) -> bool {
        if !self.has_room() {
            self.full_stalls += 1;
            return false;
        }
        self.pushes += 1;
        self.entries.push_back(entry);
        true
    }

    /// The oldest entry, if any.
    pub fn front(&self) -> Option<&PersistEntry> {
        self.entries.front()
    }

    /// Removes and returns the oldest entry.
    #[inline]
    pub fn pop(&mut self) -> Option<PersistEntry> {
        self.entries.pop_front()
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

    /// Discards all contents (power failure: the store buffer is
    /// volatile).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// `(pushes, rejected-because-full)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.pushes, self.full_stalls)
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
    fn fifo_order() {
        let mut sb = StoreBuffer::new(4);
        assert!(sb.push(entry(8)));
        assert!(sb.push(entry(16)));
        assert_eq!(sb.pop().unwrap().addr, 8);
        assert_eq!(sb.pop().unwrap().addr, 16);
        assert!(sb.pop().is_none());
    }

    #[test]
    fn rejects_when_full_and_counts_stall() {
        let mut sb = StoreBuffer::new(2);
        assert!(sb.push(entry(0)));
        assert!(sb.push(entry(8)));
        assert!(!sb.has_room());
        assert!(!sb.push(entry(16)));
        assert_eq!(sb.stats(), (2, 1));
        assert_eq!(sb.len(), 2);
    }

    #[test]
    fn clear_empties() {
        let mut sb = StoreBuffer::new(2);
        sb.push(entry(0));
        sb.clear();
        assert!(sb.is_empty());
    }
}

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

/// Link value for "no slot".
const NIL: u32 = u32::MAX;

/// One slot of the WPQ's entry slab: an entry and its links.
#[derive(Clone, Copy, Debug)]
struct Slot {
    entry: WpqEntry,
    /// The next-older entry in arrival order.
    older: u32,
    /// The next-younger entry in arrival order; on a free slot, the
    /// next free slot.
    younger: u32,
    /// The next-younger entry of the same region.
    region_next: u32,
}

/// The entries of one region: their count and the oldest and youngest
/// slots of their arrival-ordered list.
#[derive(Clone, Copy, Debug)]
struct RegionList {
    region: RegionId,
    count: u32,
    head: u32,
    tail: u32,
}

/// The battery-backed write pending queue of one MC.
///
/// Entries live in a slab of at most `capacity` slots, linked twice:
/// into one arrival-ordered list, and into one arrival-ordered list per
/// region. Flush scheduling takes the frontier region's oldest entry,
/// and ungated flushing the oldest entry of all; each is a list head,
/// so both takes are O(1) however many younger entries arrived before
/// the frontier's.
#[derive(Clone, Debug)]
pub struct Wpq {
    slots: Vec<Slot>,
    /// Oldest and youngest entries in arrival order.
    oldest: u32,
    youngest: u32,
    /// Head of the free-slot list (linked through `younger`).
    free: u32,
    len: usize,
    /// The per-region lists, sorted by region ID and kept as a flat
    /// vec: regions arrive in roughly ascending order and drain from
    /// the oldest, so inserts probe from the back and lookups for the
    /// flush frontier hit the front — one compare each in the common
    /// case, no hashing. They also answer [`Wpq::has_region`] /
    /// [`Wpq::count_region`] without walking the queue. (A ring buffer
    /// here, to pop a drained frontier list off the front, measured
    /// slower.)
    regions: Vec<RegionList>,
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
    /// Panics if `capacity` is zero or does not fit a slot link.
    pub fn new(capacity: usize) -> Wpq {
        assert!(capacity > 0, "WPQ capacity must be positive");
        assert!(capacity < NIL as usize, "WPQ capacity too large");
        Wpq {
            slots: Vec::with_capacity(capacity),
            oldest: NIL,
            youngest: NIL,
            free: NIL,
            len: 0,
            regions: Vec::new(),
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
        self.len < self.capacity
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
        let slot = Slot {
            entry,
            older: self.youngest,
            younger: NIL,
            region_next: NIL,
        };
        let s = if self.free != NIL {
            let s = self.free;
            self.free = self.slots[s as usize].younger;
            self.slots[s as usize] = slot;
            s
        } else {
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        };
        match self.youngest {
            NIL => self.oldest = s,
            y => self.slots[y as usize].younger = s,
        }
        self.youngest = s;
        self.len += 1;
        self.link_region(entry.region, s);
        self.max_occupancy = self.max_occupancy.max(self.len);
    }

    /// Appends slot `s` to `region`'s list. New regions are the
    /// youngest almost always, so probe from the back.
    fn link_region(&mut self, region: RegionId, s: u32) {
        let mut i = self.regions.len();
        while i > 0 {
            let r = &mut self.regions[i - 1];
            if r.region == region {
                r.count += 1;
                let tail = std::mem::replace(&mut r.tail, s);
                self.slots[tail as usize].region_next = s;
                return;
            }
            if r.region < region {
                break;
            }
            i -= 1;
        }
        self.regions.insert(
            i,
            RegionList {
                region,
                count: 1,
                head: s,
                tail: s,
            },
        );
    }

    /// Index of `region`'s list, if it has entries. Queries target the
    /// flush frontier — the oldest region — so scan from the front.
    #[inline]
    fn region_index(&self, region: RegionId) -> Option<usize> {
        for (i, r) in self.regions.iter().enumerate() {
            if r.region >= region {
                return (r.region == region).then_some(i);
            }
        }
        None
    }

    /// Removes the oldest entry of the region list at `i` from the
    /// queue and returns it.
    fn take_head(&mut self, i: usize) -> WpqEntry {
        let r = &mut self.regions[i];
        let s = r.head;
        r.count -= 1;
        if r.count == 0 {
            self.regions.remove(i);
        } else {
            r.head = self.slots[s as usize].region_next;
        }
        let Slot {
            entry,
            older,
            younger,
            ..
        } = self.slots[s as usize];
        match older {
            NIL => self.oldest = younger,
            o => self.slots[o as usize].younger = younger,
        }
        match younger {
            NIL => self.youngest = older,
            y => self.slots[y as usize].older = older,
        }
        self.slots[s as usize].younger = self.free;
        self.free = s;
        self.len -= 1;
        entry
    }

    /// Arrival-ordered walk of the list starting at slot `s`, following
    /// `next`.
    fn walk(&self, mut s: u32, next: fn(&Slot) -> u32) -> impl Iterator<Item = &WpqEntry> + '_ {
        std::iter::from_fn(move || {
            (s != NIL).then(|| {
                let slot = &self.slots[s as usize];
                s = next(slot);
                &slot.entry
            })
        })
    }

    /// CAM search for an LLC load miss (§IV-H): true if any entry falls
    /// within the cache line at `line_addr`.
    pub fn search_line(&mut self, line_addr: u64, line_bytes: u64) -> bool {
        self.cam_searches += 1;
        // One division to find the line base, then a range compare per
        // entry — not a division per entry.
        let lo = line_addr - line_addr % line_bytes;
        let hit = self
            .entries()
            .any(|e| !e.is_boundary && e.addr.wrapping_sub(lo) < line_bytes);
        if hit {
            self.cam_hits += 1;
        }
        hit
    }

    /// Removes and returns the oldest entry of `region`, if any
    /// (allocation-free flush scheduling): the head of its list.
    #[inline]
    pub fn take_one_of_region(&mut self, region: RegionId) -> Option<WpqEntry> {
        let i = self.region_index(region)?;
        Some(self.take_head(i))
    }

    /// Removes and returns the oldest entry regardless of region. It
    /// heads its region's list too.
    pub fn take_one_oldest(&mut self) -> Option<WpqEntry> {
        if self.oldest == NIL {
            return None;
        }
        let region = self.slots[self.oldest as usize].entry.region;
        let i = self.region_index(region).expect("region lists out of sync");
        debug_assert_eq!(self.regions[i].head, self.oldest);
        Some(self.take_head(i))
    }

    /// Removes and returns up to `max` entries of `region`, oldest
    /// first (flush scheduling).
    pub fn take_region(&mut self, region: RegionId, max: usize) -> Vec<WpqEntry> {
        std::iter::from_fn(|| self.take_one_of_region(region))
            .take(max)
            .collect()
    }

    /// Removes and returns up to `max` entries in FIFO order regardless
    /// of region (ungated flushing, used by the PPA and cWSP baseline
    /// models that do not gate the WPQ).
    pub fn take_oldest(&mut self, max: usize) -> Vec<WpqEntry> {
        std::iter::from_fn(|| self.take_one_oldest())
            .take(max)
            .collect()
    }

    /// Number of entries belonging to `region` (one compare in the
    /// common frontier query, via the sorted region lists).
    #[inline]
    pub fn count_region(&self, region: RegionId) -> usize {
        self.region_index(region)
            .map_or(0, |i| self.regions[i].count as usize)
    }

    /// True if any entry belongs to `region` (via the region lists).
    #[inline]
    pub fn has_region(&self, region: RegionId) -> bool {
        self.region_index(region).is_some()
    }

    /// The §IV-D deadlock-detection bit: does the queue hold the
    /// boundary token for `region`? Walks `region`'s entries only.
    pub fn has_boundary_for(&self, region: RegionId) -> bool {
        self.region_index(region).is_some_and(|i| {
            self.walk(self.regions[i].head, |s| s.region_next)
                .any(|e| e.is_boundary)
        })
    }

    /// Drains every entry in arrival order (power-failure recovery
    /// examines and then discards them).
    pub fn drain_all(&mut self) -> Vec<WpqEntry> {
        let all = self.entries().copied().collect();
        self.slots.clear();
        self.regions.clear();
        (self.oldest, self.youngest, self.free, self.len) = (NIL, NIL, NIL, 0);
        all
    }

    /// The queued entries in arrival order.
    pub fn entries(&self) -> impl Iterator<Item = &WpqEntry> + '_ {
        self.walk(self.oldest, |s| s.younger)
    }

    /// The queued entries region by region in ascending region ID, each
    /// region's in arrival order: the arrival order stably sorted by
    /// region, the order the §IV-F battery flush writes them.
    pub fn entries_by_region(&self) -> impl Iterator<Item = &WpqEntry> + '_ {
        self.regions
            .iter()
            .flat_map(move |r| self.walk(r.head, |s| s.region_next))
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples the occupancy (call once per cycle for averages).
    pub fn sample_occupancy(&mut self) {
        self.occupancy_accum += self.len as u64;
        self.occupancy_samples += 1;
    }

    /// Records `cycles` consecutive occupancy samples at the current
    /// level in one step. Used by the event-driven stepper when it skips
    /// an interval during which the queue provably does not change:
    /// equivalent to calling [`Wpq::sample_occupancy`] once per cycle.
    pub fn sample_occupancy_n(&mut self, cycles: u64) {
        self.occupancy_accum += self.len as u64 * cycles;
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

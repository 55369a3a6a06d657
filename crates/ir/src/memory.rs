//! Sparse copy-on-write word memory.
//!
//! Split out of `interp.rs` so both execution engines (the tree-walking
//! reference interpreter and the pre-decoded micro-op engine in
//! [`crate::exec`]) share one memory implementation; `interp` re-exports
//! [`Memory`] for compatibility.
//!
//! Hot-path layout: words live in 512-byte pages indexed by a private
//! open-addressed hash table on the page number (`PageTable`), fronted
//! by a one-entry *last-page cache* that remembers the slot index of the
//! most recently accessed page. Sequential access — the dominant pattern
//! of the workloads — then costs a compare plus an array index per word
//! instead of a hash probe per word. The cache stores a **slot index**,
//! never a page pointer: caching an `Arc<Page>` clone would keep the
//! refcount above one and make [`Arc::make_mut`] deep-copy on every
//! write, silently destroying the copy-on-write fork economics.

use std::sync::Arc;

/// Words per memory page (64 words = one 512-byte page, so a page's
/// touched-word set fits a single `u64` bitmask).
const PAGE_WORDS: usize = 64;
const PAGE_SHIFT: u32 = 9; // log2(PAGE_WORDS * 8)

/// Sentinel page number for an empty last-page cache. Real page numbers
/// are byte addresses shifted right by [`PAGE_SHIFT`], so they can never
/// reach `u64::MAX`.
const NO_PAGE: u64 = u64::MAX;

/// Multiplicative hash constant (the Fx/FNV-style odd multiplier also
/// used by [`crate::fxhash`]).
const FX_MUL: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One 512-byte page: backing words plus a bitmask of which words have
/// been written (so untouched-vs-written-zero stays distinguishable, as
/// with the original per-word hash map).
#[derive(Clone, Debug)]
struct Page {
    words: [u64; PAGE_WORDS],
    written: u64,
}

impl Page {
    fn new() -> Page {
        Page {
            words: [0u64; PAGE_WORDS],
            written: 0,
        }
    }
}

/// A page two memories may disagree on: its page number and its words
/// on each side (`None` where that side has no such page).
type CandidatePage<'a> = (
    u64,
    Option<&'a [u64; PAGE_WORDS]>,
    Option<&'a [u64; PAGE_WORDS]>,
);

/// Open-addressed page-number → page map with linear probing, power-of-
/// two capacity and no deletion (memory pages are never freed within a
/// run). Compared to the previous `FxHashMap`, entries have *stable slot
/// indices between resizes*, which is what makes the one-entry slot
/// cache in [`Memory`] sound.
#[derive(Clone, Debug, Default)]
struct PageTable {
    /// `None` = empty slot. Capacity is always zero or a power of two.
    slots: Vec<Option<(u64, Arc<Page>)>>,
    len: usize,
    /// `64 - log2(capacity)`; top product bits index the table.
    shift: u32,
}

impl PageTable {
    #[inline]
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(FX_MUL) >> self.shift) as usize
    }

    /// Slot holding `page` (`Ok`) or the empty slot where it would be
    /// inserted (`Err`). Capacity must be non-zero.
    #[inline]
    fn find(&self, page: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(page);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == page => return Ok(i),
                Some(_) => i = (i + 1) & mask,
                None => return Err(i),
            }
        }
    }

    #[inline]
    fn get(&self, page: u64) -> Option<&Arc<Page>> {
        if self.slots.is_empty() {
            return None;
        }
        match self.find(page) {
            Ok(i) => Some(&self.slots[i].as_ref().unwrap().1),
            Err(_) => None,
        }
    }

    /// Slot index of `page`, inserting a fresh page (and growing the
    /// table) if absent. Any previously obtained slot index is invalid
    /// after this call — callers must refresh their cache from the
    /// returned index.
    fn insert_slot(&mut self, page: u64) -> usize {
        // Keep load below 7/8 so probe chains stay short.
        if self.slots.is_empty() || (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        match self.find(page) {
            Ok(i) => i,
            Err(i) => {
                self.slots[i] = Some((page, Arc::new(Page::new())));
                self.len += 1;
                i
            }
        }
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![None; cap]);
        self.shift = 64 - cap.trailing_zeros();
        let mask = cap - 1;
        for entry in old.into_iter().flatten() {
            let mut i = self.home(entry.0);
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some(entry);
        }
    }

    fn iter(&self) -> impl Iterator<Item = (u64, &Arc<Page>)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, p)| (*k, p)))
    }
}

/// Sparse 8-byte-word memory. Reads of untouched words return zero.
///
/// Words live in 512-byte copy-on-write pages (see the module docs for
/// the lookup structure): pages sit behind [`Arc`], so `clone()` is a
/// shallow O(pages-table) snapshot that bumps refcounts, and a write to
/// a shared page materialises a private copy via [`Arc::make_mut`].
/// This is what makes machine forking (the crash-sweep engine) cheap: a
/// snapshot costs O(dirty pages since the snapshot), not O(memory
/// footprint). Comparisons ([`Memory::first_difference`],
/// [`Memory::same_contents`]) exploit sharing too — a page physically
/// shared between the two sides cannot differ and is skipped without
/// reading a word.
///
/// A per-page bitmask preserves per-word semantics exactly: `len()`
/// counts *touched* words and `iter()` yields only touched words, even
/// when the written value is zero.
#[derive(Clone, Debug)]
pub struct Memory {
    table: PageTable,
    touched: usize,
    /// Last-page cache: page number and its slot index in `table`.
    /// Always coherent — refreshed by every path that can move slots
    /// (only [`PageTable::insert_slot`]) and copied verbatim by
    /// `clone()` (slot layout is cloned too, so it stays valid).
    last_page: u64,
    last_slot: u32,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            table: PageTable::default(),
            touched: 0,
            last_page: NO_PAGE,
            last_slot: 0,
        }
    }
}

impl Memory {
    /// An empty (all-zero) memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    fn align(addr: u64) -> u64 {
        addr & !7
    }

    #[inline]
    fn split(addr: u64) -> (u64, usize) {
        let aligned = Self::align(addr);
        (
            aligned >> PAGE_SHIFT,
            ((aligned >> 3) as usize) & (PAGE_WORDS - 1),
        )
    }

    /// Reads the 8-byte word containing `addr`.
    ///
    /// Checks the last-page cache but cannot refresh it (shared
    /// receiver); the execution engines use [`Memory::read_word_cached`]
    /// on their hot path.
    #[inline]
    pub fn read_word(&self, addr: u64) -> u64 {
        let (page, idx) = Self::split(addr);
        if page == self.last_page {
            return self.table.slots[self.last_slot as usize]
                .as_ref()
                .unwrap()
                .1
                .words[idx];
        }
        match self.table.get(page) {
            Some(p) => p.words[idx],
            None => 0,
        }
    }

    /// Reads the 8-byte word containing `addr`, refreshing the
    /// last-page cache so a following access to the same page skips the
    /// hash probe. Semantically identical to [`Memory::read_word`].
    #[inline]
    pub fn read_word_cached(&mut self, addr: u64) -> u64 {
        let (page, idx) = Self::split(addr);
        if page == self.last_page {
            return self.table.slots[self.last_slot as usize]
                .as_ref()
                .unwrap()
                .1
                .words[idx];
        }
        if self.table.slots.is_empty() {
            return 0;
        }
        match self.table.find(page) {
            Ok(i) => {
                self.last_page = page;
                self.last_slot = i as u32;
                self.table.slots[i].as_ref().unwrap().1.words[idx]
            }
            // Absent pages are *not* cached: a subsequent write must
            // take the insert path.
            Err(_) => 0,
        }
    }

    /// Writes the 8-byte word containing `addr`.
    ///
    /// If the target page is shared with a snapshot, this is the
    /// copy-on-write point: the page is duplicated before mutation.
    #[inline]
    pub fn write_word(&mut self, addr: u64, val: u64) {
        let (page, idx) = Self::split(addr);
        let slot = if page == self.last_page {
            self.last_slot as usize
        } else {
            let s = self.table.insert_slot(page);
            self.last_page = page;
            self.last_slot = s as u32;
            s
        };
        let p = Arc::make_mut(&mut self.table.slots[slot].as_mut().unwrap().1);
        let bit = 1u64 << idx;
        if p.written & bit == 0 {
            p.written |= bit;
            self.touched += 1;
        }
        p.words[idx] = val;
    }

    /// Iterates over `(address, value)` pairs of touched words.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.table.iter().flat_map(|(page, p)| {
            let base = page << PAGE_SHIFT;
            (0..PAGE_WORDS)
                .filter(move |&i| p.written & (1u64 << i) != 0)
                .map(move |i| (base + (i as u64) * 8, p.words[i]))
        })
    }

    /// Number of touched words.
    pub fn len(&self) -> usize {
        self.touched
    }

    /// True if no word has been written.
    pub fn is_empty(&self) -> bool {
        self.touched == 0
    }

    /// Pages where the two memories might disagree, in ascending page
    /// order, each with its words on both sides (`None` where a side
    /// lacks the page): pages present on either side that are not
    /// physically shared. A page shared via [`Arc`] is bit-identical by
    /// construction and needs no inspection — on COW snapshots this
    /// prunes the comparison to the pages dirtied since the fork. Each
    /// side's table is probed at most once per page.
    fn candidate_pages<'a>(&'a self, other: &'a Memory) -> Vec<CandidatePage<'a>> {
        let mut pages: Vec<CandidatePage<'a>> = self
            .table
            .iter()
            .filter_map(|(pg, p)| {
                let q = other.table.get(pg);
                (!q.is_some_and(|q| Arc::ptr_eq(p, q)))
                    .then(|| (pg, Some(&p.words), q.map(|q| &q.words)))
            })
            .collect();
        pages.extend(
            other
                .table
                .iter()
                .filter(|(pg, _)| self.table.get(*pg).is_none())
                .map(|(pg, q)| (pg, None, Some(&q.words))),
        );
        pages.sort_unstable_by_key(|&(pg, _, _)| pg);
        pages
    }

    /// True if the two memories agree on every touched word (untouched
    /// words read as zero on both sides).
    pub fn same_contents(&self, other: &Memory) -> bool {
        self.first_difference(other).is_none()
    }

    /// The first (lowest-address) word where the two memories disagree,
    /// for diagnostics. Untouched words read as zero on both sides, so
    /// only pages that are present somewhere and not physically shared
    /// need scanning.
    pub fn first_difference(&self, other: &Memory) -> Option<(u64, u64, u64)> {
        self.first_difference_where(other, |_| true)
    }

    /// Like [`Memory::first_difference`], but only considers addresses
    /// for which `include` returns true. Consistency checkers use this
    /// to exclude recovery metadata (checkpoint/PC slots), whose final
    /// contents are timing-dependent: forced region closes dump the live
    /// register file at whatever point the timeout or spin fired.
    ///
    /// Compares page against page: a page missing on one side reads as
    /// zeros, equal pages are skipped after one whole-page test, and
    /// `include` is asked only about words that differ.
    pub fn first_difference_where(
        &self,
        other: &Memory,
        include: impl Fn(u64) -> bool,
    ) -> Option<(u64, u64, u64)> {
        const ZEROS: [u64; PAGE_WORDS] = [0; PAGE_WORDS];
        for (pg, x, y) in self.candidate_pages(other) {
            let (x, y) = (x.unwrap_or(&ZEROS), y.unwrap_or(&ZEROS));
            if x == y {
                continue;
            }
            let base = pg << PAGE_SHIFT;
            for (i, (&u, &v)) in x.iter().zip(y).enumerate() {
                let a = base + (i as u64) * 8;
                if u != v && include(a) {
                    return Some((a, u, v));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_zero_default_and_alignment() {
        let mut m = Memory::new();
        assert_eq!(m.read_word(0x1234), 0);
        m.write_word(0x1001, 7); // unaligned address hits word 0x1000
        assert_eq!(m.read_word(0x1000), 7);
        assert_eq!(m.read_word(0x1007), 7);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn memory_comparison() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write_word(8, 1);
        assert!(!a.same_contents(&b));
        assert_eq!(a.first_difference(&b), Some((8, 1, 0)));
        b.write_word(8, 1);
        // Explicit zero vs untouched are equal.
        a.write_word(16, 0);
        assert!(a.same_contents(&b));
        assert_eq!(a.first_difference(&b), None);
    }

    /// A page present on one side only compares against zeros: a page
    /// holding only written zeros equals its absence, a nonzero word
    /// differs, and the report keeps each side's value in place.
    #[test]
    fn one_sided_page_compares_against_zeros() {
        let mut a = Memory::new();
        let b = Memory::new();
        a.write_word(0x2000, 0);
        a.write_word(0x2008, 0);
        assert_eq!(a.first_difference(&b), None);
        assert_eq!(b.first_difference(&a), None);
        a.write_word(0x2010, 5);
        assert_eq!(a.first_difference(&b), Some((0x2010, 5, 0)));
        assert_eq!(b.first_difference(&a), Some((0x2010, 0, 5)));
    }

    /// On a page both sides hold, a written zero equals an untouched
    /// word.
    #[test]
    fn written_zero_equals_untouched_word_on_a_common_page() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write_word(0x4000, 7);
        b.write_word(0x4000, 7);
        a.write_word(0x4008, 0);
        assert_eq!(a.first_difference(&b), None);
        b.write_word(0x4010, 1);
        assert_eq!(a.first_difference(&b), Some((0x4010, 0, 1)));
    }

    /// An `include` filter that rejects the first differing word makes
    /// the next differing word the answer, on the same page or a later
    /// one.
    #[test]
    fn include_filter_skips_to_the_next_difference() {
        let mut a = Memory::new();
        let b = Memory::new();
        a.write_word(0x1000, 1);
        a.write_word(0x1010, 2);
        a.write_word(0x3000, 3);
        assert_eq!(a.first_difference(&b), Some((0x1000, 1, 0)));
        assert_eq!(
            a.first_difference_where(&b, |x| x != 0x1000),
            Some((0x1010, 2, 0))
        );
        assert_eq!(
            a.first_difference_where(&b, |x| x >= 0x2000),
            Some((0x3000, 3, 0))
        );
        assert_eq!(a.first_difference_where(&b, |x| x < 0x800), None);
    }

    /// The lowest differing address wins across several candidate
    /// pages, whatever order the page tables hold them in.
    #[test]
    fn lowest_difference_across_candidate_pages() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        for pg in (0..40u64).rev() {
            a.write_word(pg * 512 + 8, pg);
            b.write_word(pg * 512 + 8, pg);
        }
        for pg in [31u64, 7, 22] {
            a.write_word(pg * 512 + 16, 100 + pg);
        }
        b.write_word(12 * 512 + 24, 9);
        assert_eq!(a.first_difference(&b), Some((7 * 512 + 16, 107, 0)));
        assert_eq!(b.first_difference(&a), Some((7 * 512 + 16, 0, 107)));
        assert_eq!(
            a.first_difference_where(&b, |x| x >> PAGE_SHIFT != 7),
            Some((12 * 512 + 24, 0, 9))
        );
    }

    /// Pointer-shared pages are never candidates; an unshared page with
    /// equal words is one but compares equal.
    #[test]
    fn shared_pages_are_skipped() {
        let mut a = Memory::new();
        for pg in 0..8u64 {
            a.write_word(pg * 512, pg + 1);
        }
        let mut b = a.clone();
        assert!(a.candidate_pages(&b).is_empty());
        b.write_word(3 * 512 + 8, 42);
        b.write_word(100 * 512, 1);
        let pages: Vec<u64> = a.candidate_pages(&b).iter().map(|c| c.0).collect();
        assert_eq!(pages, vec![3, 100]);
        assert_eq!(a.first_difference(&b), Some((3 * 512 + 8, 0, 42)));

        let mut c = Memory::new();
        for pg in 0..8u64 {
            c.write_word(pg * 512, pg + 1);
        }
        assert_eq!(a.candidate_pages(&c).len(), 8);
        assert!(a.same_contents(&c));
    }

    /// Counts pages physically shared (same `Arc`) between two memories.
    fn shared_pages(a: &Memory, b: &Memory) -> usize {
        a.table
            .iter()
            .filter(|(k, p)| b.table.get(*k).is_some_and(|q| Arc::ptr_eq(p, q)))
            .count()
    }

    #[test]
    fn memory_clone_is_copy_on_write() {
        let mut a = Memory::new();
        a.write_word(8, 1);
        a.write_word(0x1000, 2);
        let snap = a.clone();
        // The snapshot physically shares both pages with the original.
        assert_eq!(shared_pages(&a, &snap), 2);
        assert!(a.same_contents(&snap));
        // Writing through the original diverges only the touched page;
        // the snapshot is unaffected.
        a.write_word(8, 99);
        a.write_word(0x2000, 3);
        assert_eq!(snap.read_word(8), 1);
        assert_eq!(snap.read_word(0x2000), 0);
        assert_eq!(snap.len(), 2);
        assert_eq!(a.len(), 3);
        assert_eq!(a.first_difference(&snap), Some((8, 99, 1)));
        assert_eq!(snap.first_difference(&a), Some((8, 1, 99)));
        // The untouched page stays shared after the divergence.
        assert_eq!(shared_pages(&a, &snap), 1);
    }

    /// The last-page cache must never pin an extra `Arc` reference: a
    /// freshly cloned snapshot's pages stay shared until *written*, even
    /// when the cache points at them, and writes still COW correctly.
    #[test]
    fn last_page_cache_does_not_break_cow() {
        let mut a = Memory::new();
        for i in 0..200u64 {
            a.write_word(i * 512, i); // 200 distinct pages, forces resizes
        }
        let snap = a.clone();
        assert_eq!(shared_pages(&a, &snap), 200);
        // Read through the cache on both sides: sharing must survive.
        assert_eq!(a.read_word_cached(5 * 512), 5);
        assert_eq!(shared_pages(&a, &snap), 200);
        // A cached-page write diverges exactly one page.
        a.write_word(5 * 512, 999);
        assert_eq!(shared_pages(&a, &snap), 199);
        assert_eq!(snap.read_word(5 * 512), 5);
    }

    /// Sequential access across a resize: the cache is refreshed on the
    /// insert path, so values stay correct through table growth.
    #[test]
    fn resize_keeps_cache_coherent() {
        let mut m = Memory::new();
        for i in 0..1000u64 {
            m.write_word(i * 8, i); // sequential within pages
            m.write_word(i * 512 + 0x10_0000, i); // new page per iter
        }
        for i in 0..1000u64 {
            assert_eq!(m.read_word_cached(i * 8), i);
            assert_eq!(m.read_word(i * 512 + 0x10_0000), i);
        }
        assert_eq!(m.len(), 2000);
        assert_eq!(m.iter().count(), 2000);
    }
}

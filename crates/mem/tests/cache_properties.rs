//! Property-based cache tests: the set-associative model must agree
//! with a straightforward reference LRU implementation on hit/miss
//! behaviour, and the direct-mapped model with a reference map and,
//! warm lines included, with an eagerly prefilled reference.

use lightwsp_mem::cache::{DirectMappedCache, SetAssocCache, VictimPolicy};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Reference LRU cache: per set, a recency-ordered list of tags.
struct RefLru {
    sets: Vec<VecDeque<u64>>,
    ways: usize,
    line: u64,
}

impl RefLru {
    fn new(sets: usize, ways: usize, line: u64) -> RefLru {
        RefLru {
            sets: vec![VecDeque::new(); sets],
            ways,
            line,
        }
    }

    /// Returns true on hit.
    fn access(&mut self, addr: u64) -> bool {
        let l = addr / self.line;
        let set = (l % self.sets.len() as u64) as usize;
        let tag = l / self.sets.len() as u64;
        let q = &mut self.sets[set];
        if let Some(pos) = q.iter().position(|&t| t == tag) {
            q.remove(pos);
            q.push_back(tag);
            true
        } else {
            if q.len() == self.ways {
                q.pop_front();
            }
            q.push_back(tag);
            false
        }
    }
}

/// Eager reference for the direct-mapped cache: one slot per set, and
/// a prefill writes every line of its range into its slot in order.
struct RefDirect {
    slots: Vec<Option<(u64, bool)>>, // (line, dirty)
    hits: u64,
    misses: u64,
}

impl RefDirect {
    fn new(sets: u64) -> RefDirect {
        RefDirect {
            slots: vec![None; sets as usize],
            hits: 0,
            misses: 0,
        }
    }

    fn slot(&mut self, line: u64) -> &mut Option<(u64, bool)> {
        let sets = self.slots.len() as u64;
        &mut self.slots[(line % sets) as usize]
    }

    fn access(&mut self, addr: u64, write: bool) -> (bool, Option<u64>) {
        let line = addr / 64;
        match self.slot(line) {
            Some((l, dirty)) if *l == line => {
                *dirty |= write;
                self.hits += 1;
                (true, None)
            }
            slot => {
                let evicted = slot.and_then(|(l, dirty)| dirty.then_some(l * 64));
                *slot = Some((line, write));
                self.misses += 1;
                (false, evicted)
            }
        }
    }

    fn prefill(&mut self, start: u64, end: u64) {
        for line in start / 64..end.div_ceil(64) {
            *self.slot(line) = Some((line, false));
        }
    }
}

proptest! {
    /// With snooping disabled (no conflicts), the model's hit/miss trace
    /// matches the reference LRU exactly.
    #[test]
    fn set_assoc_matches_reference_lru(
        addrs in prop::collection::vec(0u64..(1 << 14), 1..400),
        sets_log2 in 1u32..5,
        ways in 1usize..8,
    ) {
        let sets = 1usize << sets_log2;
        let mut model = SetAssocCache::new(sets, ways, 64);
        let mut reference = RefLru::new(sets, ways, 64);
        for &a in &addrs {
            let r = model.access(a, false, VictimPolicy::StaleLoad, |_| false);
            let want = reference.access(a);
            prop_assert_eq!(r.hit, want, "divergence at addr {:#x}", a);
        }
        let (h, m) = model.hit_miss();
        prop_assert_eq!((h + m) as usize, addrs.len());
    }

    /// Dirty data is never silently lost: every line written is either
    /// still present or was reported evicted as dirty.
    #[test]
    fn dirty_lines_are_tracked(
        writes in prop::collection::vec(0u64..(1 << 13), 1..200),
    ) {
        let mut model = SetAssocCache::new(4, 2, 64);
        let mut dirty_out = std::collections::BTreeSet::new();
        let mut written = std::collections::BTreeSet::new();
        for &a in &writes {
            let line = a & !63;
            written.insert(line);
            let r = model.access(a, true, VictimPolicy::StaleLoad, |_| false);
            if let Some((ev, true)) = r.evicted {
                dirty_out.insert(ev);
            }
        }
        for &line in &written {
            prop_assert!(
                model.probe(line) || dirty_out.contains(&line),
                "dirty line {:#x} vanished",
                line
            );
        }
    }

    /// The direct-mapped cache hits iff the reference map says so.
    #[test]
    fn direct_mapped_matches_reference(
        addrs in prop::collection::vec(0u64..(1 << 16), 1..300),
        capacity_lines in 1u64..64,
    ) {
        let mut model = DirectMappedCache::new(capacity_lines * 64, 64);
        let mut reference: Vec<Option<u64>> = vec![None; capacity_lines as usize];
        for &a in &addrs {
            let line = a / 64;
            let set = (line % capacity_lines) as usize;
            let (hit, _) = model.access(a, false);
            prop_assert_eq!(hit, reference[set] == Some(line), "addr {:#x}", a);
            reference[set] = Some(line);
        }
    }

    /// Warm lines kept as ranges behave exactly like lines inserted one
    /// by one: every access returns the same `(hit, evicted)` and the
    /// counters agree, across overlapping ranges, ranges longer than
    /// the cache or wrapping its set index, prefills after accesses,
    /// and power-failure invalidations mid-stream, on power-of-two and
    /// other set counts.
    #[test]
    fn direct_mapped_warm_ranges_match_eager_prefill(
        ops in prop::collection::vec(
            (0u8..12, 0u64..(1 << 14), 0u64..6_000, any::<bool>()),
            1..300,
        ),
        sets in 1u64..64,
    ) {
        let mut model = DirectMappedCache::new(sets * 64, 64);
        let mut reference = RefDirect::new(sets);
        for &(kind, addr, len, write) in &ops {
            match kind {
                0..=8 => {
                    prop_assert_eq!(
                        model.access(addr, write),
                        reference.access(addr, write),
                        "addr {:#x}",
                        addr
                    );
                }
                9 | 10 => {
                    model.prefill_range(addr, addr + len);
                    reference.prefill(addr, addr + len);
                }
                _ => {
                    model.invalidate_all();
                    reference.slots.fill(None);
                }
            }
        }
        prop_assert_eq!(model.hit_miss(), (reference.hits, reference.misses));
    }
}

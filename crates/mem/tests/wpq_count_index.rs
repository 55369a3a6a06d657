//! Property tests for the WPQ's per-region lists.
//!
//! The event-driven stepper trusts `count_region`/`has_region` to
//! answer from the region lists without walking the queue; a stale
//! count would silently corrupt flush scheduling and the skip-ahead
//! event scan. Flush scheduling trusts each region's list to hand out
//! its oldest entry, and the battery flush trusts the by-region walk.
//! Both sides of every mode-parity pair share the WPQ, so an ordering
//! bug here would leave every parity suite green. These properties
//! drive the queue through random mutator sequences and check it after
//! every step against a recount from the raw entry list
//! ([`Wpq::entries`]) and against a reference model: a plain
//! arrival-ordered `VecDeque`, searched and shifted the simple way.

use lightwsp_mem::wpq::{Wpq, WpqEntry};
use proptest::prelude::*;
use std::collections::VecDeque;

/// A randomly chosen queue mutation.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Insert an entry of the given region (skipped when full).
    Insert { region: u64, boundary: bool },
    /// `take_one_of_region(region)`.
    TakeOneOfRegion { region: u64 },
    /// `take_one_oldest()`.
    TakeOneOldest,
    /// `take_region(region, max)`.
    TakeRegion { region: u64, max: usize },
    /// `take_oldest(max)`.
    TakeOldest { max: usize },
    /// `drain_all()`.
    DrainAll,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Region IDs drawn from a tiny pool so mutators actually collide.
    prop_oneof![
        (1u64..6, any::<bool>()).prop_map(|(region, boundary)| Op::Insert { region, boundary }),
        (1u64..6).prop_map(|region| Op::TakeOneOfRegion { region }),
        Just(Op::TakeOneOldest),
        (1u64..6, 0usize..5).prop_map(|(region, max)| Op::TakeRegion { region, max }),
        (0usize..5).prop_map(|max| Op::TakeOldest { max }),
        Just(Op::DrainAll),
    ]
}

/// Recounts per-region occupancy from the raw entry list.
fn recount(q: &Wpq, region: u64) -> usize {
    q.entries().filter(|e| e.region == region).count()
}

/// The reference WPQ: one arrival-ordered queue; a region's oldest
/// entry is found by a scan and removed by a shift.
#[derive(Default)]
struct Model {
    queue: VecDeque<WpqEntry>,
}

impl Model {
    fn take_one_of_region(&mut self, region: u64) -> Option<WpqEntry> {
        let i = self.queue.iter().position(|e| e.region == region)?;
        self.queue.remove(i)
    }

    fn take_region(&mut self, region: u64, max: usize) -> Vec<WpqEntry> {
        std::iter::from_fn(|| self.take_one_of_region(region))
            .take(max)
            .collect()
    }

    fn take_oldest(&mut self, max: usize) -> Vec<WpqEntry> {
        let n = max.min(self.queue.len());
        self.queue.drain(..n).collect()
    }

    fn has_boundary_for(&self, region: u64) -> bool {
        self.queue
            .iter()
            .any(|e| e.is_boundary && e.region == region)
    }

    fn search_line(&self, line_addr: u64, line_bytes: u64) -> bool {
        let lo = line_addr - line_addr % line_bytes;
        self.queue
            .iter()
            .any(|e| !e.is_boundary && e.addr >= lo && e.addr < lo + line_bytes)
    }

    /// The arrival order stably sorted by region.
    fn by_region(&self) -> Vec<WpqEntry> {
        let mut v: Vec<WpqEntry> = self.queue.iter().copied().collect();
        v.sort_by_key(|e| e.region);
        v
    }
}

fn entry(addr: u64, region: u64, boundary: bool) -> WpqEntry {
    WpqEntry {
        addr,
        val: addr ^ 0x5555,
        region,
        is_boundary: boundary,
        home: addr.is_multiple_of(16),
        core: (addr % 4) as usize,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// After every mutation, the region lists agree with a full
    /// recount for every region (present or not), and the queue agrees
    /// with the reference model: every returned entry, the arrival
    /// order, the by-region order, the deadlock bit and the CAM search.
    #[test]
    fn count_index_matches_recount(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut q = Wpq::new(16);
        let mut model = Model::default();
        let mut next_addr = 0u64;
        for op in ops {
            match op {
                Op::Insert { region, boundary } => {
                    prop_assert_eq!(q.has_room(), model.queue.len() < 16);
                    if q.has_room() {
                        let e = entry(next_addr, region, boundary);
                        q.insert(e);
                        model.queue.push_back(e);
                        next_addr += 8;
                    }
                }
                Op::TakeOneOfRegion { region } => {
                    let had = q.count_region(region);
                    let got = q.take_one_of_region(region);
                    prop_assert_eq!(got.is_some(), had > 0);
                    prop_assert_eq!(got, model.take_one_of_region(region));
                }
                Op::TakeOneOldest => {
                    prop_assert_eq!(q.take_one_oldest(), model.queue.pop_front());
                }
                Op::TakeRegion { region, max } => {
                    let had = q.count_region(region);
                    let got = q.take_region(region, max);
                    prop_assert_eq!(got.len(), had.min(max));
                    prop_assert_eq!(got, model.take_region(region, max));
                }
                Op::TakeOldest { max } => {
                    prop_assert_eq!(q.take_oldest(max), model.take_oldest(max));
                }
                Op::DrainAll => {
                    let all: Vec<WpqEntry> = model.queue.drain(..).collect();
                    prop_assert_eq!(q.drain_all(), all);
                    prop_assert!(q.is_empty());
                }
            }
            // The lists and the raw list must agree for every region in
            // the pool — including absent ones (has_region false).
            for region in 0..8u64 {
                let actual = recount(&q, region);
                prop_assert_eq!(
                    q.count_region(region), actual,
                    "index diverged for region {} after {:?}", region, op
                );
                prop_assert_eq!(q.has_region(region), actual > 0);
                prop_assert_eq!(
                    q.has_boundary_for(region),
                    model.has_boundary_for(region),
                    "deadlock bit for region {} after {:?}", region, op
                );
            }
            let order: Vec<WpqEntry> = q.entries().copied().collect();
            prop_assert!(order.iter().eq(model.queue.iter()), "arrival order after {:?}", op);
            let by_region: Vec<WpqEntry> = q.entries_by_region().copied().collect();
            prop_assert_eq!(by_region, model.by_region(), "region order after {:?}", op);
            for line in (0..=next_addr + 64).step_by(32) {
                prop_assert_eq!(
                    q.search_line(line, 64),
                    model.search_line(line, 64),
                    "CAM search of {:#x} after {:?}", line, op
                );
            }
            prop_assert_eq!(q.len(), model.queue.len());
            prop_assert!(q.len() <= q.capacity());
        }
    }
}

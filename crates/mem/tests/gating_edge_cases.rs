//! WPQ gating edge cases at the exact §IV-F hand-off points: power cut
//! between one MC receiving a boundary and the others (NUMA skew),
//! during the bulk battery flush, and between the per-MC flush-done
//! reports. Each test drives the controllers + tracker directly so the
//! crash lands on a precisely known protocol state.

use lightwsp_mem::controller::MemController;
use lightwsp_mem::persist_path::{PersistEntry, PersistKind};
use lightwsp_mem::pm::PersistentMemory;
use lightwsp_mem::{MemConfig, RegionId, RegionTracker};

fn data(addr: u64, region: RegionId) -> PersistEntry {
    PersistEntry {
        addr,
        val: addr ^ 0xD00D,
        region,
        kind: PersistKind::Data,
        core: 0,
    }
}

fn bdry(region: RegionId) -> PersistEntry {
    PersistEntry {
        addr: 0x1000_0100,
        val: region,
        region,
        kind: PersistKind::Boundary,
        core: 0,
    }
}

fn setup() -> (MemConfig, RegionTracker, MemController, MemController) {
    let cfg = MemConfig::table1();
    let tracker = RegionTracker::new(2, cfg.noc_latency);
    let mc0 = MemController::new(0, &cfg);
    let mc1 = MemController::new(1, &cfg);
    (cfg, tracker, mc0, mc1)
}

/// Crash exactly between the boundary's arrival at MC0 and MC1: the
/// region is not survivable (its boundary never reached every WPQ), so
/// *both* MCs must discard its entries — including MC0, which *did* see
/// the boundary. A single-MC view is exactly the `AnyMcBoundary` bug.
#[test]
fn boundary_skew_discards_on_every_mc() {
    let (_cfg, mut tracker, mut mc0, mut mc1) = setup();
    let r = tracker.alloc_region();
    assert!(mc0.try_insert(&data(0x100, r), true, 0, &mut tracker));
    assert!(mc0.try_insert(&data(0x180, r), true, 0, &mut tracker));
    assert!(mc1.try_insert(&data(0x208, r), true, 0, &mut tracker));
    // Boundary reaches MC0 only; power fails before it reaches MC1.
    assert!(mc0.try_insert(&bdry(r), true, 5, &mut tracker));
    assert!(tracker.boundary_anywhere(r));
    assert!(!tracker.boundary_everywhere(r));

    let survivable = tracker.survivable_regions();
    assert!(survivable.is_empty(), "skewed region must not survive");

    let mut pm = PersistentMemory::new();
    let res0 = mc0.resolve_power_failure(&survivable, &mut pm);
    let res1 = mc1.resolve_power_failure(&survivable, &mut pm);
    assert!(res0.flushed.is_empty() && res1.flushed.is_empty());
    assert_eq!(res0.discarded.len(), 3, "MC0 drops data + its boundary");
    assert_eq!(res1.discarded.len(), 1);
    for addr in [0x100, 0x180, 0x208] {
        assert_eq!(pm.peek_word(addr), 0, "discarded store reached PM");
    }
}

/// Crash while the region is survivable but nothing flushed yet: the
/// battery completes the whole bulk flush on both MCs, and a younger
/// region that is still open is discarded in the same resolution — the
/// flush gate opens region by region, never entry by entry.
#[test]
fn bulk_flush_is_completed_atomically_per_region() {
    let (_cfg, mut tracker, mut mc0, mut mc1) = setup();
    let r1 = tracker.alloc_region();
    let r2 = tracker.alloc_region();
    assert!(mc0.try_insert(&data(0x100, r1), true, 0, &mut tracker));
    assert!(mc1.try_insert(&data(0x208, r1), true, 0, &mut tracker));
    assert!(mc0.try_insert(&bdry(r1), true, 3, &mut tracker));
    assert!(mc1.try_insert(&bdry(r1), true, 7, &mut tracker));
    // r2 is still open: stores in flight, boundary not yet retired.
    assert!(mc0.try_insert(&data(0x300, r2), true, 8, &mut tracker));
    assert!(mc1.try_insert(&data(0x308, r2), true, 8, &mut tracker));

    assert_eq!(tracker.survivable_regions(), vec![r1]);
    let survivable = tracker.survivable_regions();
    let mut pm = PersistentMemory::new();
    let res0 = mc0.resolve_power_failure(&survivable, &mut pm);
    let res1 = mc1.resolve_power_failure(&survivable, &mut pm);

    // Every r1 entry persisted, every r2 entry discarded, on both MCs.
    assert!(res0.flushed.iter().all(|e| e.region == r1));
    assert!(res1.flushed.iter().all(|e| e.region == r1));
    assert!(res0.discarded.iter().all(|e| e.region == r2));
    assert!(res1.discarded.iter().all(|e| e.region == r2));
    assert_eq!(pm.peek_word(0x100), 0x100 ^ 0xD00D);
    assert_eq!(pm.peek_word(0x208), 0x208 ^ 0xD00D);
    assert_eq!(pm.peek_word(0x300), 0);
    assert_eq!(pm.peek_word(0x308), 0);
}

/// Crash between MC0's flush-done report and MC1's: MC0 already drained
/// the region and advanced its flush ID, MC1 still holds entries. The
/// region stays survivable (boundary info is retained until commit), so
/// MC1's remainder battery-flushes and PM ends up with the complete
/// region — the flush-ID advance is atomic per region per MC, and a
/// half-reported region is never half-persisted.
#[test]
fn crash_between_flush_done_reports_completes_the_region() {
    let (_cfg, mut tracker, mut mc0, mut mc1) = setup();
    let r = tracker.alloc_region();
    assert!(mc0.try_insert(&data(0x100, r), true, 0, &mut tracker));
    assert!(mc1.try_insert(&data(0x208, r), true, 0, &mut tracker));
    assert!(mc1.try_insert(&data(0x288, r), true, 0, &mut tracker));
    assert!(mc0.try_insert(&bdry(r), true, 2, &mut tracker));
    assert!(mc1.try_insert(&bdry(r), true, 4, &mut tracker));

    // Let MC0 flush normally until it reports done; MC1 never ticks
    // (its channels are "busy" from the crash's point of view).
    let mut pm = PersistentMemory::new();
    let mut flushed = Vec::new();
    let mut now = tracker.bdry_acked_at(r).unwrap();
    while !tracker.mc_flush_reported(r, 0) {
        mc0.tick(now, &mut tracker, &mut pm, &mut flushed);
        tracker.tick(now);
        now += 1;
        assert!(now < 10_000, "MC0 never finished its flush");
    }
    assert_eq!(tracker.flush_pos(0), r + 1, "MC0 advanced past the region");
    assert_eq!(tracker.flush_pos(1), r, "MC1 still mid-region");
    assert!(!tracker.mc_flush_reported(r, 1));

    // Power cut here. The region must survive and MC1 must complete it.
    let survivable = tracker.survivable_regions();
    assert_eq!(survivable, vec![r]);
    let res0 = mc0.resolve_power_failure(&survivable, &mut pm);
    let res1 = mc1.resolve_power_failure(&survivable, &mut pm);
    assert!(res0.discarded.is_empty() && res1.discarded.is_empty());
    assert_eq!(
        res1.flushed.iter().filter(|e| !e.is_boundary).count(),
        2,
        "MC1's remaining stores battery-flush"
    );
    assert_eq!(pm.peek_word(0x100), 0x100 ^ 0xD00D);
    assert_eq!(pm.peek_word(0x208), 0x208 ^ 0xD00D);
    assert_eq!(pm.peek_word(0x288), 0x288 ^ 0xD00D);
}

//! The integrated memory controller (iMC): WPQ gating, flush scheduling
//! onto PM channels, deadlock resolution (§IV-D), and the MC side of the
//! power-failure protocol (§IV-F).

use crate::config::MemConfig;
use crate::persist_path::{PersistEntry, PersistKind};
use crate::pm::PersistentMemory;
use crate::protocol::{RegionId, RegionTracker};
use crate::wpq::{Wpq, WpqEntry};

/// How the WPQ releases entries to PM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FlushMode {
    /// LightWSP/Capri: entries quarantine until their region is the
    /// flush frontier and its boundary is acknowledged everywhere.
    #[default]
    Gated,
    /// PPA/cWSP: entries flush in FIFO order as soon as channels are
    /// free (replay- or speculation-based recovery needs no gating).
    Immediate,
}

/// Entry-by-entry account of one MC's §IV-F power-failure resolution,
/// consumed by the crash auditor (`lightwsp-sim`'s `crash` module) to
/// check the recovery contract (`RECOVERY.md`) against what the
/// hardware model actually did.
/// `PartialEq` compares every entry's fate exactly — the step-mode
/// parity suite uses it to prove crash resolutions are identical under
/// reference and skip-ahead stepping.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FailureResolution {
    /// Survivable home entries written to PM on battery, in write order
    /// (region-sorted, so a same-address pair persists oldest-first).
    pub flushed: Vec<WpqEntry>,
    /// Survivable non-home replicas dropped without a PM write
    /// (boundary tokens are broadcast to every MC; only the home copy
    /// writes PM).
    pub replicas_dropped: u64,
    /// Entries of unsurvivable regions, discarded unwritten.
    pub discarded: Vec<WpqEntry>,
    /// Undo-log rollbacks applied, in application order (newest first):
    /// `(region, address, restored PM value)`.
    pub rolled_back: Vec<(RegionId, u64, u64)>,
}

/// One integrated memory controller.
#[derive(Clone, Debug)]
pub struct MemController {
    id: usize,
    wpq: Wpq,
    /// Per-channel busy-until cycle (issue occupancy model).
    channels: Vec<u64>,
    write_occupancy: u64,
    /// Extra per-write occupancy (cWSP's undo-logging copy, §II-C).
    extra_write_occupancy: u64,
    mode: FlushMode,
    /// Overflow fallback active (§IV-D): the WPQ filled up without the
    /// frontier's boundary; frontier stores flush undo-logged.
    overflow_mode: bool,
    /// First cycle at which the full-without-frontier-boundary condition
    /// was observed (a few-cycle filter against single-cycle transients;
    /// §IV-D's detection is otherwise immediate).
    deadlock_since: Option<u64>,
    /// Cycles the full condition must persist before the fallback fires.
    deadlock_grace: u64,
    /// Battery-backed undo log: `(region, addr, previous PM value)`.
    undo_log: Vec<(RegionId, u64, u64)>,
    /// WPQ slots reserved for flush-frontier entries, guaranteeing that
    /// the oldest uncommitted region can always make progress even when
    /// younger regions fill the queue (see the module docs).
    frontier_reserve: usize,
    flushed_entries: u64,
    overflow_events: u64,
    declined_in_overflow: u64,
    /// Memoized [`MemController::next_event`] result, keyed on the
    /// tracker generation it was computed against. Cleared by every
    /// mutation of this controller that can move the horizon; a tracker
    /// mutation invalidates it via the version key.
    ev_memo: Option<(u64, Option<u64>)>,
}

impl MemController {
    /// Creates controller `id` per `config`.
    pub fn new(id: usize, config: &MemConfig) -> MemController {
        MemController {
            id,
            wpq: Wpq::new(config.wpq_entries),
            channels: vec![0; config.channels_per_mc],
            write_occupancy: config.pm_write_occupancy,
            extra_write_occupancy: 0,
            mode: FlushMode::Gated,
            frontier_reserve: (config.wpq_entries / 16).clamp(1, 4),
            overflow_mode: false,
            deadlock_since: None,
            deadlock_grace: 4,
            undo_log: Vec::new(),
            flushed_entries: 0,
            overflow_events: 0,
            declined_in_overflow: 0,
            ev_memo: None,
        }
    }

    /// This controller's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Selects the flush mode (schemes without WPQ gating).
    pub fn set_mode(&mut self, mode: FlushMode) {
        self.mode = mode;
        self.ev_memo = None;
    }

    /// Adds per-write channel occupancy (cWSP's undo-log copy delay).
    pub fn set_extra_write_occupancy(&mut self, extra: u64) {
        self.extra_write_occupancy = extra;
        self.ev_memo = None;
    }

    /// Shared access to the WPQ (stats, searches).
    pub fn wpq(&self) -> &Wpq {
        &self.wpq
    }

    /// Mutable access to the WPQ (CAM search updates hit counters).
    ///
    /// Deliberately does **not** invalidate the `next_event` memo:
    /// every caller mutates counters only (occupancy samples, CAM
    /// search stats), which the event horizon does not read. Mutations
    /// that move entries go through [`MemController::try_insert`] /
    /// [`MemController::tick`] / [`MemController::clear_after_power_failure`],
    /// which do invalidate. The debug revalidation in
    /// [`MemController::next_event`] enforces this contract under test.
    pub fn wpq_mut(&mut self) -> &mut Wpq {
        &mut self.wpq
    }

    /// Attempts to accept a persist-path delivery at cycle `now`.
    /// Returns `false` if the WPQ is full (head-of-line block) or the
    /// overflow fallback is declining this region's stores.
    ///
    /// Detects the §IV-D deadlock on a failed insert: if the queue is
    /// full and does not contain the boundary token for the flush
    /// frontier, the frontier's stores can never be released normally,
    /// so the controller enters the undo-logged overflow fallback.
    pub fn try_insert(
        &mut self,
        entry: &PersistEntry,
        home: bool,
        now: u64,
        tracker: &mut RegionTracker,
    ) -> bool {
        let frontier = tracker.flush_pos(self.id);
        if self.mode == FlushMode::Immediate {
            if !self.wpq.has_room() {
                return false;
            }
            // The horizon reads only queue emptiness: inserting into a
            // non-empty queue cannot move it.
            if self.wpq.is_empty() {
                self.ev_memo = None;
            }
            self.wpq.insert(WpqEntry::from_persist(entry, home));
            if entry.kind == PersistKind::Boundary {
                tracker.deliver_boundary(entry.region, self.id, now);
            }
            return true;
        }
        // Gated horizon inputs: frontier pendingness, the overflow flag,
        // and tracker state (covered by the version key). A rejected or
        // accepted insert of a younger region changes none of them; the
        // overflow transitions and frontier-region inserts below drop
        // the memo explicitly.
        if entry.region <= frontier {
            self.ev_memo = None;
        }
        if self.overflow_mode {
            // Only the currently persisting region's stores (and its
            // boundary, which ends the fallback) are accepted.
            if entry.region != frontier {
                self.declined_in_overflow += 1;
                return false;
            }
        }
        // Younger regions may not consume the frontier's reserved slots;
        // without the reservation a queue full of younger stores could
        // block the frontier's own stores forever (the path delivers in
        // FIFO order, so the frontier core's entries are never stuck
        // behind younger ones of the same core).
        let is_frontier = entry.region <= frontier;
        if !is_frontier && self.wpq.len() + self.frontier_reserve >= self.wpq.capacity() {
            return false;
        }
        if !self.wpq.has_room() {
            // §IV-D: "When a WPQ gets full, LightWSP checks if the bit is
            // 0 … thus detecting a deadlock" — detection is immediate;
            // a tiny grace period only filters single-cycle transients.
            if !self.wpq.has_boundary_for(frontier) && !self.overflow_mode {
                match self.deadlock_since {
                    None => self.deadlock_since = Some(now),
                    Some(t) if now.saturating_sub(t) >= self.deadlock_grace => {
                        self.overflow_mode = true;
                        self.overflow_events += 1;
                        self.deadlock_since = None;
                        self.ev_memo = None;
                    }
                    Some(_) => {}
                }
            }
            return false;
        }
        self.deadlock_since = None;
        self.wpq.insert(WpqEntry::from_persist(entry, home));
        if entry.kind == PersistKind::Boundary {
            tracker.deliver_boundary(entry.region, self.id, now);
            if self.overflow_mode && entry.region == frontier {
                // The awaited boundary arrived; fall back to normal
                // gated flushing.
                self.overflow_mode = false;
            }
        }
        true
    }

    /// True while the overflow fallback is active.
    pub fn in_overflow(&self) -> bool {
        self.overflow_mode
    }

    /// One cycle of flush work: issues frontier-region entries onto free
    /// channels (normal gated flush once bdry-ACKed, or undo-logged
    /// overflow flush), and reports flush completion to the tracker.
    /// Flushed entries are appended to `flushed` so the caller can track
    /// per-core outstanding persists.
    pub fn tick(
        &mut self,
        now: u64,
        tracker: &mut RegionTracker,
        pm: &mut PersistentMemory,
        flushed: &mut Vec<WpqEntry>,
    ) {
        self.ev_memo = None;
        self.wpq.sample_occupancy();

        if self.mode == FlushMode::Immediate {
            // Ungated FIFO drain at channel speed.
            while let Some(ch) = self.channels.iter().position(|&busy| busy <= now) {
                let Some(entry) = self.wpq.take_one_oldest() else {
                    break;
                };
                if entry.home {
                    pm.write_word(entry.addr, entry.val);
                }
                self.flushed_entries += 1;
                self.channels[ch] = now + self.write_occupancy + self.extra_write_occupancy;
                flushed.push(entry);
            }
            return;
        }

        let frontier = tracker.flush_pos(self.id);
        let normal = tracker.flushable(self.id, frontier, now);
        if !normal && !self.overflow_mode {
            return;
        }

        // Issue as many frontier entries as channels allow this cycle.
        while let Some(ch) = self.channels.iter().position(|&busy| busy <= now) {
            let Some(entry) = self.wpq.take_one_of_region(frontier) else {
                break;
            };
            if self.overflow_mode && !normal {
                // Undo-log the old value before overwriting (§IV-D).
                if entry.home && !entry.is_boundary {
                    let old = pm.peek_word(entry.addr);
                    self.undo_log.push((frontier, entry.addr, old));
                }
            }
            if entry.home {
                pm.write_word(entry.addr, entry.val);
            }
            self.flushed_entries += 1;
            self.channels[ch] = now + self.write_occupancy + self.extra_write_occupancy;
            flushed.push(entry);
        }

        // Normal completion: every frontier entry issued → report done.
        if normal
            && self.wpq.count_region(frontier) == 0
            && !tracker.mc_flush_reported(frontier, self.id)
        {
            tracker.note_flush_done(frontier, self.id, now);
        }
    }

    /// Event horizon: the earliest cycle at which [`MemController::tick`]
    /// would do observable work (flush an entry or report a flush done),
    /// given the current WPQ contents and the tracker's protocol state.
    /// A returned cycle `<= now` means the controller is active this
    /// very cycle. `None` means nothing happens until new input arrives
    /// (a persist-path delivery — itself an event of the delivering
    /// core's path). Occupancy sampling is *not* an event: the caller
    /// accounts skipped samples in closed form via
    /// [`crate::wpq::Wpq::sample_occupancy_n`].
    ///
    /// The result is a pure function of controller + tracker state
    /// (`now` is not read), so it is memoized keyed on
    /// [`RegionTracker::version`]; controller mutations clear the memo
    /// directly. In debug builds every memo hit is revalidated against
    /// a fresh computation, which the parity suites exercise across all
    /// schemes.
    #[inline]
    pub fn next_event(&mut self, tracker: &RegionTracker) -> Option<u64> {
        let v = tracker.version();
        if let Some((cached_v, cached)) = self.ev_memo {
            if cached_v == v {
                debug_assert_eq!(
                    cached,
                    self.compute_next_event(tracker),
                    "stale MC event memo"
                );
                return cached;
            }
        }
        let ev = self.compute_next_event(tracker);
        self.ev_memo = Some((v, ev));
        ev
    }

    fn compute_next_event(&self, tracker: &RegionTracker) -> Option<u64> {
        // Earliest free PM channel (0 if any channel is already idle).
        let ch_free = self.channels.iter().copied().min().unwrap_or(0);
        if self.mode == FlushMode::Immediate {
            // Ungated FIFO drain: work whenever the queue is non-empty
            // and a channel frees up.
            return (!self.wpq.is_empty()).then_some(ch_free);
        }
        let frontier = tracker.flush_pos(self.id);
        let pending = self.wpq.has_region(frontier);
        let acked = tracker.frontier_acked(self.id);
        let mut ev: Option<u64> = None;
        let mut consider = |t: u64| ev = Some(ev.map_or(t, |e| e.min(t)));
        if pending {
            if self.overflow_mode {
                // Overflow fallback flushes frontier entries without
                // waiting for the boundary ACK.
                consider(ch_free);
            }
            if let Some(a) = acked {
                consider(a.max(ch_free));
            }
        } else if let Some(a) = acked {
            // No frontier entries left to issue: the flush-done report
            // fires as soon as the region becomes flushable.
            if !tracker.mc_flush_reported(frontier, self.id) {
                consider(a);
            }
        }
        ev
    }

    /// Called when the tracker commits `region`: its undo-log entries
    /// are no longer needed (the region persisted completely).
    pub fn on_region_committed(&mut self, region: RegionId) {
        self.undo_log.retain(|(r, _, _)| *r != region);
        self.ev_memo = None;
    }

    /// Power-failure handling (§IV-F steps 3–6) for this MC, without
    /// changing the MC:
    ///
    /// 1. flush every entry of the `survivable` regions to `pm`,
    /// 2. roll back undo-logged overflow writes of unsurvivable regions
    ///    (newest first),
    /// 3. discard everything else.
    ///
    /// Returns the full [`FailureResolution`] so callers (the recovery
    /// report and the crash auditor) can see every entry's fate. A
    /// crash sweep resolves a copy of PM this way at points it never
    /// resumes; a real failure resolves PM itself and then calls
    /// [`MemController::clear_after_power_failure`].
    pub fn resolve_power_failure(
        &self,
        survivable: &[RegionId],
        pm: &mut PersistentMemory,
    ) -> FailureResolution {
        let mut entries: Vec<WpqEntry> = self.wpq.entries().iter().copied().collect();
        // §IV-F steps 3–5 flush region by region in flush-ID order;
        // entries from different cores may sit in the queue out of
        // region order (NUMA arrival skew), and a same-address pair from
        // two regions must persist oldest-first.
        entries.sort_by_key(|e| e.region);
        let mut res = FailureResolution::default();
        for e in entries {
            if survivable.contains(&e.region) {
                if e.home {
                    pm.write_word(e.addr, e.val);
                    res.flushed.push(e);
                } else {
                    res.replicas_dropped += 1;
                }
            } else {
                res.discarded.push(e);
            }
        }
        // Unsurvivable overflow writes are rolled back newest-first so
        // multiple writes to one address restore the oldest value.
        for &(region, addr, old) in self.undo_log.iter().rev() {
            if !survivable.contains(&region) {
                pm.write_word(addr, old);
                res.rolled_back.push((region, addr, old));
            }
        }
        res
    }

    /// Spends the battery-backed state once `res`, this MC's
    /// [`MemController::resolve_power_failure`], has been applied to
    /// PM: counts its flushed entries, empties the WPQ and the undo log,
    /// and leaves the overflow fallback.
    pub fn clear_after_power_failure(&mut self, res: &FailureResolution) {
        self.ev_memo = None;
        self.wpq.drain_all();
        self.flushed_entries += res.flushed.len() as u64;
        self.undo_log.clear();
        self.overflow_mode = false;
        self.deadlock_since = None;
    }

    /// `(entries flushed, overflow events, inserts declined in overflow)`.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.flushed_entries,
            self.overflow_events,
            self.declined_in_overflow,
        )
    }

    /// Current undo-log depth (diagnostics).
    pub fn undo_log_len(&self) -> usize {
        self.undo_log.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MemConfig {
        let mut c = MemConfig::table1();
        c.wpq_entries = 4;
        c
    }

    fn data(addr: u64, region: RegionId) -> PersistEntry {
        PersistEntry {
            addr,
            val: addr + 1,
            region,
            kind: PersistKind::Data,
            core: 0,
        }
    }

    fn bdry(region: RegionId) -> PersistEntry {
        PersistEntry {
            addr: 0x1000_0100,
            val: 0xbeef,
            region,
            kind: PersistKind::Boundary,
            core: 0,
        }
    }

    /// Single-MC end-to-end: insert stores + boundary, tick until the
    /// region commits, check PM contents.
    #[test]
    fn gated_flush_and_commit() {
        let c = cfg();
        let mut mc = MemController::new(0, &c);
        let mut tracker = RegionTracker::new(1, c.noc_latency);
        let mut pm = PersistentMemory::new();
        let r = tracker.alloc_region();

        assert!(mc.try_insert(&data(0x40, r), true, 0, &mut tracker));
        assert!(mc.try_insert(&data(0x48, r), true, 1, &mut tracker));
        // Not flushable before the boundary arrives.
        mc.tick(2, &mut tracker, &mut pm, &mut Vec::new());
        assert_eq!(pm.peek_word(0x40), 0, "gated until boundary + acks");

        assert!(mc.try_insert(&bdry(r), true, 3, &mut tracker));
        let mut committed = None;
        for now in 4..200 {
            mc.tick(now, &mut tracker, &mut pm, &mut Vec::new());
            if let Some(k) = tracker.tick(now) {
                committed = Some((k, now));
                break;
            }
        }
        let (k, _) = committed.expect("region must commit");
        assert_eq!(k, r);
        assert_eq!(pm.peek_word(0x40), 0x41);
        assert_eq!(pm.peek_word(0x48), 0x49);
        assert_eq!(
            pm.peek_word(0x1000_0100),
            0xbeef,
            "boundary PC store persisted"
        );
        assert_eq!(tracker.flush_frontier(), r + 1);
    }

    #[test]
    fn younger_region_gated_until_older_commits() {
        let c = cfg();
        let mut mc = MemController::new(0, &c);
        let mut tracker = RegionTracker::new(1, c.noc_latency);
        let mut pm = PersistentMemory::new();
        let r1 = tracker.alloc_region();
        let r2 = tracker.alloc_region();

        // r2 fully arrives (data + boundary) before r1's boundary.
        assert!(mc.try_insert(&data(0x80, r2), true, 0, &mut tracker));
        assert!(mc.try_insert(&bdry(r2), true, 1, &mut tracker));
        assert!(mc.try_insert(&data(0x40, r1), true, 2, &mut tracker));
        for now in 3..500 {
            mc.tick(now, &mut tracker, &mut pm, &mut Vec::new());
            tracker.tick(now);
        }
        assert_eq!(pm.peek_word(0x80), 0, "r2 must not persist before r1");
        assert_eq!(pm.peek_word(0x40), 0, "r1 boundary never arrived");
        assert_eq!(tracker.flush_frontier(), r1);
    }

    #[test]
    fn hol_block_when_full() {
        let c = cfg();
        let mut mc = MemController::new(0, &c);
        let mut tracker = RegionTracker::new(1, c.noc_latency);
        let r = tracker.alloc_region();
        for i in 0..4 {
            assert!(mc.try_insert(&data(i * 8 + 0x40, r), true, 0, &mut tracker));
        }
        assert!(!mc.try_insert(&data(0x100, r), true, 0, &mut tracker));
    }

    #[test]
    fn deadlock_detection_and_overflow_flush() {
        let c = cfg();
        let mut mc = MemController::new(0, &c);
        let mut tracker = RegionTracker::new(1, c.noc_latency);
        let mut pm = PersistentMemory::new();
        pm.write_word(0x40, 7); // pre-existing value for the undo log
        let r = tracker.alloc_region();

        for i in 0..4 {
            assert!(mc.try_insert(&data(0x40 + i * 8, r), true, 0, &mut tracker));
        }
        // Full without the frontier's boundary arms the deadlock timer;
        // after the grace period (worst-case boundary transit) the next
        // rejected insert engages the overflow fallback.
        assert!(!mc.try_insert(&data(0x100, r), true, 0, &mut tracker));
        assert!(!mc.in_overflow(), "transient fullness is not a deadlock");
        assert!(!mc.try_insert(&data(0x100, r), true, 10_000, &mut tracker));
        assert!(mc.in_overflow());
        assert_eq!(mc.stats().1, 1, "one overflow event");

        // Overflow flush: frontier stores persist with undo logging.
        for now in 1..50 {
            mc.tick(now, &mut tracker, &mut pm, &mut Vec::new());
        }
        assert_eq!(pm.peek_word(0x40), 0x41, "overflow-flushed");
        assert!(mc.undo_log_len() > 0);

        // Other regions' stores are declined during overflow.
        assert!(!mc.try_insert(&data(0x200, r + 5), true, 50, &mut tracker));
        assert_eq!(mc.stats().2, 1);

        // The boundary finally arrives → overflow ends, region commits.
        assert!(mc.try_insert(&bdry(r), true, 51, &mut tracker));
        assert!(!mc.in_overflow());
        for now in 52..300 {
            mc.tick(now, &mut tracker, &mut pm, &mut Vec::new());
            if let Some(k) = tracker.tick(now) {
                mc.on_region_committed(k);
            }
        }
        assert_eq!(tracker.flush_frontier(), r + 1);
        assert_eq!(mc.undo_log_len(), 0, "undo log cleared at commit");
    }

    #[test]
    fn power_failure_rolls_back_overflow_writes() {
        let c = cfg();
        let mut mc = MemController::new(0, &c);
        let mut tracker = RegionTracker::new(1, c.noc_latency);
        let mut pm = PersistentMemory::new();
        pm.write_word(0x40, 7);
        let r = tracker.alloc_region();
        for i in 0..4 {
            mc.try_insert(&data(0x40 + i * 8, r), true, 0, &mut tracker);
        }
        assert!(!mc.try_insert(&data(0x100, r), true, 0, &mut tracker)); // arm timer
        assert!(!mc.try_insert(&data(0x100, r), true, 10_000, &mut tracker)); // overflow
        for now in 1..50 {
            mc.tick(now, &mut tracker, &mut pm, &mut Vec::new());
        }
        assert_eq!(pm.peek_word(0x40), 0x41);
        // Power failure before the boundary: region unsurvivable.
        let survivable = tracker.survivable_regions();
        assert!(survivable.is_empty());
        mc.resolve_power_failure(&survivable, &mut pm);
        assert_eq!(pm.peek_word(0x40), 7, "old value restored from undo log");
    }

    #[test]
    fn power_failure_flushes_survivable_regions() {
        let c = cfg();
        let mut mc = MemController::new(0, &c);
        let mut tracker = RegionTracker::new(1, c.noc_latency);
        let mut pm = PersistentMemory::new();
        let r = tracker.alloc_region();
        mc.try_insert(&data(0x40, r), true, 0, &mut tracker);
        mc.try_insert(&bdry(r), true, 0, &mut tracker);
        // Fail before any tick: boundary delivered → survivable.
        let survivable = tracker.survivable_regions();
        assert_eq!(survivable, vec![r]);
        let res = mc.resolve_power_failure(&survivable, &mut pm);
        assert_eq!(pm.peek_word(0x40), 0x41);
        assert_eq!(pm.peek_word(0x1000_0100), 0xbeef);
        assert_eq!(mc.wpq().len(), 2, "resolving leaves the MC as it was");
        mc.clear_after_power_failure(&res);
        assert!(mc.wpq().is_empty());
        assert_eq!(mc.stats().0, 2, "both home entries count as flushed");
    }
}

#[cfg(test)]
mod immediate_mode_tests {
    use super::*;

    fn cfg() -> MemConfig {
        let mut c = MemConfig::table1();
        c.wpq_entries = 8;
        c
    }

    fn data(addr: u64, region: RegionId) -> PersistEntry {
        PersistEntry {
            addr,
            val: addr + 1,
            region,
            kind: PersistKind::Data,
            core: 0,
        }
    }

    /// PPA/cWSP: ungated FIFO drain, no boundary required.
    #[test]
    fn immediate_mode_flushes_without_boundaries() {
        let c = cfg();
        let mut mc = MemController::new(0, &c);
        mc.set_mode(FlushMode::Immediate);
        let mut tracker = RegionTracker::new(1, c.noc_latency);
        let mut pm = PersistentMemory::new();
        let r = tracker.alloc_region();
        for i in 0..4 {
            assert!(mc.try_insert(&data(0x40 + i * 8, r), true, 0, &mut tracker));
        }
        let mut flushed = Vec::new();
        for now in 1..100 {
            mc.tick(now, &mut tracker, &mut pm, &mut flushed);
        }
        assert_eq!(flushed.len(), 4, "all entries drained with no boundary");
        assert_eq!(pm.peek_word(0x40), 0x41);
        assert!(mc.wpq().is_empty());
    }

    /// cWSP's undo-log copy delay slows the drain (extra occupancy).
    #[test]
    fn extra_write_occupancy_slows_drain() {
        let run = |extra: u64| {
            let c = cfg();
            let mut mc = MemController::new(0, &c);
            mc.set_mode(FlushMode::Immediate);
            mc.set_extra_write_occupancy(extra);
            let mut tracker = RegionTracker::new(1, c.noc_latency);
            let mut pm = PersistentMemory::new();
            let r = tracker.alloc_region();
            for i in 0..8 {
                mc.try_insert(&data(0x40 + i * 8, r), true, 0, &mut tracker);
            }
            let mut flushed = Vec::new();
            let mut done_at = 0;
            for now in 1..10_000 {
                mc.tick(now, &mut tracker, &mut pm, &mut flushed);
                if flushed.len() == 8 {
                    done_at = now;
                    break;
                }
            }
            done_at
        };
        assert!(run(20) > run(0), "undo-log delay must slow the flush");
    }

    /// Immediate mode keeps FIFO order per queue.
    #[test]
    fn immediate_mode_is_fifo() {
        let c = cfg();
        let mut mc = MemController::new(0, &c);
        mc.set_mode(FlushMode::Immediate);
        let mut tracker = RegionTracker::new(1, c.noc_latency);
        let mut pm = PersistentMemory::new();
        for (i, r) in [(0u64, 5u64), (1, 3), (2, 9)] {
            assert!(mc.try_insert(&data(0x100 + i * 8, r), true, 0, &mut tracker));
        }
        let mut flushed = Vec::new();
        for now in 1..100 {
            mc.tick(now, &mut tracker, &mut pm, &mut flushed);
        }
        let regions: Vec<u64> = flushed.iter().map(|e| e.region).collect();
        assert_eq!(regions, vec![5, 3, 9], "insertion order, not region order");
    }
}

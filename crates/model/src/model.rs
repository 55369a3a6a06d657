//! The admitted-image oracle: given a [`RegionStructure`], decides
//! membership of an observed post-crash PM image in LRPO's admitted set
//! and accounts for the set's size — in two enumeration modes.
//!
//! **Over-approximate mode** ([`LrpoModel::new`]): the admitted set is
//! `install ⊕ overlay₁(k₁) ⊕ … ⊕ overlayₙ(kₙ)` over all per-thread
//! prefix lengths `kₜ`, where `overlayₜ(k)` is the cumulative effect of
//! thread `t`'s first `k` regions (data stores in program order, then
//! the boundary's PC-slot store). Cross-thread prefix combinations are
//! unconstrained, so this mode can admit images the boundary-ACK/flush-ID
//! protocol never produces. It is sound and cheap, and is retained as
//! the fallback when no trace is available.
//!
//! **Exact mode** ([`LrpoModel::with_protocol`]): the same per-thread
//! overlays, but cross-thread combinations are constrained by the
//! [`ProtocolOrder`] witnessed in the run's region trace. Region IDs
//! come from one monotone counter and the §IV-F resolution makes a
//! *contiguous ID prefix* durable, so the only reachable images are the
//! `N + 1` cuts of the traced global order — exact modulo the trace
//! (the machine is deterministic, so one mainline trace covers every
//! crash point of the run).
//!
//! **Per-thread rows.** Extraction verified cross-thread write
//! disjointness, so an image decomposes per thread. Each thread's write
//! footprint, in ascending address order, gives the columns of a dense
//! *row*; `rows[k]` holds the footprint's words after the thread's first
//! `k` regions over the install image. Membership projects the observed
//! image onto each footprint once and scans the thread's candidate
//! prefixes, dropping each at its first mismatching word. The rest of
//! the image is then checked for stray writes: outside every footprint,
//! the observed image must equal the install image (via
//! [`Memory::first_difference_where`]). That is exactly a whole-image
//! replay of the chosen prefixes, because every footprint word already
//! matched its prefix and the replay equals the install image
//! everywhere else. Exact mode adds a set lookup: the canonical witness
//! vector must be a cut of the trace.
//!
//! **Canonical prefixes.** Different prefix lengths can induce the same
//! *image* (a loop iteration that re-stores identical values across the
//! same boundary, or a store that rewrites the install value). Each
//! prefix maps to the smallest prefix with an identical row — a
//! per-thread intern table built once with the model — so admitted-set
//! counting, exact-cut counting, and witness bookkeeping are all in
//! canonical (image) space and never double-count indistinguishable
//! images.
//!
//! **Mutant models** ([`ModelMutant`]): deliberately-loose enumeration
//! rules that pin the exact rule from the other side. Each mutant
//! admits a superset of the exact set; on a case whose point sweep
//! witnessed *every* exact image (`witnessed == exact_count`), any
//! mutant with a larger admitted set provably admits an image the
//! hardware cannot produce — the observed images falsify it. The
//! mutants count images per thread too: a whole image is one row per
//! thread, so distinct images are distinct vectors of row ids. See
//! [`LrpoModel::mutant_count`].

use crate::extract::{ProtocolOrder, RegionEffect, RegionStructure, ThreadEffects};
use lightwsp_ir::fxhash::{FxHashMap, FxHashSet};
use lightwsp_ir::Memory;

/// One thread's prefix-image table, over dense footprint rows.
#[derive(Clone, Debug)]
struct ThreadModel {
    /// The thread's write footprint, ascending: column `c` of every row
    /// is the word at `addrs[c]`.
    addrs: Vec<u64>,
    /// `rows[k]` = the footprint's words after the first `k` regions
    /// over the install image. Row equality is image equality.
    rows: Vec<Vec<u64>>,
    /// `canon[k]` = smallest `j` with `rows[j] == rows[k]`, the id of
    /// prefix `k`'s image.
    canon: Vec<usize>,
    /// The thread's intern table: prefix row → its canonical prefix.
    ids: FxHashMap<Vec<u64>, usize>,
    /// `deltas[i]` = region `i`'s stores as `(column, value)`: data
    /// stores in program order, then the boundary store — the mutant
    /// models re-enumerate from these.
    deltas: Vec<Vec<(usize, u64)>>,
}

impl ThreadModel {
    fn new(t: &ThreadEffects, base: &Memory) -> ThreadModel {
        let mut addrs: Vec<u64> = t.regions.iter().flat_map(stores).map(|(a, _)| a).collect();
        addrs.sort_unstable();
        addrs.dedup();
        let deltas: Vec<Vec<(usize, u64)>> = t
            .regions
            .iter()
            .map(|r| {
                stores(r)
                    .map(|(a, v)| (addrs.partition_point(|&x| x < a), v))
                    .collect()
            })
            .collect();
        let install: Vec<u64> = addrs.iter().map(|&a| base.read_word(a)).collect();
        let mut rows = vec![install];
        for d in &deltas {
            let mut next = rows[rows.len() - 1].clone();
            apply(&mut next, d);
            rows.push(next);
        }
        let mut ids = FxHashMap::default();
        let canon = rows
            .iter()
            .enumerate()
            .map(|(k, row)| *ids.entry(row.clone()).or_insert(k))
            .collect();
        ThreadModel {
            addrs,
            rows,
            canon,
            ids,
            deltas,
        }
    }

    /// The id of `row`: its canonical prefix when some prefix has this
    /// image, else an id past every prefix, assigned in `extra` on first
    /// sight.
    fn intern(&self, row: &[u64], extra: &mut FxHashMap<Vec<u64>, usize>) -> usize {
        if let Some(&id) = self.ids.get(row).or_else(|| extra.get(row)) {
            return id;
        }
        let id = self.rows.len() + extra.len();
        extra.insert(row.to_vec(), id);
        id
    }

    /// Diagnostics for observed footprint words `seen` that no prefix
    /// matches: the prefix with the fewest mismatching words (the
    /// smallest on ties) and its lowest-addressed mismatch.
    fn closest_prefix(&self, seen: &[u64]) -> String {
        let n = self.rows.len() - 1;
        let mismatches = |k: usize| {
            self.rows[k]
                .iter()
                .zip(seen)
                .filter(|(w, o)| w != o)
                .count()
        };
        let k = (0..=n).min_by_key(|&k| mismatches(k)).unwrap_or(0);
        let c = (0..seen.len())
            .find(|&c| self.rows[k][c] != seen[c])
            .expect("every row is some candidate's, and no candidate matched");
        format!(
            "no region prefix matches the observed image; closest is prefix {k}/{n} with {} \
             mismatching words, first at {:#x}: observed {:#x}, predicted {:#x}",
            mismatches(k),
            self.addrs[c],
            seen[c],
            self.rows[k][c]
        )
    }
}

/// A region's stores: data stores in program order, then the boundary.
fn stores(r: &RegionEffect) -> impl Iterator<Item = (u64, u64)> + '_ {
    r.stores.iter().copied().chain([r.boundary])
}

/// Writes a region's `(column, value)` stores into `row`, in order.
fn apply(row: &mut [u64], delta: &[(usize, u64)]) {
    for &(c, v) in delta {
        row[c] = v;
    }
}

/// Inserts into `images` the row of every subset of `deltas` applied in
/// order onto `row`, depth first: each region is applied, then skipped.
fn subset_rows(deltas: &[Vec<(usize, u64)>], row: Vec<u64>, images: &mut FxHashSet<Vec<u64>>) {
    let Some((delta, rest)) = deltas.split_first() else {
        images.insert(row);
        return;
    };
    let mut taken = row.clone();
    apply(&mut taken, delta);
    subset_rows(rest, taken, images);
    subset_rows(rest, row, images);
}

/// The exact-mode constraint derived from one traced run.
#[derive(Clone, Debug)]
struct ExactSet {
    /// The traced protocol order (threads in region-ID order).
    order: ProtocolOrder,
    /// Raw per-thread prefix vector at every frontier `F = 0..=N`.
    raw_cuts: Vec<Vec<usize>>,
    /// Deduplicated canonical cut vectors, in frontier order.
    canonical: Vec<Vec<usize>>,
    /// Membership set over canonical cut vectors.
    set: FxHashSet<Vec<usize>>,
}

/// An observed image outside the admitted set.
#[derive(Clone, Debug)]
pub struct ModelViolation {
    /// The thread whose projection matched no prefix, when the failure
    /// localises to one thread (`None` for stray writes outside every
    /// footprint and exact-mode cut violations).
    pub thread: Option<usize>,
    /// Human-readable specifics: nearest prefix and first differing
    /// address/value, or the non-cut prefix vector.
    pub detail: String,
}

impl std::fmt::Display for ModelViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.thread {
            Some(t) => write!(f, "thread {t}: {}", self.detail),
            None => write!(f, "{}", self.detail),
        }
    }
}

/// A deliberately-loose enumeration rule, used to falsify looseness:
/// every mutant admits a superset of the exact cut set, and a fully
/// witnessed sweep proves the surplus images unreachable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelMutant {
    /// Drop the boundary-ACK ordering constraint entirely: admit every
    /// per-thread prefix combination (the retained over-approximate
    /// mode, recast as a mutant).
    DropAckOrder,
    /// Allow a thread's regions to persist out of order: admit every
    /// per-thread region *subset* (applied in ID order), not just
    /// prefixes — as if same-MC WPQ entries could drain unordered.
    UnorderedPrefixes,
    /// Ignore flush-ID fencing within the committing region: admit
    /// every cut plus store-granular partial images of the next region
    /// in trace order, without its boundary — as if the battery flush
    /// were not atomic per region.
    IgnoreFlushFence,
}

impl ModelMutant {
    /// Every mutant model, in reporting order.
    pub const ALL: [ModelMutant; 3] = [
        ModelMutant::DropAckOrder,
        ModelMutant::UnorderedPrefixes,
        ModelMutant::IgnoreFlushFence,
    ];

    /// Stable snake-case name for records and reports.
    pub fn name(self) -> &'static str {
        match self {
            ModelMutant::DropAckOrder => "drop_ack_order",
            ModelMutant::UnorderedPrefixes => "unordered_prefixes",
            ModelMutant::IgnoreFlushFence => "ignore_flush_fence",
        }
    }
}

/// Region-count cap per thread for [`ModelMutant::UnorderedPrefixes`]'s
/// `2^n` subset enumeration; larger threads make the count unavailable
/// rather than silently wrong.
const SUBSET_CAP: usize = 14;

/// The executable LRPO persistency model for one program.
#[derive(Clone, Debug)]
pub struct LrpoModel {
    base: Memory,
    threads: Vec<ThreadModel>,
    /// Union of the threads' write footprints: outside it, an admitted
    /// image equals the install image.
    footprint: FxHashSet<u64>,
    exact: Option<ExactSet>,
}

impl LrpoModel {
    /// Builds the prefix-image tables from an extracted region
    /// structure (over-approximate mode: cross-thread combinations
    /// unconstrained).
    pub fn new(rs: &RegionStructure) -> LrpoModel {
        let base = rs.install.clone();
        let threads: Vec<ThreadModel> = rs
            .threads
            .iter()
            .map(|t| ThreadModel::new(t, &base))
            .collect();
        let footprint = threads
            .iter()
            .flat_map(|t| t.addrs.iter().copied())
            .collect();
        LrpoModel {
            base,
            threads,
            footprint,
            exact: None,
        }
    }

    /// Builds the model in **exact mode**: cross-thread combinations
    /// constrained to the cuts of `order`, the protocol order witnessed
    /// by the run's region trace.
    ///
    /// # Errors
    ///
    /// Returns [`crate::extract::ExtractError::ProtocolMismatch`] when
    /// the trace and the replayed structure disagree on per-thread
    /// region counts.
    pub fn with_protocol(
        rs: &RegionStructure,
        order: &ProtocolOrder,
    ) -> Result<LrpoModel, crate::extract::ExtractError> {
        order.validate(rs)?;
        let mut m = LrpoModel::new(rs);
        let raw_cuts = order.cuts(rs.threads.len());
        let mut set: FxHashSet<Vec<usize>> = FxHashSet::default();
        let mut canonical = Vec::new();
        for cut in &raw_cuts {
            let c = m.canonical(cut);
            if set.insert(c.clone()) {
                canonical.push(c);
            }
        }
        m.exact = Some(ExactSet {
            order: order.clone(),
            raw_cuts,
            canonical,
            set,
        });
        Ok(m)
    }

    /// The canonical form of the per-thread prefix vector `ks`.
    fn canonical(&self, ks: &[usize]) -> Vec<usize> {
        self.threads
            .iter()
            .zip(ks)
            .map(|(t, &k)| t.canon[k])
            .collect()
    }

    /// True when the model carries a protocol order (exact mode).
    pub fn is_exact(&self) -> bool {
        self.exact.is_some()
    }

    /// Size of the over-approximate admitted set in canonical space:
    /// the product over threads of their distinct cumulative images
    /// (saturating). Defined in both modes — in exact mode this is the
    /// envelope the exact set is compared against.
    pub fn admitted_count(&self) -> u128 {
        self.threads
            .iter()
            .fold(1u128, |acc, t| acc.saturating_mul(t.ids.len() as u128))
    }

    /// Size of the exact admitted set: the number of distinct canonical
    /// cut images of the traced protocol order. `None` when the model
    /// was built without a trace.
    pub fn exact_count(&self) -> Option<u128> {
        self.exact.as_ref().map(|e| e.canonical.len() as u128)
    }

    /// The canonical cut vectors of the exact set, in frontier order
    /// (exact mode only).
    pub fn exact_cuts(&self) -> Option<&[Vec<usize>]> {
        self.exact.as_ref().map(|e| e.canonical.as_slice())
    }

    /// Per-thread region counts (diagnostics/reporting).
    pub fn region_counts(&self) -> Vec<usize> {
        self.threads.iter().map(|t| t.deltas.len()).collect()
    }

    /// Enumerates every canonical prefix vector of the over-approximate
    /// admitted set, in lexicographic order. Only call when
    /// [`LrpoModel::admitted_count`] is small (litmus-sized programs);
    /// the harness guards this.
    pub fn enumerate_canonical(&self) -> Vec<Vec<usize>> {
        let mut out: Vec<Vec<usize>> = vec![Vec::new()];
        for t in &self.threads {
            let canons: Vec<usize> = t
                .canon
                .iter()
                .enumerate()
                .filter(|&(k, &j)| j == k)
                .map(|(k, _)| k)
                .collect();
            out = out
                .into_iter()
                .flat_map(|v| {
                    canons.iter().map(move |&c| {
                        let mut v2 = v.clone();
                        v2.push(c);
                        v2
                    })
                })
                .collect();
        }
        out
    }

    /// Checks whether `observed` is an admitted post-crash image under
    /// the model's mode: per-thread prefix membership and the stray-write
    /// check (both modes), and — in exact mode — cut membership of the
    /// canonical witness vector in the traced order. On success returns
    /// the canonical per-thread prefix vector that witnesses membership
    /// (the harness's tightness bookkeeping).
    ///
    /// # Errors
    ///
    /// Returns a [`ModelViolation`] naming the offending thread, the
    /// first stray write, or the non-cut prefix vector when `observed`
    /// is outside the admitted set.
    pub fn check_image(&self, observed: &Memory) -> Result<Vec<usize>, ModelViolation> {
        let witness = self.check_image_overapprox(observed)?;
        if let Some(ex) = &self.exact {
            if !ex.set.contains(&witness) {
                return Err(ModelViolation {
                    thread: None,
                    detail: format!(
                        "canonical prefix vector {witness:?} is admitted by the \
                         over-approximation but is not a cut of the traced \
                         protocol order ({} cuts over {} regions)",
                        ex.canonical.len(),
                        ex.order.len()
                    ),
                });
            }
        }
        Ok(witness)
    }

    /// The over-approximate membership check alone (ignores any
    /// attached protocol order). Exposed so exact-mode callers can
    /// also account for the envelope.
    pub fn check_image_overapprox(&self, observed: &Memory) -> Result<Vec<usize>, ModelViolation> {
        let mut witness = Vec::with_capacity(self.threads.len());
        for (tid, t) in self.threads.iter().enumerate() {
            let seen: Vec<u64> = t.addrs.iter().map(|&a| observed.read_word(a)).collect();
            // Only canonical prefixes are candidates: any other prefix
            // repeats the row of an earlier one.
            match (0..t.rows.len()).find(|&k| t.canon[k] == k && t.rows[k] == seen) {
                Some(k) => witness.push(k),
                None => {
                    return Err(ModelViolation {
                        thread: Some(tid),
                        detail: t.closest_prefix(&seen),
                    })
                }
            }
        }

        // Stray writes: the whole-image replay of `witness` equals
        // `observed` on every footprint (each footprint word matched its
        // prefix) and is the install image everywhere else, so only
        // words outside every footprint can still differ.
        if let Some((addr, want, got)) = self
            .base
            .first_difference_where(observed, |a| !self.footprint.contains(&a))
        {
            // `first_difference_where(other)` reports (addr, self, other).
            return Err(ModelViolation {
                thread: None,
                detail: format!(
                    "whole-image replay of prefix vector {witness:?} diverges at \
                     {addr:#x}: observed {got:#x}, predicted {want:#x}"
                ),
            });
        }
        Ok(witness)
    }

    /// Does the exact set admit the canonical prefix vector `ks`?
    /// `None` when the model carries no protocol order.
    pub fn exact_admits(&self, ks: &[usize]) -> Option<bool> {
        self.exact.as_ref().map(|e| e.set.contains(ks))
    }

    /// Does the model consider `ks` (canonical) reachable only through
    /// the cross-thread over-approximation? True when `ks` selects a
    /// non-empty prefix on more than one thread — single-thread
    /// prefixes are always realisable by a crash straight after the
    /// prefix's last boundary delivery.
    pub fn is_cross_thread_combination(&self, ks: &[usize]) -> bool {
        ks.iter().filter(|&&k| k > 0).count() > 1
    }

    /// Size of `mutant`'s admitted set (distinct images), or `None`
    /// when the model carries no protocol order — mutants are defined
    /// relative to the exact rule — or when
    /// [`ModelMutant::UnorderedPrefixes`]'s subset enumeration exceeds
    /// its per-thread region cap.
    ///
    /// Every mutant admits a superset of the exact set, so
    /// `mutant_count >= exact_count` always; a *fully witnessed* sweep
    /// (`witnessed == exact_count`, zero violations) therefore falsifies
    /// any mutant with `mutant_count > exact_count`: the surplus images
    /// are proven unreachable because the whole reachable set was
    /// observed.
    pub fn mutant_count(&self, mutant: ModelMutant) -> Option<u128> {
        let ex = self.exact.as_ref()?;
        match mutant {
            ModelMutant::DropAckOrder => Some(self.admitted_count()),
            ModelMutant::UnorderedPrefixes => self.unordered_count(),
            ModelMutant::IgnoreFlushFence => Some(self.flush_fence_count(ex)),
        }
    }

    /// Distinct images over per-thread region *subsets* applied in ID
    /// order (product across threads, saturating).
    fn unordered_count(&self) -> Option<u128> {
        let mut total = 1u128;
        for t in &self.threads {
            if t.deltas.len() > SUBSET_CAP {
                return None;
            }
            let mut images = FxHashSet::default();
            subset_rows(&t.deltas, t.rows[0].clone(), &mut images);
            total = total.saturating_mul(images.len() as u128);
        }
        Some(total)
    }

    /// Distinct images over exact cuts plus store-granular partial
    /// prefixes of the region committing next at each frontier,
    /// without its boundary store: the distinct vectors of per-thread
    /// row ids, where a partial row that no prefix has gets a fresh id.
    fn flush_fence_count(&self, ex: &ExactSet) -> u128 {
        let mut images: FxHashSet<Vec<usize>> = ex.set.clone();
        let mut extra = vec![FxHashMap::default(); self.threads.len()];
        for (f, &t) in ex.order.threads().iter().enumerate() {
            let th = &self.threads[t];
            let k = ex.raw_cuts[f][t];
            let delta = &th.deltas[k];
            let mut ids = self.canonical(&ex.raw_cuts[f]);
            let mut row = th.rows[k].clone();
            // Drop the boundary store: the region never commits here.
            for &(c, v) in &delta[..delta.len() - 1] {
                row[c] = v;
                ids[t] = th.intern(&row, &mut extra[t]);
                images.insert(ids.clone());
            }
        }
        images.len() as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;
    use lightwsp_ir::builder::FuncBuilder;
    use lightwsp_ir::{layout, AluOp, Cond, Program, Reg};

    fn two_region_program() -> Program {
        let mut b = FuncBuilder::new("t");
        b.mov_imm(Reg::R1, layout::HEAP_BASE as i64);
        b.mov_imm(Reg::R2, 1);
        b.store(Reg::R2, Reg::R1, 0);
        b.region_boundary();
        b.mov_imm(Reg::R2, 2);
        b.store(Reg::R2, Reg::R1, 0);
        b.region_boundary();
        b.halt();
        Program::from_single(b.finish())
    }

    #[test]
    fn prefixes_are_admitted_and_suffixes_rejected() {
        let p = two_region_program();
        let rs = extract(&p, 1, 10_000).unwrap();
        let m = LrpoModel::new(&rs);
        assert_eq!(m.admitted_count(), 3, "k = 0, 1, 2");

        // k = 0: the untouched install image.
        assert_eq!(m.check_image(&rs.install).unwrap(), vec![0]);

        // k = 1: first region applied.
        let mut img = rs.install.clone();
        img.write_word(layout::HEAP_BASE, 1);
        let (a, v) = rs.threads[0].regions[0].boundary;
        img.write_word(a, v);
        assert_eq!(m.check_image(&img).unwrap(), vec![1]);

        // Region 2 without region 1's boundary value is NOT admitted.
        let mut bad = rs.install.clone();
        bad.write_word(layout::HEAP_BASE, 2);
        let err = m.check_image(&bad).unwrap_err();
        assert_eq!(err.thread, Some(0));
    }

    #[test]
    fn stray_writes_rejected_by_whole_image_replay() {
        let p = two_region_program();
        let rs = extract(&p, 1, 10_000).unwrap();
        let m = LrpoModel::new(&rs);
        let mut img = rs.install.clone();
        img.write_word(layout::HEAP_BASE + 0x9000, 0xdead);
        let err = m.check_image(&img).unwrap_err();
        assert!(err.thread.is_none(), "whole-image check must catch it");
        assert_eq!(
            err.to_string(),
            format!(
                "whole-image replay of prefix vector [0] diverges at {:#x}: \
                 observed 0xdead, predicted 0x0",
                layout::HEAP_BASE + 0x9000
            )
        );

        // A stray word beside the thread's own data word, on a page the
        // thread writes, after a matching prefix 1.
        let mut img = rs.install.clone();
        img.write_word(layout::HEAP_BASE, 1);
        let (a, v) = rs.threads[0].regions[0].boundary;
        img.write_word(a, v);
        img.write_word(layout::HEAP_BASE + 8, 5);
        let err = m.check_image(&img).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "whole-image replay of prefix vector [1] diverges at {:#x}: \
                 observed 0x5, predicted 0x0",
                layout::HEAP_BASE + 8
            )
        );
    }

    #[test]
    fn per_thread_mismatch_names_the_closest_prefix() {
        let p = two_region_program();
        let rs = extract(&p, 1, 10_000).unwrap();
        let m = LrpoModel::new(&rs);
        let (a, v) = rs.threads[0].regions[0].boundary;
        // Region 1's boundary with a data word no region stores: prefix
        // 1 differs in the data word only, prefixes 0 and 2 in both.
        let mut img = rs.install.clone();
        img.write_word(layout::HEAP_BASE, 7);
        img.write_word(a, v);
        let err = m.check_image(&img).unwrap_err();
        assert_eq!(err.thread, Some(0));
        assert_eq!(
            err.to_string(),
            format!(
                "thread 0: no region prefix matches the observed image; closest is \
                 prefix 1/2 with 1 mismatching words, first at {:#x}: observed 0x7, \
                 predicted 0x1",
                layout::HEAP_BASE
            )
        );

        // Region 2's data word without any boundary: prefixes 0 and 2
        // both differ in one word, and the tie goes to the smaller.
        let mut img = rs.install.clone();
        img.write_word(layout::HEAP_BASE, 2);
        let err = m.check_image(&img).unwrap_err();
        assert_eq!(
            err.detail,
            format!(
                "no region prefix matches the observed image; closest is prefix 0/2 \
                 with 1 mismatching words, first at {:#x}: observed 0x2, predicted 0x0",
                layout::HEAP_BASE
            )
        );
    }

    #[test]
    fn idempotent_loop_region_canonicalises() {
        // A loop whose body re-stores the same value and crosses the
        // same boundary each iteration produces byte-identical
        // cumulative images (same data word, same PC value), so the two
        // loop prefixes canonicalise to one ⇒ only 2 distinct images.
        let mut b = FuncBuilder::new("t");
        let body = b.new_block();
        let exit = b.new_block();
        b.mov_imm(Reg::R1, layout::HEAP_BASE as i64);
        b.mov_imm(Reg::R2, 5);
        b.mov_imm(Reg::R3, 0);
        b.jump(body);
        b.switch_to(body);
        b.store(Reg::R2, Reg::R1, 0);
        b.region_boundary();
        b.alu_imm(AluOp::Add, Reg::R3, Reg::R3, 1);
        b.branch_imm(Cond::Lt, Reg::R3, 2, body, exit);
        b.switch_to(exit);
        b.halt();
        let p = Program::from_single(b.finish());
        let rs = extract(&p, 1, 10_000).unwrap();
        let m = LrpoModel::new(&rs);
        assert_eq!(m.region_counts(), vec![2]);
        assert_eq!(m.admitted_count(), 2, "loop iterations are idempotent");
    }

    #[test]
    fn store_of_install_value_canonicalises() {
        // A region whose only effect is re-storing the install value
        // (0 over an untouched heap word) plus a boundary that repeats
        // the previous PC value is image-invisible: normalized
        // canonicalisation must fold it into the preceding prefix.
        let mut b = FuncBuilder::new("t");
        b.mov_imm(Reg::R1, layout::HEAP_BASE as i64);
        b.mov_imm(Reg::R2, 0);
        b.store(Reg::R2, Reg::R1, 0); // writes install value 0
        b.region_boundary();
        b.halt();
        let p = Program::from_single(b.finish());
        let rs = extract(&p, 1, 10_000).unwrap();
        let m = LrpoModel::new(&rs);
        // The boundary store still changes the PC slot, so prefixes 0
        // and 1 stay distinct — but the heap word contributes nothing:
        // the k=1 overlay must not contain an (addr, 0) entry.
        let mut img = rs.install.clone();
        let (a, v) = rs.threads[0].regions[0].boundary;
        img.write_word(a, v);
        assert_eq!(m.check_image(&img).unwrap(), vec![1]);
    }

    #[test]
    fn trailing_region_is_a_distinct_recovery_point() {
        // store; boundary; store same value; halt → the synthetic
        // trailing region re-stores the data word with a value the
        // prefix already has, but its boundary checkpoints the halt
        // point (plus the stale-slot repair dump), so all 3 prefixes
        // remain distinguishable.
        let mut b = FuncBuilder::new("t");
        b.mov_imm(Reg::R1, layout::HEAP_BASE as i64);
        b.mov_imm(Reg::R2, 5);
        b.store(Reg::R2, Reg::R1, 0);
        b.region_boundary();
        b.store(Reg::R2, Reg::R1, 0);
        b.halt();
        let p = Program::from_single(b.finish());
        let rs = extract(&p, 1, 10_000).unwrap();
        let m = LrpoModel::new(&rs);
        assert_eq!(m.region_counts(), vec![2]);
        assert_eq!(m.admitted_count(), 3, "halt point is a new recovery point");
    }

    fn two_thread_two_region_program() -> Program {
        // Each thread writes its own 8 KiB stripe: two regions each,
        // disjoint across threads.
        let mut b = FuncBuilder::new("t");
        b.alu_imm(AluOp::Shl, Reg::R1, Reg::R0, 13);
        b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, layout::HEAP_BASE as i64);
        b.mov_imm(Reg::R2, 1);
        b.store(Reg::R2, Reg::R1, 0);
        b.region_boundary();
        b.mov_imm(Reg::R2, 2);
        b.store(Reg::R2, Reg::R1, 8);
        b.region_boundary();
        b.halt();
        Program::from_single(b.finish())
    }

    #[test]
    fn exact_mode_is_a_strict_subset_of_overapprox() {
        let p = two_thread_two_region_program();
        let rs = extract(&p, 2, 10_000).unwrap();
        // A plausible interleaved trace: t0 r1, t1 r1, t0 r2, t1 r2.
        let order = ProtocolOrder::new(vec![0, 1, 0, 1]);
        let m = LrpoModel::with_protocol(&rs, &order).unwrap();
        assert_eq!(m.admitted_count(), 9, "3 x 3 unconstrained");
        assert_eq!(m.exact_count(), Some(5), "N + 1 cuts, all distinct");
        // Cut (1, 1) is admitted; combination (2, 0) is not a cut.
        assert_eq!(m.exact_admits(&[1, 1]), Some(true));
        assert_eq!(m.exact_admits(&[2, 0]), Some(false));

        // A non-cut image passes the over-approx check but fails exact.
        let mut img = rs.install.clone();
        for t in 0..1 {
            for r in &rs.threads[t].regions {
                for &(a, v) in &r.stores {
                    img.write_word(a, v);
                }
                img.write_word(r.boundary.0, r.boundary.1);
            }
        }
        assert!(m.check_image_overapprox(&img).is_ok());
        let err = m.check_image(&img).unwrap_err();
        assert!(err.detail.contains("not a cut"), "got: {}", err.detail);
    }

    #[test]
    fn protocol_mismatch_is_rejected() {
        let p = two_thread_two_region_program();
        let rs = extract(&p, 2, 10_000).unwrap();
        let order = ProtocolOrder::new(vec![0, 1, 0]); // t1 short one region
        assert!(LrpoModel::with_protocol(&rs, &order).is_err());
    }

    #[test]
    fn mutant_counts_dominate_exact() {
        let p = two_thread_two_region_program();
        let rs = extract(&p, 2, 10_000).unwrap();
        let order = ProtocolOrder::new(vec![0, 1, 0, 1]);
        let m = LrpoModel::with_protocol(&rs, &order).unwrap();
        let exact = m.exact_count().unwrap();
        for mutant in ModelMutant::ALL {
            let c = m.mutant_count(mutant).unwrap();
            assert!(c >= exact, "{} admits {c} < exact {exact}", mutant.name());
        }
        // DropAckOrder is exactly the over-approximation.
        assert_eq!(
            m.mutant_count(ModelMutant::DropAckOrder),
            Some(m.admitted_count())
        );
        // Both looseness axes are strictly looser on this shape.
        assert!(m.mutant_count(ModelMutant::DropAckOrder).unwrap() > exact);
        assert!(m.mutant_count(ModelMutant::UnorderedPrefixes).unwrap() > exact);
        assert!(m.mutant_count(ModelMutant::IgnoreFlushFence).unwrap() > exact);
    }

    #[test]
    fn mutants_unavailable_without_protocol() {
        let p = two_region_program();
        let rs = extract(&p, 1, 10_000).unwrap();
        let m = LrpoModel::new(&rs);
        assert_eq!(m.exact_count(), None);
        for mutant in ModelMutant::ALL {
            assert_eq!(m.mutant_count(mutant), None);
        }
    }
}

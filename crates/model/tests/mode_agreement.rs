//! Property tests for the two enumeration modes' agreement contract.
//!
//! Exact mode filters the over-approximation through one traced
//! protocol order, so whatever order a run happens to produce:
//!
//! 1. **Subset** — every canonical cut of the protocol order is one of
//!    the over-approximation's canonical prefix vectors, and the exact
//!    count never exceeds the over-approximate count. This holds for
//!    *any* valid interleaving, not just the one the simulator would
//!    trace, so the property quantifies over random merges.
//! 2. **Single-thread collapse** — with one thread there is exactly
//!    one merge, whose cuts are all the thread's prefixes: the two
//!    modes must agree exactly (same canonical sets, same count).
//!
//! 3. **Counts match a whole-image enumeration** — every
//!    [`ModelMutant`]'s count, and the exact count, equal a brute-force
//!    count of distinct whole images built straight from the public
//!    [`RegionStructure`] and [`ProtocolOrder`]; the model accepts every
//!    cut image and rejects a stray write.
//!
//! Programs are drawn from the harness's own generator
//! ([`lightwsp_model::gen_case_biased`]), so the sampled shapes are the
//! ones the differential sweeps actually run.

use lightwsp_ir::Memory;
use lightwsp_model::{
    extract, gen_case_biased, FuzzBias, LrpoModel, ModelMutant, ProtocolOrder, RegionEffect,
    RegionStructure,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};

/// Extraction budget matching the harness default.
const STEPS: u64 = 1_000_000;

/// A whole image as the oracle keys it: every word that differs from
/// the install image, ascending.
type Image = Vec<(u64, u64)>;

/// Drops the overlay words that equal the install image.
fn freeze(install: &Memory, overlay: BTreeMap<u64, u64>) -> Image {
    overlay
        .into_iter()
        .filter(|&(a, v)| v != install.read_word(a))
        .collect()
}

/// A region's stores: data stores in program order, then the boundary.
fn stores(r: &RegionEffect) -> impl Iterator<Item = (u64, u64)> + '_ {
    r.stores.iter().copied().chain([r.boundary])
}

/// The overlay of every thread's first `ks[t]` regions.
fn cut_overlay(rs: &RegionStructure, ks: &[usize]) -> BTreeMap<u64, u64> {
    let mut img = BTreeMap::new();
    for (t, &k) in rs.threads.iter().zip(ks) {
        for r in &t.regions[..k] {
            img.extend(stores(r));
        }
    }
    img
}

/// The install image with `overlay` written over it.
fn materialise(rs: &RegionStructure, overlay: &BTreeMap<u64, u64>) -> Memory {
    let mut m = rs.install.clone();
    for (&a, &v) in overlay {
        m.write_word(a, v);
    }
    m
}

/// Distinct whole images over every per-thread prefix combination.
fn brute_drop_ack_order(rs: &RegionStructure) -> u128 {
    let mut vectors: Vec<Vec<usize>> = vec![Vec::new()];
    for t in &rs.threads {
        vectors = vectors
            .into_iter()
            .flat_map(|v| {
                (0..=t.regions.len()).map(move |k| {
                    let mut v = v.clone();
                    v.push(k);
                    v
                })
            })
            .collect();
    }
    let images: HashSet<Image> = vectors
        .iter()
        .map(|ks| freeze(&rs.install, cut_overlay(rs, ks)))
        .collect();
    images.len() as u128
}

/// Distinct images over every per-thread region subset applied in ID
/// order, multiplied across threads (their footprints are disjoint);
/// `None` past the model's 14-region subset cap.
fn brute_unordered(rs: &RegionStructure) -> Option<u128> {
    let mut total = 1u128;
    for t in &rs.threads {
        let n = t.regions.len();
        if n > 14 {
            return None;
        }
        let images: HashSet<Image> = (0u32..1 << n)
            .map(|mask| {
                let mut img = BTreeMap::new();
                for (i, r) in t.regions.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        img.extend(stores(r));
                    }
                }
                freeze(&rs.install, img)
            })
            .collect();
        total *= images.len() as u128;
    }
    Some(total)
}

/// Distinct whole images of the cuts of `order`.
fn brute_exact(rs: &RegionStructure, order: &ProtocolOrder) -> u128 {
    let cuts = order.cuts(rs.threads.len());
    let images: HashSet<Image> = cuts
        .iter()
        .map(|ks| freeze(&rs.install, cut_overlay(rs, ks)))
        .collect();
    images.len() as u128
}

/// Distinct whole images of the cuts of `order` plus, at each frontier,
/// every store-granular prefix of the next region's data stores,
/// without its boundary.
fn brute_flush_fence(rs: &RegionStructure, order: &ProtocolOrder) -> u128 {
    let cuts = order.cuts(rs.threads.len());
    let mut images: HashSet<Image> = cuts
        .iter()
        .map(|ks| freeze(&rs.install, cut_overlay(rs, ks)))
        .collect();
    for (f, &t) in order.threads().iter().enumerate() {
        let data = &rs.threads[t].regions[cuts[f][t]].stores;
        for j in 1..=data.len() {
            let mut img = cut_overlay(rs, &cuts[f]);
            img.extend(data[..j].iter().copied());
            images.insert(freeze(&rs.install, img));
        }
    }
    images.len() as u128
}

/// Merges per-thread region counts into one global order using `picks`
/// as the tie-breaking randomness (round-robin over non-empty threads,
/// rotated by the drawn picks).
fn random_merge(counts: &[usize], picks: &[u64]) -> Vec<usize> {
    let mut left = counts.to_vec();
    let mut order = Vec::with_capacity(left.iter().sum());
    let mut i = 0;
    while left.iter().any(|&c| c > 0) {
        let live: Vec<usize> = (0..left.len()).filter(|&t| left[t] > 0).collect();
        let pick = picks.get(i).copied().unwrap_or(i as u64) as usize % live.len();
        let t = live[pick];
        left[t] -= 1;
        order.push(t);
        i += 1;
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// Exact ⊆ over-approx for cross-thread-biased programs under any
    /// interleaving of the per-thread region streams.
    #[test]
    fn exact_is_subset_of_overapprox(
        seed in 0u64..1 << 48,
        idx in 0u64..64,
        picks in prop::collection::vec(0u64..16, 64..65),
    ) {
        let case = gen_case_biased(seed, idx, FuzzBias::CrossThread);
        let rs = extract(&case.compiled.program, case.threads, STEPS)
            .expect("generator stays inside the extraction domain");
        let over = LrpoModel::new(&rs);
        let envelope: std::collections::HashSet<Vec<usize>> =
            over.enumerate_canonical().into_iter().collect();

        let order = random_merge(&over.region_counts(), &picks);
        let exact = LrpoModel::with_protocol(&rs, &ProtocolOrder::new(order))
            .expect("a merge of the true per-thread counts always validates");

        let cuts = exact.exact_cuts().expect("exact mode carries its cuts");
        prop_assert!(exact.exact_count().unwrap() <= exact.admitted_count());
        for cut in cuts {
            prop_assert!(
                envelope.contains(cut),
                "exact cut {cut:?} missing from the over-approximation"
            );
        }
    }

    /// Every mutant count and the exact count equal the whole-image
    /// enumeration; every cut image is admitted with its own canonical
    /// witness, and both a stray write beyond every footprint and a
    /// footprint word no prefix holds are rejected.
    #[test]
    fn counts_and_checks_match_whole_image_enumeration(
        seed in 0u64..1 << 48,
        idx in 0u64..64,
        picks in prop::collection::vec(0u64..16, 64..65),
    ) {
        let case = gen_case_biased(seed, idx, FuzzBias::CrossThread);
        let rs = extract(&case.compiled.program, case.threads, STEPS)
            .expect("generator stays inside the extraction domain");
        let counts: Vec<usize> = rs.threads.iter().map(|t| t.regions.len()).collect();
        let order = ProtocolOrder::new(random_merge(&counts, &picks));
        let m = LrpoModel::with_protocol(&rs, &order)
            .expect("a merge of the true per-thread counts always validates");

        prop_assert_eq!(m.exact_count(), Some(brute_exact(&rs, &order)));
        prop_assert_eq!(
            m.mutant_count(ModelMutant::DropAckOrder),
            Some(brute_drop_ack_order(&rs))
        );
        prop_assert_eq!(
            m.mutant_count(ModelMutant::UnorderedPrefixes),
            brute_unordered(&rs)
        );
        prop_assert_eq!(
            m.mutant_count(ModelMutant::IgnoreFlushFence),
            Some(brute_flush_fence(&rs, &order))
        );

        let mut witnesses = HashSet::new();
        for ks in order.cuts(rs.threads.len()) {
            let img = materialise(&rs, &cut_overlay(&rs, &ks));
            match m.check_image(&img) {
                Ok(w) => {
                    prop_assert_eq!(m.exact_admits(&w), Some(true));
                    witnesses.insert(w);
                }
                Err(v) => prop_assert!(false, "cut {ks:?} rejected: {v}"),
            }
        }
        prop_assert_eq!(Some(witnesses.len() as u128), m.exact_count());

        let written = |a: u64| rs.threads.iter().any(|t| t.writes.contains(&a));
        let full = cut_overlay(&rs, &counts);
        let stray = (1..)
            .map(|i| full.keys().next_back().copied().unwrap_or(0) + 8 * i)
            .find(|&a| !written(a))
            .expect("some word past the highest store is unwritten");
        let mut img = materialise(&rs, &full);
        img.write_word(stray, rs.install.read_word(stray) ^ 0xdead);
        let err = m.check_image(&img).expect_err("a stray write is never admitted");
        prop_assert!(err.thread.is_none(), "{err}");
        prop_assert!(
            err.detail.contains(&format!("diverges at {stray:#x}")),
            "{err}"
        );

        // A value no region stores, in thread 0's highest footprint word,
        // matches none of its prefixes.
        let t0 = &rs.threads[0];
        let top = *t0.writes.iter().max().expect("every thread stores");
        let stored = |v: u64| t0.regions.iter().flat_map(stores).any(|s| s == (top, v));
        let odd = (1..)
            .map(|x| full[&top] ^ x)
            .find(|&v| v != rs.install.read_word(top) && !stored(v))
            .expect("some value is never stored");
        let mut img = materialise(&rs, &full);
        img.write_word(top, odd);
        let err = m.check_image(&img).expect_err("a value no prefix holds");
        prop_assert_eq!(err.thread, Some(0), "{}", err);
    }

    /// With a single thread the two modes agree exactly.
    #[test]
    fn single_thread_modes_agree(seed in 0u64..1 << 48, idx in 0u64..64) {
        let case = gen_case_biased(seed, idx, FuzzBias::Uniform);
        if case.threads != 1 {
            return Ok(());
        }
        let rs = extract(&case.compiled.program, 1, STEPS)
            .expect("generator stays inside the extraction domain");
        let over = LrpoModel::new(&rs);
        let n = over.region_counts()[0];
        let exact = LrpoModel::with_protocol(&rs, &ProtocolOrder::new(vec![0; n])).unwrap();

        prop_assert_eq!(exact.exact_count().unwrap(), over.admitted_count());
        let cuts: std::collections::HashSet<Vec<usize>> =
            exact.exact_cuts().unwrap().iter().cloned().collect();
        let envelope: std::collections::HashSet<Vec<usize>> =
            over.enumerate_canonical().into_iter().collect();
        prop_assert_eq!(cuts, envelope);
    }
}

//! Property tests for the result store.
//!
//! Two contracts matter to the incremental re-bench machinery and are
//! pinned here:
//!
//! 1. **Layout invisibility** — any interleaving of puts, flushes
//!    (batch files), compactions and reopens serves every key's
//!    last-written value and yields exactly the same queryable contents
//!    as sealing every entry into one batch, whether the store lives in
//!    memory or in a directory, and a flush compacts exactly when the
//!    store would otherwise hold more than [`MERGE_FANOUT`] files.
//! 2. **Digest invalidation exactness** — perturbing one configuration
//!    knob invalidates exactly the cells whose config digest includes
//!    that knob, and perturbing the code digest invalidates every cell
//!    at once (that is the contract the warm/cold CI job relies on).

use lightwsp_store::{digest_debug, Batch, Entry, ResultStore, StoreKey, MERGE_FANOUT};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const CODE: u64 = 0xC0DE;

/// A compact op language: put (key-index, value-tag), flush, compact,
/// and reopen (drop the store, then open its directory again).
#[derive(Clone, Debug)]
enum Op {
    Put(u8, u16),
    Flush,
    Compact,
    Reopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let put = || (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Put(k % 24, v));
    // Puts are two ops in five, so flushes often find records queued.
    prop_oneof![
        put(),
        put(),
        Just(Op::Flush),
        Just(Op::Compact),
        Just(Op::Reopen),
    ]
}

/// Key space: three kinds, a few workloads/schemes, point from index.
fn key(i: u8) -> StoreKey {
    let kinds = ["run", "crashcell", "steptime"];
    let workloads = ["bzip2", "hmmer", "queue"];
    StoreKey::new(
        kinds[(i % 3) as usize],
        workloads[(i / 3 % 3) as usize],
        if i.is_multiple_of(2) {
            "LightWSP"
        } else {
            "Capri"
        },
        u64::from(i / 6),
        u64::from(i % 5),
        CODE,
    )
}

/// The batch-file count a flush leaves behind `files` files: one more
/// when records were queued, and one once that exceeds the fan-out.
fn after_flush(files: usize, queued: bool) -> usize {
    match files + usize::from(queued) {
        n if n > MERGE_FANOUT => 1,
        n => n,
    }
}

/// A fresh directory for one directory-backed run.
fn fresh_dir() -> PathBuf {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lwsp-store-prop-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: Option<&Path>) -> ResultStore {
    match dir {
        Some(dir) => ResultStore::open_with(dir, CODE).unwrap(),
        None => ResultStore::in_memory_with(CODE),
    }
}

/// Runs `ops` on a store in `dir` (in memory when `None`, where
/// `Reopen` does nothing) and checks contract 1 after every op.
fn check_ops(ops: &[Op], dir: Option<&Path>) -> Result<(), TestCaseError> {
    let mut store = open(dir);
    let mut all: Vec<Entry> = Vec::new();
    let mut last: BTreeMap<StoreKey, String> = BTreeMap::new();
    let (mut files, mut queued) = (0usize, false);
    for op in ops {
        match op {
            Op::Put(k, v) => {
                let value = format!("v{v}");
                all.push(Entry {
                    key: key(*k),
                    seq: all.len() as u64,
                    value: value.clone(),
                });
                last.insert(key(*k), value.clone());
                store.put(key(*k), value);
                queued = true;
            }
            Op::Flush => {
                store.flush().unwrap();
                files = after_flush(files, queued);
            }
            Op::Compact => {
                store.compact_all().unwrap();
                files = usize::from(!all.is_empty());
            }
            Op::Reopen => {
                let Some(dir) = dir else { continue };
                drop(store);
                store = open(Some(dir));
                files = after_flush(files, queued);
                prop_assert_eq!(store.stats().loaded_batches, files as u64);
            }
        }
        if !matches!(op, Op::Put(..)) {
            queued = false;
        }
        prop_assert_eq!(
            store.stats().resident_batches,
            files as u64,
            "after {:?}",
            op
        );
        if let Some(dir) = dir {
            let on_disk = std::fs::read_dir(dir)
                .unwrap()
                .filter(|e| {
                    let name = e.as_ref().unwrap().file_name();
                    name.to_string_lossy().ends_with(".lwsb")
                })
                .count();
            prop_assert_eq!(on_disk, files, "after {:?}", op);
            prop_assert!(on_disk <= MERGE_FANOUT);
        }
        for k in 0..24 {
            prop_assert_eq!(
                store.get(&key(k)),
                last.get(&key(k)).cloned(),
                "after {:?}",
                op
            );
        }
    }
    // The store's whole view, family by family in key order, equals one
    // sealed batch of every entry.
    let reference = Batch::seal(all);
    let got: Vec<Entry> = ["crashcell", "run", "steptime"]
        .iter()
        .flat_map(|k| store.kind_entries(k))
        .collect();
    prop_assert_eq!(got.len(), reference.entries().len());
    for (g, r) in got.iter().zip(reference.entries()) {
        prop_assert_eq!(&g.key, &r.key);
        prop_assert_eq!(&g.value, &r.value, "key {}", g.key);
    }
    Ok(())
}

proptest! {
    /// Contract 1, in memory and in a directory.
    #[test]
    fn interleaved_ops_match_single_batch(ops in prop::collection::vec(op_strategy(), 1..120)) {
        check_ops(&ops, None)?;
        let dir = fresh_dir();
        check_ops(&ops, Some(&dir))?;
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Contract 2: knob perturbation invalidates exactly the cells
    /// whose config digest includes that knob; code-digest perturbation
    /// invalidates everything.
    #[test]
    fn digest_perturbation_invalidates_exactly_affected_cells(
        knob_a in any::<u32>(),
        knob_b in any::<u32>(),
        delta in 1u32..1000,
    ) {
        let code = 0xC0DEu64;
        let workloads = ["bzip2", "hmmer", "queue", "btree"];
        // Scheme "narrow" depends only on knob_a; scheme "wide" on both.
        let keys_for = |a: u32, b: u32, code: u64| -> BTreeMap<StoreKey, &'static str> {
            let mut m = BTreeMap::new();
            for w in workloads {
                m.insert(
                    StoreKey::new("run", w, "narrow", digest_debug(&a), 0, code),
                    w,
                );
                m.insert(
                    StoreKey::new("run", w, "wide", digest_debug(&(a, b)), 0, code),
                    w,
                );
            }
            m
        };

        let store = ResultStore::in_memory_with(code);
        for (k, w) in keys_for(knob_a, knob_b, code) {
            store.put(k, format!("result-{w}"));
        }

        // Unchanged knobs: every cell is served.
        for k in keys_for(knob_a, knob_b, code).keys() {
            prop_assert!(store.get(k).is_some());
        }
        // Perturb knob_b: exactly the "wide" cells miss.
        for (k, _) in keys_for(knob_a, knob_b.wrapping_add(delta), code) {
            let hit = store.get(&k).is_some();
            prop_assert_eq!(hit, k.scheme == "narrow", "key {}", k);
        }
        // Perturb knob_a: every cell misses (both schemes depend on it).
        for k in keys_for(knob_a.wrapping_add(delta), knob_b, code).keys() {
            prop_assert!(store.get(k).is_none(), "key {}", k);
        }
        // Perturb the code digest: every cell misses.
        for k in keys_for(knob_a, knob_b, code ^ u64::from(delta)).keys() {
            prop_assert!(store.get(k).is_none(), "key {}", k);
        }
    }
}

//! `lightwsp-store`: a persistent, digest-keyed result store for
//! simulation campaigns.
//!
//! The evaluation harness produces results at four scales — whole-run
//! figure cells, crash-audit sweeps with thousands of fork points,
//! model-litmus capture sweeps, and data-structure audits — and before
//! this crate every `cargo run --bin all_figures` recomputed all of
//! them from scratch. The store makes results *durable and addressable*
//! instead: each record is keyed by
//! `(kind, workload, scheme, config-digest, point, code-digest)`
//! ([`StoreKey`]), served from one in-memory map, and written to disk as
//! immutable sorted [`Batch`] files, one per flush, which a compaction
//! folds into one once there are more than [`MERGE_FANOUT`]. Because
//! the **code digest** (a build-time fingerprint of every
//! simulation-relevant source file, see [`digest`]) is part of the key,
//! a warm re-run on unchanged code re-simulates nothing, a config tweak
//! invalidates exactly the affected cells, and historical records from
//! older builds remain queryable for perf-trajectory analysis.
//!
//! The crate is dependency-free (it sits *below* `lightwsp-core` in
//! the workspace graph) and stores opaque string payloads. Each record
//! family's codec is implemented on the report type that owns it, via
//! `lightwsp-core`'s `cache::Record` trait, and `Campaign::memo` there
//! is the one path that builds keys and reads or writes records.
//!
//! ```
//! use lightwsp_store::{ResultStore, StoreKey};
//!
//! let store = ResultStore::in_memory_with(0xC0DE);
//! let key = StoreKey::new("run", "bzip2", "LightWSP", 42, 0, store.code());
//! assert_eq!(store.get(&key), None);
//! store.put(key.clone(), "cycles=123".to_string());
//! assert_eq!(store.get(&key).as_deref(), Some("cycles=123"));
//! let stats = store.stats();
//! assert_eq!((stats.hits, stats.misses, stats.puts), (1, 1, 1));
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod digest;
pub mod key;
pub mod store;

pub use batch::{Batch, Entry};
pub use digest::{
    build_code_digest, code_digest, code_digest_from_env, combine, digest_bytes, digest_debug,
    digest_str, BUILD_CODE_DIGEST_HEX,
};
pub use key::StoreKey;
pub use store::{CacheStats, ResultStore, AUTOFLUSH_ENTRIES, MERGE_FANOUT};

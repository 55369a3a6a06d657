//! The durable result store: one in-memory map over a directory of
//! immutable batch files, plus cache statistics.
//!
//! ## Layout
//!
//! A store is a directory of `batch-<lo>-<hi>.lwsb` files, one sealed
//! [`Batch`] each, named by the contiguous global-sequence range they
//! cover. There is no manifest: opening a store globs the directory,
//! deletes `.tmp-` leftovers and any file whose range is covered by a
//! wider file, and reads the rest into one map in sequence order, so a
//! later file's record wins.
//!
//! ## Write path
//!
//! [`ResultStore::put`] writes the map and queues the record;
//! [`ResultStore::flush`] (or the automatic flush every
//! [`AUTOFLUSH_ENTRIES`] puts, or dropping the last handle) writes the
//! queue as one new batch file. Once the directory holds more than
//! [`MERGE_FANOUT`] batch files, and in [`ResultStore::compact_all`],
//! the flusher writes the whole map as one file covering every
//! sequence number. One lock guards the map, the queue and the
//! counters, and a flush holds it across its file writes.
//!
//! ## Crash safety
//!
//! Every batch file is written to a temp file, fsynced, renamed into
//! place, and made durable by an fsync of the directory, so a crash
//! leaves either no file or the whole one. A compaction deletes the
//! files its output covers only after its rename: a crash in between
//! leaves covered files, which the next open prunes. A failed write
//! leaves the old files holding every record they held, and its own
//! records stay queued until a later flush puts their file in place.

use crate::batch::{Batch, Entry};
use crate::digest::code_digest_from_env;
use crate::key::StoreKey;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Queue length that triggers an automatic flush.
pub const AUTOFLUSH_ENTRIES: usize = 4096;

/// Batch-file count above which a flush compacts the store into one
/// file.
pub const MERGE_FANOUT: usize = 4;

/// Point-in-time counters of one store's activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing (the caller then computes + puts).
    pub misses: u64,
    /// Records written this session.
    pub puts: u64,
    /// Batches sealed from the queue since the store opened, whether
    /// or not their file write succeeded.
    pub batches_appended: u64,
    /// Whole-store compactions attempted since the store opened.
    pub compactions: u64,
    /// Batches loaded from disk at open.
    pub loaded_batches: u64,
    /// Entries loaded from disk at open.
    pub loaded_entries: u64,
    /// Batch files the store holds (an in-memory store counts the
    /// files it would hold).
    pub resident_batches: u64,
    /// Distinct records the store serves.
    pub resident_entries: u64,
}

#[derive(Default)]
struct State {
    /// Every record the store serves, with its sequence number.
    map: BTreeMap<StoreKey, (u64, String)>,
    /// Records put since the last flush, in put order.
    queue: Vec<Entry>,
    /// The sequence number the next put takes.
    next_seq: u64,
    /// The sequence ranges of the batch files the store holds, oldest
    /// first.
    files: Vec<(u64, u64)>,
    /// The first error of an automatic flush in [`ResultStore::put`],
    /// held for the next [`ResultStore::flush`] to return.
    autoflush_error: Option<io::Error>,
    /// The counters [`ResultStore::stats`] does not derive.
    stats: CacheStats,
}

struct Inner {
    dir: Option<PathBuf>,
    code: u64,
    state: Mutex<State>,
}

/// A digest-keyed result store. Cheap to clone (shared handle); safe
/// to use from campaign worker threads.
#[derive(Clone)]
pub struct ResultStore {
    inner: Arc<Inner>,
}

fn batch_file_name(lo: u64, hi: u64) -> String {
    format!("batch-{lo:012}-{hi:012}.lwsb")
}

fn parse_file_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("batch-")?.strip_suffix(".lwsb")?;
    let (lo, hi) = rest.split_once('-')?;
    Some((lo.parse().ok()?, hi.parse().ok()?))
}

/// Writes `dir/name` durably: the contents go to a temp file, which is
/// fsynced before the rename, and the directory is fsynced after it, so
/// a crash leaves either no file or the whole one.
fn write_atomically(dir: &Path, name: &str, contents: &str) -> io::Result<()> {
    let tmp = dir.join(format!(".tmp-{name}"));
    let mut file = File::create(&tmp)?;
    file.write_all(contents.as_bytes())?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, dir.join(name))?;
    File::open(dir)?.sync_all()
}

/// One map record as an [`Entry`].
fn entry((key, (seq, value)): (&StoreKey, &(u64, String))) -> Entry {
    Entry {
        key: key.clone(),
        seq: *seq,
        value: value.clone(),
    }
}

/// Writes `batch`'s file, when the store has a directory.
fn persist(dir: Option<&Path>, batch: &Batch) -> io::Result<()> {
    match dir {
        Some(dir) => write_atomically(
            dir,
            &batch_file_name(batch.seq_lo(), batch.seq_hi()),
            &batch.encode(),
        ),
        None => Ok(()),
    }
}

impl State {
    /// Writes the queue as one new batch file, then compacts once the
    /// store holds more than [`MERGE_FANOUT`] files. Returns the number
    /// of records written. The records stay queued until their file is
    /// in place, so after a failed write the next flush writes them.
    fn flush(&mut self, dir: Option<&Path>) -> io::Result<usize> {
        if self.queue.is_empty() {
            return Ok(0);
        }
        let batch = Batch::seal(self.queue.clone());
        self.stats.batches_appended += 1;
        persist(dir, &batch)?;
        self.queue.clear();
        self.files.push((batch.seq_lo(), batch.seq_hi()));
        if self.files.len() > MERGE_FANOUT {
            self.compact(dir)?;
        }
        Ok(batch.len())
    }

    /// Writes the whole map as one batch file covering every sequence
    /// number, then deletes every other batch file, since it covers
    /// them all.
    fn compact(&mut self, dir: Option<&Path>) -> io::Result<()> {
        self.stats.compactions += 1;
        let whole = Batch::covering(self.map.iter().map(entry).collect(), 0, self.next_seq - 1);
        persist(dir, &whole)?;
        let range = (whole.seq_lo(), whole.seq_hi());
        let covered = std::mem::replace(&mut self.files, vec![range]);
        if let Some(dir) = dir {
            for (lo, hi) in covered.into_iter().filter(|&old| old != range) {
                let _ = std::fs::remove_file(dir.join(batch_file_name(lo, hi)));
            }
        }
        Ok(())
    }
}

impl Inner {
    /// The one lock. Every update leaves the state valid, so a panic
    /// elsewhere while it was held does not poison it.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Inner {
    /// The last handle out writes the queue.
    fn drop(&mut self) {
        let _ = self.state().flush(self.dir.as_deref());
    }
}

impl ResultStore {
    /// Opens (or creates) the store at `dir` with the environment's
    /// code digest (`LIGHTWSP_DIGEST_SALT` applied).
    ///
    /// # Errors
    ///
    /// Propagates directory/IO errors; a malformed batch file is an
    /// `InvalidData` error naming the file.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultStore> {
        ResultStore::open_with(dir, code_digest_from_env())
    }

    /// Opens (or creates) the store at `dir` with an explicit code
    /// digest (tests use this to model code changes without touching
    /// the environment).
    ///
    /// # Errors
    ///
    /// Propagates directory/IO errors and batch-file parse failures.
    pub fn open_with(dir: impl Into<PathBuf>, code: u64) -> io::Result<ResultStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // Collect batch files; prune any whose seq range is covered by
        // a wider file (interrupted-compaction leftovers).
        let mut ranged: Vec<(u64, u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some((lo, hi)) = parse_file_name(&name) {
                ranged.push((lo, hi, entry.path()));
            } else if name.starts_with(".tmp-") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        ranged.sort();
        let keep: Vec<(u64, u64, PathBuf)> = ranged
            .iter()
            .filter(|(lo, hi, path)| {
                let covered = ranged
                    .iter()
                    .any(|(l, h, p)| p != path && *l <= *lo && *hi <= *h && (*l, *h) != (*lo, *hi));
                if covered {
                    let _ = std::fs::remove_file(path);
                }
                !covered
            })
            .cloned()
            .collect();

        let mut state = State::default();
        for (lo, hi, path) in keep {
            let text = std::fs::read_to_string(&path)?;
            let batch = Batch::decode(&text).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })?;
            state.stats.loaded_batches += 1;
            state.stats.loaded_entries += batch.len() as u64;
            state.next_seq = state.next_seq.max(hi + 1);
            state.files.push((lo, hi));
            for e in batch.entries() {
                state.map.insert(e.key.clone(), (e.seq, e.value.clone()));
            }
        }
        Ok(ResultStore::new(Some(dir), code, state))
    }

    /// A store with no backing directory and an explicit code digest
    /// (tests; records live only in memory).
    pub fn in_memory_with(code: u64) -> ResultStore {
        ResultStore::new(None, code, State::default())
    }

    fn new(dir: Option<PathBuf>, code: u64, state: State) -> ResultStore {
        ResultStore {
            inner: Arc::new(Inner {
                dir,
                code,
                state: Mutex::new(state),
            }),
        }
    }

    /// The code digest this store keys new records under.
    pub fn code(&self) -> u64 {
        self.inner.code
    }

    /// The backing directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.inner.dir.as_deref()
    }

    /// Looks up `key`, counting a hit or miss.
    pub fn get(&self, key: &StoreKey) -> Option<String> {
        let mut state = self.inner.state();
        let found = state.map.get(key).map(|(_, value)| value.clone());
        match found {
            Some(_) => state.stats.hits += 1,
            None => state.stats.misses += 1,
        }
        found
    }

    /// Writes one record; flushes automatically at
    /// [`AUTOFLUSH_ENTRIES`] queued records. The automatic flush's
    /// first error is returned by the next
    /// [`flush`](ResultStore::flush), which also writes the records
    /// again; until then no put flushes.
    pub fn put(&self, key: StoreKey, value: String) {
        let mut state = self.inner.state();
        let seq = state.next_seq;
        state.next_seq += 1;
        state.stats.puts += 1;
        state.map.insert(key.clone(), (seq, value.clone()));
        state.queue.push(Entry { key, seq, value });
        if state.queue.len() >= AUTOFLUSH_ENTRIES && state.autoflush_error.is_none() {
            if let Err(e) = state.flush(self.dir()) {
                state.autoflush_error.get_or_insert(e);
            }
        }
    }

    /// Writes the queued records as one new batch file, and compacts
    /// once the store holds more than [`MERGE_FANOUT`] files. Returns
    /// the number of records written.
    ///
    /// # Errors
    ///
    /// Returns the first error of an automatic flush since the last
    /// call, if any; otherwise propagates the batch file's write error
    /// or the compaction's (the records still serve from memory and
    /// stay queued for the next flush, and a failed compaction keeps
    /// its inputs on disk).
    pub fn flush(&self) -> io::Result<usize> {
        let mut state = self.inner.state();
        let deferred = state.autoflush_error.take();
        let flushed = state.flush(self.dir());
        deferred.map_or(flushed, Err)
    }

    /// Flushes, then writes the whole map as one batch file covering
    /// every sequence number.
    ///
    /// # Errors
    ///
    /// Propagates the first batch-file write error, as
    /// [`flush`](ResultStore::flush) does.
    pub fn compact_all(&self) -> io::Result<()> {
        let mut state = self.inner.state();
        let deferred = state.autoflush_error.take();
        let mut result = state.flush(self.dir()).map(drop);
        if !state.map.is_empty() {
            result = result.and(state.compact(self.dir()));
        }
        deferred.map_or(result, Err)
    }

    /// All records of one family, in key order.
    pub fn kind_entries(&self, kind: &str) -> Vec<Entry> {
        self.inner
            .state()
            .map
            .range(StoreKey::kind_floor(kind)..)
            .take_while(|(key, _)| key.kind == kind)
            .map(entry)
            .collect()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let state = self.inner.state();
        CacheStats {
            resident_batches: state.files.len() as u64,
            resident_entries: state.map.len() as u64,
            ..state.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> StoreKey {
        StoreKey::new("run", format!("w{n}"), "LightWSP", n, 0, 7)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lwsp-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The batch files in `dir`, by name.
    fn batch_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| parse_file_name(name).is_some())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn get_hits_after_put_and_counts() {
        let s = ResultStore::in_memory_with(1);
        assert_eq!(s.get(&key(1)), None);
        s.put(key(1), "computed".into());
        assert_eq!(s.get(&key(1)).as_deref(), Some("computed"));
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.puts), (1, 1, 1));
    }

    #[test]
    fn persists_across_open_and_prunes_covered_files() {
        let dir = tmp_dir("reopen");
        let aside = tmp_dir("reopen-aside");
        std::fs::create_dir_all(&aside).unwrap();
        {
            let s = ResultStore::open_with(&dir, 7).unwrap();
            for n in 0..20 {
                s.put(key(n), format!("v{n}"));
                if n % 10 == 9 {
                    s.flush().unwrap();
                }
            }
            let inputs = batch_files(&dir);
            assert_eq!(inputs.len(), 2);
            for name in &inputs {
                std::fs::copy(dir.join(name), aside.join(name)).unwrap();
            }
            s.compact_all().unwrap();
            // Restoring the inputs leaves what a crash between the
            // compaction's rename and its deletes leaves.
            for name in &inputs {
                std::fs::copy(aside.join(name), dir.join(name)).unwrap();
            }
            assert_eq!(batch_files(&dir).len(), 3);
        }
        let s = ResultStore::open_with(&dir, 7).unwrap();
        assert_eq!(s.stats().loaded_batches, 1);
        assert_eq!(batch_files(&dir), ["batch-000000000000-000000000019.lwsb"]);
        for n in 0..20 {
            assert_eq!(s.get(&key(n)).as_deref(), Some(format!("v{n}").as_str()));
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&aside).unwrap();
    }

    #[test]
    fn overwrites_are_last_writer_wins_across_flushes() {
        let s = ResultStore::in_memory_with(1);
        s.put(key(5), "old".into());
        s.flush().unwrap();
        s.put(key(5), "new".into());
        assert_eq!(s.get(&key(5)).as_deref(), Some("new"));
        s.flush().unwrap();
        assert_eq!(s.get(&key(5)).as_deref(), Some("new"));
        let all = s.kind_entries("run");
        assert_eq!(all.iter().filter(|e| e.key == key(5)).count(), 1);
    }

    #[test]
    fn compaction_preserves_contents() {
        let dir = tmp_dir("compact");
        let s = ResultStore::open_with(&dir, 7).unwrap();
        for n in 0..40 {
            s.put(key(n), format!("v{n}"));
            if n % 5 == 4 {
                s.flush().unwrap();
            }
        }
        s.compact_all().unwrap();
        let st = s.stats();
        assert_eq!(st.resident_batches, 1);
        assert!(st.compactions > 0);
        for n in 0..40 {
            assert_eq!(s.get(&key(n)).as_deref(), Some(format!("v{n}").as_str()));
        }
        drop(s);
        // Reopen sees exactly the compacted contents, in one file.
        let s = ResultStore::open_with(&dir, 7).unwrap();
        assert_eq!(s.kind_entries("run").len(), 40);
        assert_eq!(s.stats().loaded_batches, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_merge_keeps_its_inputs_on_disk() {
        let dir = tmp_dir("failed-merge");
        let s = ResultStore::open_with(&dir, 7).unwrap();
        for n in 0..10 {
            s.put(key(n), format!("v{n}"));
            if n % 5 == 4 {
                s.flush().unwrap();
            }
        }
        // A directory where the merged batch's temp file goes makes its
        // write fail.
        let blocker = dir.join(".tmp-batch-000000000000-000000000009.lwsb");
        std::fs::create_dir(&blocker).unwrap();
        assert!(s.compact_all().is_err(), "the merged write must fail");
        // The records still serve from memory, and the store still
        // holds its two input files...
        assert_eq!(s.stats().resident_batches, 2);
        assert_eq!(s.get(&key(3)).as_deref(), Some("v3"));
        drop(s);
        // ...and its inputs still hold every record on disk.
        let s = ResultStore::open_with(&dir, 7).unwrap();
        assert_eq!(s.stats().loaded_batches, 2);
        for n in 0..10 {
            assert_eq!(s.get(&key(n)).as_deref(), Some(format!("v{n}").as_str()));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_autoflush_is_reported_by_the_next_flush() {
        let dir = tmp_dir("failed-autoflush");
        let s = ResultStore::open_with(&dir, 7).unwrap();
        // A directory where the autoflushed batch's temp file goes makes
        // its write fail.
        let blocker = dir.join(".tmp-batch-000000000000-000000004095.lwsb");
        std::fs::create_dir(&blocker).unwrap();
        for n in 0..AUTOFLUSH_ENTRIES as u64 {
            s.put(key(n), format!("v{n}"));
        }
        assert_eq!(s.stats().batches_appended, 1, "the puts must autoflush");
        assert!(s.flush().is_err(), "the autoflush error is lost");
        assert_eq!(s.get(&key(7)).as_deref(), Some("v7"));
        // Reported once: with the write unblocked, the next flush
        // writes the records the failed one kept queued.
        std::fs::remove_dir(&blocker).unwrap();
        assert_eq!(s.flush().unwrap(), AUTOFLUSH_ENTRIES);
        drop(s);
        let s = ResultStore::open_with(&dir, 7).unwrap();
        for n in 0..AUTOFLUSH_ENTRIES as u64 {
            assert_eq!(s.get(&key(n)), Some(format!("v{n}")), "record {n} lost");
        }
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn puts_do_not_retry_a_failed_autoflush() {
        let dir = tmp_dir("autoflush-retry");
        let s = ResultStore::open_with(&dir, 7).unwrap();
        let blocker = dir.join(".tmp-batch-000000000000-000000004095.lwsb");
        std::fs::create_dir(&blocker).unwrap();
        // One put past the failed autoflush: a retry would write a
        // batch whose temp file the blocker does not block.
        let puts = AUTOFLUSH_ENTRIES as u64 + 1;
        for n in 0..puts {
            s.put(key(n), format!("v{n}"));
        }
        assert_eq!(s.stats().batches_appended, 1, "a put retried the write");
        // The next flush reports the error and writes every record.
        assert!(s.flush().is_err(), "the autoflush error is lost");
        drop(s);
        let s = ResultStore::open_with(&dir, 7).unwrap();
        for n in 0..puts {
            assert_eq!(s.get(&key(n)), Some(format!("v{n}")), "record {n} lost");
        }
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursor_includes_pending_and_orders_keys() {
        let s = ResultStore::in_memory_with(1);
        s.put(key(3), "c".into());
        s.flush().unwrap();
        s.put(key(1), "a".into());
        let keys: Vec<u64> = s.kind_entries("run").iter().map(|e| e.key.config).collect();
        assert_eq!(keys, vec![1, 3]);
    }
}

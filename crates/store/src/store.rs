//! The durable result store: a [`Spine`] of immutable batch files plus
//! a pending write buffer and cache statistics.
//!
//! ## Layout
//!
//! A store is a directory of `batch-<lo>-<hi>.lwsb` files, one sealed
//! [`Batch`] each, named by the contiguous global-sequence range they
//! cover. There is no manifest: opening a store globs the directory,
//! drops any file whose range is covered by a wider file (the only
//! leftover an interrupted or failed compaction can produce — merged
//! output is renamed into place *before* its inputs are retired), and
//! rebuilds the spine. Every batch file is written to a temp file,
//! fsynced, renamed into place, and made durable with an fsync of the
//! directory, in keeping with the repository's crash-consistency
//! sensibilities.
//!
//! ## Write path
//!
//! [`ResultStore::put`] appends to an in-memory pending buffer;
//! [`ResultStore::flush`] (or the automatic flush every
//! [`AUTOFLUSH_ENTRIES`] puts, or `Drop`) seals the buffer into a new
//! immutable batch, persists it, and hands it to the spine — campaigns
//! therefore append batches instead of accumulating results in memory.
//! Once the spine exceeds [`MERGE_FANOUT`](crate::MERGE_FANOUT)
//! batches, the flusher merges adjacent pairs. Merging never changes
//! query results (last-writer-wins by sequence number at every level),
//! which is the determinism property the proptests pin.

use crate::batch::{Batch, Entry};
use crate::digest::code_digest_from_env;
use crate::key::StoreKey;
use crate::spine::{Cursor, Spine};
use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Pending-buffer size that triggers an automatic flush.
pub const AUTOFLUSH_ENTRIES: usize = 4096;

/// Point-in-time counters of one store's activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing (the caller then computes + puts).
    pub misses: u64,
    /// Records written this session.
    pub puts: u64,
    /// Batches sealed and appended this session.
    pub batches_appended: u64,
    /// Merge/compaction steps performed this session.
    pub compactions: u64,
    /// Batches loaded from disk at open.
    pub loaded_batches: u64,
    /// Entries loaded from disk at open.
    pub loaded_entries: u64,
    /// Batches currently resident in the spine.
    pub resident_batches: u64,
    /// Entries currently resident (pre-dedup across batches).
    pub resident_entries: u64,
}

struct State {
    spine: Spine,
    pending: Vec<Entry>,
    next_seq: u64,
}

struct Inner {
    dir: Option<PathBuf>,
    code: u64,
    state: Mutex<State>,
    /// Serialises mergers (concurrent flushers); held across the
    /// off-`state`-lock merge work.
    merge_lock: Mutex<()>,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    batches_appended: AtomicU64,
    compactions: AtomicU64,
    loaded_batches: u64,
    loaded_entries: u64,
    /// The first error of an automatic flush in [`ResultStore::put`],
    /// held for the next [`ResultStore::flush`] to return.
    autoflush_error: Mutex<Option<io::Error>>,
}

/// A digest-keyed, spine-backed result store. Cheap to clone (shared
/// handle); safe to use from campaign worker threads.
#[derive(Clone)]
pub struct ResultStore {
    inner: Arc<Inner>,
}

fn batch_file_name(b: &Batch) -> String {
    format!("batch-{:012}-{:012}.lwsb", b.seq_lo(), b.seq_hi())
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

        let mut spine = Spine::new();
        let mut next_seq = 0u64;
        let mut loaded_batches = 0u64;
        let mut loaded_entries = 0u64;
        for (_, hi, path) in &keep {
            let text = std::fs::read_to_string(path)?;
            let batch = Batch::decode(&text).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })?;
            loaded_batches += 1;
            loaded_entries += batch.len() as u64;
            next_seq = next_seq.max(hi + 1);
            spine.insert(Arc::new(batch));
        }
        Ok(ResultStore::from_parts(
            Some(dir),
            code,
            spine,
            next_seq,
            loaded_batches,
            loaded_entries,
        ))
    }

    /// A store with no backing directory and an explicit code digest
    /// (tests; batches live only in memory).
    pub fn in_memory_with(code: u64) -> ResultStore {
        ResultStore::from_parts(None, code, Spine::new(), 0, 0, 0)
    }

    fn from_parts(
        dir: Option<PathBuf>,
        code: u64,
        spine: Spine,
        next_seq: u64,
        loaded_batches: u64,
        loaded_entries: u64,
    ) -> ResultStore {
        ResultStore {
            inner: Arc::new(Inner {
                dir,
                code,
                state: Mutex::new(State {
                    spine,
                    pending: Vec::new(),
                    next_seq,
                }),
                merge_lock: Mutex::new(()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                puts: AtomicU64::new(0),
                batches_appended: AtomicU64::new(0),
                compactions: AtomicU64::new(0),
                loaded_batches,
                loaded_entries,
                autoflush_error: Mutex::new(None),
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
        let state = self.inner.state.lock().unwrap();
        let found = state
            .pending
            .iter()
            .rev()
            .find(|e| e.key == *key)
            .map(|e| e.value.clone())
            .or_else(|| state.spine.get(key).map(|e| e.value.clone()));
        drop(state);
        match &found {
            Some(_) => self.inner.hits.fetch_add(1, Ordering::Relaxed),
            None => self.inner.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Buffers one record; flushes automatically at
    /// [`AUTOFLUSH_ENTRIES`]. The automatic flush's first error is
    /// returned by the next [`flush`](ResultStore::flush).
    pub fn put(&self, key: StoreKey, value: String) {
        let mut state = self.inner.state.lock().unwrap();
        let seq = state.next_seq;
        state.next_seq += 1;
        state.pending.push(Entry { key, seq, value });
        self.inner.puts.fetch_add(1, Ordering::Relaxed);
        if state.pending.len() >= AUTOFLUSH_ENTRIES {
            drop(state);
            if let Err(e) = self.flush() {
                self.autoflush_error().get_or_insert(e);
            }
        }
    }

    /// Seals the pending buffer into a new immutable batch, persists
    /// it, and merges while the spine exceeds the fan-out. Returns the
    /// number of entries sealed.
    ///
    /// # Errors
    ///
    /// Returns the first error of an automatic flush since the last
    /// call, if any; otherwise propagates the first batch-file write
    /// error, the sealed batch's own or a merge's (the sealed batch
    /// still lands in the in-memory spine first, and a failed merge
    /// keeps its inputs on disk).
    pub fn flush(&self) -> io::Result<usize> {
        let deferred = self.autoflush_error().take();
        let mut state = self.inner.state.lock().unwrap();
        if state.pending.is_empty() {
            return deferred.map_or(Ok(0), Err);
        }
        let batch = Batch::seal(std::mem::take(&mut state.pending));
        let n = batch.len();
        let batch = Arc::new(batch);
        state.spine.insert(batch.clone());
        drop(state);
        self.inner.batches_appended.fetch_add(1, Ordering::Relaxed);
        let persisted = self.persist(&batch);
        let mut result = deferred.map_or(persisted, Err);
        while let Some(merged) = self.merge_step(|spine| spine.merge_candidate().map(|(i, _)| i)) {
            result = result.and(merged);
        }
        result.map(|()| n)
    }

    /// The held autoflush error. Every update leaves it valid, so a
    /// panic elsewhere while it was locked does not poison it.
    fn autoflush_error(&self) -> MutexGuard<'_, Option<io::Error>> {
        self.inner
            .autoflush_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes `batch`'s file, when the store has a directory.
    fn persist(&self, batch: &Batch) -> io::Result<()> {
        match &self.inner.dir {
            Some(dir) => write_atomically(dir, &batch_file_name(batch), &batch.encode()),
            None => Ok(()),
        }
    }

    /// Merges the pair at the index `pick` chooses, if any: builds the
    /// merged batch off the state lock, persists it, swaps it in, then
    /// retires the input files — only once the merged file is in
    /// place, so a failed write leaves the inputs holding the records
    /// (reopening prunes them once a later merge covers them). Returns
    /// `None` when `pick` chose nothing, else the merged write's result.
    fn merge_step(&self, pick: impl Fn(&Spine) -> Option<usize>) -> Option<io::Result<()>> {
        let _serial = self.inner.merge_lock.lock().unwrap();
        let (i, a, b) = {
            let state = self.inner.state.lock().unwrap();
            let i = pick(&state.spine)?;
            let batches = state.spine.batches();
            (i, batches[i].clone(), batches[i + 1].clone())
        };
        let merged = Arc::new(Batch::merge(&a, &b));
        let written = self.persist(&merged);
        self.inner
            .state
            .lock()
            .unwrap()
            .spine
            .replace_pair(i, merged.clone());
        if let (Some(dir), Ok(())) = (&self.inner.dir, &written) {
            for old in [&a, &b] {
                let name = batch_file_name(old);
                if name != batch_file_name(&merged) {
                    let _ = std::fs::remove_file(dir.join(name));
                }
            }
        }
        self.inner.compactions.fetch_add(1, Ordering::Relaxed);
        Some(written)
    }

    /// Flushes, then merges the whole spine down to a single batch
    /// (full compaction, regardless of the fan-out threshold).
    ///
    /// # Errors
    ///
    /// Propagates the first batch-file write error, as
    /// [`flush`](ResultStore::flush) does.
    pub fn compact_all(&self) -> io::Result<()> {
        let mut result = self.flush().map(drop);
        while let Some(merged) = self.merge_step(|spine| (spine.batch_count() >= 2).then_some(0)) {
            result = result.and(merged);
        }
        result
    }

    /// A merged cursor over a consistent snapshot (pending entries
    /// included), optionally restricted to one record family.
    pub fn cursor(&self, kind: Option<&str>) -> Cursor {
        let state = self.inner.state.lock().unwrap();
        let mut spine = state.spine.clone();
        if !state.pending.is_empty() {
            spine.insert(Arc::new(Batch::seal(state.pending.clone())));
        }
        drop(state);
        match kind {
            Some(k) => spine.cursor_kind(k),
            None => spine.cursor(),
        }
    }

    /// All records of one family, in key order (cursor convenience).
    pub fn kind_entries(&self, kind: &str) -> Vec<Entry> {
        self.cursor(Some(kind)).collect()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let state = self.inner.state.lock().unwrap();
        let (resident_batches, resident_entries) = (
            state.spine.batch_count() as u64,
            (state.spine.entry_count() + state.pending.len()) as u64,
        );
        drop(state);
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            puts: self.inner.puts.load(Ordering::Relaxed),
            batches_appended: self.inner.batches_appended.load(Ordering::Relaxed),
            compactions: self.inner.compactions.load(Ordering::Relaxed),
            loaded_batches: self.inner.loaded_batches,
            loaded_entries: self.inner.loaded_entries,
            resident_batches,
            resident_entries,
        }
    }
}

impl Drop for ResultStore {
    fn drop(&mut self) {
        // Last handle out seals the pending buffer; intermediate clones
        // must not.
        if Arc::strong_count(&self.inner) == 1 {
            let _ = self.flush();
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
        {
            let s = ResultStore::open_with(&dir, 7).unwrap();
            for n in 0..10 {
                s.put(key(n), format!("v{n}"));
            }
            s.flush().unwrap();
            for n in 10..20 {
                s.put(key(n), format!("v{n}"));
            }
            // Drop flushes the second half.
        }
        let s = ResultStore::open_with(&dir, 7).unwrap();
        for n in 0..20 {
            assert_eq!(s.get(&key(n)).as_deref(), Some(format!("v{n}").as_str()));
        }
        assert!(s.stats().loaded_entries >= 20);
        std::fs::remove_dir_all(&dir).unwrap();
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
        // The merge still serves from memory...
        assert_eq!(s.stats().resident_batches, 1);
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
        // Reported once; the records still serve from memory.
        assert_eq!(s.flush().unwrap(), 0);
        assert_eq!(s.get(&key(7)).as_deref(), Some("v7"));
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursor_includes_pending_and_orders_keys() {
        let s = ResultStore::in_memory_with(1);
        s.put(key(3), "c".into());
        s.flush().unwrap();
        s.put(key(1), "a".into());
        let keys: Vec<u64> = s.cursor(Some("run")).map(|e| e.key.config).collect();
        assert_eq!(keys, vec![1, 3]);
    }
}

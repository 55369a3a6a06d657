//! Immutable sorted result batches.
//!
//! A [`Batch`] is the store's unit of persistence: a sorted,
//! deduplicated run of `(key, seq, value)` entries, never modified
//! after sealing (the feldera/DBSP "batch" discipline). Each flush
//! writes one new batch, and a compaction writes the store's whole map
//! as one. Each batch covers a contiguous range of global sequence
//! numbers, and on key collisions inside a batch the entry with the
//! higher sequence number wins.
//!
//! The on-disk form is line-oriented text: a header line followed by
//! one tab-separated entry per line, with `\t`/`\n`/`\\` escaped in
//! string fields. Text keeps the artifacts greppable and
//! diff-reviewable; parsing is far from the bottleneck (the
//! simulations behind a batch cost seconds to hours).

use crate::key::StoreKey;

/// One stored record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// The record's coordinate.
    pub key: StoreKey,
    /// Global sequence number (assigned by the store at put time);
    /// resolves key collisions last-writer-wins.
    pub seq: u64,
    /// The record payload (an opaque codec string to the store).
    pub value: String,
}

/// An immutable sorted batch of entries.
#[derive(Clone, Debug, Default)]
pub struct Batch {
    entries: Vec<Entry>,
    seq_lo: u64,
    seq_hi: u64,
}

/// Escapes tabs, newlines and backslashes for the line format.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`].
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

impl Batch {
    /// Seals `entries` into a batch: sorts by key, and on duplicate
    /// keys keeps only the entry with the highest sequence number.
    /// The sequence range is taken over *all* input entries, superseded
    /// ones included.
    pub fn seal(mut entries: Vec<Entry>) -> Batch {
        if entries.is_empty() {
            return Batch::default();
        }
        let seq_lo = entries.iter().map(|e| e.seq).min().unwrap_or(0);
        let seq_hi = entries.iter().map(|e| e.seq).max().unwrap_or(0);
        entries.sort_by(|a, b| a.key.cmp(&b.key).then(a.seq.cmp(&b.seq)));
        entries.dedup_by(|next, prev| {
            // `dedup_by` keeps `prev`; the sort put the higher seq in
            // `next`, so move it into the survivor slot.
            if next.key == prev.key {
                std::mem::swap(prev, next);
                true
            } else {
                false
            }
        });
        Batch {
            entries,
            seq_lo,
            seq_hi,
        }
    }

    /// [`Batch::seal`]s `entries` into a batch that covers
    /// `seq_lo..=seq_hi`, a range that can include sequence numbers
    /// whose entries were superseded and dropped.
    pub(crate) fn covering(entries: Vec<Entry>, seq_lo: u64, seq_hi: u64) -> Batch {
        Batch {
            seq_lo,
            seq_hi,
            ..Batch::seal(entries)
        }
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the batch holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lowest sequence number covered.
    pub fn seq_lo(&self) -> u64 {
        self.seq_lo
    }

    /// Highest sequence number covered.
    pub fn seq_hi(&self) -> u64 {
        self.seq_hi
    }

    /// The sorted entries.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Serialises the batch to the line format.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "lightwsp-store-batch v1 {} {} {}\n",
            self.seq_lo,
            self.seq_hi,
            self.entries.len()
        );
        for e in &self.entries {
            out.push_str(&format!(
                "{}\t{}\t{}\t{:016x}\t{}\t{:016x}\t{}\t{}\n",
                escape(&e.key.kind),
                escape(&e.key.workload),
                escape(&e.key.scheme),
                e.key.config,
                e.key.point,
                e.key.code,
                e.seq,
                escape(&e.value),
            ));
        }
        out
    }

    /// Parses [`Batch::encode`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line. Entries are
    /// re-sealed on load, so a decoded batch is valid even if the file
    /// was hand-edited out of order.
    pub fn decode(text: &str) -> Result<Batch, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty batch file")?;
        let mut hp = header.split(' ');
        if hp.next() != Some("lightwsp-store-batch") || hp.next() != Some("v1") {
            return Err(format!("bad batch header: {header}"));
        }
        let seq_lo: u64 = hp
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("bad header seq_lo")?;
        let seq_hi: u64 = hp
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("bad header seq_hi")?;
        let count: usize = hp
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("bad header count")?;
        let mut entries = Vec::with_capacity(count);
        for (n, line) in lines.enumerate() {
            let fields: Vec<&str> = line.split('\t').collect();
            if fields.len() != 8 {
                return Err(format!(
                    "line {}: expected 8 fields, got {}",
                    n + 2,
                    fields.len()
                ));
            }
            let parse_hex =
                |s: &str| u64::from_str_radix(s, 16).map_err(|e| format!("line {}: {e}", n + 2));
            entries.push(Entry {
                key: StoreKey {
                    kind: unescape(fields[0]),
                    workload: unescape(fields[1]),
                    scheme: unescape(fields[2]),
                    config: parse_hex(fields[3])?,
                    point: fields[4]
                        .parse()
                        .map_err(|e| format!("line {}: {e}", n + 2))?,
                    code: parse_hex(fields[5])?,
                },
                seq: fields[6]
                    .parse()
                    .map_err(|e| format!("line {}: {e}", n + 2))?,
                value: unescape(fields[7]),
            });
        }
        if entries.len() != count {
            return Err(format!(
                "header promises {count} entries, file has {}",
                entries.len()
            ));
        }
        Ok(Batch::covering(entries, seq_lo, seq_hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(w: &str, point: u64) -> StoreKey {
        StoreKey::new("run", w, "LightWSP", 42, point, 7)
    }

    fn entry(w: &str, point: u64, seq: u64, value: &str) -> Entry {
        Entry {
            key: key(w, point),
            seq,
            value: value.to_string(),
        }
    }

    #[test]
    fn seal_sorts_and_dedupes_last_writer_wins() {
        let b = Batch::seal(vec![
            entry("b", 0, 3, "old"),
            entry("a", 1, 2, "x"),
            entry("b", 0, 5, "new"),
        ]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.entries()[1].key, key("b", 0));
        assert_eq!(b.entries()[1].value, "new");
        assert_eq!((b.seq_lo(), b.seq_hi()), (2, 5));
    }

    #[test]
    fn encode_decode_roundtrip_with_nasty_strings() {
        let mut e = entry("w\tname", 3, 11, "line1\nline2\\tail\tend");
        e.key.scheme = "s\\x".into();
        let b = Batch::seal(vec![e.clone(), entry("z", 0, 12, "")]);
        let d = Batch::decode(&b.encode()).unwrap();
        assert_eq!(d.entries(), b.entries());
        assert_eq!((d.seq_lo(), d.seq_hi()), (b.seq_lo(), b.seq_hi()));
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(Batch::decode("").is_err());
        assert!(Batch::decode("wrong header\n").is_err());
        assert!(Batch::decode("lightwsp-store-batch v1 0 0 1\nonly\tthree\tfields\n").is_err());
    }
}

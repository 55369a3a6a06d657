//! Persistent main memory (PM).
//!
//! The functional contents of PM are the ground truth that power-failure
//! recovery resumes from: **only WPQ flushes write here** (LightWSP
//! silently drops dirty LLC evictions, §IV-G, because every store also
//! travels the persist path), so the contents are always a
//! region-consistent prefix of the execution.
//!
//! Timing (read/write latency, per-channel write occupancy) lives in
//! [`crate::controller`]; this module is the durable state plus access
//! counters.

use lightwsp_ir::Memory;

/// Persistent memory: durable word contents plus access statistics.
#[derive(Clone, Debug, Default)]
pub struct PersistentMemory {
    data: Memory,
    reads: u64,
    writes: u64,
}

impl PersistentMemory {
    /// Empty (all-zero) persistent memory.
    pub fn new() -> PersistentMemory {
        PersistentMemory::default()
    }

    /// PM seeded with an initial image (e.g. the machine's initial
    /// checkpoint of every thread, written at "install time").
    pub fn with_image(image: Memory) -> PersistentMemory {
        PersistentMemory {
            data: image,
            reads: 0,
            writes: 0,
        }
    }

    /// Durable read of the word containing `addr`.
    pub fn read_word(&mut self, addr: u64) -> u64 {
        self.reads += 1;
        self.data.read_word(addr)
    }

    /// Durable read without bumping counters (recovery/diagnostics).
    pub fn peek_word(&self, addr: u64) -> u64 {
        self.data.read_word(addr)
    }

    /// Durable write of the word containing `addr` (WPQ flush or undo
    /// rollback only).
    #[inline]
    pub fn write_word(&mut self, addr: u64, val: u64) {
        self.writes += 1;
        self.data.write_word(addr, val);
    }

    /// The durable contents (for consistency checking and recovery).
    pub fn contents(&self) -> &Memory {
        &self.data
    }

    /// Clones the durable contents (what survives a power failure).
    pub fn snapshot(&self) -> Memory {
        self.data.clone()
    }

    /// The durable contents, by value.
    pub fn into_contents(self) -> Memory {
        self.data
    }

    /// Total durable reads served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total durable writes performed.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip_and_counters() {
        let mut pm = PersistentMemory::new();
        assert_eq!(pm.read_word(0x100), 0);
        pm.write_word(0x100, 7);
        assert_eq!(pm.read_word(0x100), 7);
        assert_eq!(pm.reads(), 2);
        assert_eq!(pm.writes(), 1);
    }

    #[test]
    fn with_image_seeds_contents() {
        let mut img = Memory::new();
        img.write_word(0x8, 42);
        let pm = PersistentMemory::with_image(img);
        assert_eq!(pm.peek_word(0x8), 42);
        assert_eq!(pm.reads(), 0, "peek does not count");
    }

    #[test]
    fn snapshot_is_independent() {
        let mut pm = PersistentMemory::new();
        pm.write_word(0x10, 1);
        let snap = pm.snapshot();
        pm.write_word(0x10, 2);
        assert_eq!(snap.read_word(0x10), 1);
        assert_eq!(pm.peek_word(0x10), 2);
    }
}

//! Bucketed durable hash map with sharded, single-writer slots.
//!
//! # Layout
//!
//! A power-of-two array of buckets, each holding a power-of-two number
//! of 16-byte slots `[key][value]`. Slots inside a bucket are
//! partitioned into per-writer **shards** (like per-core shards of a
//! real service's table), so every slot has exactly one writing
//! thread and recovered images are checkable against a replayed
//! per-shard op stream:
//!
//! ```text
//! slot(key, shard) = base
//!                  + (bucket(key) * slots_per_bucket
//!                     + shard * slots_per_shard
//!                     + hash_slot(key)) * 16
//! bucket(key)    = key & (buckets - 1)
//! hash_slot(key) = (key >> 32) & (slots_per_shard - 1)
//! value(key)     = mix64(key) ^ VAL_TAG        (idempotent)
//! ```
//!
//! Colliding keys of the same shard *overwrite* (last writer wins, as
//! in a fixed-size cache table); values are a pure function of the key
//! so any winner yields a valid pair.
//!
//! # Crash consistency
//!
//! A put takes the bucket's striped lock, stores the **value first**,
//! then the key. The LightWSP compiler forces a region boundary before
//! `LockAcquire` and before `LockRelease`, so the whole critical
//! section — lock word, value, key — is one region and commits or
//! discards atomically (`map-bucket-atomicity`: an occupied slot
//! always carries its value). The value-before-key order additionally
//! keeps first claims safe under *any* region split: a durable key
//! implies a durable value even if the compiler's store threshold cut
//! the region (the overwrite path needs the whole-region atomicity,
//! which holds at the default threshold — see `docs/DATASTRUCTURES.md`).
//!
//! Each thread publishes a private progress counter after every put
//! (after the lock release, i.e. in a strictly later region), so a
//! durable counter of `c` proves the first `c` puts are durable and at
//! most one more can be (`map-shard-prefix`).
//!
//! Gets re-read an own earlier key **under the bucket lock** and
//! validate `value == mix64(key) ^ VAL_TAG` *in IR*, raising a
//! persistent error flag on mismatch — the program audits its own
//! reads while the harness audits its images.
//!
//! # Recovery procedure
//!
//! Nothing to repair: the table is valid as stored. A recovering
//! service re-reads each shard's progress counter and resumes its op
//! stream from there; the at-most-one-extra-put ambiguity is absorbed
//! by idempotent values (re-putting op `c+1` rewrites identical
//! bytes).

use super::{mix64, violation, DsViolation, RecoverableDs};
use lightwsp_ir::builder::FuncBuilder;
use lightwsp_ir::inst::{AluOp, Cond};
use lightwsp_ir::{layout, Memory, Program, Reg};

/// XORed into `mix64(key)` to form a slot's value word.
pub const VAL_TAG: u64 = 0x7AB1_E000_0000_0001;
/// Mixed into generated keys so key 0 never appears.
pub const MAP_SALT: u64 = 0x3A9D_B10C_4E75_0001;
/// Multiplies the thread id into the per-thread LCG seed.
pub const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;
/// Per-op LCG step: `state = state * LCG_A + LCG_C` (MMIX constants).
pub const LCG_A: u64 = 6_364_136_223_846_793_005;
/// Per-op LCG increment.
pub const LCG_C: u64 = 1_442_695_040_888_963_407;

/// Address layout of one sharded map table (shared with the service).
#[derive(Clone, Copy, Debug)]
pub struct MapLayout {
    /// Base address of the slot array.
    pub base: u64,
    /// Bucket count (power of two).
    pub buckets: usize,
    /// Slots per bucket (power of two, divisible by `shards`).
    pub slots_per_bucket: usize,
    /// Single-writer shards the slots are partitioned into.
    pub shards: usize,
    /// First lock index of the bucket-striped lock range.
    pub lock0: usize,
    /// Lock stripe count (power of two).
    pub locks: usize,
}

impl MapLayout {
    /// Slots per shard within one bucket.
    pub fn slots_per_shard(&self) -> usize {
        self.slots_per_bucket / self.shards
    }

    /// The bucket a key hashes to.
    pub fn bucket_of(&self, key: u64) -> usize {
        (key & (self.buckets as u64 - 1)) as usize
    }

    /// The in-shard slot a key hashes to.
    pub fn hash_slot_of(&self, key: u64) -> usize {
        ((key >> 32) & (self.slots_per_shard() as u64 - 1)) as usize
    }

    /// Global slot index of `key` in `shard`.
    pub fn slot_index(&self, key: u64, shard: usize) -> usize {
        self.bucket_of(key) * self.slots_per_bucket
            + shard * self.slots_per_shard()
            + self.hash_slot_of(key)
    }

    /// Address of global slot `idx` (key word; value at +8).
    pub fn slot_addr(&self, idx: usize) -> u64 {
        self.base + idx as u64 * 16
    }

    /// Total slot-array bytes.
    pub fn table_bytes(&self) -> u64 {
        (self.buckets * self.slots_per_bucket) as u64 * 16
    }

    /// The value word a key maps to.
    pub fn value_of(&self, key: u64) -> u64 {
        mix64(key) ^ VAL_TAG
    }

    fn assert_pow2(&self) {
        assert!(self.buckets.is_power_of_two());
        assert!(self.slots_per_bucket.is_power_of_two());
        assert!(self.shards.is_power_of_two());
        assert!(self.locks.is_power_of_two());
        assert!(self.slots_per_shard() >= 1);
    }
}

/// Emits a locked put of `key` (clobbers `s`; `shard` is read-only).
/// Value is stored before key; the critical region (lock word, value,
/// key) commits atomically.
pub(crate) fn emit_map_put(
    b: &mut FuncBuilder,
    lay: &MapLayout,
    key: Reg,
    shard: Reg,
    s: [Reg; 4],
) {
    lay.assert_pow2();
    let [s0, s1, s2, s3] = s;
    emit_slot_addr_and_lock(b, lay, key, shard, s0, s1, s2, s3);
    b.lock_acquire(s1);
    b.alu_imm(AluOp::Add, s2, key, 0);
    super::emit_mix(b, s2, s3);
    b.alu_imm(AluOp::Xor, s2, s2, VAL_TAG as i64);
    b.store(s2, s0, 8); // value first …
    b.store(key, s0, 0); // … key publishes the pair
    b.lock_release(s1);
}

/// Emits a locked, self-validating get of `key`: loads the occupying
/// pair and raises the error flag at `[err + 0]` if the value does not
/// match the occupying key. Leaves the builder in a fresh
/// continuation block.
pub(crate) fn emit_map_get_validate(
    b: &mut FuncBuilder,
    lay: &MapLayout,
    key: Reg,
    shard: Reg,
    err: Reg,
    s: [Reg; 4],
) {
    let [s0, s1, s2, s3] = s;
    emit_slot_addr_and_lock(b, lay, key, shard, s0, s1, s2, s3);
    b.lock_acquire(s1);
    b.load(s2, s0, 0); // occupying key
    b.load(s3, s0, 8); // its value
    super::emit_mix(b, s2, s0); // expected value of the occupying key
    b.alu_imm(AluOp::Xor, s2, s2, VAL_TAG as i64);
    let bad = b.new_block();
    let ok = b.new_block();
    b.branch_reg(Cond::Ne, s3, s2, bad, ok);
    b.switch_to(bad);
    b.store(key, err, 0);
    b.jump(ok);
    b.switch_to(ok);
    b.lock_release(s1);
    let cont = b.new_block();
    b.jump(cont);
    b.switch_to(cont);
}

/// Shared addressing: leaves the slot address in `s0` and the stripe
/// lock address in `s1` (clobbers `s2`, `s3`).
#[allow(clippy::too_many_arguments)]
fn emit_slot_addr_and_lock(
    b: &mut FuncBuilder,
    lay: &MapLayout,
    key: Reg,
    shard: Reg,
    s0: Reg,
    s1: Reg,
    s2: Reg,
    s3: Reg,
) {
    let spt = lay.slots_per_shard();
    b.alu_imm(AluOp::And, s0, key, lay.buckets as i64 - 1); // bucket
    b.alu_imm(AluOp::And, s1, s0, lay.locks as i64 - 1);
    b.alu_imm(AluOp::Shl, s1, s1, 6);
    b.alu_imm(AluOp::Add, s1, s1, layout::lock_addr(lay.lock0) as i64);
    b.alu_imm(AluOp::Shr, s2, key, 32);
    b.alu_imm(AluOp::And, s2, s2, spt as i64 - 1); // hash slot
    b.alu_imm(AluOp::Shl, s3, shard, spt.trailing_zeros() as i64);
    b.alu(AluOp::Add, s3, s3, s2);
    b.alu_imm(
        AluOp::Shl,
        s0,
        s0,
        lay.slots_per_bucket.trailing_zeros() as i64,
    );
    b.alu(AluOp::Add, s0, s0, s3);
    b.alu_imm(AluOp::Shl, s0, s0, 4);
    b.alu_imm(AluOp::Add, s0, s0, lay.base as i64);
}

/// One op of a thread's replayed stream.
#[derive(Clone, Copy, Debug)]
pub enum MapOp {
    /// Insert/overwrite `key` (value is implied).
    Put {
        /// The derived key.
        key: u64,
    },
    /// Re-read and validate the `target`-th earlier put of the same
    /// thread.
    Get {
        /// Index into the thread's put sequence.
        target: usize,
    },
}

/// A standalone sharded-map workload: `threads` writers, each running
/// `ops_per_thread` puts/gets (3:1) against its own shard of a shared
/// bucketed table, with bucket-striped locks contended across threads.
#[derive(Clone, Copy, Debug)]
pub struct DurableMapSpec {
    /// Writer threads (one shard each).
    pub threads: usize,
    /// Buckets (power of two).
    pub buckets: usize,
    /// Slots per bucket (power of two, divisible by `threads`).
    pub slots_per_bucket: usize,
    /// Lock stripes (power of two).
    pub locks: usize,
    /// Ops per thread.
    pub ops_per_thread: u64,
}

impl DurableMapSpec {
    /// The table layout this spec drives.
    pub fn layout(&self) -> MapLayout {
        MapLayout {
            base: layout::HEAP_BASE,
            buckets: self.buckets,
            slots_per_bucket: self.slots_per_bucket,
            shards: self.threads,
            lock0: 0,
            locks: self.locks,
        }
    }

    /// Private progress area of thread `t`: puts counter at +0, gets
    /// counter at +8, error flag at +16.
    pub fn priv_addr(&self, t: usize) -> u64 {
        let lay = self.layout();
        lay.base + lay.table_bytes() + t as u64 * 64
    }

    /// The key of thread `t`'s `j`-th put.
    pub fn key(&self, t: usize, j: u64) -> u64 {
        mix64((((t as u64) << 40) | j) ^ MAP_SALT) | 1
    }

    /// Replays thread `t`'s deterministic op stream (the Rust mirror
    /// of the generated IR's LCG and branch structure).
    pub fn ops(&self, t: usize) -> Vec<MapOp> {
        let mut state = mix64(MAP_SALT ^ (t as u64).wrapping_mul(SEED_STRIDE));
        let mut puts = 0u64;
        let mut out = Vec::with_capacity(self.ops_per_thread as usize);
        for _ in 0..self.ops_per_thread {
            state = state.wrapping_mul(LCG_A).wrapping_add(LCG_C);
            let sel = (state >> 33) & 3;
            if sel == 3 && puts >= 8 {
                let back = 1 + ((state >> 13) & 7);
                out.push(MapOp::Get {
                    target: (puts - back) as usize,
                });
            } else {
                out.push(MapOp::Put {
                    key: self.key(t, puts),
                });
                puts += 1;
            }
        }
        out
    }

    /// The shard-slot contents (global slot index → key) after thread
    /// `t` completed `j` puts.
    fn shard_state(&self, t: usize, j: usize) -> std::collections::HashMap<usize, u64> {
        let lay = self.layout();
        let mut slots = std::collections::HashMap::new();
        for jj in 0..j as u64 {
            let key = self.key(t, jj);
            slots.insert(lay.slot_index(key, t), key);
        }
        slots
    }

    /// Total puts in thread `t`'s stream.
    pub fn total_puts(&self, t: usize) -> u64 {
        self.ops(t)
            .iter()
            .filter(|o| matches!(o, MapOp::Put { .. }))
            .count() as u64
    }

    /// True if the durable shard of `t` equals `state`.
    fn shard_matches(
        &self,
        pm: &Memory,
        t: usize,
        state: &std::collections::HashMap<usize, u64>,
    ) -> bool {
        let lay = self.layout();
        let spt = lay.slots_per_shard();
        for b in 0..lay.buckets {
            for s in 0..spt {
                let idx = b * lay.slots_per_bucket + t * spt + s;
                let key = pm.read_word(lay.slot_addr(idx));
                if key != state.get(&idx).copied().unwrap_or(0) {
                    return false;
                }
            }
        }
        true
    }
}

impl RecoverableDs for DurableMapSpec {
    fn name(&self) -> &'static str {
        "durable-map"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn knobs(&self) -> Vec<u64> {
        vec![
            self.threads as u64,
            self.buckets as u64,
            self.slots_per_bucket as u64,
            self.locks as u64,
            self.ops_per_thread,
        ]
    }

    /// Register use: r1 LCG state, r2 op index, r5 puts counter,
    /// r6 key scratch, r7–r10 put/get scratch, r11 gets counter,
    /// r12 private area base, r13/r14 selector scratch.
    fn program(&self) -> Program {
        let lay = self.layout();
        lay.assert_pow2();
        assert!(self.slots_per_bucket.is_multiple_of(self.threads));
        let mut b = FuncBuilder::new("durable_map");
        let (state, opi, puts, key) = (Reg::R1, Reg::R2, Reg::R5, Reg::R6);
        let scratch = [Reg::R7, Reg::R8, Reg::R9, Reg::R10];
        let (gets, privr, sel) = (Reg::R11, Reg::R12, Reg::R13);

        // state = mix64(MAP_SALT ^ tid * SEED_STRIDE)
        b.alu_imm(AluOp::Mul, state, Reg::R0, SEED_STRIDE as i64);
        b.alu_imm(AluOp::Xor, state, state, MAP_SALT as i64);
        super::emit_mix(&mut b, state, Reg::R14);
        b.alu_imm(AluOp::Shl, privr, Reg::R0, 6);
        let priv_base = lay.base + lay.table_bytes();
        b.alu_imm(AluOp::Add, privr, privr, priv_base as i64);
        b.mov_imm(opi, 0);
        b.mov_imm(puts, 0);
        b.mov_imm(gets, 0);

        let header = b.new_block();
        let maybe_get = b.new_block();
        let put_blk = b.new_block();
        let get_blk = b.new_block();
        let latch = b.new_block();
        let done = b.new_block();
        b.hint_trip_count(header, self.ops_per_thread.min(u32::MAX as u64) as u32);
        b.jump(header);

        b.switch_to(header);
        b.alu_imm(AluOp::Mul, state, state, LCG_A as i64);
        b.alu_imm(AluOp::Add, state, state, LCG_C as i64);
        b.alu_imm(AluOp::Shr, sel, state, 33);
        b.alu_imm(AluOp::And, sel, sel, 3);
        b.branch_imm(Cond::Eq, sel, 3, maybe_get, put_blk);

        b.switch_to(maybe_get);
        b.branch_imm(Cond::Ge, puts, 8, get_blk, put_blk);

        // Put: key = mix64(((tid << 40) | puts) ^ SALT) | 1.
        b.switch_to(put_blk);
        b.alu_imm(AluOp::Shl, key, Reg::R0, 40);
        b.alu(AluOp::Or, key, key, puts);
        b.alu_imm(AluOp::Xor, key, key, MAP_SALT as i64);
        super::emit_mix(&mut b, key, scratch[0]);
        b.alu_imm(AluOp::Or, key, key, 1);
        emit_map_put(&mut b, &lay, key, Reg::R0, scratch);
        b.alu_imm(AluOp::Add, puts, puts, 1);
        b.store(puts, privr, 0); // progress publish (next region)
        b.jump(latch);

        // Get: re-derive the key of put (puts - 1 - ((state>>13)&7)).
        b.switch_to(get_blk);
        b.alu_imm(AluOp::Shr, key, state, 13);
        b.alu_imm(AluOp::And, key, key, 7);
        b.alu_imm(AluOp::Add, key, key, 1);
        b.alu(AluOp::Sub, key, puts, key);
        b.alu_imm(AluOp::Shl, sel, Reg::R0, 40);
        b.alu(AluOp::Or, key, sel, key);
        b.alu_imm(AluOp::Xor, key, key, MAP_SALT as i64);
        super::emit_mix(&mut b, key, scratch[0]);
        b.alu_imm(AluOp::Or, key, key, 1);
        b.alu_imm(AluOp::Add, sel, privr, 16); // error-flag address
        emit_map_get_validate(&mut b, &lay, key, Reg::R0, sel, scratch);
        b.alu_imm(AluOp::Add, gets, gets, 1);
        b.store(gets, privr, 8);
        b.jump(latch);

        b.switch_to(latch);
        b.alu_imm(AluOp::Add, opi, opi, 1);
        b.branch_imm(Cond::Ne, opi, self.ops_per_thread as i64, header, done);

        b.switch_to(done);
        b.halt();
        Program::from_single(b.finish())
    }

    fn check_image(&self, pm: &Memory) -> Vec<DsViolation> {
        let mut out = Vec::new();
        let lay = self.layout();
        // map-bucket-atomicity: every occupied slot carries the value
        // of its occupying key; a claimed-but-unpublished slot may hold
        // a bare value, but only a value some key of that slot hashes
        // to.
        for idx in 0..lay.buckets * lay.slots_per_bucket {
            let key = pm.read_word(lay.slot_addr(idx));
            let val = pm.read_word(lay.slot_addr(idx) + 8);
            if key != 0 && val != lay.value_of(key) {
                violation(
                    &mut out,
                    "map-bucket-atomicity",
                    format!(
                        "slot {idx}: key {key:#x} with value {val:#x}, want {:#x}",
                        lay.value_of(key)
                    ),
                );
            }
            if key == 0 && val != 0 {
                let candidate = (0..self.threads).any(|t| {
                    (0..self.total_puts(t)).any(|j| {
                        let k = self.key(t, j);
                        lay.slot_index(k, t) == idx && lay.value_of(k) == val
                    })
                });
                if !candidate {
                    violation(
                        &mut out,
                        "map-bucket-atomicity",
                        format!("slot {idx}: empty key with foreign value {val:#x}"),
                    );
                }
            }
        }
        // map-shard-prefix: each shard equals its oracle state after
        // counter or counter+1 puts (the put and its progress publish
        // sit in consecutive regions). Error flags must be clear.
        for t in 0..self.threads {
            let c = pm.read_word(self.priv_addr(t)) as usize;
            let total = self.total_puts(t) as usize;
            if c > total {
                violation(
                    &mut out,
                    "map-shard-prefix",
                    format!("shard {t}: counter {c} exceeds stream total {total}"),
                );
                continue;
            }
            let state = self.shard_state(t, c);
            if !self.shard_matches(pm, t, &state) {
                let mut next = state;
                if c < total {
                    let key = self.key(t, c as u64);
                    next.insert(self.layout().slot_index(key, t), key);
                }
                if !self.shard_matches(pm, t, &next) {
                    violation(
                        &mut out,
                        "map-shard-prefix",
                        format!(
                            "shard {t}: durable slots match neither {c} nor {} applied puts",
                            (c + 1).min(total)
                        ),
                    );
                }
            }
            let err = pm.read_word(self.priv_addr(t) + 16);
            if err != 0 {
                violation(
                    &mut out,
                    "map-bucket-atomicity",
                    format!("shard {t}: in-IR read validation flagged key {err:#x}"),
                );
            }
        }
        out
    }

    fn check_final(&self, pm: &Memory) -> Vec<DsViolation> {
        let mut out = self.check_image(pm);
        for t in 0..self.threads {
            let total = self.total_puts(t) as usize;
            let c = pm.read_word(self.priv_addr(t)) as usize;
            let gets = pm.read_word(self.priv_addr(t) + 8);
            let want_gets = self.ops_per_thread - total as u64;
            if c != total {
                violation(
                    &mut out,
                    "map-shard-prefix",
                    format!("shard {t}: completed run counted {c} of {total} puts"),
                );
            }
            if gets != want_gets {
                violation(
                    &mut out,
                    "map-shard-prefix",
                    format!("shard {t}: completed run counted {gets} of {want_gets} gets"),
                );
            }
            if !self.shard_matches(pm, t, &self.shard_state(t, total)) {
                violation(
                    &mut out,
                    "map-shard-prefix",
                    format!("shard {t}: final slots diverge from the oracle"),
                );
            }
        }
        out
    }
}

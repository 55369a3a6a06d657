//! Crash-survivable KV/queue service: the composition workload.
//!
//! `clients` client threads drive a durable hash map directly and ship
//! the rest of their operations as requests — through per-client
//! durable rings *and* a per-client durable journal — to one server
//! thread that applies them to its own half of the map. Every word
//! keeps a single writer; every component is one of the structures in
//! this module, so the composed workload inherits their checkers:
//!
//! ```text
//!  client c ──┬─ direct put / get-validate ──► map shard c
//!             ├─ request ring c  ──────────►┐
//!             └─ journal log c   (oracle)   ├─ server ──► map shard
//!                                           ┘   clients + c, acks
//! ```
//!
//! # Op mix (per client, LCG-driven, deterministic)
//!
//! `sel = (state >> 33) & 3`: `0,1` → direct put of the client's next
//! direct key; `2` → locked get-validate of one of its last 8 direct
//! keys (once it has 8); `3` → enqueue the next request key into its
//! ring (flow-controlled on the server's durable `cons`) and append
//! the same record to its journal, publishing both tails after one
//! region boundary. A request opens with a region boundary right
//! before its flow-control load of `cons`, outside the spin loop: the
//! previous op's publish (ring/journal tails or a counter store)
//! leaves a region open, and the region that observes `cons` must
//! sample its ID, checkpoints and resume PC after the load (rule 2 in
//! `ds`).
//!
//! The server loops over rings round-robin: a region boundary, then
//! the load of the ring's `tail` (rule 2 again); checksum-validate the
//! record (persistent error flag on mismatch), apply the key to map
//! shard `clients + c` under the bucket lock, store the durable ack,
//! region boundary, publish `cons` — so a durable `cons` proves ack,
//! put, and (cross-thread, by the region-ID prefix rule) the client's
//! original record, in that order.
//!
//! # Recovery procedure
//!
//! Each component recovers by its own procedure (trust the counters;
//! see the per-structure docs). The composition adds one fact worth
//! stating: the *journal* is the service's op-stream oracle — after a
//! crash, `journal tail` records per client are durably both in the
//! journal and (by `queue-no-lost-ack` applied at `cons`) applied or
//! reapplicable, and re-applying is idempotent because map values are
//! a pure function of the key.
//!
//! # Invariants checked (all §8)
//!
//! Rings: `queue-records-published`, `queue-no-lost-ack`,
//! `queue-slot-reuse`. Journals: `log-torn-tail`. Map:
//! `map-bucket-atomicity` (whole table), `map-shard-prefix` for client
//! shard `c` against the direct-put counter and for server shard
//! `clients + c` against the ring's durable `cons`.

use super::log::{check_log_area, LogArea, CSUM_TAG};
use super::map::{emit_map_get_validate, emit_map_put, MapLayout, LCG_A, LCG_C, SEED_STRIDE};
use super::queue::{check_ring, RingLayout, ACK_TAG};
use super::{mix64, violation, DsViolation, RecoverableDs};
use lightwsp_ir::builder::FuncBuilder;
use lightwsp_ir::inst::{AluOp, Cond};
use lightwsp_ir::{layout, Memory, Program, Reg};
use std::collections::HashMap;

/// Seeds the per-client LCG.
pub const SVC_SALT: u64 = 0x5E4C_1CE5_0000_0001;
/// Mixed into direct-put keys.
pub const SVC_DKEY_SALT: u64 = 0xD1DE_C7C7_0000_0001;
/// Mixed into request keys.
pub const SVC_RKEY_SALT: u64 = 0x4E0E_57C7_0000_0001;

/// One client's replayed, deterministic op stream.
#[derive(Clone, Debug, Default)]
struct ClientStream {
    /// Direct-put keys, in put order.
    dkeys: Vec<u64>,
    /// Request keys, in enqueue order (also the journal payloads).
    rkeys: Vec<u64>,
    /// Get-validate count.
    gets: u64,
}

/// The crash-survivable KV/queue service workload: `clients` clients
/// plus one server (thread id `clients`). Construct with
/// [`KvServiceSpec::new`], which precomputes the op-stream oracle.
#[derive(Clone, Debug)]
pub struct KvServiceSpec {
    /// Client threads (power of two; one ring, journal, and pair of
    /// map shards each).
    pub clients: usize,
    /// Operations per client.
    pub ops_per_client: u64,
    /// Request-ring capacity in slots (power of two).
    pub cap: u64,
    /// Map buckets (power of two).
    pub buckets: usize,
    /// Map slots per bucket (power of two, divisible by `2 * clients`).
    pub slots_per_bucket: usize,
    /// Map lock stripes (power of two).
    pub locks: usize,
    streams: Vec<ClientStream>,
    /// Every value a key hashing to a slot could leave there — for
    /// classifying bare-value (claimed-but-unpublished) slots.
    slot_values: HashMap<usize, Vec<u64>>,
}

impl KvServiceSpec {
    /// Builds the spec and replays every client's op stream once.
    pub fn new(
        clients: usize,
        ops_per_client: u64,
        cap: u64,
        buckets: usize,
        slots_per_bucket: usize,
        locks: usize,
    ) -> Self {
        assert!(clients.is_power_of_two());
        assert!(cap.is_power_of_two());
        let mut spec = Self {
            clients,
            ops_per_client,
            cap,
            buckets,
            slots_per_bucket,
            locks,
            streams: Vec::new(),
            slot_values: HashMap::new(),
        };
        for c in 0..clients {
            let mut s = ClientStream::default();
            let mut state = mix64(SVC_SALT ^ (c as u64).wrapping_mul(SEED_STRIDE));
            for _ in 0..ops_per_client {
                state = state.wrapping_mul(LCG_A).wrapping_add(LCG_C);
                match (state >> 33) & 3 {
                    3 => s.rkeys.push(Self::rkey(c, s.rkeys.len() as u64)),
                    2 if s.dkeys.len() >= 8 => s.gets += 1,
                    _ => s.dkeys.push(Self::dkey(c, s.dkeys.len() as u64)),
                }
            }
            spec.streams.push(s);
        }
        let lay = spec.map_layout();
        for c in 0..clients {
            for &k in &spec.streams[c].dkeys {
                let idx = lay.slot_index(k, c);
                spec.slot_values
                    .entry(idx)
                    .or_default()
                    .push(lay.value_of(k));
            }
            for &k in &spec.streams[c].rkeys {
                let idx = lay.slot_index(k, clients + c);
                spec.slot_values
                    .entry(idx)
                    .or_default()
                    .push(lay.value_of(k));
            }
        }
        spec
    }

    /// Client `c`'s `j`-th direct-put key.
    pub fn dkey(c: usize, j: u64) -> u64 {
        mix64((((c as u64) << 40) | j) ^ SVC_DKEY_SALT) | 1
    }

    /// Client `c`'s `j`-th request key.
    pub fn rkey(c: usize, j: u64) -> u64 {
        mix64((((c as u64) << 40) | j) ^ SVC_RKEY_SALT) | 1
    }

    /// Requests client `c` enqueues over the whole run.
    pub fn reqs(&self, c: usize) -> u64 {
        self.streams[c].rkeys.len() as u64
    }

    /// Direct puts client `c` performs over the whole run.
    pub fn dputs(&self, c: usize) -> u64 {
        self.streams[c].dkeys.len() as u64
    }

    /// Get-validates client `c` performs over the whole run.
    pub fn gets(&self, c: usize) -> u64 {
        self.streams[c].gets
    }

    /// Total requests across all clients (the server's exit count).
    pub fn total_reqs(&self) -> u64 {
        (0..self.clients).map(|c| self.reqs(c)).sum()
    }

    /// Total operations the service performs (client ops plus the
    /// server's request applications).
    pub fn total_ops(&self) -> u64 {
        self.clients as u64 * self.ops_per_client + self.total_reqs()
    }

    /// The shared map table: client `c` writes shard `c`, the server
    /// writes shard `clients + c` for ring `c`.
    pub fn map_layout(&self) -> MapLayout {
        MapLayout {
            base: layout::HEAP_BASE,
            buckets: self.buckets,
            slots_per_bucket: self.slots_per_bucket,
            shards: 2 * self.clients,
            lock0: 0,
            locks: self.locks,
        }
    }

    fn ring_stride(&self) -> u64 {
        (self.cap * 16).next_power_of_two().max(4096)
    }

    fn ack_stride(&self) -> u64 {
        (self.ops_per_client * 8).next_power_of_two().max(4096)
    }

    fn journal_stride(&self) -> u64 {
        (self.ops_per_client * 16).next_power_of_two().max(4096)
    }

    fn rings_base(&self) -> u64 {
        layout::HEAP_BASE + self.map_layout().table_bytes()
    }

    fn acks_base(&self) -> u64 {
        self.rings_base() + self.clients as u64 * self.ring_stride()
    }

    fn journals_base(&self) -> u64 {
        self.acks_base() + self.clients as u64 * self.ack_stride()
    }

    fn meta_base(&self) -> u64 {
        self.journals_base() + self.clients as u64 * self.journal_stride()
    }

    /// Client `c`'s metadata line block (256 B): ring tail at +0,
    /// ring cons at +64, journal tail at +128, direct-put counter at
    /// +192, get counter at +200, client error flag at +208.
    pub fn meta_addr(&self, c: usize) -> u64 {
        self.meta_base() + c as u64 * 256
    }

    /// The server's checksum-validation error flag.
    pub fn server_err_addr(&self) -> u64 {
        self.meta_base() + self.clients as u64 * 256
    }

    /// Client `c`'s request ring, shaped for `queue::check_ring`.
    pub fn ring(&self, c: usize) -> RingLayout {
        RingLayout {
            slot_base: self.rings_base() + c as u64 * self.ring_stride(),
            cap: self.cap,
            records: self.reqs(c),
            tail_addr: self.meta_addr(c),
            cons_addr: self.meta_addr(c) + 64,
            ack_base: self.acks_base() + c as u64 * self.ack_stride(),
        }
    }

    /// Client `c`'s journal, shaped for `log::check_log_area`.
    pub fn journal(&self, c: usize) -> LogArea {
        LogArea {
            rec_base: self.journals_base() + c as u64 * self.journal_stride(),
            tail_addr: self.meta_addr(c) + 128,
            records: self.reqs(c),
        }
    }

    /// Emits the client role (`tid < clients`). Register use: r1 LCG
    /// state, r2 op index, r3 direct puts, r4 gets, r5 requests,
    /// r6 key, r7–r10 map scratch, r11 ring slot base, r12 meta line,
    /// r13 journal cursor, r14 selector/scratch.
    fn emit_client(&self, b: &mut FuncBuilder, entry: lightwsp_ir::BlockId) {
        let lay = self.map_layout();
        let (state, opi, dputs, gets, rseq, key) =
            (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6);
        let scratch = [Reg::R7, Reg::R8, Reg::R9, Reg::R10];
        let (ringb, metab, jcur, sel) = (Reg::R11, Reg::R12, Reg::R13, Reg::R14);

        b.switch_to(entry);
        b.alu_imm(AluOp::Mul, state, Reg::R0, SEED_STRIDE as i64);
        b.alu_imm(AluOp::Xor, state, state, SVC_SALT as i64);
        super::emit_mix(b, state, sel);
        b.alu_imm(
            AluOp::Shl,
            ringb,
            Reg::R0,
            self.ring_stride().trailing_zeros() as i64,
        );
        b.alu_imm(AluOp::Add, ringb, ringb, self.rings_base() as i64);
        b.alu_imm(AluOp::Shl, metab, Reg::R0, 8);
        b.alu_imm(AluOp::Add, metab, metab, self.meta_base() as i64);
        b.alu_imm(
            AluOp::Shl,
            jcur,
            Reg::R0,
            self.journal_stride().trailing_zeros() as i64,
        );
        b.alu_imm(AluOp::Add, jcur, jcur, self.journals_base() as i64);
        b.mov_imm(opi, 0);
        b.mov_imm(dputs, 0);
        b.mov_imm(gets, 0);
        b.mov_imm(rseq, 0);

        let header = b.new_block();
        let nonreq = b.new_block();
        let maybe_get = b.new_block();
        let put_blk = b.new_block();
        let get_blk = b.new_block();
        let req_open = b.new_block();
        let req_spin = b.new_block();
        let req_body = b.new_block();
        let latch = b.new_block();
        let done = b.new_block();
        b.hint_trip_count(header, self.ops_per_client.min(u32::MAX as u64) as u32);
        b.jump(header);

        b.switch_to(header);
        b.alu_imm(AluOp::Mul, state, state, LCG_A as i64);
        b.alu_imm(AluOp::Add, state, state, LCG_C as i64);
        b.alu_imm(AluOp::Shr, sel, state, 33);
        b.alu_imm(AluOp::And, sel, sel, 3);
        b.branch_imm(Cond::Eq, sel, 3, req_open, nonreq);

        b.switch_to(nonreq);
        b.branch_imm(Cond::Eq, sel, 2, maybe_get, put_blk);
        b.switch_to(maybe_get);
        b.branch_imm(Cond::Ge, dputs, 8, get_blk, put_blk);

        // Direct put into shard `tid`.
        b.switch_to(put_blk);
        b.alu_imm(AluOp::Shl, key, Reg::R0, 40);
        b.alu(AluOp::Or, key, key, dputs);
        b.alu_imm(AluOp::Xor, key, key, SVC_DKEY_SALT as i64);
        super::emit_mix(b, key, scratch[0]);
        b.alu_imm(AluOp::Or, key, key, 1);
        emit_map_put(b, &lay, key, Reg::R0, scratch);
        b.alu_imm(AluOp::Add, dputs, dputs, 1);
        b.store(dputs, metab, 192);
        b.jump(latch);

        // Locked get-validate of one of the last 8 direct keys.
        b.switch_to(get_blk);
        b.alu_imm(AluOp::Shr, key, state, 13);
        b.alu_imm(AluOp::And, key, key, 7);
        b.alu_imm(AluOp::Add, key, key, 1);
        b.alu(AluOp::Sub, key, dputs, key);
        b.alu_imm(AluOp::Shl, sel, Reg::R0, 40);
        b.alu(AluOp::Or, key, sel, key);
        b.alu_imm(AluOp::Xor, key, key, SVC_DKEY_SALT as i64);
        super::emit_mix(b, key, scratch[0]);
        b.alu_imm(AluOp::Or, key, key, 1);
        b.alu_imm(AluOp::Add, sel, metab, 208);
        emit_map_get_validate(b, &lay, key, Reg::R0, sel, scratch);
        b.alu_imm(AluOp::Add, gets, gets, 1);
        b.store(gets, metab, 200);
        b.jump(latch);

        // Request: flow-control on the server's durable cons, then
        // write the ring record and the identical journal record, one
        // boundary, publish both tails. The boundary before the spin
        // closes whatever region the previous op left open, so the
        // `cons` observation opens a fresh region: its checkpoints and
        // the resume PC of the slot overwrite are sampled after the
        // load, never before it (rule 2 in `ds`).
        b.switch_to(req_open);
        b.region_boundary();
        b.jump(req_spin);

        b.switch_to(req_spin);
        b.load(scratch[0], metab, 64);
        b.alu_imm(AluOp::Add, scratch[0], scratch[0], self.cap as i64);
        b.branch_reg(Cond::Lt, rseq, scratch[0], req_body, req_spin);

        b.switch_to(req_body);
        b.alu_imm(AluOp::Shl, key, Reg::R0, 40);
        b.alu(AluOp::Or, key, key, rseq);
        b.alu_imm(AluOp::Xor, key, key, SVC_RKEY_SALT as i64);
        super::emit_mix(b, key, scratch[0]);
        b.alu_imm(AluOp::Or, key, key, 1);
        b.alu_imm(AluOp::And, scratch[0], rseq, self.cap as i64 - 1);
        b.alu_imm(AluOp::Shl, scratch[0], scratch[0], 4);
        b.alu(AluOp::Add, scratch[0], scratch[0], ringb);
        b.store(key, scratch[0], 0);
        b.alu_imm(AluOp::Add, scratch[1], rseq, CSUM_TAG as i64);
        b.alu(AluOp::Xor, scratch[1], key, scratch[1]);
        b.store(scratch[1], scratch[0], 8);
        b.store(key, jcur, 0);
        b.store(scratch[1], jcur, 8);
        b.region_boundary();
        b.alu_imm(AluOp::Add, rseq, rseq, 1);
        b.store(rseq, metab, 0);
        b.store(rseq, metab, 128);
        b.alu_imm(AluOp::Add, jcur, jcur, 16);
        b.jump(latch);

        b.switch_to(latch);
        b.alu_imm(AluOp::Add, opi, opi, 1);
        b.branch_imm(Cond::Ne, opi, self.ops_per_client as i64, header, done);
        b.switch_to(done);
        b.halt();
    }

    /// Emits the server role (`tid == clients`). Register use: r1
    /// ring, r2 total applied, r3 ring slot base, r4 ring meta line,
    /// r5 ack base, r7 tail, r8 cons, r9 slot address, r10 key,
    /// r11 csum, r12 scratch, r13 error-flag address, r14 ack address,
    /// r15 target shard, r16–r19 map scratch.
    fn emit_server(&self, b: &mut FuncBuilder, entry: lightwsp_ir::BlockId) {
        let lay = self.map_layout();
        let (ring, total, ringb, metab, ackb) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
        let (tail, cons, addr, key, csum, tmp) =
            (Reg::R7, Reg::R8, Reg::R9, Reg::R10, Reg::R11, Reg::R12);
        let (errr, acka, shard) = (Reg::R13, Reg::R14, Reg::R15);
        let scratch = [Reg::R16, Reg::R17, Reg::R18, Reg::R19];

        b.switch_to(entry);
        b.mov_imm(errr, self.server_err_addr() as i64);
        b.mov_imm(total, 0);
        b.mov_imm(ring, 0);

        let visit = b.new_block();
        let batch = b.new_block();
        let body = b.new_block();
        let bad = b.new_block();
        let ok = b.new_block();
        let next = b.new_block();
        let wrap = b.new_block();
        let done = b.new_block();
        b.jump(visit);

        b.switch_to(visit);
        b.alu_imm(
            AluOp::Shl,
            ringb,
            ring,
            self.ring_stride().trailing_zeros() as i64,
        );
        b.alu_imm(AluOp::Add, ringb, ringb, self.rings_base() as i64);
        b.alu_imm(AluOp::Shl, metab, ring, 8);
        b.alu_imm(AluOp::Add, metab, metab, self.meta_base() as i64);
        b.alu_imm(
            AluOp::Shl,
            ackb,
            ring,
            self.ack_stride().trailing_zeros() as i64,
        );
        b.alu_imm(AluOp::Add, ackb, ackb, self.acks_base() as i64);
        b.alu_imm(AluOp::Add, shard, ring, self.clients as i64);
        // The `tail` observation opens a fresh region (rule 2 in `ds`):
        // otherwise a checkpoint sampled before the load could resume
        // the server with a tail the client never made durable.
        b.region_boundary();
        b.load(tail, metab, 0);
        b.load(cons, metab, 64);
        b.jump(batch);

        b.switch_to(batch);
        b.branch_reg(Cond::Lt, cons, tail, body, next);

        b.switch_to(body);
        b.alu_imm(AluOp::And, addr, cons, self.cap as i64 - 1);
        b.alu_imm(AluOp::Shl, addr, addr, 4);
        b.alu(AluOp::Add, addr, addr, ringb);
        b.load(key, addr, 0);
        b.load(csum, addr, 8);
        b.alu_imm(AluOp::Add, tmp, cons, CSUM_TAG as i64);
        b.alu(AluOp::Xor, tmp, key, tmp);
        b.branch_reg(Cond::Ne, csum, tmp, bad, ok);

        b.switch_to(bad);
        b.store(cons, errr, 0);
        b.jump(ok);

        // Apply, ack, publish — in three strictly ordered regions, so
        // a durable cons proves the ack and the map put, and (prefix
        // rule) the client's original record.
        b.switch_to(ok);
        emit_map_put(b, &lay, key, shard, scratch);
        b.alu_imm(AluOp::Xor, tmp, key, ACK_TAG as i64);
        b.alu_imm(AluOp::Shl, acka, cons, 3);
        b.alu(AluOp::Add, acka, acka, ackb);
        b.store(tmp, acka, 0);
        b.region_boundary();
        b.alu_imm(AluOp::Add, cons, cons, 1);
        b.store(cons, metab, 64);
        b.alu_imm(AluOp::Add, total, total, 1);
        b.jump(batch);

        b.switch_to(next);
        b.alu_imm(AluOp::Add, ring, ring, 1);
        b.branch_imm(Cond::Ne, ring, self.clients as i64, visit, wrap);

        b.switch_to(wrap);
        b.mov_imm(ring, 0);
        b.branch_imm(Cond::Ne, total, self.total_reqs() as i64, visit, done);

        b.switch_to(done);
        b.halt();
    }

    /// Shared body of both checkers. `complete` additionally requires
    /// every counter to have reached its oracle total.
    fn check(&self, pm: &Memory, complete: bool) -> Vec<DsViolation> {
        let mut out = Vec::new();
        let lay = self.map_layout();

        for c in 0..self.clients {
            let stream = &self.streams[c];
            // Ring + acks (queue-records-published, queue-no-lost-ack,
            // queue-slot-reuse).
            check_ring(
                pm,
                &self.ring(c),
                &|i| stream.rkeys[i as usize],
                &format!("svc-ring[{c}]"),
                complete,
                &mut out,
            );
            // Journal (log-torn-tail).
            check_log_area(
                pm,
                &self.journal(c),
                &|i| {
                    let p = stream.rkeys[i as usize];
                    (p, p ^ i.wrapping_add(CSUM_TAG))
                },
                &format!("svc-journal[{c}]"),
                complete,
                &mut out,
            );
            // Client shard prefix, anchored by the direct-put counter.
            let dputs = pm.read_word(self.meta_addr(c) + 192) as usize;
            self.check_shard_prefix(pm, c, &stream.dkeys, dputs, "direct", &mut out);
            // Server shard prefix, anchored by the ring's durable cons.
            let cons = pm.read_word(self.meta_addr(c) + 64) as usize;
            self.check_shard_prefix(pm, self.clients + c, &stream.rkeys, cons, "req", &mut out);
            // Client-side in-IR validation flag.
            let err = pm.read_word(self.meta_addr(c) + 208);
            if err != 0 {
                violation(
                    &mut out,
                    "map-bucket-atomicity",
                    format!("svc client {c}: get-validate flagged key {err:#x}"),
                );
            }
            if complete {
                let gets = pm.read_word(self.meta_addr(c) + 200);
                if dputs as u64 != stream.dkeys.len() as u64 || gets != stream.gets {
                    violation(
                        &mut out,
                        "map-shard-prefix",
                        format!(
                            "svc client {c}: finished with {dputs} puts / {gets} gets, \
                             oracle {} / {}",
                            stream.dkeys.len(),
                            stream.gets
                        ),
                    );
                }
            }
        }

        // Whole-table pair validity (map-bucket-atomicity).
        for idx in 0..lay.buckets * lay.slots_per_bucket {
            let key = pm.read_word(lay.slot_addr(idx));
            let val = pm.read_word(lay.slot_addr(idx) + 8);
            if key != 0 && val != lay.value_of(key) {
                violation(
                    &mut out,
                    "map-bucket-atomicity",
                    format!(
                        "svc slot {idx}: key {key:#x} with value {val:#x}, want {:#x}",
                        lay.value_of(key)
                    ),
                );
            }
            if key == 0
                && val != 0
                && !self
                    .slot_values
                    .get(&idx)
                    .is_some_and(|vs| vs.contains(&val))
            {
                violation(
                    &mut out,
                    "map-bucket-atomicity",
                    format!("svc slot {idx}: empty key with foreign value {val:#x}"),
                );
            }
        }

        // Server checksum-validation flag.
        let err = pm.read_word(self.server_err_addr());
        if err != 0 {
            violation(
                &mut out,
                "queue-records-published",
                format!("svc server flagged a torn request record at seq {err}"),
            );
        }
        out
    }

    /// Asserts shard `shard`'s durable slots equal the oracle state
    /// after `k` or `k + 1` of `keys` (the put and its anchoring
    /// counter publish sit in consecutive regions).
    fn check_shard_prefix(
        &self,
        pm: &Memory,
        shard: usize,
        keys: &[u64],
        k: usize,
        what: &str,
        out: &mut Vec<DsViolation>,
    ) {
        if k > keys.len() {
            violation(
                out,
                "map-shard-prefix",
                format!(
                    "svc {what} shard {shard}: counter {k} exceeds stream {}",
                    keys.len()
                ),
            );
            return;
        }
        let lay = self.map_layout();
        let mut state: HashMap<usize, u64> = HashMap::new();
        for &key in &keys[..k] {
            state.insert(lay.slot_index(key, shard), key);
        }
        if self.shard_matches(pm, shard, &state) {
            return;
        }
        if k < keys.len() {
            state.insert(lay.slot_index(keys[k], shard), keys[k]);
            if self.shard_matches(pm, shard, &state) {
                return;
            }
        }
        violation(
            out,
            "map-shard-prefix",
            format!(
                "svc {what} shard {shard}: durable slots match neither {k} nor {} applied puts",
                (k + 1).min(keys.len())
            ),
        );
    }

    /// A clients-only multi-thread variant for exact-mode LRPO
    /// admittance: each client thread runs only its *request path* —
    /// observe `cons`, fresh region, ring record + journal record,
    /// boundary, publish both tails — against its own ring and journal.
    /// Map operations are omitted (their bucket locks are shared words,
    /// outside the extraction domain) and no server runs, so `cons`
    /// keeps its install value and the program is write-disjoint with
    /// no foreign-write reads. Per-client op counts are baked as
    /// immediates from the precomputed streams; requires
    /// `reqs(c) ≤ cap` for every client (no server frees slots).
    pub fn model_program_clients(&self) -> Program {
        for c in 0..self.clients {
            assert!(
                self.reqs(c) <= self.cap,
                "clients-only variant needs reqs({c}) = {} ≤ cap = {} (no server ever \
                 advances cons)",
                self.reqs(c),
                self.cap
            );
        }
        let mut b = FuncBuilder::new("kv_service_clients");
        let (seq, key, tmp, addr, csum, jcur, metab) = (
            Reg::R1,
            Reg::R2,
            Reg::R3,
            Reg::R4,
            Reg::R5,
            Reg::R6,
            Reg::R7,
        );
        let bodies: Vec<_> = (0..self.clients).map(|_| b.new_block()).collect();
        // Dispatch chain on the thread id; the last test's else-edge
        // falls through to the last client's body.
        for (c, &body) in bodies.iter().enumerate().take(self.clients - 1) {
            let next = b.new_block();
            b.branch_imm(Cond::Eq, Reg::R0, c as i64, body, next);
            b.switch_to(next);
        }
        let last = self.clients - 1;
        b.jump(bodies[last]);

        for (c, &client_body) in bodies.iter().enumerate() {
            let ring = self.ring(c);
            let journal = self.journal(c);
            let n = self.reqs(c);
            b.switch_to(client_body);
            if n == 0 {
                b.halt();
                continue;
            }
            b.mov_imm(metab, self.meta_addr(c) as i64);
            b.mov_imm(jcur, journal.rec_base as i64);
            b.mov_imm(seq, 0);
            let spin = b.new_block();
            let body = b.new_block();
            let done = b.new_block();
            b.hint_trip_count(spin, n.min(u32::MAX as u64) as u32);
            b.jump(spin);

            // Same observe-then-store discipline as the real client;
            // with no server, `cons` stays at its install value and
            // `reqs ≤ cap` makes the check pass first try.
            b.switch_to(spin);
            b.load(tmp, metab, 64);
            b.alu_imm(AluOp::Add, tmp, tmp, self.cap as i64);
            b.branch_reg(Cond::Lt, seq, tmp, body, spin);

            b.switch_to(body);
            b.region_boundary();
            b.mov_imm(key, ((c as u64) << 40) as i64);
            b.alu(AluOp::Or, key, key, seq);
            b.alu_imm(AluOp::Xor, key, key, SVC_RKEY_SALT as i64);
            super::emit_mix(&mut b, key, tmp);
            b.alu_imm(AluOp::Or, key, key, 1);
            b.alu_imm(AluOp::And, addr, seq, self.cap as i64 - 1);
            b.alu_imm(AluOp::Shl, addr, addr, 4);
            b.alu_imm(AluOp::Add, addr, addr, ring.slot_base as i64);
            b.store(key, addr, 0);
            b.alu_imm(AluOp::Add, csum, seq, CSUM_TAG as i64);
            b.alu(AluOp::Xor, csum, key, csum);
            b.store(csum, addr, 8);
            b.store(key, jcur, 0);
            b.store(csum, jcur, 8);
            b.region_boundary();
            b.alu_imm(AluOp::Add, seq, seq, 1);
            b.store(seq, metab, 0);
            b.store(seq, metab, 128);
            b.alu_imm(AluOp::Add, jcur, jcur, 16);
            b.branch_imm(Cond::Ne, seq, n as i64, spin, done);
            b.switch_to(done);
            b.halt();
        }
        Program::from_single(b.finish())
    }

    fn shard_matches(&self, pm: &Memory, shard: usize, state: &HashMap<usize, u64>) -> bool {
        let lay = self.map_layout();
        let spt = lay.slots_per_shard();
        for b in 0..lay.buckets {
            for s in 0..spt {
                let idx = b * lay.slots_per_bucket + shard * spt + s;
                if pm.read_word(lay.slot_addr(idx)) != state.get(&idx).copied().unwrap_or(0) {
                    return false;
                }
            }
        }
        true
    }
}

impl RecoverableDs for KvServiceSpec {
    fn name(&self) -> &'static str {
        "kv-service"
    }

    fn threads(&self) -> usize {
        self.clients + 1
    }

    fn knobs(&self) -> Vec<u64> {
        vec![
            self.clients as u64,
            self.ops_per_client,
            self.cap,
            self.buckets as u64,
            self.slots_per_bucket as u64,
            self.locks as u64,
        ]
    }

    fn program(&self) -> Program {
        let mut b = FuncBuilder::new("kv_service");
        let client = b.new_block();
        let server = b.new_block();
        b.branch_imm(Cond::Eq, Reg::R0, self.clients as i64, server, client);
        self.emit_client(&mut b, client);
        self.emit_server(&mut b, server);
        Program::from_single(b.finish())
    }

    fn check_image(&self, pm: &Memory) -> Vec<DsViolation> {
        self.check(pm, false)
    }

    fn check_final(&self, pm: &Memory) -> Vec<DsViolation> {
        self.check(pm, true)
    }

    /// Server batching and client flow control are timing-dependent.
    fn deterministic_final(&self) -> bool {
        false
    }
}

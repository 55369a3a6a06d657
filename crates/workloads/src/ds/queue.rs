//! Durable MPSC queue: per-producer rings, a single consumer, durable
//! acknowledgements — the structure that exercises LightWSP's
//! *cross-thread* persist ordering (flush-free handoff).
//!
//! # Layout (per producer ring `r`)
//!
//! ```text
//! slot_base(r):  cap × [payload][csum]        16 B slots, cap pow2
//! tail_addr(r):  records published by r        producer-written
//! cons_addr(r):  records consumed from r       consumer-written
//! ack_base(r):   one ack word per record       consumer-written
//! err_addr:      consumer's validation flag    consumer-written
//! ```
//!
//! `payloadᵢ = mix64(((r << 32) | i) ^ SALT)`,
//! `csumᵢ = payloadᵢ ^ (i + CSUM_TAG)`, `ackᵢ = payloadᵢ ^ ACK_TAG`.
//! Every word has exactly one writer.
//!
//! # Protocol
//!
//! *Enqueue*: spin until `seq < cons + cap` (flow control), region
//! boundary (the previous tail publish left its region open; the slot
//! store must open a fresh one so its ID postdates the `cons`
//! observation), store payload then checksum, region boundary, publish
//! `tail = seq + 1`.
//! *Consume*: per ring visit, load `tail`, then per record: region
//! boundary (same discipline, closing the previous cons-publish
//! region), load and checksum-validate the slot (flagging `err_addr`
//! on mismatch), store the ack, region boundary, publish `cons + 1`.
//!
//! # Why this is crash-consistent with no flushes
//!
//! The consumer's ack store executes after it observed the published
//! tail, which the producer stored after the record's region closed.
//! Region IDs are sampled in execution order *at each region's first
//! store*, and the per-record boundary guarantees the ack store opens
//! a fresh region — so the ack's region ID
//! is strictly greater than the record's — and the survivable set
//! being one contiguous ID run (`RECOVERY.md` §3) makes "ack durable
//! ⇒ record durable" (`queue-no-lost-ack`) a theorem, not a hope.
//! The same argument gates slot reuse: the producer overwrites a slot
//! only after observing `cons` pass it, so a durable overwrite implies
//! the consumption it depends on is durable too (`queue-slot-reuse`).
//! A wrongly-widened WPQ gate (e.g. the `AnyMcBoundary` mutant) breaks
//! exactly this cross-thread prefix — which is how a DS invariant
//! catches a gating bug that single-structure checks can miss.
//!
//! Note the deliberate asymmetry the checker must accept: the durable
//! `cons` may *exceed* the durable `tail` (the consumer's publish
//! region can commit while the producer's later tail-publish region is
//! still in flight). What can never happen is an ack for a record
//! whose bytes did not survive.
//!
//! # Recovery procedure
//!
//! Trust the counters. The producer resumes at its checkpoint and
//! republishes from `tail`; at most the record at index `tail` is
//! in flight (payload-before-checksum prefix, as the log). The
//! consumer resumes from `cons`; re-acking record `cons` rewrites
//! identical bytes (acks are a pure function of the record), so the
//! at-most-one-extra ambiguity is idempotent.

use super::log::CSUM_TAG;
use super::{mix64, violation, DsViolation, RecoverableDs};
use lightwsp_ir::builder::FuncBuilder;
use lightwsp_ir::inst::{AluOp, Cond};
use lightwsp_ir::{layout, Memory, Program, Reg};

/// XORed into a record's payload to form its acknowledgement word.
pub const ACK_TAG: u64 = 0xACCE_DE00_0000_0001;
/// Mixed into the record index so payload 0 never appears.
pub const QUEUE_SALT: u64 = 0x5EED_FACE_CAFE_0001;

/// Address layout of one single-producer ring (shared with the
/// service, whose request rings reuse the checker).
#[derive(Clone, Copy, Debug)]
pub struct RingLayout {
    /// First slot's address (`cap` 16-byte slots).
    pub slot_base: u64,
    /// Slot count (power of two).
    pub cap: u64,
    /// Total records the ring will carry.
    pub records: u64,
    /// Producer-published record count.
    pub tail_addr: u64,
    /// Consumer-published record count.
    pub cons_addr: u64,
    /// First ack word's address (`records` words).
    pub ack_base: u64,
}

/// A standalone MPSC queue: `producers` rings of `cap` slots, each
/// carrying `records` records, drained by one consumer thread (thread
/// id `producers`).
#[derive(Clone, Copy, Debug)]
pub struct DurableQueueSpec {
    /// Producer threads (one ring each).
    pub producers: usize,
    /// Records per producer.
    pub records: u64,
    /// Ring capacity in slots (power of two).
    pub cap: u64,
}

impl DurableQueueSpec {
    fn ring_stride(&self) -> u64 {
        (self.cap * 16).next_power_of_two().max(4096)
    }

    fn ack_stride(&self) -> u64 {
        (self.records * 8).next_power_of_two().max(4096)
    }

    fn acks_base(&self) -> u64 {
        layout::HEAP_BASE + self.producers as u64 * self.ring_stride()
    }

    fn meta_base(&self) -> u64 {
        self.acks_base() + self.producers as u64 * self.ack_stride()
    }

    /// The consumer's validation-error flag.
    pub fn err_addr(&self) -> u64 {
        self.meta_base() + self.producers as u64 * 128
    }

    /// The ring layout of producer `r`.
    pub fn ring(&self, r: usize) -> RingLayout {
        RingLayout {
            slot_base: layout::HEAP_BASE + r as u64 * self.ring_stride(),
            cap: self.cap,
            records: self.records,
            tail_addr: self.meta_base() + r as u64 * 128,
            cons_addr: self.meta_base() + r as u64 * 128 + 64,
            ack_base: self.acks_base() + r as u64 * self.ack_stride(),
        }
    }

    /// Expected payload of record `i` of ring `r`.
    pub fn payload(&self, r: usize, i: u64) -> u64 {
        mix64((((r as u64) << 32) | i) ^ QUEUE_SALT)
    }

    /// Emits the producer role (`tid < producers`).
    fn emit_producer(&self, b: &mut FuncBuilder, entry: lightwsp_ir::BlockId) {
        let (slotb, tailr, consr, seq) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4);
        let (avail, addr, pay, tmp, csum) = (Reg::R5, Reg::R6, Reg::R7, Reg::R8, Reg::R9);
        b.switch_to(entry);
        b.alu_imm(
            AluOp::Shl,
            slotb,
            Reg::R0,
            self.ring_stride().trailing_zeros() as i64,
        );
        b.alu_imm(AluOp::Add, slotb, slotb, layout::HEAP_BASE as i64);
        b.alu_imm(AluOp::Shl, tailr, Reg::R0, 7);
        b.alu_imm(AluOp::Add, tailr, tailr, self.meta_base() as i64);
        b.alu_imm(AluOp::Add, consr, tailr, 64);
        b.mov_imm(seq, 0);

        let spin = b.new_block();
        let body = b.new_block();
        let done = b.new_block();
        b.hint_trip_count(spin, self.records.min(u32::MAX as u64) as u32);
        b.jump(spin);

        // Flow control: wait until the consumer has durably freed a
        // slot (seq < cons + cap).
        b.switch_to(spin);
        b.load(avail, consr, 0);
        b.alu_imm(AluOp::Add, avail, avail, self.cap as i64);
        b.branch_reg(Cond::Lt, seq, avail, body, spin);

        b.switch_to(body);
        // The previous record's tail publish opened a region that is
        // still live here; close it so the slot overwrite opens a fresh
        // region whose ID postdates the `cons` observation in `spin` —
        // otherwise the overwrite could be durable without the
        // consumer's cons publish (queue-slot-reuse).
        b.region_boundary();
        b.alu_imm(AluOp::And, addr, seq, self.cap as i64 - 1);
        b.alu_imm(AluOp::Shl, addr, addr, 4);
        b.alu(AluOp::Add, addr, addr, slotb);
        b.alu_imm(AluOp::Shl, pay, Reg::R0, 32);
        b.alu(AluOp::Or, pay, pay, seq);
        b.alu_imm(AluOp::Xor, pay, pay, QUEUE_SALT as i64);
        super::emit_mix(b, pay, tmp);
        b.store(pay, addr, 0);
        b.alu_imm(AluOp::Add, csum, seq, CSUM_TAG as i64);
        b.alu(AluOp::Xor, csum, pay, csum);
        b.store(csum, addr, 8);
        // Publish: close the record's region before the tail store.
        b.region_boundary();
        b.alu_imm(AluOp::Add, seq, seq, 1);
        b.store(seq, tailr, 0);
        b.branch_imm(Cond::Ne, seq, self.records as i64, spin, done);

        b.switch_to(done);
        b.halt();
    }

    /// Emits the consumer role (`tid == producers`).
    fn emit_consumer(&self, b: &mut FuncBuilder, entry: lightwsp_ir::BlockId) {
        let (ring, total, slotb, tailr, consr, ackb) =
            (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6);
        let (tail, cons, addr, pay, csum, tmp, errr, acka) = (
            Reg::R7,
            Reg::R8,
            Reg::R9,
            Reg::R10,
            Reg::R11,
            Reg::R12,
            Reg::R13,
            Reg::R14,
        );
        let p = self.producers as i64;
        b.switch_to(entry);
        b.mov_imm(errr, self.err_addr() as i64);
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
            slotb,
            ring,
            self.ring_stride().trailing_zeros() as i64,
        );
        b.alu_imm(AluOp::Add, slotb, slotb, layout::HEAP_BASE as i64);
        b.alu_imm(AluOp::Shl, tailr, ring, 7);
        b.alu_imm(AluOp::Add, tailr, tailr, self.meta_base() as i64);
        b.alu_imm(AluOp::Add, consr, tailr, 64);
        b.alu_imm(
            AluOp::Shl,
            ackb,
            ring,
            self.ack_stride().trailing_zeros() as i64,
        );
        b.alu_imm(AluOp::Add, ackb, ackb, self.acks_base() as i64);
        b.load(tail, tailr, 0);
        b.load(cons, consr, 0);
        b.jump(batch);

        b.switch_to(batch);
        b.branch_reg(Cond::Lt, cons, tail, body, next);

        b.switch_to(body);
        // Same fresh-region discipline as the producer: the previous
        // record's cons publish left its region open, and the ack store
        // below must open a new one whose ID postdates the tail
        // observation in `visit` (queue-no-lost-ack).
        b.region_boundary();
        b.alu_imm(AluOp::And, addr, cons, self.cap as i64 - 1);
        b.alu_imm(AluOp::Shl, addr, addr, 4);
        b.alu(AluOp::Add, addr, addr, slotb);
        b.load(pay, addr, 0);
        b.load(csum, addr, 8);
        b.alu_imm(AluOp::Add, tmp, cons, CSUM_TAG as i64);
        b.alu(AluOp::Xor, tmp, pay, tmp);
        b.branch_reg(Cond::Ne, csum, tmp, bad, ok);

        // Torn or foreign record: raise the persistent flag. The
        // protocol makes this unreachable; the checker asserts so.
        b.switch_to(bad);
        b.store(cons, errr, 0);
        b.jump(ok);

        b.switch_to(ok);
        b.alu_imm(AluOp::Xor, tmp, pay, ACK_TAG as i64);
        b.alu_imm(AluOp::Shl, acka, cons, 3);
        b.alu(AluOp::Add, acka, acka, ackb);
        b.store(tmp, acka, 0);
        // Publish: the ack's region closes before the cons store, so a
        // durable cons proves the ack (and, transitively, the record).
        b.region_boundary();
        b.alu_imm(AluOp::Add, cons, cons, 1);
        b.store(cons, consr, 0);
        b.alu_imm(AluOp::Add, total, total, 1);
        b.jump(batch);

        b.switch_to(next);
        b.alu_imm(AluOp::Add, ring, ring, 1);
        b.branch_imm(Cond::Ne, ring, p, visit, wrap);

        b.switch_to(wrap);
        b.mov_imm(ring, 0);
        let want = (self.producers as u64 * self.records) as i64;
        b.branch_imm(Cond::Ne, total, want, visit, done);

        b.switch_to(done);
        b.halt();
    }

    /// A single-threaded enqueue-then-dequeue variant over the same
    /// ring-0 layout, for LRPO-model admittance (the model's
    /// extraction domain excludes cross-thread reads). Build it from a
    /// `producers: 1` spec; the spec's image checkers apply unchanged.
    pub fn model_program(&self) -> Program {
        assert_eq!(self.producers, 1, "model variant is single-ring");
        let ring = self.ring(0);
        let mut b = FuncBuilder::new("durable_queue_1t");
        let (slotb, tailr, consr, seq) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4);
        let (addr, pay, tmp, csum, nxt) = (Reg::R5, Reg::R6, Reg::R7, Reg::R8, Reg::R9);
        let (rpay, rcsum, errr, acka) = (Reg::R10, Reg::R11, Reg::R13, Reg::R14);
        b.mov_imm(slotb, ring.slot_base as i64);
        b.mov_imm(tailr, ring.tail_addr as i64);
        b.mov_imm(consr, ring.cons_addr as i64);
        b.mov_imm(errr, self.err_addr() as i64);
        b.mov_imm(seq, 0);

        let header = b.new_block();
        let bad = b.new_block();
        let ok = b.new_block();
        let done = b.new_block();
        b.hint_trip_count(header, self.records.min(u32::MAX as u64) as u32);
        b.jump(header);

        b.switch_to(header);
        b.alu_imm(AluOp::And, addr, seq, self.cap as i64 - 1);
        b.alu_imm(AluOp::Shl, addr, addr, 4);
        b.alu(AluOp::Add, addr, addr, slotb);
        b.alu_imm(AluOp::Xor, pay, seq, QUEUE_SALT as i64);
        super::emit_mix(&mut b, pay, tmp);
        b.store(pay, addr, 0);
        b.alu_imm(AluOp::Add, csum, seq, CSUM_TAG as i64);
        b.alu(AluOp::Xor, csum, pay, csum);
        b.store(csum, addr, 8);
        b.region_boundary();
        b.alu_imm(AluOp::Add, nxt, seq, 1);
        b.store(nxt, tailr, 0);
        // Dequeue the same record.
        b.load(rpay, addr, 0);
        b.load(rcsum, addr, 8);
        b.alu_imm(AluOp::Add, tmp, seq, CSUM_TAG as i64);
        b.alu(AluOp::Xor, tmp, rpay, tmp);
        b.branch_reg(Cond::Ne, rcsum, tmp, bad, ok);
        b.switch_to(bad);
        b.store(seq, errr, 0);
        b.jump(ok);
        b.switch_to(ok);
        b.alu_imm(AluOp::Xor, tmp, rpay, ACK_TAG as i64);
        b.alu_imm(AluOp::Shl, acka, seq, 3);
        b.alu_imm(AluOp::Add, acka, acka, ring.ack_base as i64);
        b.store(tmp, acka, 0);
        b.region_boundary();
        b.store(nxt, consr, 0);
        b.alu_imm(AluOp::Add, seq, seq, 1);
        b.branch_imm(Cond::Ne, seq, self.records as i64, header, done);
        b.switch_to(done);
        b.halt();
        Program::from_single(b.finish())
    }
    /// A producers-only multi-thread variant for exact-mode LRPO
    /// admittance: every producer thread runs the real enqueue protocol
    /// (fresh-region discipline, payload/checksum/tail publish) against
    /// its own ring, but no consumer runs, so the only cross-thread
    /// word the producers *read* — `cons` — keeps its install value and
    /// the program stays inside the extraction domain (disjoint writes,
    /// no foreign-write reads). Requires `records ≤ cap`: with no
    /// consumer, flow control admits exactly one ring's worth.
    pub fn model_program_producers(&self) -> Program {
        assert!(self.cap.is_power_of_two());
        assert!(
            self.records <= self.cap,
            "producers-only variant needs records ≤ cap (no consumer ever frees a slot)"
        );
        let mut b = FuncBuilder::new("durable_queue_producers");
        let entry = b.new_block();
        b.jump(entry);
        self.emit_producer(&mut b, entry);
        Program::from_single(b.finish())
    }
}

impl RecoverableDs for DurableQueueSpec {
    fn name(&self) -> &'static str {
        "durable-queue"
    }

    fn threads(&self) -> usize {
        self.producers + 1
    }

    fn knobs(&self) -> Vec<u64> {
        vec![self.producers as u64, self.records, self.cap]
    }

    fn program(&self) -> Program {
        assert!(self.cap.is_power_of_two());
        let mut b = FuncBuilder::new("durable_queue");
        let p_entry = b.new_block();
        let c_entry = b.new_block();
        b.branch_imm(Cond::Eq, Reg::R0, self.producers as i64, c_entry, p_entry);
        self.emit_producer(&mut b, p_entry);
        self.emit_consumer(&mut b, c_entry);
        Program::from_single(b.finish())
    }

    fn check_image(&self, pm: &Memory) -> Vec<DsViolation> {
        let mut out = Vec::new();
        for r in 0..self.producers {
            let ring = self.ring(r);
            check_ring(
                pm,
                &ring,
                &|i| self.payload(r, i),
                &format!("ring[{r}]"),
                false,
                &mut out,
            );
        }
        let err = pm.read_word(self.err_addr());
        if err != 0 {
            violation(
                &mut out,
                "queue-records-published",
                format!("consumer flagged a torn record at seq {err}"),
            );
        }
        out
    }

    fn check_final(&self, pm: &Memory) -> Vec<DsViolation> {
        let mut out = Vec::new();
        for r in 0..self.producers {
            let ring = self.ring(r);
            check_ring(
                pm,
                &ring,
                &|i| self.payload(r, i),
                &format!("ring[{r}]"),
                true,
                &mut out,
            );
        }
        let err = pm.read_word(self.err_addr());
        if err != 0 {
            violation(
                &mut out,
                "queue-records-published",
                format!("consumer flagged a torn record at seq {err}"),
            );
        }
        out
    }

    /// The consumer's control flow (batch sizes, final register state)
    /// depends on cross-thread timing, so a recovered run's checkpoint
    /// area legitimately differs from the golden run's.
    fn deterministic_final(&self) -> bool {
        false
    }
}

/// Checks one ring against the §8 queue invariants. `payload(i)` is
/// the oracle payload of record `i`; checksums and acks are derived
/// from it. With `complete`, both counters must equal `records`.
pub(crate) fn check_ring(
    pm: &Memory,
    lay: &RingLayout,
    payload: &dyn Fn(u64) -> u64,
    what: &str,
    complete: bool,
    out: &mut Vec<DsViolation>,
) {
    let csum = |i: u64| payload(i) ^ i.wrapping_add(CSUM_TAG);
    let ack = |i: u64| payload(i) ^ ACK_TAG;
    let tail = pm.read_word(lay.tail_addr);
    let cons = pm.read_word(lay.cons_addr);
    if tail > lay.records {
        violation(
            out,
            "queue-records-published",
            format!("{what}: tail {tail} exceeds {}", lay.records),
        );
        return;
    }
    if cons > lay.records {
        violation(
            out,
            "queue-no-lost-ack",
            format!("{what}: cons {cons} exceeds {}", lay.records),
        );
        return;
    }
    if complete && (tail != lay.records || cons != lay.records) {
        violation(
            out,
            "queue-records-published",
            format!(
                "{what}: completed run left tail {tail} / cons {cons} of {}",
                lay.records
            ),
        );
    }

    // queue-no-lost-ack: every durably-consumed record has its exact
    // ack; at most one ack (the in-flight one) may run ahead of cons.
    for i in 0..lay.records {
        let a = pm.read_word(lay.ack_base + i * 8);
        if i < cons {
            if a != ack(i) {
                violation(
                    out,
                    "queue-no-lost-ack",
                    format!(
                        "{what}: consumed record {i} has ack {a:#x}, want {:#x}",
                        ack(i)
                    ),
                );
            }
        } else if i == cons {
            if a != 0 && a != ack(i) {
                violation(
                    out,
                    "queue-no-lost-ack",
                    format!("{what}: in-flight ack {i} holds foreign {a:#x}"),
                );
            }
        } else if a != 0 {
            violation(
                out,
                "queue-no-lost-ack",
                format!("{what}: ack {i} durable {a:#x} while cons is {cons}"),
            );
        }
    }

    // queue-records-published / queue-slot-reuse: each slot holds its
    // newest published record, or a payload-first prefix of the
    // in-flight one — and a durable overwrite proves the overwritten
    // record was durably consumed.
    for idx in 0..lay.cap {
        let p = pm.read_word(lay.slot_base + idx * 16);
        let c = pm.read_word(lay.slot_base + idx * 16 + 8);
        let s_pub = (idx < tail).then(|| idx + ((tail - 1 - idx) / lay.cap) * lay.cap);
        let s_if = (tail % lay.cap == idx && tail < lay.records).then_some(tail);
        let (op, oc) = s_pub.map(|s| (payload(s), csum(s))).unwrap_or((0, 0));
        match s_if {
            Some(sn) => {
                let (np, nc) = (payload(sn), csum(sn));
                let p_ok = p == op || p == np;
                let c_ok = c == oc || c == nc;
                if !p_ok || !c_ok {
                    violation(
                        out,
                        "queue-records-published",
                        format!("{what}: slot {idx} holds ({p:#x},{c:#x}), neither record {s_pub:?} nor {sn}"),
                    );
                    continue;
                }
                if c == nc && c != oc && p != np {
                    violation(
                        out,
                        "queue-records-published",
                        format!("{what}: slot {idx} has csum of {sn} over payload {p:#x}"),
                    );
                }
                let advanced = (p == np && p != op) || (c == nc && c != oc);
                if advanced {
                    if let Some(sp) = s_pub {
                        if cons <= sp {
                            violation(
                                out,
                                "queue-slot-reuse",
                                format!(
                                    "{what}: slot {idx} reused for {sn} but record {sp} \
                                     not durably consumed (cons {cons})"
                                ),
                            );
                        }
                    }
                }
            }
            None => {
                if (p, c) != (op, oc) {
                    violation(
                        out,
                        "queue-records-published",
                        format!(
                            "{what}: slot {idx} holds ({p:#x},{c:#x}), want ({op:#x},{oc:#x}) \
                             for record {s_pub:?}"
                        ),
                    );
                }
            }
        }
    }
}

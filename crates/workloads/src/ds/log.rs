//! Durable append-only log with torn-tail detection.
//!
//! The simplest recoverable structure, and the template for the
//! publish-last discipline every other structure in this suite builds
//! on (in-line logging after Cohen et al., minus the explicit flushes
//! LightWSP makes unnecessary).
//!
//! # Layout
//!
//! One log per writer thread `w`, single-writer throughout:
//!
//! ```text
//! rec_base(w):   [payload₀][csum₀][payload₁][csum₁] …   16 B records
//! tail_addr(w):  number of fully published records        1 word
//! ```
//!
//! `payloadᵢ = mix64(((w << 32) | i) ^ SALT)` and
//! `csumᵢ = payloadᵢ ^ (i + CSUM_TAG)`: a checksum is valid only for
//! its own record *and* its own index, so stale or torn bytes cannot
//! masquerade as a later record.
//!
//! # Append and recovery procedure
//!
//! Append stores the payload, then the checksum, then executes a
//! region boundary, then stores the incremented tail. Per-thread
//! region-prefix persistence therefore guarantees **tail ≤ durable
//! valid prefix**: a durable tail implies every record below it is
//! durable, because the tail store sits in a strictly later region
//! than the record it publishes.
//!
//! Recovery needs no scan-and-repair: trust the tail. The only
//! in-flight state a crash can leave is at index `tail` itself —
//! nothing, a bare payload, or a full record whose publish was lost —
//! and the resumed writer simply overwrites it. The checker verifies
//! exactly that shape (`log-torn-tail`): records below the tail match
//! the oracle, index `tail` is a prefix of a valid record (payload
//! before checksum, never a checksum without its payload), and
//! everything beyond is untouched.

use super::{mix64, violation, DsViolation, RecoverableDs};
use lightwsp_ir::builder::FuncBuilder;
use lightwsp_ir::inst::{AluOp, Cond};
use lightwsp_ir::{layout, Memory, Program, Reg};

/// Base address of the log areas (start of the workload heap).
pub const LOG_BASE: u64 = layout::HEAP_BASE;
/// Mixed into the record index so payload 0 never appears.
pub const LOG_SALT: u64 = 0x1095_A17E_D5EA_11E5;
/// Added to the record index inside the checksum, so a checksum is
/// valid only at its own index (and never zero for a zero payload).
pub const CSUM_TAG: u64 = 0xC5C5_C5C5_0000_0001;

/// A durable append log: `writers` independent single-writer logs of
/// `records` records each, one per thread.
#[derive(Clone, Copy, Debug)]
pub struct DurableLogSpec {
    /// Writer threads (one log per thread).
    pub writers: usize,
    /// Records appended per writer.
    pub records: u64,
}

/// Address layout of one single-writer log area; shared with the
/// service workload, whose per-client journals reuse the checker.
#[derive(Clone, Copy, Debug)]
pub struct LogArea {
    /// First record's address (records are 16 bytes: payload, csum).
    pub rec_base: u64,
    /// Address of the published-record-count word.
    pub tail_addr: u64,
    /// Capacity in records.
    pub records: u64,
}

impl DurableLogSpec {
    fn stride(&self) -> u64 {
        (self.records * 16).next_power_of_two().max(4096)
    }

    /// The log area of writer `w`.
    pub fn area(&self, w: usize) -> LogArea {
        let tails_base = LOG_BASE + self.writers as u64 * self.stride();
        LogArea {
            rec_base: LOG_BASE + w as u64 * self.stride(),
            tail_addr: tails_base + w as u64 * 64,
            records: self.records,
        }
    }

    /// Expected payload of record `i` of writer `w`.
    pub fn payload(&self, w: usize, i: u64) -> u64 {
        mix64((((w as u64) << 32) | i) ^ LOG_SALT)
    }

    /// Expected checksum of record `i` of writer `w`.
    pub fn csum(&self, w: usize, i: u64) -> u64 {
        self.payload(w, i) ^ (i.wrapping_add(CSUM_TAG))
    }
}

impl RecoverableDs for DurableLogSpec {
    fn name(&self) -> &'static str {
        "durable-log"
    }

    fn threads(&self) -> usize {
        self.writers
    }

    fn knobs(&self) -> Vec<u64> {
        vec![self.writers as u64, self.records]
    }

    /// Each thread appends `records` records to its own log. Register
    /// use: r1 record cursor, r2 sequence, r3/r4 hash, r5 checksum,
    /// r6 tail address.
    fn program(&self) -> Program {
        let shift = self.stride().trailing_zeros() as i64;
        let mut b = FuncBuilder::new("durable_log");
        let (cur, seq, x, tmp, csum, tailr) =
            (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6);

        b.alu_imm(AluOp::Shl, cur, Reg::R0, shift);
        b.alu_imm(AluOp::Add, cur, cur, LOG_BASE as i64);
        b.alu_imm(AluOp::Shl, tailr, Reg::R0, 6);
        let tails_base = LOG_BASE + self.writers as u64 * self.stride();
        b.alu_imm(AluOp::Add, tailr, tailr, tails_base as i64);
        b.mov_imm(seq, 0);

        let header = b.new_block();
        let done = b.new_block();
        b.hint_trip_count(header, self.records.min(u32::MAX as u64) as u32);
        b.jump(header);

        b.switch_to(header);
        // x = ((tid << 32) | seq) ^ SALT; payload = mix64(x).
        b.alu_imm(AluOp::Shl, x, Reg::R0, 32);
        b.alu(AluOp::Or, x, x, seq);
        b.alu_imm(AluOp::Xor, x, x, LOG_SALT as i64);
        super::emit_mix(&mut b, x, tmp);
        b.store(x, cur, 0);
        // csum = payload ^ (seq + CSUM_TAG).
        b.alu_imm(AluOp::Add, csum, seq, CSUM_TAG as i64);
        b.alu(AluOp::Xor, csum, x, csum);
        b.store(csum, cur, 8);
        // Publish: the boundary ends the record's region before the
        // tail store, making "tail durable => record durable" a
        // region-prefix fact rather than a flush.
        b.region_boundary();
        b.alu_imm(AluOp::Add, seq, seq, 1);
        b.store(seq, tailr, 0);
        b.alu_imm(AluOp::Add, cur, cur, 16);
        b.branch_imm(Cond::Ne, seq, self.records as i64, header, done);

        b.switch_to(done);
        b.halt();
        Program::from_single(b.finish())
    }

    fn check_image(&self, pm: &Memory) -> Vec<DsViolation> {
        let mut out = Vec::new();
        for w in 0..self.writers {
            let area = self.area(w);
            check_log_area(
                pm,
                &area,
                &|i| (self.payload(w, i), self.csum(w, i)),
                &format!("log[{w}]"),
                false,
                &mut out,
            );
        }
        out
    }

    fn check_final(&self, pm: &Memory) -> Vec<DsViolation> {
        let mut out = Vec::new();
        for w in 0..self.writers {
            let area = self.area(w);
            check_log_area(
                pm,
                &area,
                &|i| (self.payload(w, i), self.csum(w, i)),
                &format!("log[{w}]"),
                true,
                &mut out,
            );
        }
        out
    }
}

/// Checks one single-writer log area against the `log-torn-tail`
/// contract: all records below the durable tail intact, at most one
/// in-flight record (payload-before-checksum) at the tail, silence
/// beyond. With `complete`, additionally requires `tail == records`.
///
/// `expect(i)` returns the oracle `(payload, csum)` of record `i`;
/// the service journals reuse this with their own payload streams.
pub(crate) fn check_log_area(
    pm: &Memory,
    area: &LogArea,
    expect: &dyn Fn(u64) -> (u64, u64),
    what: &str,
    complete: bool,
    out: &mut Vec<DsViolation>,
) {
    let tail = pm.read_word(area.tail_addr);
    if tail > area.records {
        violation(
            out,
            "log-torn-tail",
            format!("{what}: tail {tail} exceeds capacity {}", area.records),
        );
        return;
    }
    if complete && tail != area.records {
        violation(
            out,
            "log-torn-tail",
            format!(
                "{what}: completed run published {tail} of {} records",
                area.records
            ),
        );
    }
    for i in 0..area.records {
        let addr = area.rec_base + i * 16;
        let (p, c) = (pm.read_word(addr), pm.read_word(addr + 8));
        let (ep, ec) = expect(i);
        if i < tail {
            // Published: must be exactly the oracle record.
            if p != ep || c != ec {
                violation(
                    out,
                    "log-torn-tail",
                    format!(
                        "{what}: published record {i} is ({p:#x},{c:#x}), oracle ({ep:#x},{ec:#x})"
                    ),
                );
            }
        } else if i == tail {
            // In flight: a durable prefix of (payload, csum) — never a
            // checksum without its payload, never foreign bytes.
            if p != 0 && p != ep {
                violation(
                    out,
                    "log-torn-tail",
                    format!("{what}: in-flight record {i} payload {p:#x}, oracle {ep:#x}"),
                );
            }
            if c != 0 && c != ec {
                violation(
                    out,
                    "log-torn-tail",
                    format!("{what}: in-flight record {i} csum {c:#x}, oracle {ec:#x}"),
                );
            }
            if c == ec && c != 0 && p != ep {
                violation(
                    out,
                    "log-torn-tail",
                    format!("{what}: record {i} has durable csum but torn payload {p:#x}"),
                );
            }
        } else if p != 0 || c != 0 {
            // Beyond the in-flight record: program order says the
            // writer has not reached it; region order says nothing of
            // it can be durable.
            violation(
                out,
                "log-torn-tail",
                format!("{what}: unreachable record {i} holds ({p:#x},{c:#x})"),
            );
        }
    }
}

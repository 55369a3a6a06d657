//! Recoverable persistent-memory data structures, authored as IR
//! programs that run under LightWSP's whole-system persistence.
//!
//! Every structure in this module is designed for **crash consistency
//! without any flush or logging code**: the only ordering tools the
//! programs use are the ones §III of the paper actually guarantees —
//! per-thread program order persists as a *prefix at region
//! granularity*, and the globally-survivable set is one contiguous run
//! of region IDs (`RECOVERY.md` §3). From those two facts the module
//! derives three authoring rules, used by every structure and spelled
//! out per structure in `docs/DATASTRUCTURES.md`:
//!
//! 1. **Publish last.** Data words are stored first, the word that
//!    makes them reachable (a log tail, a hash-map key, a queue tail, a
//!    stack head) is stored after a region boundary — so if the publish
//!    is durable, the data it points at is durable too.
//! 2. **Observe in a fresh region.** A consumer's first store after
//!    observing a published word happens *after* the producer's data
//!    stores executed, so if the region holding that store samples
//!    its ID after the observation, the ID is larger than the
//!    producer's — and the contiguous-prefix rule then guarantees the
//!    producer's data survives whenever the consumer's
//!    acknowledgement does. The region's checkpoints and resume PC
//!    carry the observation too: a crash resumes the consumer inside
//!    that region with the observed value restored. So the boundary
//!    goes **immediately before the observing load**, with no store in
//!    between, and compiler checkpoints and boundary PC stores count as
//!    stores. A boundary placed after the load, or a store between the
//!    boundary and the load, lets the region sample its ID or persist
//!    a checkpoint before the observation, and a crash can then resume
//!    past a value that was never durable. This is the flush-free
//!    cross-thread handoff the delay-free-concurrency literature
//!    builds explicitly; under LightWSP it falls out of the gating
//!    protocol.
//! 3. **Single-writer words.** Every persistent word has exactly one
//!    writing thread (per-producer rings, per-thread arenas, sharded
//!    map slots), so recovered images are checkable against a replayed
//!    op-stream oracle with no interleaving enumeration.
//!
//! The structures (each file documents its layout, recovery procedure,
//! and the `RECOVERY.md` §8 invariants its checker enforces):
//!
//! | module | structure | §8 invariants |
//! |---|---|---|
//! | [`log`] | durable append log, torn-tail detection | `log-torn-tail` |
//! | [`map`] | bucketed durable hash map, sharded slots | `map-bucket-atomicity`, `map-shard-prefix` |
//! | [`queue`] | durable MPSC queue, per-producer rings | `queue-records-published`, `queue-no-lost-ack`, `queue-slot-reuse` |
//! | [`stack`] | lock-serialised Treiber stack, recovery scan | `stack-reachability`, `stack-lifo-accounting` |
//! | [`service`] | KV/queue service composing map+queue+log | all of the above, per component |
//!
//! Checkers run against a post-resolution durable image (what
//! [`lightwsp_ir::Memory`] holds after the WPQ gate flushed and
//! discarded); they are pure functions of the image plus the
//! structure's parameters, so the crash-audit driver can call them at
//! every swept point without resuming.

use lightwsp_ir::builder::FuncBuilder;
use lightwsp_ir::inst::AluOp;
use lightwsp_ir::Reg;

pub mod log;
pub mod map;
pub mod queue;
pub mod service;
pub mod stack;

/// First multiplier of the 64-bit finalizer hash (Murmur3 fmix64).
pub const MIX_C1: u64 = 0xff51_afd7_ed55_8ccd;
/// Second multiplier of the 64-bit finalizer hash (Murmur3 fmix64).
pub const MIX_C2: u64 = 0xc4ce_b9fe_1a85_ec53;

/// The 64-bit mixing hash every structure derives payloads, checksums
/// and map values from — the exact Rust mirror of the instruction
/// sequence `emit_mix` emits, so oracles can replay program state.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_mul(MIX_C1);
    x ^= x >> 33;
    x = x.wrapping_mul(MIX_C2);
    x ^= x >> 29;
    x
}

/// Emits `reg = mix64(reg)` (clobbers `tmp`). Kept to six
/// straight-line ALU instructions so a hash never spans a region
/// boundary decision.
pub(crate) fn emit_mix(b: &mut FuncBuilder, reg: Reg, tmp: Reg) {
    b.alu_imm(AluOp::Mul, reg, reg, MIX_C1 as i64);
    b.alu_imm(AluOp::Shr, tmp, reg, 33);
    b.alu(AluOp::Xor, reg, reg, tmp);
    b.alu_imm(AluOp::Mul, reg, reg, MIX_C2 as i64);
    b.alu_imm(AluOp::Shr, tmp, reg, 29);
    b.alu(AluOp::Xor, reg, reg, tmp);
}

/// One violated data-structure invariant, found by a checker in a
/// durable image. The `invariant` names match `RECOVERY.md` §8.
#[derive(Clone, Debug)]
pub struct DsViolation {
    /// The violated invariant's normative name (`RECOVERY.md` §8).
    pub invariant: &'static str,
    /// Human-readable specifics (structure, index, got/want values).
    pub detail: String,
}

impl std::fmt::Display for DsViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Pushes a violation onto `out` (checker-internal shorthand).
pub(crate) fn violation(out: &mut Vec<DsViolation>, invariant: &'static str, detail: String) {
    out.push(DsViolation { invariant, detail });
}

/// A recoverable PM data structure: an IR program plus the pure image
/// checkers the crash-audit driver calls at every swept point.
///
/// `check_image` must accept **every** durable image the machine can
/// legally produce — any crash point, any region split the compiler's
/// store threshold introduces (the builders assume the default
/// threshold; see each structure's docs). `check_final` additionally
/// assumes the run (golden or recovered) ran to completion.
pub trait RecoverableDs: Sync {
    /// Short stable name (used in reports and `BENCH_ds.json`).
    fn name(&self) -> &'static str;
    /// Software threads the program expects.
    fn threads(&self) -> usize;
    /// The construction parameters that, with the name, fix the
    /// program and its checkers, in a fixed order: what a result store
    /// keys an audit of the structure on. (A `Debug` rendering cannot
    /// serve: the service keeps derived state in a `HashMap`, whose
    /// iteration order is process-random.)
    fn knobs(&self) -> Vec<u64>;
    /// Builds the (uninstrumented) IR program; callers compile it with
    /// `lightwsp_compiler::instrument`.
    fn program(&self) -> lightwsp_ir::Program;
    /// Checks the structure's crash-time invariants against a durable
    /// image captured at an arbitrary point.
    fn check_image(&self, pm: &lightwsp_ir::Memory) -> Vec<DsViolation>;
    /// Checks the structure's completed-run state (all ops applied,
    /// counters exact, oracle state reproduced).
    fn check_final(&self, pm: &lightwsp_ir::Memory) -> Vec<DsViolation>;
    /// True when the *entire* final durable image (including per-thread
    /// checkpoint areas) is interleaving-independent, so a recovered
    /// run may be byte-compared against the golden run. Structures
    /// whose thread control flow depends on cross-thread timing (queue
    /// consumer batches, stack pop-empty paths, the service) return
    /// `false` and rely on `check_final` instead.
    fn deterministic_final(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_matches_emitted_sequence() {
        // Golden values pin the Rust mirror; the IR side is exercised
        // end-to-end by every structure's recovery tests.
        assert_eq!(mix64(0), 0);
        assert_ne!(mix64(1), 0);
        assert_ne!(mix64(1), mix64(2));
        // Pinned golden value of this exact constant/shift sequence.
        assert_eq!(mix64(1), 0xb456_bcf9_cc5c_72b1);
    }
}

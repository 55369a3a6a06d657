//! Micro-ops: the pre-decoded instruction format of the decoded
//! execution engine.
//!
//! [`crate::decode`] lowers every basic block of a [`crate::Program`]
//! into a flat run of [`MicroOp`]s at load time, one per source
//! instruction: operands are resolved, branch targets pre-linked as
//! *flat block indices* (no per-step `FuncId`/`BlockId` map lookups),
//! and instrumentation addresses partially precomputed.
//! [`crate::exec`] then executes micro-ops in a tight loop that yields
//! to the timing simulator only at instructions that emit timed
//! [`crate::DynEvent`]s.

use crate::inst::{AluOp, BranchRhs, Cond};
use crate::reg::Reg;

/// A register-or-immediate right-hand operand with the immediate
/// pre-cast to the `u64` domain the ALU works in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// A pre-cast immediate.
    Imm(u64),
    /// A register.
    Reg(Reg),
}

impl From<BranchRhs> for Operand {
    fn from(rhs: BranchRhs) -> Operand {
        match rhs {
            BranchRhs::Imm(i) => Operand::Imm(i as u64),
            BranchRhs::Reg(r) => Operand::Reg(r),
        }
    }
}

/// One pre-decoded micro-op.
///
/// Every variant maps 1:1 to an [`crate::Inst`] or
/// [`crate::Terminator`]. Thread-dependent addresses
/// (PC slot, checkpoint slots, stack windows) are *not* baked in — the
/// decoded program is shared by every thread and every crash-sweep fork
/// — but everything thread-invariant is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MicroOp {
    /// `dst = op(lhs, rhs)`.
    Alu {
        /// The operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
    },
    /// `dst = op(src, imm)`.
    AluImm {
        /// The operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
        /// Pre-cast immediate.
        imm: u64,
    },
    /// `dst = imm`.
    MovImm {
        /// Destination register.
        dst: Reg,
        /// Pre-cast immediate.
        imm: u64,
    },
    /// No operation (occupies a retire slot).
    Nop,
    /// `dst = mem[base + offset]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Pre-cast byte offset.
        offset: u64,
    },
    /// `mem[base + offset] = src`.
    Store {
        /// Source register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Pre-cast byte offset.
        offset: u64,
    },
    /// Memory fence.
    Fence,
    /// `dst = mem[addr]; mem[addr] = op(dst, src)`.
    AtomicRmw {
        /// The read-modify-write operation.
        op: AluOp,
        /// Receives the old memory value.
        dst: Reg,
        /// Address register.
        addr: Reg,
        /// Operand register.
        src: Reg,
    },
    /// Spin-acquire of the lock word addressed by `lock`.
    LockAcquire {
        /// Lock-address register.
        lock: Reg,
    },
    /// Release of the lock word addressed by `lock`.
    LockRelease {
        /// Lock-address register.
        lock: Reg,
    },
    /// Irrevocable I/O output of `src`.
    Io {
        /// Source register.
        src: Reg,
    },
    /// Region boundary: the PC-checkpointing store, with the recovery
    /// point pre-encoded.
    Boundary {
        /// Encoded [`crate::ProgramPoint`] of the instruction after the
        /// boundary (the §IV-F recovery PC).
        pc_enc: u64,
    },
    /// Live-out register checkpoint store.
    CheckpointStore {
        /// The checkpointed register.
        reg: Reg,
    },
    /// Call: pushes the pre-encoded return point and enters the
    /// callee's entry block.
    Call {
        /// Flat index of the callee's entry block.
        callee_block: u32,
        /// Encoded [`crate::ProgramPoint`] of the return point.
        ret_enc: u64,
    },
    /// Unconditional jump to a pre-linked block.
    Jump {
        /// Flat index of the target block.
        target: u32,
    },
    /// Two-way conditional branch with pre-linked targets.
    Branch {
        /// The comparison.
        cond: Cond,
        /// Left comparison register.
        src: Reg,
        /// Right comparison operand.
        rhs: Operand,
        /// Flat index of the taken-path block.
        then_blk: u32,
        /// Flat index of the fall-through block.
        else_blk: u32,
    },
    /// Function return: pops the return point from the in-memory stack
    /// (or halts when returning from the entry frame).
    Ret,
    /// Thread exit.
    Halt,
}

//! Deterministic functional interpreter.
//!
//! One [`Interp`] per hardware thread executes the IR against a shared
//! byte-addressable [`Memory`] and emits one [`DynEvent`] per executed
//! instruction. The timing simulator decides the interleaving (it calls
//! `step` on whichever thread's core has a free slot), and the persistence
//! hardware models consume the store events.
//!
//! The interpreter is *restartable*: after a simulated power failure the
//! recovery runtime constructs a fresh `Interp` positioned at the
//! checkpointed program point with registers reloaded from the checkpoint
//! storage in PM ([`Interp::resume_from_checkpoint`]), exactly as §IV-F of
//! the paper describes. Re-executed instructions then replay
//! deterministically because every input (PM contents + checkpointed
//! registers) is identical to the original run.

use crate::inst::{BranchRhs, Inst, Terminator};
use crate::layout;
use crate::program::{Program, ProgramPoint};
use crate::reg::{Reg, NUM_REGS};

pub use crate::memory::Memory;

/// Identifies a software thread.
pub type ThreadId = usize;

/// Why a store event happened; the persistence hardware cares about the
/// distinction (boundaries broadcast region IDs; checkpoints/boundaries
/// are compiler instrumentation for the instruction-count statistics).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// A program data store.
    Plain,
    /// An atomic/lock store (synchronisation point).
    Atomic,
    /// A compiler-inserted live-out register checkpoint.
    Checkpoint,
    /// The PC-checkpointing store of a region boundary.
    BoundaryPc,
    /// A call pushing its return address.
    StackPush,
}

/// One dynamic event, produced per executed instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DynEvent {
    /// A compute instruction (ALU, move, nop, branch, jump).
    Alu,
    /// An 8-byte load from `addr`.
    Load {
        /// Byte address (8-byte aligned).
        addr: u64,
    },
    /// An 8-byte store.
    Store {
        /// Byte address (8-byte aligned).
        addr: u64,
        /// The stored value.
        val: u64,
        /// The kind of store.
        kind: StoreKind,
    },
    /// A region boundary: stores the encoded recovery PC to the thread's
    /// PC slot *and* broadcasts the ending region's ID to all MCs.
    Boundary {
        /// Address of the thread's PC checkpoint slot.
        addr: u64,
        /// Encoded [`ProgramPoint`] of the next region's start.
        pc_val: u64,
    },
    /// A memory fence.
    Fence,
    /// A failed lock acquire; the thread did not advance and will retry.
    LockSpin {
        /// Address of the contended lock word.
        addr: u64,
    },
    /// An irrevocable I/O output of `val` (§IV-A): consumed by the
    /// machine's I/O port model; re-emitted if its region replays after
    /// power failure, which is exactly the anomaly the paper's
    /// boundary-before-I/O placement bounds to one operation.
    Io {
        /// The emitted value.
        val: u64,
    },
    /// The thread finished.
    Halt,
}

impl DynEvent {
    /// True for events that enter the persist path (everything a WPQ entry
    /// is created for).
    pub fn is_persist_store(&self) -> bool {
        matches!(self, DynEvent::Store { .. } | DynEvent::Boundary { .. })
    }
}

/// Per-thread functional interpreter state.
#[derive(Clone, Debug)]
pub struct Interp {
    /// The architectural register file.
    pub(crate) regs: [u64; NUM_REGS],
    /// Next instruction to execute.
    pub(crate) point: ProgramPoint,
    pub(crate) tid: ThreadId,
    pub(crate) finished: bool,
    /// Executed instruction count (including instrumentation).
    pub(crate) insts_executed: u64,
    /// Executed instrumentation count (boundaries + checkpoint stores).
    pub(crate) instrumentation_executed: u64,
    /// Decoded-engine cursor: flat micro-op index (valid only when
    /// `cursor_valid`).
    pub(crate) cursor: u32,
    /// True while `cursor` tracks the thread (false after a
    /// reference-mode `step` moved `point` behind the engine's back).
    pub(crate) cursor_valid: bool,
    /// True while `point` lags the decoded cursor. `step_batch` leaves
    /// `point` stale instead of re-encoding it on every batch; the cold
    /// readers (forks, reports, mode switches) call
    /// `Interp::sync_point` first.
    pub(crate) point_stale: bool,
}

impl Interp {
    /// Creates a thread at the program's entry with a fresh register file
    /// (`sp` initialised to the thread's stack window, `r0` set to `tid`
    /// so programs can diverge per thread).
    pub fn new(program: &Program, tid: ThreadId) -> Interp {
        let mut regs = [0u64; NUM_REGS];
        regs[Reg::SP.index()] = layout::initial_sp(tid);
        regs[Reg::R0.index()] = tid as u64;
        Interp {
            regs,
            point: ProgramPoint::func_entry(program, program.entry),
            tid,
            finished: false,
            insts_executed: 0,
            instrumentation_executed: 0,
            cursor: 0,
            cursor_valid: false,
            point_stale: false,
        }
    }

    /// Recovery constructor (§IV-F): resumes at the checkpointed recovery
    /// PC with every register reloaded from the thread's checkpoint
    /// storage in `pm`.
    pub fn resume_from_checkpoint(pm: &Memory, tid: ThreadId) -> Interp {
        let mut regs = [0u64; NUM_REGS];
        for r in Reg::all() {
            regs[r.index()] = pm.read_word(layout::checkpoint_slot(tid, r));
        }
        let point = ProgramPoint::decode(pm.read_word(layout::pc_slot(tid)));
        Interp {
            regs,
            point,
            tid,
            finished: false,
            insts_executed: 0,
            instrumentation_executed: 0,
            cursor: 0,
            cursor_valid: false,
            point_stale: false,
        }
    }

    /// The thread id.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// True once the thread has halted.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The next instruction's program point.
    ///
    /// After decoded-engine batches (`step_batch`), `point` is kept
    /// lazily — call [`Interp::sync_point`] first at those call sites;
    /// a stale read trips the debug assertion.
    pub fn point(&self) -> ProgramPoint {
        debug_assert!(
            !self.point_stale,
            "reading a stale program point: call sync_point after step_batch"
        );
        self.point
    }

    /// Reads a register (test/diagnostic use).
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register (test/diagnostic use).
    pub fn set_reg(&mut self, r: Reg, val: u64) {
        self.regs[r.index()] = val;
    }

    /// Total executed instructions (including compiler instrumentation).
    pub fn insts_executed(&self) -> u64 {
        self.insts_executed
    }

    /// Executed boundary/checkpoint instructions only.
    pub fn instrumentation_executed(&self) -> u64 {
        self.instrumentation_executed
    }

    fn addr(&self, base: Reg, offset: i64) -> u64 {
        self.regs[base.index()].wrapping_add(offset as u64)
    }

    /// Executes one instruction, updating registers, `mem`, and the
    /// program point, and returns the resulting event.
    ///
    /// A failed lock acquire returns [`DynEvent::LockSpin`] *without*
    /// advancing, so the caller can retry later. Calling `step` on a
    /// finished thread returns [`DynEvent::Halt`] forever.
    ///
    /// # Panics
    ///
    /// Panics if the program point is malformed (out-of-range block or
    /// instruction index), which indicates a compiler bug.
    pub fn step(&mut self, program: &Program, mem: &mut Memory) -> DynEvent {
        if self.finished {
            return DynEvent::Halt;
        }
        debug_assert!(
            !self.point_stale,
            "reference step on a stale point: call sync_point after step_batch"
        );
        // A reference-mode step moves `point` behind the decoded
        // engine's back; force a cursor re-sync on the next batch.
        self.cursor_valid = false;
        let func = program.func(self.point.func);
        let block = func.block(self.point.block);
        let idx = self.point.inst as usize;

        if idx < block.insts.len() {
            let inst = block.insts[idx].clone();
            let next = ProgramPoint {
                inst: self.point.inst + 1,
                ..self.point
            };
            let ev = self.exec_inst(&inst, program, mem, next);
            if !matches!(ev, DynEvent::LockSpin { .. }) {
                self.insts_executed += 1;
                if inst.is_instrumentation() {
                    self.instrumentation_executed += 1;
                }
            }
            ev
        } else {
            self.insts_executed += 1;
            self.exec_term(&block.term.clone(), mem)
        }
    }

    fn exec_inst(
        &mut self,
        inst: &Inst,
        program: &Program,
        mem: &mut Memory,
        next: ProgramPoint,
    ) -> DynEvent {
        match *inst {
            Inst::Alu { op, dst, lhs, rhs } => {
                self.regs[dst.index()] = op.apply(self.regs[lhs.index()], self.regs[rhs.index()]);
                self.point = next;
                DynEvent::Alu
            }
            Inst::AluImm { op, dst, src, imm } => {
                self.regs[dst.index()] = op.apply(self.regs[src.index()], imm as u64);
                self.point = next;
                DynEvent::Alu
            }
            Inst::MovImm { dst, imm } => {
                self.regs[dst.index()] = imm as u64;
                self.point = next;
                DynEvent::Alu
            }
            Inst::Load { dst, base, offset } => {
                let addr = self.addr(base, offset);
                self.regs[dst.index()] = mem.read_word(addr);
                self.point = next;
                DynEvent::Load { addr: addr & !7 }
            }
            Inst::Store { src, base, offset } => {
                let addr = self.addr(base, offset) & !7;
                let val = self.regs[src.index()];
                mem.write_word(addr, val);
                self.point = next;
                DynEvent::Store {
                    addr,
                    val,
                    kind: StoreKind::Plain,
                }
            }
            Inst::Call { callee } => {
                // Push the return point on the in-memory stack.
                let sp = self.regs[Reg::SP.index()].wrapping_sub(8);
                self.regs[Reg::SP.index()] = sp;
                let ret = next.encode();
                mem.write_word(sp, ret);
                self.point = ProgramPoint::func_entry(program, callee);
                DynEvent::Store {
                    addr: sp & !7,
                    val: ret,
                    kind: StoreKind::StackPush,
                }
            }
            Inst::Fence => {
                self.point = next;
                DynEvent::Fence
            }
            Inst::AtomicRmw { op, dst, addr, src } => {
                let a = self.regs[addr.index()] & !7;
                let old = mem.read_word(a);
                self.regs[dst.index()] = old;
                let new = op.apply(old, self.regs[src.index()]);
                mem.write_word(a, new);
                self.point = next;
                DynEvent::Store {
                    addr: a,
                    val: new,
                    kind: StoreKind::Atomic,
                }
            }
            Inst::LockAcquire { lock } => {
                let a = self.regs[lock.index()] & !7;
                if mem.read_word(a) == 0 {
                    mem.write_word(a, 1 + self.tid as u64);
                    self.point = next;
                    DynEvent::Store {
                        addr: a,
                        val: 1 + self.tid as u64,
                        kind: StoreKind::Atomic,
                    }
                } else {
                    DynEvent::LockSpin { addr: a }
                }
            }
            Inst::LockRelease { lock } => {
                let a = self.regs[lock.index()] & !7;
                mem.write_word(a, 0);
                self.point = next;
                DynEvent::Store {
                    addr: a,
                    val: 0,
                    kind: StoreKind::Atomic,
                }
            }
            Inst::Nop => {
                self.point = next;
                DynEvent::Alu
            }
            Inst::Io { src } => {
                let val = self.regs[src.index()];
                self.point = next;
                DynEvent::Io { val }
            }
            Inst::RegionBoundary { .. } => {
                // The PC-checkpointing store: the recovery point is the
                // instruction *after* this boundary.
                let slot = layout::pc_slot(self.tid);
                let pc_val = next.encode();
                mem.write_word(slot, pc_val);
                self.point = next;
                DynEvent::Boundary { addr: slot, pc_val }
            }
            Inst::CheckpointStore { reg } => {
                let slot = layout::checkpoint_slot(self.tid, reg);
                let val = self.regs[reg.index()];
                mem.write_word(slot, val);
                self.point = next;
                DynEvent::Store {
                    addr: slot,
                    val,
                    kind: StoreKind::Checkpoint,
                }
            }
        }
    }

    fn exec_term(&mut self, term: &Terminator, mem: &mut Memory) -> DynEvent {
        match *term {
            Terminator::Jump { target } => {
                self.point = ProgramPoint {
                    block: target,
                    inst: 0,
                    ..self.point
                };
                DynEvent::Alu
            }
            Terminator::Branch {
                cond,
                src,
                rhs,
                then_bb,
                else_bb,
            } => {
                let lhs = self.regs[src.index()];
                let rhs = match rhs {
                    BranchRhs::Imm(i) => i as u64,
                    BranchRhs::Reg(r) => self.regs[r.index()],
                };
                let target = if cond.eval(lhs, rhs) {
                    then_bb
                } else {
                    else_bb
                };
                self.point = ProgramPoint {
                    block: target,
                    inst: 0,
                    ..self.point
                };
                DynEvent::Alu
            }
            Terminator::Ret => {
                let sp = self.regs[Reg::SP.index()];
                if sp >= layout::initial_sp(self.tid) {
                    // Returning from the entry frame: the thread is done.
                    self.finished = true;
                    return DynEvent::Halt;
                }
                let ret = mem.read_word(sp);
                self.regs[Reg::SP.index()] = sp.wrapping_add(8);
                self.point = ProgramPoint::decode(ret);
                DynEvent::Load { addr: sp & !7 }
            }
            Terminator::Halt => {
                self.finished = true;
                DynEvent::Halt
            }
        }
    }

    /// Runs the thread to completion (or for at most `max_steps` steps),
    /// returning the events produced. Intended for tests and small
    /// programs; the timing simulator drives `step` itself.
    pub fn run(&mut self, program: &Program, mem: &mut Memory, max_steps: u64) -> Vec<DynEvent> {
        let mut events = Vec::new();
        for _ in 0..max_steps {
            let ev = self.step(program, mem);
            if ev == DynEvent::Halt {
                events.push(ev);
                break;
            }
            if let DynEvent::LockSpin { .. } = ev {
                // Single-threaded `run` cannot make progress on a held
                // lock; treat as a wedge and stop.
                events.push(ev);
                break;
            }
            events.push(ev);
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::{AluOp, Cond};
    use crate::program::FuncId;

    fn run_program(p: &Program, max: u64) -> (Memory, Vec<DynEvent>, Interp) {
        let mut mem = Memory::new();
        let mut t = Interp::new(p, 0);
        let evs = t.run(p, &mut mem, max);
        (mem, evs, t)
    }

    #[test]
    fn loop_executes_and_stores() {
        // for i in 0..4 { heap[i] = i*2 }
        let mut b = FuncBuilder::new("loop");
        b.mov_imm(Reg::R1, 0);
        b.mov_imm(Reg::R2, layout::HEAP_BASE as i64);
        let header = b.new_block();
        let exit = b.new_block();
        b.jump(header);
        b.switch_to(header);
        b.alu_imm(AluOp::Shl, Reg::R3, Reg::R1, 1);
        b.store(Reg::R3, Reg::R2, 0);
        b.alu_imm(AluOp::Add, Reg::R2, Reg::R2, 8);
        b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.branch_imm(Cond::Ne, Reg::R1, 4, header, exit);
        b.switch_to(exit);
        b.halt();
        let p = Program::from_single(b.finish());
        let (mem, evs, t) = run_program(&p, 1000);
        assert!(t.finished());
        for i in 0..4u64 {
            assert_eq!(mem.read_word(layout::HEAP_BASE + i * 8), i * 2);
        }
        let stores = evs
            .iter()
            .filter(|e| matches!(e, DynEvent::Store { .. }))
            .count();
        assert_eq!(stores, 4);
    }

    #[test]
    fn call_and_ret_via_memory_stack() {
        // callee: [HEAP] = 99
        let mut cb = FuncBuilder::new("callee");
        cb.mov_imm(Reg::R5, 99);
        cb.mov_imm(Reg::R6, layout::HEAP_BASE as i64);
        cb.store(Reg::R5, Reg::R6, 0);
        cb.ret();
        let callee = cb.finish();
        // main: call callee; [HEAP+8] = 1
        let mut mb = FuncBuilder::new("main");
        mb.call(FuncId::from_index(1));
        mb.mov_imm(Reg::R7, 1);
        mb.mov_imm(Reg::R8, layout::HEAP_BASE as i64);
        mb.store(Reg::R7, Reg::R8, 8);
        mb.halt();
        let p = Program::new(vec![mb.finish(), callee], FuncId::from_index(0));
        let (mem, evs, t) = run_program(&p, 1000);
        assert!(t.finished());
        assert_eq!(mem.read_word(layout::HEAP_BASE), 99);
        assert_eq!(mem.read_word(layout::HEAP_BASE + 8), 1);
        // The call pushed a return address into stack memory.
        assert!(evs.iter().any(|e| matches!(
            e,
            DynEvent::Store {
                kind: StoreKind::StackPush,
                ..
            }
        )));
        // The matching ret popped it with a load.
        assert!(evs.iter().any(|e| matches!(e, DynEvent::Load { .. })));
    }

    #[test]
    fn ret_from_entry_frame_halts() {
        let mut b = FuncBuilder::new("main");
        b.nop();
        b.ret();
        let p = Program::from_single(b.finish());
        let (_, evs, t) = run_program(&p, 10);
        assert!(t.finished());
        assert_eq!(*evs.last().unwrap(), DynEvent::Halt);
    }

    #[test]
    fn boundary_stores_recovery_pc() {
        let mut b = FuncBuilder::new("bdry");
        b.region_boundary();
        b.mov_imm(Reg::R1, 5);
        b.halt();
        let p = Program::from_single(b.finish());
        let (mem, evs, _) = run_program(&p, 10);
        let DynEvent::Boundary { addr, pc_val } = evs[0] else {
            panic!("expected boundary first, got {:?}", evs[0]);
        };
        assert_eq!(addr, layout::pc_slot(0));
        let pt = ProgramPoint::decode(pc_val);
        assert_eq!(pt.inst, 1, "recovery point is after the boundary");
        assert_eq!(mem.read_word(layout::pc_slot(0)), pc_val);
    }

    #[test]
    fn checkpoint_store_writes_register_slot() {
        let mut b = FuncBuilder::new("ckpt");
        b.mov_imm(Reg::R4, 1234);
        b.checkpoint(Reg::R4);
        b.halt();
        let p = Program::from_single(b.finish());
        let (mem, evs, _) = run_program(&p, 10);
        assert_eq!(mem.read_word(layout::checkpoint_slot(0, Reg::R4)), 1234);
        assert!(evs.iter().any(|e| matches!(
            e,
            DynEvent::Store {
                kind: StoreKind::Checkpoint,
                val: 1234,
                ..
            }
        )));
    }

    #[test]
    fn resume_from_checkpoint_restores_state() {
        let mut pm = Memory::new();
        pm.write_word(layout::checkpoint_slot(3, Reg::R7), 42);
        let pt = ProgramPoint {
            func: FuncId::from_index(0),
            block: crate::program::BlockId::from_index(0),
            inst: 2,
        };
        pm.write_word(layout::pc_slot(3), pt.encode());
        let t = Interp::resume_from_checkpoint(&pm, 3);
        assert_eq!(t.reg(Reg::R7), 42);
        assert_eq!(t.point(), pt);
        assert_eq!(t.tid(), 3);
    }

    #[test]
    fn lock_spin_does_not_advance() {
        let mut b = FuncBuilder::new("lk");
        b.mov_imm(Reg::R1, layout::lock_addr(0) as i64);
        b.lock_acquire(Reg::R1);
        b.halt();
        let p = Program::from_single(b.finish());
        let mut mem = Memory::new();
        mem.write_word(layout::lock_addr(0), 9); // lock already held
        let mut t = Interp::new(&p, 0);
        assert_eq!(t.step(&p, &mut mem), DynEvent::Alu);
        let before = t.point();
        let ev = t.step(&p, &mut mem);
        assert!(matches!(ev, DynEvent::LockSpin { .. }));
        assert_eq!(t.point(), before, "spin must not advance");
        // Release the lock and the acquire succeeds.
        mem.write_word(layout::lock_addr(0), 0);
        assert!(matches!(
            t.step(&p, &mut mem),
            DynEvent::Store {
                kind: StoreKind::Atomic,
                ..
            }
        ));
    }

    #[test]
    fn atomic_rmw_semantics() {
        let mut b = FuncBuilder::new("rmw");
        b.mov_imm(Reg::R1, layout::HEAP_BASE as i64);
        b.mov_imm(Reg::R2, 5);
        b.atomic_rmw(AluOp::Add, Reg::R3, Reg::R1, Reg::R2);
        b.halt();
        let p = Program::from_single(b.finish());
        let mut mem = Memory::new();
        mem.write_word(layout::HEAP_BASE, 10);
        let mut t = Interp::new(&p, 0);
        t.run(&p, &mut mem, 10);
        assert_eq!(t.reg(Reg::R3), 10, "rmw returns old value");
        assert_eq!(mem.read_word(layout::HEAP_BASE), 15);
    }

    #[test]
    fn instruction_counters_distinguish_instrumentation() {
        let mut b = FuncBuilder::new("cnt");
        b.region_boundary();
        b.nop();
        b.checkpoint(Reg::R1);
        b.halt();
        let p = Program::from_single(b.finish());
        let (_, _, t) = run_program(&p, 10);
        assert_eq!(t.instrumentation_executed(), 2);
        assert_eq!(t.insts_executed(), 4); // incl. halt terminator
    }

    #[test]
    fn thread_id_seeds_r0_and_sp() {
        let mut b = FuncBuilder::new("tid");
        b.halt();
        let p = Program::from_single(b.finish());
        let t = Interp::new(&p, 5);
        assert_eq!(t.reg(Reg::R0), 5);
        assert_eq!(t.reg(Reg::SP), layout::initial_sp(5));
    }
}

//! The decoded execution engine: batched micro-op interpretation.
//!
//! [`Interp::step_batch`] executes pre-decoded micro-ops
//! ([`crate::decode::DecodedProgram`], one per source instruction) in a
//! tight loop that retires ALU-class instructions locally and yields to
//! the timing simulator only at instructions that emit timed
//! [`DynEvent`]s (loads, stores, boundaries, I/O, synchronisation,
//! halts). The caller hands in a *budget* of ALU retire slots; the
//! contract is exact per-slot parity with calling [`Interp::step`] once
//! per instruction:
//!
//! * every retired instruction updates the architectural state exactly
//!   as the reference tree-walker would, in the same order;
//! * the returned `(alus, event)` pair says how many `DynEvent::Alu`
//!   instructions retired (≤ budget) before the event — `(budget,
//!   None)` means the budget ran out first, and the next batch resumes
//!   at the next micro-op, so nothing ever executes early or twice.

use crate::decode::DecodedProgram;
use crate::interp::{DynEvent, Interp, StoreKind};
use crate::layout;
use crate::memory::Memory;
use crate::program::ProgramPoint;
use crate::reg::Reg;
use crate::uop::{MicroOp, Operand};

impl Interp {
    /// Executes micro-ops until an event-emitting instruction or until
    /// `budget` ALU-class instructions have retired, whichever comes
    /// first. Returns the retired-ALU count and the event, if any (see
    /// the module docs for the exact contract). `budget` must be ≥ 1.
    ///
    /// A failed lock acquire returns `LockSpin` without advancing, and
    /// calling this on a finished thread returns `(0, Some(Halt))`
    /// forever — both exactly as [`Interp::step`].
    pub fn step_batch(
        &mut self,
        dec: &DecodedProgram,
        mem: &mut Memory,
        budget: u32,
    ) -> (u32, Option<DynEvent>) {
        debug_assert!(budget >= 1, "a batch needs at least one retire slot");
        if self.finished {
            return (0, Some(DynEvent::Halt));
        }
        let mut cur = if self.cursor_valid {
            self.cursor
        } else {
            self.resync_cursor(dec)
        };
        let tid = self.tid;
        let mut alus = 0u32;
        // Retired-instruction count batches in a register for the whole
        // dispatch loop and folds into the field once at batch exit —
        // nothing reads `insts_executed` mid-batch.
        let mut executed = 0u64;
        let ev = loop {
            if alus >= budget {
                break None;
            }
            match dec.uops[cur as usize] {
                MicroOp::Alu { op, dst, lhs, rhs } => {
                    self.regs[dst.index()] =
                        op.apply(self.regs[lhs.index()], self.regs[rhs.index()]);
                    alus += 1;
                    executed += 1;
                    cur += 1;
                }
                MicroOp::AluImm { op, dst, src, imm } => {
                    self.regs[dst.index()] = op.apply(self.regs[src.index()], imm);
                    alus += 1;
                    executed += 1;
                    cur += 1;
                }
                MicroOp::MovImm { dst, imm } => {
                    self.regs[dst.index()] = imm;
                    alus += 1;
                    executed += 1;
                    cur += 1;
                }
                MicroOp::Nop => {
                    alus += 1;
                    executed += 1;
                    cur += 1;
                }
                MicroOp::Jump { target } => {
                    alus += 1;
                    executed += 1;
                    cur = dec.blocks[target as usize].start;
                }
                MicroOp::Branch {
                    cond,
                    src,
                    rhs,
                    then_blk,
                    else_blk,
                } => {
                    let taken = cond.eval(self.regs[src.index()], self.operand(rhs));
                    let t = if taken { then_blk } else { else_blk };
                    alus += 1;
                    executed += 1;
                    cur = dec.blocks[t as usize].start;
                }
                MicroOp::Load { dst, base, offset } => {
                    let addr = self.regs[base.index()].wrapping_add(offset);
                    self.regs[dst.index()] = mem.read_word_cached(addr);
                    executed += 1;
                    cur += 1;
                    break Some(DynEvent::Load { addr: addr & !7 });
                }
                MicroOp::Store { src, base, offset } => {
                    let addr = self.regs[base.index()].wrapping_add(offset) & !7;
                    let val = self.regs[src.index()];
                    mem.write_word(addr, val);
                    executed += 1;
                    cur += 1;
                    break Some(DynEvent::Store {
                        addr,
                        val,
                        kind: StoreKind::Plain,
                    });
                }
                MicroOp::Fence => {
                    executed += 1;
                    cur += 1;
                    break Some(DynEvent::Fence);
                }
                MicroOp::AtomicRmw { op, dst, addr, src } => {
                    let a = self.regs[addr.index()] & !7;
                    let old = mem.read_word_cached(a);
                    self.regs[dst.index()] = old;
                    let new = op.apply(old, self.regs[src.index()]);
                    mem.write_word(a, new);
                    executed += 1;
                    cur += 1;
                    break Some(DynEvent::Store {
                        addr: a,
                        val: new,
                        kind: StoreKind::Atomic,
                    });
                }
                MicroOp::LockAcquire { lock } => {
                    let a = self.regs[lock.index()] & !7;
                    if mem.read_word_cached(a) != 0 {
                        // No advance, no instruction count — exactly the
                        // reference spin semantics.
                        break Some(DynEvent::LockSpin { addr: a });
                    }
                    let val = 1 + tid as u64;
                    mem.write_word(a, val);
                    executed += 1;
                    cur += 1;
                    break Some(DynEvent::Store {
                        addr: a,
                        val,
                        kind: StoreKind::Atomic,
                    });
                }
                MicroOp::LockRelease { lock } => {
                    let a = self.regs[lock.index()] & !7;
                    mem.write_word(a, 0);
                    executed += 1;
                    cur += 1;
                    break Some(DynEvent::Store {
                        addr: a,
                        val: 0,
                        kind: StoreKind::Atomic,
                    });
                }
                MicroOp::Io { src } => {
                    let val = self.regs[src.index()];
                    executed += 1;
                    cur += 1;
                    break Some(DynEvent::Io { val });
                }
                MicroOp::Boundary { pc_enc } => {
                    let slot = layout::pc_slot(tid);
                    mem.write_word(slot, pc_enc);
                    executed += 1;
                    self.instrumentation_executed += 1;
                    cur += 1;
                    break Some(DynEvent::Boundary {
                        addr: slot,
                        pc_val: pc_enc,
                    });
                }
                MicroOp::CheckpointStore { reg } => {
                    let slot = layout::checkpoint_slot(tid, reg);
                    let val = self.regs[reg.index()];
                    mem.write_word(slot, val);
                    executed += 1;
                    self.instrumentation_executed += 1;
                    cur += 1;
                    break Some(DynEvent::Store {
                        addr: slot,
                        val,
                        kind: StoreKind::Checkpoint,
                    });
                }
                MicroOp::Call {
                    callee_block,
                    ret_enc,
                } => {
                    let sp = self.regs[Reg::SP.index()].wrapping_sub(8);
                    self.regs[Reg::SP.index()] = sp;
                    mem.write_word(sp, ret_enc);
                    executed += 1;
                    cur = dec.blocks[callee_block as usize].start;
                    break Some(DynEvent::Store {
                        addr: sp & !7,
                        val: ret_enc,
                        kind: StoreKind::StackPush,
                    });
                }
                MicroOp::Ret => {
                    executed += 1;
                    let sp = self.regs[Reg::SP.index()];
                    if sp >= layout::initial_sp(tid) {
                        // Returning from the entry frame: thread done.
                        self.finished = true;
                        break Some(DynEvent::Halt);
                    }
                    let ret = mem.read_word_cached(sp);
                    self.regs[Reg::SP.index()] = sp.wrapping_add(8);
                    cur = dec.locate(ProgramPoint::decode(ret));
                    break Some(DynEvent::Load { addr: sp & !7 });
                }
                MicroOp::Halt => {
                    executed += 1;
                    self.finished = true;
                    break Some(DynEvent::Halt);
                }
            }
        };
        // `point` is left lazy: cold readers (forks, reports, mode
        // switches) call `sync_point` first, so the hot path pays
        // three register-sized stores instead of a re-encode per batch.
        self.insts_executed += executed;
        self.cursor = cur;
        self.cursor_valid = true;
        self.point_stale = true;
        (alus, ev)
    }

    /// Materialises `point` from the decoded cursor after batched
    /// execution. Must be called with the same decoded program the
    /// batches ran against; a no-op when `point` is already current.
    pub fn sync_point(&mut self, dec: &DecodedProgram) {
        if self.point_stale {
            self.point = ProgramPoint::decode(dec.point_enc(self.cursor));
            self.point_stale = false;
        }
    }

    /// Cursor re-sync from `self.point` (fresh state, or after a
    /// reference-mode `step` invalidated the cursor).
    #[cold]
    fn resync_cursor(&mut self, dec: &DecodedProgram) -> u32 {
        debug_assert!(!self.point_stale, "resync from a stale point");
        self.cursor = dec.locate(self.point);
        self.cursor_valid = true;
        self.cursor
    }

    #[inline]
    fn operand(&self, o: Operand) -> u64 {
        match o {
            Operand::Imm(i) => i,
            Operand::Reg(r) => self.regs[r.index()],
        }
    }

    /// Runs the thread to completion via the decoded engine (or for at
    /// most `max_steps` retired instructions), returning the flattened
    /// per-instruction event stream — ALU batches are expanded to one
    /// [`DynEvent::Alu`] each, so the result is directly comparable to
    /// [`Interp::run`]. Intended for tests and diagnostics.
    pub fn run_decoded(
        &mut self,
        dec: &DecodedProgram,
        mem: &mut Memory,
        max_steps: u64,
    ) -> Vec<DynEvent> {
        let mut events = Vec::new();
        let mut steps = 0u64;
        while steps < max_steps {
            let budget = (max_steps - steps).min(1 << 20) as u32;
            let (alus, ev) = self.step_batch(dec, mem, budget);
            steps += alus as u64;
            events.extend(std::iter::repeat_n(DynEvent::Alu, alus as usize));
            let Some(ev) = ev else { continue };
            steps += 1;
            events.push(ev);
            if matches!(ev, DynEvent::Halt | DynEvent::LockSpin { .. }) {
                // Same wedge/termination handling as `Interp::run`.
                break;
            }
        }
        // Diagnostics entry point: leave `point` observable.
        self.sync_point(dec);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::{AluOp, Cond};
    use crate::program::{FuncId, Program};

    /// Asserts the decoded engine matches the reference tree-walker on
    /// `p` in every observable: event stream, memory image, counters,
    /// final point and registers — at full budget and at budget 1 (the
    /// harshest re-entry schedule).
    fn assert_parity(p: &Program, max: u64) {
        let mut rmem = Memory::new();
        let mut r = Interp::new(p, 0);
        let revs = r.run(p, &mut rmem, max);

        let dec = DecodedProgram::decode(p);
        for budget in [u32::MAX >> 8, 1, 3] {
            let mut dmem = Memory::new();
            let mut d = Interp::new(p, 0);
            let devs = run_budgeted(&mut d, &dec, &mut dmem, max, budget);
            d.sync_point(&dec);
            assert_eq!(revs, devs, "event stream differs (budget {budget})");
            assert!(
                rmem.same_contents(&dmem),
                "memory differs (budget {budget}): {:?}",
                rmem.first_difference(&dmem)
            );
            assert_eq!(r.insts_executed(), d.insts_executed(), "budget {budget}");
            assert_eq!(
                r.instrumentation_executed(),
                d.instrumentation_executed(),
                "budget {budget}"
            );
            assert_eq!(r.point(), d.point(), "budget {budget}");
            assert_eq!(r.finished(), d.finished(), "budget {budget}");
            for reg in Reg::all() {
                assert_eq!(r.reg(reg), d.reg(reg), "{reg} differs (budget {budget})");
            }
        }
    }

    /// `run_decoded` with a forced per-batch budget.
    fn run_budgeted(
        d: &mut Interp,
        dec: &DecodedProgram,
        mem: &mut Memory,
        max: u64,
        budget: u32,
    ) -> Vec<DynEvent> {
        let mut events = Vec::new();
        let mut steps = 0u64;
        while steps < max {
            let b = budget.min((max - steps).max(1).min(u32::MAX as u64) as u32);
            let (alus, ev) = d.step_batch(dec, mem, b);
            steps += alus as u64;
            events.extend(std::iter::repeat_n(DynEvent::Alu, alus as usize));
            let Some(ev) = ev else { continue };
            steps += 1;
            events.push(ev);
            if matches!(ev, DynEvent::Halt | DynEvent::LockSpin { .. }) {
                break;
            }
        }
        events
    }

    fn heap() -> i64 {
        layout::HEAP_BASE as i64
    }

    #[test]
    fn straight_line_parity() {
        let mut b = FuncBuilder::new("straight");
        b.mov_imm(Reg::R1, 3);
        b.mov_imm(Reg::R2, heap());
        b.alu_imm(AluOp::Mul, Reg::R3, Reg::R1, 7);
        b.store(Reg::R3, Reg::R2, 0);
        b.load(Reg::R4, Reg::R2, 0);
        b.alu(AluOp::Add, Reg::R5, Reg::R4, Reg::R3);
        b.halt();
        assert_parity(&Program::from_single(b.finish()), 1000);
    }

    #[test]
    fn fused_loop_parity_and_hot_tier() {
        // A pure-ALU loop whose last ALU feeds the branch, run for 200
        // iterations, plus a store-bearing epilogue.
        let mut b = FuncBuilder::new("hotloop");
        b.mov_imm(Reg::R1, 0);
        b.mov_imm(Reg::R2, heap());
        let header = b.new_block();
        let exit = b.new_block();
        b.jump(header);
        b.switch_to(header);
        b.alu_imm(AluOp::Add, Reg::R3, Reg::R1, 100);
        b.alu(AluOp::Xor, Reg::R4, Reg::R3, Reg::R1);
        b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.branch_imm(Cond::Ne, Reg::R1, 200, header, exit);
        b.switch_to(exit);
        b.store(Reg::R4, Reg::R2, 0);
        b.halt();
        assert_parity(&Program::from_single(b.finish()), 10_000);
    }

    #[test]
    fn memory_fusion_patterns_parity() {
        // Dependent pairs back to back: load then ALU, ALU then store,
        // ALU address then load, ALU address then store.
        let mut b = FuncBuilder::new("fusions");
        b.mov_imm(Reg::R2, heap());
        b.store(Reg::R2, Reg::R2, 0);
        b.load(Reg::R1, Reg::R2, 0); // load-op head
        b.alu_imm(AluOp::Add, Reg::R3, Reg::R1, 1);
        b.alu_imm(AluOp::Xor, Reg::R4, Reg::R3, 0x55); // op-store head
        b.store(Reg::R4, Reg::R2, 8);
        b.alu_imm(AluOp::Add, Reg::R5, Reg::R2, 8); // addr-gen + load
        b.load(Reg::R6, Reg::R5, 0);
        b.alu_imm(AluOp::Add, Reg::R7, Reg::R2, 16); // addr-gen + store
        b.store(Reg::R6, Reg::R7, 0);
        b.halt();
        assert_parity(&Program::from_single(b.finish()), 1000);
    }

    #[test]
    fn call_ret_boundary_checkpoint_parity() {
        let mut cb = FuncBuilder::new("callee");
        cb.region_boundary();
        cb.mov_imm(Reg::R5, 77);
        cb.checkpoint(Reg::R5);
        cb.mov_imm(Reg::R6, heap());
        cb.store(Reg::R5, Reg::R6, 0);
        cb.ret();
        let callee = cb.finish();
        let mut mb = FuncBuilder::new("main");
        mb.region_boundary();
        mb.call(FuncId::from_index(1));
        mb.io_out(Reg::R5);
        mb.fence();
        mb.ret();
        let p = Program::new(vec![mb.finish(), callee], FuncId::from_index(0));
        assert_parity(&p, 1000);
    }

    #[test]
    fn atomics_and_locks_parity() {
        let mut b = FuncBuilder::new("sync");
        b.mov_imm(Reg::R1, layout::lock_addr(0) as i64);
        b.lock_acquire(Reg::R1);
        b.mov_imm(Reg::R2, heap());
        b.mov_imm(Reg::R3, 5);
        b.atomic_rmw(AluOp::Add, Reg::R4, Reg::R2, Reg::R3);
        b.lock_release(Reg::R1);
        b.halt();
        assert_parity(&Program::from_single(b.finish()), 1000);
    }

    #[test]
    fn lock_spin_parity_and_no_advance() {
        let mut b = FuncBuilder::new("spin");
        b.mov_imm(Reg::R1, layout::lock_addr(0) as i64);
        b.lock_acquire(Reg::R1);
        b.halt();
        let p = Program::from_single(b.finish());
        let dec = DecodedProgram::decode(&p);
        let mut mem = Memory::new();
        mem.write_word(layout::lock_addr(0), 9); // held
        let mut d = Interp::new(&p, 0);
        let (alus, ev) = d.step_batch(&dec, &mut mem, 16);
        assert_eq!(alus, 1, "the mov retires before the acquire");
        assert!(matches!(ev, Some(DynEvent::LockSpin { .. })));
        d.sync_point(&dec);
        let before = d.point();
        let (alus2, ev2) = d.step_batch(&dec, &mut mem, 16);
        assert_eq!(alus2, 0);
        assert!(matches!(ev2, Some(DynEvent::LockSpin { .. })));
        d.sync_point(&dec);
        assert_eq!(d.point(), before, "spin must not advance");
        // Release the lock: the retry succeeds.
        mem.write_word(layout::lock_addr(0), 0);
        let (_, ev3) = d.step_batch(&dec, &mut mem, 16);
        assert!(matches!(
            ev3,
            Some(DynEvent::Store {
                kind: StoreKind::Atomic,
                ..
            })
        ));
    }

    #[test]
    fn resume_from_checkpoint_reenters_decoded_blocks() {
        // Run the reference to completion, then resume from the durable
        // checkpoint image under BOTH engines and compare the replays.
        let mut b = FuncBuilder::new("resume");
        b.mov_imm(Reg::R1, 11);
        b.checkpoint(Reg::R1);
        b.region_boundary();
        // Post-boundary work the resume point must re-enter exactly.
        b.mov_imm(Reg::R2, heap());
        b.load(Reg::R3, Reg::R2, 0);
        b.alu_imm(AluOp::Add, Reg::R3, Reg::R3, 1);
        b.store(Reg::R3, Reg::R2, 0);
        b.halt();
        let p = Program::from_single(b.finish());
        let mut pm = Memory::new();
        let mut t = Interp::new(&p, 0);
        t.run(&p, &mut pm, 1000);
        assert!(t.finished());

        let dec = DecodedProgram::decode(&p);
        let mut rmem = pm.clone();
        let mut rt = Interp::resume_from_checkpoint(&pm, 0);
        let revs = rt.run(&p, &mut rmem, 1000);
        let mut dmem = pm.clone();
        let mut dt = Interp::resume_from_checkpoint(&pm, 0);
        let devs = run_budgeted(&mut dt, &dec, &mut dmem, 1000, 2);
        assert_eq!(revs, devs, "resumed event streams differ");
        assert!(rmem.same_contents(&dmem));
        assert_eq!(rt.reg(Reg::R1), 11);
        assert_eq!(dt.reg(Reg::R1), 11);
    }

    #[test]
    fn mixing_step_and_step_batch_stays_coherent() {
        // Interleaving the reference step with batches must not let a
        // stale cursor survive: step() invalidates the decoded cursor.
        let mut b = FuncBuilder::new("mix");
        b.mov_imm(Reg::R1, 1);
        b.mov_imm(Reg::R2, 2);
        b.mov_imm(Reg::R3, 3);
        b.halt();
        let p = Program::from_single(b.finish());
        let dec = DecodedProgram::decode(&p);
        let mut mem = Memory::new();
        let mut t = Interp::new(&p, 0);
        let (alus, _) = t.step_batch(&dec, &mut mem, 1);
        assert_eq!(alus, 1);
        t.sync_point(&dec); // materialise `point` before a reference step
        assert_eq!(t.step(&p, &mut mem), DynEvent::Alu);
        let (alus2, ev) = t.step_batch(&dec, &mut mem, 8);
        assert_eq!(alus2, 1, "one mov left before the halt");
        assert_eq!(ev, Some(DynEvent::Halt));
        assert_eq!(t.reg(Reg::R3), 3);
    }

    #[test]
    fn finished_thread_keeps_halting() {
        let mut b = FuncBuilder::new("halted");
        b.halt();
        let p = Program::from_single(b.finish());
        let dec = DecodedProgram::decode(&p);
        let mut mem = Memory::new();
        let mut t = Interp::new(&p, 0);
        assert_eq!(t.step_batch(&dec, &mut mem, 4), (0, Some(DynEvent::Halt)));
        assert_eq!(t.step_batch(&dec, &mut mem, 4), (0, Some(DynEvent::Halt)));
        assert_eq!(t.insts_executed(), 1, "halt retires once");
    }
}

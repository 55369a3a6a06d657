//! Load-time lowering of a [`Program`] into the flat micro-op format.
//!
//! [`DecodedProgram::decode`] walks every basic block once, lowers each
//! instruction and terminator to exactly one [`MicroOp`], resolves
//! operands and pre-links branch/call targets as flat block indices.
//! Instruction `i` of a block is micro-op `start + i`, so a
//! [`ProgramPoint`] maps to its micro-op — and back — by index
//! arithmetic alone, which keeps cycle accounting, crash points and
//! checkpoint re-entry bit-identical to the tree-walking reference
//! interpreter (see `crate::exec`). The result is immutable and
//! thread-independent: the simulator wraps it in an `Arc` shared by all
//! hardware threads and every crash-sweep fork.

use crate::inst::{Inst, Terminator};
use crate::program::{BlockId, FuncId, Program, ProgramPoint};
use crate::uop::MicroOp;

/// One decoded basic block: instruction `i` of the source block is
/// micro-op `start + i`, and the terminator is micro-op `end - 1`.
#[derive(Clone, Debug)]
pub struct DecodedBlock {
    /// First micro-op of the block in [`DecodedProgram::uops`].
    pub start: u32,
    /// One past the block's last micro-op (always the terminator).
    pub end: u32,
}

/// A whole program lowered to micro-ops (see the module docs).
#[derive(Clone, Debug)]
pub struct DecodedProgram {
    /// All micro-ops, blocks back to back.
    pub uops: Vec<MicroOp>,
    /// Per-block metadata, indexed by flat block id.
    pub blocks: Vec<DecodedBlock>,
    /// Flat id of a function's first block, indexed by function index:
    /// `flat = block_base[func] + block.index()`.
    pub block_base: Vec<u32>,
    /// Flat id of the program entry function's entry block.
    pub entry_block: u32,
    /// Per-micro-op encoded [`ProgramPoint`] of its source instruction.
    pub point_encs: Vec<u64>,
}

impl DecodedProgram {
    /// Lowers `program`; cost is one linear pass over the static code.
    pub fn decode(program: &Program) -> DecodedProgram {
        let mut block_base = Vec::with_capacity(program.funcs.len());
        let mut total = 0u32;
        for f in &program.funcs {
            block_base.push(total);
            total += f.blocks.len() as u32;
        }

        let mut d = Decoder {
            program,
            block_base,
            uops: Vec::new(),
            point_encs: Vec::new(),
            blocks: Vec::with_capacity(total as usize),
        };
        for (fi, f) in program.funcs.iter().enumerate() {
            for (bi, block) in f.blocks.iter().enumerate() {
                d.decode_block(FuncId::from_index(fi), BlockId::from_index(bi), block);
            }
        }

        let entry_func = program.func(program.entry);
        let entry_block = d.block_base[program.entry.index()] + entry_func.entry.index() as u32;
        DecodedProgram {
            uops: d.uops,
            blocks: d.blocks,
            block_base: d.block_base,
            entry_block,
            point_encs: d.point_encs,
        }
    }

    /// Flat block id of `(func, block)`.
    #[inline]
    pub fn flat_block(&self, func: FuncId, block: BlockId) -> u32 {
        self.block_base[func.index()] + block.index() as u32
    }

    /// Micro-op index of an arbitrary [`ProgramPoint`] (e.g. a
    /// checkpointed recovery PC).
    ///
    /// # Panics
    ///
    /// Panics if the point is malformed (out-of-range block or
    /// instruction index), which indicates a compiler bug or a corrupt
    /// checkpoint — never runs another block's code instead.
    #[inline]
    pub fn locate(&self, point: ProgramPoint) -> u32 {
        let blk = &self.blocks[self.flat_block(point.func, point.block) as usize];
        assert!(
            point.inst < blk.end - blk.start,
            "{point:?} lies past the end of its block"
        );
        blk.start + point.inst
    }

    /// Encoded [`ProgramPoint`] of micro-op `uop`.
    #[inline]
    pub fn point_enc(&self, uop: u32) -> u64 {
        self.point_encs[uop as usize]
    }
}

struct Decoder<'p> {
    program: &'p Program,
    block_base: Vec<u32>,
    uops: Vec<MicroOp>,
    point_encs: Vec<u64>,
    blocks: Vec<DecodedBlock>,
}

impl Decoder<'_> {
    fn push(&mut self, uop: MicroOp, func: FuncId, block: BlockId, inst: u32) {
        self.uops.push(uop);
        self.point_encs
            .push(ProgramPoint { func, block, inst }.encode());
    }

    fn decode_block(&mut self, func: FuncId, block: BlockId, b: &crate::program::Block) {
        let start = self.uops.len() as u32;
        for (i, inst) in b.insts.iter().enumerate() {
            let uop = self.single(inst, func, block, i as u32);
            self.push(uop, func, block, i as u32);
        }
        let uop = self.terminator(func, &b.term);
        self.push(uop, func, block, b.insts.len() as u32);
        let end = self.uops.len() as u32;
        self.blocks.push(DecodedBlock { start, end });
    }

    /// Lowers a single non-terminator instruction.
    fn single(&self, inst: &Inst, func: FuncId, block: BlockId, i: u32) -> MicroOp {
        match *inst {
            Inst::Alu { op, dst, lhs, rhs } => MicroOp::Alu { op, dst, lhs, rhs },
            Inst::AluImm { op, dst, src, imm } => MicroOp::AluImm {
                op,
                dst,
                src,
                imm: imm as u64,
            },
            Inst::MovImm { dst, imm } => MicroOp::MovImm {
                dst,
                imm: imm as u64,
            },
            Inst::Load { dst, base, offset } => MicroOp::Load {
                dst,
                base,
                offset: offset as u64,
            },
            Inst::Store { src, base, offset } => MicroOp::Store {
                src,
                base,
                offset: offset as u64,
            },
            Inst::Call { callee } => {
                let cf = self.program.func(callee);
                MicroOp::Call {
                    callee_block: self.block_base[callee.index()] + cf.entry.index() as u32,
                    ret_enc: ProgramPoint {
                        func,
                        block,
                        inst: i + 1,
                    }
                    .encode(),
                }
            }
            Inst::Fence => MicroOp::Fence,
            Inst::AtomicRmw { op, dst, addr, src } => MicroOp::AtomicRmw { op, dst, addr, src },
            Inst::LockAcquire { lock } => MicroOp::LockAcquire { lock },
            Inst::LockRelease { lock } => MicroOp::LockRelease { lock },
            Inst::Nop => MicroOp::Nop,
            Inst::Io { src } => MicroOp::Io { src },
            Inst::RegionBoundary { .. } => MicroOp::Boundary {
                pc_enc: ProgramPoint {
                    func,
                    block,
                    inst: i + 1,
                }
                .encode(),
            },
            Inst::CheckpointStore { reg } => MicroOp::CheckpointStore { reg },
        }
    }

    fn terminator(&self, func: FuncId, term: &Terminator) -> MicroOp {
        let base = self.block_base[func.index()];
        match *term {
            Terminator::Jump { target } => MicroOp::Jump {
                target: base + target.index() as u32,
            },
            Terminator::Branch {
                cond,
                src,
                rhs,
                then_bb,
                else_bb,
            } => MicroOp::Branch {
                cond,
                src,
                rhs: rhs.into(),
                then_blk: base + then_bb.index() as u32,
                else_blk: base + else_bb.index() as u32,
            },
            Terminator::Ret => MicroOp::Ret,
            Terminator::Halt => MicroOp::Halt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::{AluOp, Cond};
    use crate::layout;
    use crate::reg::Reg;

    fn decode_single(b: FuncBuilder) -> (Program, DecodedProgram) {
        let p = Program::from_single(b.finish());
        let d = DecodedProgram::decode(&p);
        (p, d)
    }

    #[test]
    fn straight_line_block_decodes_flat() {
        let mut b = FuncBuilder::new("flat");
        b.mov_imm(Reg::R1, 7);
        b.nop();
        b.halt();
        let (_, d) = decode_single(b);
        assert_eq!(d.blocks.len(), 1);
        let blk = &d.blocks[0];
        assert_eq!(
            &d.uops[blk.start as usize..blk.end as usize],
            &[
                MicroOp::MovImm {
                    dst: Reg::R1,
                    imm: 7
                },
                MicroOp::Nop,
                MicroOp::Halt,
            ]
        );
    }

    #[test]
    fn unfused_decode_is_one_uop_per_instruction() {
        let mut b = FuncBuilder::new("nofusemode");
        b.mov_imm(Reg::R2, layout::HEAP_BASE as i64);
        b.alu_imm(AluOp::Add, Reg::R1, Reg::R0, 3);
        b.store(Reg::R1, Reg::R2, 0); // a dependent ALU-store pair
        b.load(Reg::R3, Reg::R2, 0);
        b.alu_imm(AluOp::Add, Reg::R4, Reg::R3, 1); // a dependent load-ALU pair
        b.halt();
        let (p, d) = decode_single(b);
        let blk = &d.blocks[0];
        let uops = &d.uops[blk.start as usize..blk.end as usize];
        assert_eq!(uops.len(), p.funcs[0].blocks[0].insts.len() + 1);
        assert!(matches!(uops[1], MicroOp::AluImm { dst: Reg::R1, .. }));
        assert!(matches!(uops[2], MicroOp::Store { src: Reg::R1, .. }));
        assert!(matches!(uops[3], MicroOp::Load { dst: Reg::R3, .. }));
        assert!(matches!(uops[4], MicroOp::AluImm { src: Reg::R3, .. }));
    }

    #[test]
    fn branch_targets_are_flat_linked_and_call_resolves() {
        use crate::program::FuncId;
        let mut cb = FuncBuilder::new("callee");
        cb.nop();
        cb.ret();
        let callee = cb.finish();
        let mut mb = FuncBuilder::new("main");
        mb.call(FuncId::from_index(1));
        mb.halt();
        let p = Program::new(vec![mb.finish(), callee], FuncId::from_index(0));
        let d = DecodedProgram::decode(&p);
        assert_eq!(d.block_base, vec![0, 1]);
        assert_eq!(d.entry_block, 0);
        let MicroOp::Call {
            callee_block,
            ret_enc,
        } = d.uops[d.blocks[0].start as usize]
        else {
            panic!("expected call");
        };
        assert_eq!(callee_block, 1);
        let ret = ProgramPoint::decode(ret_enc);
        assert_eq!(ret.func, FuncId::from_index(0));
        assert_eq!(ret.inst, 1);
    }

    fn roundtrip_program() -> (Program, DecodedProgram) {
        let mut b = FuncBuilder::new("roundtrip");
        b.mov_imm(Reg::R2, layout::HEAP_BASE as i64);
        b.load(Reg::R1, Reg::R2, 0);
        b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.store(Reg::R1, Reg::R2, 0);
        let exit = b.new_block();
        b.branch_imm(Cond::Eq, Reg::R1, 1, exit, exit);
        b.switch_to(exit);
        b.halt();
        decode_single(b)
    }

    #[test]
    fn locate_roundtrips_every_program_point() {
        let (p, d) = roundtrip_program();
        for (bi, blk) in p.funcs[0].blocks.iter().enumerate() {
            for inst in 0..=blk.insts.len() as u32 {
                let pt = ProgramPoint {
                    func: p.entry,
                    block: BlockId::from_index(bi),
                    inst,
                };
                let uop = d.locate(pt);
                assert_eq!(
                    d.point_enc(uop),
                    pt.encode(),
                    "micro-op {uop} must encode back to {pt:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "past the end of its block")]
    fn locate_rejects_a_point_past_its_block() {
        // One past the terminator: must not run the next block's code.
        let (p, d) = roundtrip_program();
        d.locate(ProgramPoint {
            func: p.entry,
            block: p.funcs[0].entry,
            inst: p.funcs[0].blocks[0].insts.len() as u32 + 1,
        });
    }
}

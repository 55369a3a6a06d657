//! # lightwsp-ir — post-register-allocation machine IR
//!
//! This crate is the compiler substrate of the LightWSP reproduction
//! (Zhou, Zeng & Jung, *LightWSP: Whole-System Persistence on the Cheap*,
//! MICRO 2024). The paper implements its region-partitioning passes at the
//! LLVM MIR level, **after register allocation** (Fig. 3). This crate
//! provides the equivalent abstraction from scratch:
//!
//! * a small machine-level instruction set over physical registers
//!   ([`inst::Inst`]),
//! * functions made of basic blocks with explicit terminators
//!   ([`program::Function`], [`program::Program`]),
//! * the CFG analyses the passes need — reverse post-order, dominators,
//!   natural loops, and backward liveness dataflow (the `cfg` and [`dom`] modules,
//!   [`loops`], [`liveness`]),
//! * a deterministic functional interpreter ([`interp::Interp`]) that
//!   executes a program and emits the dynamic event stream
//!   ([`interp::DynEvent`]) consumed by the timing simulator and by the
//!   persistence-hardware models, and
//! * a builder API ([`builder::FuncBuilder`]) used by tests and by the
//!   synthetic workload generators.
//!
//! The IR deliberately models the *whole-system* aspects LightWSP relies
//! on: the call stack lives in (persistent) memory via an architectural
//! stack-pointer register, so return addresses survive power failure like
//! any other store, and `RegionBoundary` is a real PC-checkpointing store
//! as in §IV-A of the paper.
//!
//! ```
//! use lightwsp_ir::builder::FuncBuilder;
//! use lightwsp_ir::inst::{AluOp, Cond};
//! use lightwsp_ir::reg::Reg;
//!
//! // for (i = 0; i != 4; i++) { heap[i] = i; }
//! let mut b = FuncBuilder::new("quick");
//! let (i, base) = (Reg::R1, Reg::R2);
//! b.mov_imm(i, 0);
//! b.mov_imm(base, 0x4000_0000);
//! let header = b.new_block();
//! b.jump(header);
//! b.switch_to(header);
//! b.store(i, base, 0);
//! b.alu_imm(AluOp::Add, base, base, 8);
//! b.alu_imm(AluOp::Add, i, i, 1);
//! let exit = b.new_block();
//! b.branch_imm(Cond::Ne, i, 4, header, exit);
//! b.switch_to(exit);
//! b.ret();
//! let func = b.finish();
//! assert_eq!(func.blocks.len(), 3);
//! ```
//!
//! The interpreter has two execution engines with bit-identical
//! observable behaviour: the tree-walking reference (`Interp::step`)
//! and the pre-decoded micro-op engine ([`decode`], [`uop`], [`exec`])
//! that runs one flat micro-op per instruction and batches ALU work
//! between timed events.

#![warn(missing_docs)]

pub mod builder;
pub mod cfg;
pub mod decode;
pub mod display;
pub mod dom;
pub mod exec;
pub mod fxhash;
pub mod inst;
pub mod interp;
pub mod layout;
pub mod liveness;
pub mod loops;
pub mod memory;
pub mod program;
pub mod reg;
pub mod uop;

pub use decode::{DecodedBlock, DecodedProgram};
pub use fxhash::{fx_hash, FxHashMap, FxHashSet};
pub use inst::{AluOp, Cond, Inst, Terminator};
pub use interp::{DynEvent, Interp, Memory, StoreKind, ThreadId};
pub use program::{BlockId, FuncId, Function, Program, ProgramPoint};
pub use reg::Reg;
pub use uop::MicroOp;

//! Lock-serialised Treiber stack with a recovery scan.
//!
//! The IR has no compare-and-swap, so the classic lock-free Treiber
//! push loop becomes a lock-serialised one — which is exactly the
//! interesting case for LightWSP: the crash consistency of the
//! structure rests entirely on the simulator's lock protocol
//! (`DESIGN.md`: a boundary is forced before both `LockAcquire` and
//! `LockRelease`, so a critical section — lock-word store plus body
//! stores — is **one region** that commits or discards atomically,
//! and a crash mid-section rolls the acquire back so recovery never
//! inherits a held lock).
//!
//! # Layout
//!
//! ```text
//! HEAD:            top-of-stack node address (0 = empty)  HEAP_BASE
//! arena_base(t):   ops × [value][next]   per-thread node arena
//! pushed_addr(t):  nodes pushed by t     ┐ separate lines,
//! popped_addr(t):  nodes popped by t     ┘ single-writer
//! lock:            layout::lock_addr(0)
//! ```
//!
//! Nodes are never freed or reused: thread `t`'s `i`-th push uses
//! arena node `i`, whose value is `mix64(((t << 32) | i) ^ SALT)` —
//! so a checker can identify any node address's owner and verify its
//! value without replaying interleavings (single-writer rule).
//!
//! # Operations
//!
//! Each thread runs `ops` iterations, choosing push or pop by an LCG
//! (the map's constants). Push: compute the value outside the lock,
//! then under the lock store `[value][next=head]`, link `HEAD`, and
//! bump `pushed[t]` — 5 stores, one atomic region. Pop: under the
//! lock, unlink the head node and bump `popped[t]` (3 stores);
//! popping empty releases and moves on.
//!
//! # Recovery procedure and invariants
//!
//! Because every mutation is one atomic region and lock order equals
//! region-ID order (the next holder's first store follows the previous
//! holder's release), any durable image is an exact prefix of the
//! serialised mutation history: `HEAD`, the counters, and the arenas
//! are mutually consistent. Recovery is therefore a *scan, not a
//! repair*: walk `HEAD` (`stack-reachability`: every link a valid
//! arena node holding its oracle value, acyclic, NUL-terminated) and
//! reconcile the walk length against the counters
//! (`stack-lifo-accounting`: length = Σ pushed − Σ popped, and arena
//! node `i` of thread `t` is non-zero exactly when `i < pushed[t]`).
//! Both checks assume whole-region atomicity, which holds at the
//! default compiler store threshold (32 ≫ 5).

use super::map::{LCG_A, LCG_C, SEED_STRIDE};
use super::{mix64, violation, DsViolation, RecoverableDs};
use lightwsp_ir::builder::FuncBuilder;
use lightwsp_ir::inst::{AluOp, Cond};
use lightwsp_ir::{layout, Memory, Program, Reg};

/// Mixed into `(t << 32) | i` to form node values; also seeds the LCG.
pub const STACK_SALT: u64 = 0x57AC_57AC_0000_0001;

/// A lock-serialised Treiber stack shared by `threads` threads, each
/// performing `ops` push-or-pop operations.
#[derive(Clone, Copy, Debug)]
pub struct TreiberStackSpec {
    /// Worker threads sharing the one stack.
    pub threads: usize,
    /// Operations (push or pop attempts) per thread.
    pub ops: u64,
}

impl TreiberStackSpec {
    /// The head word's address.
    pub fn head_addr(&self) -> u64 {
        layout::HEAP_BASE
    }

    fn arena_stride(&self) -> u64 {
        (self.ops * 16).next_power_of_two().max(4096)
    }

    fn arena0(&self) -> u64 {
        layout::HEAP_BASE + 4096
    }

    /// The arena base of thread `t` (`ops` 16-byte nodes).
    pub fn arena_base(&self, t: usize) -> u64 {
        self.arena0() + t as u64 * self.arena_stride()
    }

    fn counters_base(&self) -> u64 {
        self.arena0() + self.threads as u64 * self.arena_stride()
    }

    /// The push-counter address of thread `t`.
    pub fn pushed_addr(&self, t: usize) -> u64 {
        self.counters_base() + t as u64 * 128
    }

    /// The pop-counter address of thread `t`.
    pub fn popped_addr(&self, t: usize) -> u64 {
        self.counters_base() + t as u64 * 128 + 64
    }

    /// The oracle value of thread `t`'s `i`-th pushed node.
    pub fn value_of(&self, t: usize, i: u64) -> u64 {
        mix64((((t as u64) << 32) | i) ^ STACK_SALT)
    }

    /// Replays thread `t`'s LCG: `true` entries are pushes. Pops are
    /// attempts — whether one succeeds depends on timing.
    pub fn is_push(state: u64) -> bool {
        (state >> 33) & 1 == 0
    }

    fn seed(&self, t: usize) -> u64 {
        mix64(STACK_SALT ^ (t as u64).wrapping_mul(SEED_STRIDE))
    }

    /// The exact number of pushes thread `t` performs (pushes always
    /// succeed; only pops can no-op on empty).
    pub fn pushes_of(&self, t: usize) -> u64 {
        let mut state = self.seed(t);
        let mut n = 0;
        for _ in 0..self.ops {
            state = state.wrapping_mul(LCG_A).wrapping_add(LCG_C);
            if Self::is_push(state) {
                n += 1;
            }
        }
        n
    }
}

impl RecoverableDs for TreiberStackSpec {
    fn name(&self) -> &'static str {
        "treiber-stack"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn knobs(&self) -> Vec<u64> {
        vec![self.threads as u64, self.ops]
    }

    /// Register use: r1 LCG state, r2 op index, r3 pushes, r4 pops,
    /// r5 head, r6 next, r7 node address, r8 value, r9 lock address,
    /// r10 arena base, r11/r12 counter addresses, r13 selector,
    /// r14 scratch, r15 HEAD address.
    fn program(&self) -> Program {
        let mut b = FuncBuilder::new("treiber_stack");
        let (state, opi, pushes, pops) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4);
        let (head, next, node, val) = (Reg::R5, Reg::R6, Reg::R7, Reg::R8);
        let (lockr, arena, pushr, popr) = (Reg::R9, Reg::R10, Reg::R11, Reg::R12);
        let (sel, tmp, headr) = (Reg::R13, Reg::R14, Reg::R15);

        // Per-thread constants. The LCG seed is mixed so thread
        // streams are decorrelated despite the shared constants.
        b.alu_imm(AluOp::Mul, state, Reg::R0, SEED_STRIDE as i64);
        b.alu_imm(AluOp::Xor, state, state, STACK_SALT as i64);
        super::emit_mix(&mut b, state, tmp);
        b.mov_imm(opi, 0);
        b.mov_imm(pushes, 0);
        b.mov_imm(pops, 0);
        b.mov_imm(lockr, layout::lock_addr(0) as i64);
        b.mov_imm(headr, self.head_addr() as i64);
        b.alu_imm(
            AluOp::Shl,
            arena,
            Reg::R0,
            self.arena_stride().trailing_zeros() as i64,
        );
        b.alu_imm(AluOp::Add, arena, arena, self.arena0() as i64);
        b.alu_imm(AluOp::Shl, pushr, Reg::R0, 7);
        b.alu_imm(AluOp::Add, pushr, pushr, self.counters_base() as i64);
        b.alu_imm(AluOp::Add, popr, pushr, 64);

        let header = b.new_block();
        let push_blk = b.new_block();
        let pop_blk = b.new_block();
        let pop_take = b.new_block();
        let pop_empty = b.new_block();
        let latch = b.new_block();
        let done = b.new_block();
        b.hint_trip_count(header, self.ops.min(u32::MAX as u64) as u32);
        b.jump(header);

        b.switch_to(header);
        b.alu_imm(AluOp::Mul, state, state, LCG_A as i64);
        b.alu_imm(AluOp::Add, state, state, LCG_C as i64);
        b.alu_imm(AluOp::Shr, sel, state, 33);
        b.alu_imm(AluOp::And, sel, sel, 1);
        b.branch_imm(Cond::Eq, sel, 0, push_blk, pop_blk);

        // Push: value and node address are computed outside the lock;
        // the critical section is 5 stores — atomic at the default
        // region-size threshold.
        b.switch_to(push_blk);
        b.alu_imm(AluOp::Shl, node, pushes, 4);
        b.alu(AluOp::Add, node, node, arena);
        b.alu_imm(AluOp::Shl, val, Reg::R0, 32);
        b.alu(AluOp::Or, val, val, pushes);
        b.alu_imm(AluOp::Xor, val, val, STACK_SALT as i64);
        super::emit_mix(&mut b, val, tmp);
        b.lock_acquire(lockr);
        b.load(head, headr, 0);
        b.store(val, node, 0);
        b.store(head, node, 8);
        b.store(node, headr, 0);
        b.alu_imm(AluOp::Add, pushes, pushes, 1);
        b.store(pushes, pushr, 0);
        b.lock_release(lockr);
        b.jump(latch);

        // Pop: unlink under the lock; empty is a no-op attempt.
        b.switch_to(pop_blk);
        b.lock_acquire(lockr);
        b.load(head, headr, 0);
        b.branch_imm(Cond::Eq, head, 0, pop_empty, pop_take);

        b.switch_to(pop_take);
        b.load(next, head, 8);
        b.store(next, headr, 0);
        b.alu_imm(AluOp::Add, pops, pops, 1);
        b.store(pops, popr, 0);
        b.lock_release(lockr);
        b.jump(latch);

        b.switch_to(pop_empty);
        b.lock_release(lockr);
        b.jump(latch);

        b.switch_to(latch);
        b.alu_imm(AluOp::Add, opi, opi, 1);
        b.branch_imm(Cond::Ne, opi, self.ops as i64, header, done);

        b.switch_to(done);
        b.halt();
        Program::from_single(b.finish())
    }

    fn check_image(&self, pm: &Memory) -> Vec<DsViolation> {
        let mut out = Vec::new();
        self.check_consistent(pm, &mut out);
        out
    }

    fn check_final(&self, pm: &Memory) -> Vec<DsViolation> {
        let mut out = Vec::new();
        self.check_consistent(pm, &mut out);
        for t in 0..self.threads {
            let pushed = pm.read_word(self.pushed_addr(t));
            let want = self.pushes_of(t);
            if pushed != want {
                violation(
                    &mut out,
                    "stack-lifo-accounting",
                    format!("thread {t} pushed {pushed}, oracle says {want}"),
                );
            }
        }
        out
    }

    /// Pop-empty outcomes (and hence final registers and counters)
    /// depend on cross-thread timing.
    fn deterministic_final(&self) -> bool {
        false
    }
}

impl TreiberStackSpec {
    /// Maps a node address back to its owning `(thread, index)`.
    fn node_owner(&self, addr: u64) -> Option<(usize, u64)> {
        if addr < self.arena0() || !addr.is_multiple_of(16) {
            return None;
        }
        let off = addr - self.arena0();
        let t = (off / self.arena_stride()) as usize;
        let i = (off % self.arena_stride()) / 16;
        (t < self.threads && i < self.ops).then_some((t, i))
    }

    /// The shared body of both checkers: every durable image is an
    /// exact prefix of the lock-serialised history, so reachability
    /// and accounting must hold at *every* crash point.
    fn check_consistent(&self, pm: &Memory, out: &mut Vec<DsViolation>) {
        // stack-reachability: walk HEAD through valid, oracle-valued,
        // acyclic arena nodes to NUL.
        let mut walk_len: u64 = 0;
        let mut seen = std::collections::HashSet::new();
        let mut cur = pm.read_word(self.head_addr());
        let bound = self.threads as u64 * self.ops + 1;
        while cur != 0 {
            if walk_len >= bound || !seen.insert(cur) {
                violation(
                    out,
                    "stack-reachability",
                    format!("cycle in stack chain at node {cur:#x}"),
                );
                return;
            }
            let Some((t, i)) = self.node_owner(cur) else {
                violation(
                    out,
                    "stack-reachability",
                    format!("head chain reaches non-arena address {cur:#x}"),
                );
                return;
            };
            let v = pm.read_word(cur);
            if v != self.value_of(t, i) {
                violation(
                    out,
                    "stack-reachability",
                    format!(
                        "node {cur:#x} (thread {t} push {i}) holds {v:#x}, oracle {:#x}",
                        self.value_of(t, i)
                    ),
                );
            }
            walk_len += 1;
            cur = pm.read_word(cur + 8);
        }

        // stack-lifo-accounting: counters and arenas agree with the
        // walk. Critical sections are atomic regions, so there is no
        // legal in-flight slack to allow for.
        let mut pushed_total: u64 = 0;
        let mut popped_total: u64 = 0;
        for t in 0..self.threads {
            let pushed = pm.read_word(self.pushed_addr(t));
            let popped = pm.read_word(self.popped_addr(t));
            if pushed > self.ops || popped > self.ops {
                violation(
                    out,
                    "stack-lifo-accounting",
                    format!("thread {t} counters out of range (pushed {pushed}, popped {popped})"),
                );
                continue;
            }
            pushed_total += pushed;
            popped_total += popped;
            for i in 0..self.ops {
                let addr = self.arena_base(t) + i * 16;
                let v = pm.read_word(addr);
                if i < pushed {
                    if v != self.value_of(t, i) {
                        violation(
                            out,
                            "stack-lifo-accounting",
                            format!("thread {t} node {i} torn: {v:#x} despite pushed={pushed}"),
                        );
                    }
                } else if v != 0 || pm.read_word(addr + 8) != 0 {
                    violation(
                        out,
                        "stack-lifo-accounting",
                        format!("thread {t} node {i} written but pushed={pushed}"),
                    );
                }
            }
        }
        if popped_total > pushed_total {
            violation(
                out,
                "stack-lifo-accounting",
                format!("popped {popped_total} exceeds pushed {pushed_total}"),
            );
        } else if walk_len != pushed_total - popped_total {
            violation(
                out,
                "stack-lifo-accounting",
                format!("walk length {walk_len} != pushed {pushed_total} - popped {popped_total}"),
            );
        }
    }
}

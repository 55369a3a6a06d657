//! Micro-benchmark for interpreter dispatch, isolated from the timing
//! simulator: the same generated program executed to completion three
//! ways on a bare [`Interp`]:
//!
//! * `tree` — [`Interp::step`] in a loop: the reference tree-walker,
//!   re-matching the nested `Inst` enum on every instruction;
//! * `decoded` — [`Interp::step_batch`] over a flat micro-op array
//!   decoded with fusion *disabled*: measures what pre-decoding and
//!   pre-linked branch targets buy on their own;
//! * `fused` — `step_batch` over the production decode (pair and
//!   cmp-branch fusion plus the hot-block compiled tier): the engine
//!   the simulator runs under `ExecMode::Decoded`.
//!
//! Workloads span the dispatch spectrum: `hmmer`/`namd` are the
//! compute-dense cells whose wall time is pure dispatch, `mcf` is a
//! load-heavy mix where batches end at every timed event. The
//! machine-level (simulator-in-the-loop) comparison over the Fig. 7
//! matrix is the `exec` rows of the `perf_gate` bin.
//!
//! [`Interp`]: lightwsp_ir::Interp
//! [`Interp::step`]: lightwsp_ir::Interp::step
//! [`Interp::step_batch`]: lightwsp_ir::Interp::step_batch

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lightwsp_ir::{DecodedProgram, DynEvent, Interp, Memory, Program};
use lightwsp_workloads::workload;

const INSTS: u64 = 60_000;
const MAX_STEPS: u64 = 1_000_000;

/// Tree-walk: one `step()` per instruction until halt.
fn run_tree(p: &Program) -> u64 {
    let mut mem = Memory::new();
    let mut t = Interp::new(p, 0);
    for _ in 0..MAX_STEPS {
        if t.finished() {
            break;
        }
        t.step(p, &mut mem);
    }
    t.insts_executed()
}

/// Batched dispatch over a pre-decoded program until halt.
fn run_batched(p: &Program, dec: &DecodedProgram) -> u64 {
    let mut mem = Memory::new();
    let mut t = Interp::new(p, 0);
    let budget = u32::MAX >> 1;
    for _ in 0..MAX_STEPS {
        if t.finished() {
            break;
        }
        if let (_, Some(DynEvent::Halt)) = t.step_batch(dec, &mut mem, budget) {
            break;
        }
    }
    t.insts_executed()
}

fn bench_dispatch(c: &mut Criterion) {
    for name in ["hmmer", "namd", "mcf"] {
        let spec = workload(name).expect("known workload");
        let p = spec.scaled_to(INSTS).generate();
        let unfused = DecodedProgram::decode_with(&p, false);
        let fused = DecodedProgram::decode(&p);

        // Cross-check once per workload so a parity break can't
        // masquerade as a speedup.
        let (a, b, c3) = (
            run_tree(&p),
            run_batched(&p, &unfused),
            run_batched(&p, &fused),
        );
        assert_eq!((a, b), (a, c3), "dispatch variants disagree on {name}");

        c.bench_function(&format!("dispatch_loop/{name}/tree"), |b| {
            b.iter_batched(|| (), |()| run_tree(&p), BatchSize::SmallInput);
        });
        c.bench_function(&format!("dispatch_loop/{name}/decoded"), |b| {
            b.iter_batched(|| (), |()| run_batched(&p, &unfused), BatchSize::SmallInput);
        });
        c.bench_function(&format!("dispatch_loop/{name}/fused"), |b| {
            b.iter_batched(|| (), |()| run_batched(&p, &fused), BatchSize::SmallInput);
        });
    }
}

criterion_group!(dispatch_loop, bench_dispatch);
criterion_main!(dispatch_loop);

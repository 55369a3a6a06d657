//! The exec axis of the mode parity harness (`mode_parity.rs`): the
//! tree-walking reference interpreter against the pre-decoded micro-op
//! engine, on its own and, in the run and audit matrices, under the
//! per-cycle stepper. Every statistic, PM image, I/O log, crash capture
//! and audit report must be bit-identical, and so must the raw
//! per-instruction event stream of the bare engines.

#[path = "mode_parity.rs"]
#[macro_use]
mod mode_parity;

use lightwsp_compiler::{instrument, CompilerConfig};
use lightwsp_ir::{DecodedProgram, DynEvent, Interp, Memory, Reg, Terminator};
use proptest::prelude::*;

axis_tests! { "exec":
    all_schemes_bit_identical_via_experiment => experiment_matrix,
    config_matrix_parity_under_both_step_modes => run_matrix,
    zero_timeslice_rotation_parity => zero_timeslice,
    run_until_respects_cap_and_lands_exactly => run_until,
    batched_stats_fold_at_every_cycle_boundary => lockstep,
    crash_resolutions_identical_at_identical_cycles => crash_resolutions,
    batched_stats_fold_at_crash_captures => crash_stats_fold,
    captures_identical_point_by_point => captures,
    clean_matrix_reports_identical => audit_matrix,
    sweep_audits_agree_across_mutants_and_sweep_modes => mutant_audits,
    chunked_sweeps_merge_to_serial_result => chunked_sweeps,
    ds_audits_identical => ds_audits,
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// The bare engines, no timing simulator: for any program shape the
    /// raw per-instruction `DynEvent` stream, the final memory image,
    /// the counters and the register file are identical.
    #[test]
    fn random_programs_emit_identical_event_streams(
        spec in mode_parity::arbitrary_spec(),
        instrumented in any::<bool>(),
    ) {
        let program = spec.scaled_to(6_000).generate();
        let program = if instrumented {
            instrument(&program, &CompilerConfig::default()).program
        } else {
            program
        };
        let mut rmem = Memory::new();
        let mut r = Interp::new(&program, 0);
        let revs = r.run(&program, &mut rmem, 200_000);

        let dec = DecodedProgram::decode(&program);
        let mut dmem = Memory::new();
        let mut d = Interp::new(&program, 0);
        let devs = d.run_decoded(&dec, &mut dmem, 200_000);

        prop_assert_eq!(revs.len(), devs.len(), "event counts differ");
        prop_assert!(revs == devs, "event streams differ");
        prop_assert!(
            rmem.same_contents(&dmem),
            "memory differs: {:?}",
            rmem.first_difference(&dmem)
        );
        prop_assert_eq!(r.insts_executed(), d.insts_executed());
        prop_assert_eq!(r.point(), d.point());
    }

    /// The decoded batch with a load predicate, as the retire loop
    /// passes its L1 probe: for any program, any address predicate and
    /// any budgets, the batched stream is `Interp::step`'s stream with
    /// every accepted load folded into the ALU count; the predicate is
    /// asked exactly once per `Load` instruction (a `Ret`'s read stays
    /// an event), in program order, with the reference stream's `Load`
    /// addresses; and memory, registers, the instruction counts and the
    /// point are identical.
    #[test]
    fn accepted_loads_retire_inside_the_batch(
        spec in mode_parity::arbitrary_spec(),
        instrumented in any::<bool>(),
        salt in any::<u64>(),
        accept_pct in 0u64..101,
        budgets in prop::collection::vec(1u32..9, 1..6),
    ) {
        const MAX: u64 = 200_000;
        let program = spec.scaled_to(6_000).generate();
        let program = if instrumented {
            instrument(&program, &CompilerConfig::default()).program
        } else {
            program
        };
        let accept = |a: u64| {
            ((a ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 100 < accept_pct
        };
        // The reference, one `Interp::step` at a time as `Interp::run`
        // steps, noting which events are a `Ret`'s read.
        let mut rmem = Memory::new();
        let mut r = Interp::new(&program, 0);
        let mut revs = Vec::new();
        for _ in 0..MAX {
            let pt = r.point();
            let block = program.func(pt.func).block(pt.block);
            let ret = pt.inst as usize == block.insts.len() && block.term == Terminator::Ret;
            let ev = r.step(&program, &mut rmem);
            revs.push((ev, ret));
            if matches!(ev, DynEvent::Halt | DynEvent::LockSpin { .. }) {
                break;
            }
        }
        let loads: Vec<u64> = revs
            .iter()
            .filter_map(|&(e, ret)| match e {
                DynEvent::Load { addr } if !ret => Some(addr),
                _ => None,
            })
            .collect();
        let folded: Vec<DynEvent> = revs
            .iter()
            .map(|&(e, ret)| match e {
                DynEvent::Load { addr } if !ret && accept(addr) => DynEvent::Alu,
                e => e,
            })
            .collect();

        let dec = DecodedProgram::decode(&program);
        let mut dmem = Memory::new();
        let mut d = Interp::new(&program, 0);
        let (mut devs, mut asked) = (Vec::new(), Vec::new());
        let mut steps = 0u64;
        for &budget in budgets.iter().cycle() {
            if steps >= MAX {
                break;
            }
            let budget = budget.min((MAX - steps) as u32);
            let (slots, ev) = d.step_batch(&dec, &mut dmem, budget, |a| {
                asked.push(a);
                accept(a)
            });
            steps += slots as u64;
            devs.extend(std::iter::repeat_n(DynEvent::Alu, slots as usize));
            let Some(ev) = ev else { continue };
            steps += 1;
            devs.push(ev);
            if matches!(ev, DynEvent::Halt | DynEvent::LockSpin { .. }) {
                break;
            }
        }
        d.sync_point(&dec);

        prop_assert_eq!(folded.len(), devs.len(), "event counts differ");
        prop_assert!(folded == devs, "event streams differ");
        prop_assert!(asked == loads, "predicate asked {} times for {} loads", asked.len(), loads.len());
        prop_assert!(
            rmem.same_contents(&dmem),
            "memory differs: {:?}",
            rmem.first_difference(&dmem)
        );
        prop_assert_eq!(r.insts_executed(), d.insts_executed());
        prop_assert_eq!(r.instrumentation_executed(), d.instrumentation_executed());
        prop_assert_eq!(r.point(), d.point());
        for reg in Reg::all() {
            prop_assert_eq!(r.reg(reg), d.reg(reg), "{} differs", reg);
        }
    }

    #[test]
    fn random_workloads_execute_identically(
        spec in mode_parity::arbitrary_spec(),
        scheme_idx in 0usize..6,
        num_mcs in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
    ) {
        mode_parity::random_workload(AXIS, spec, scheme_idx, num_mcs);
    }
}

//! The step axis of the mode parity harness (`mode_parity.rs`): the
//! per-cycle reference stepper against event-driven skip-ahead. Every
//! statistic, PM image, I/O log, crash capture and audit report must be
//! bit-identical.

#[path = "mode_parity.rs"]
#[macro_use]
mod mode_parity;

use proptest::prelude::*;

axis_tests! { "step":
    all_schemes_bit_identical_via_experiment => experiment_matrix,
    config_matrix_parity => run_matrix,
    zero_timeslice_rotation_parity => zero_timeslice,
    run_until_respects_cap_and_lands_exactly => run_until,
    batched_stats_fold_at_every_cycle_boundary => lockstep,
    crash_resolutions_identical_at_identical_cycles => crash_resolutions,
    batched_stats_fold_at_crash_captures => crash_stats_fold,
    captures_identical_point_by_point => captures,
    clean_matrix_reports_identical => audit_matrix,
    mutant_diagnoses_identical => mutant_audits,
    chunked_sweeps_merge_to_serial_result => chunked_sweeps,
    ds_audits_identical => ds_audits,
}

#[test]
fn step_counters_repeat_and_skip_ahead_visits_fewer_cores() {
    mode_parity::step_counters();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_workloads_step_identically(
        spec in mode_parity::arbitrary_spec(),
        scheme_idx in 0usize..6,
        num_mcs in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
    ) {
        mode_parity::random_workload(AXIS, spec, scheme_idx, num_mcs);
    }
}

//! The sweep axis of the mode parity harness (`mode_parity.rs`):
//! rerun-from-cycle-0 sweeps against fork-point sweeps, also under the
//! per-cycle stepper (audit matrix) and under the tree-walker
//! (single-thread mutant audits). Every crash capture,
//! PM image, audit report (violation text included) and data-structure
//! audit must be identical. Plain runs never consult the sweep mode, so
//! the harness's whole-run cases are not listed here.

#[path = "mode_parity.rs"]
#[macro_use]
mod mode_parity;

use proptest::prelude::*;

axis_tests! { "sweep":
    captures_identical_point_by_point => captures,
    clean_matrix_reports_identical => audit_matrix,
    mutant_diagnoses_identical => mutant_audits,
    chunked_sweeps_merge_to_serial_result => chunked_sweeps,
    ds_audits_identical => ds_audits,
}

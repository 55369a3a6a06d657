//! The small recoverable data-structure suite shared by `ds_recovery.rs`
//! and the mode parity harness (`mode_parity.rs`).

use lightwsp_workloads::ds::log::DurableLogSpec;
use lightwsp_workloads::ds::map::DurableMapSpec;
use lightwsp_workloads::ds::queue::DurableQueueSpec;
use lightwsp_workloads::ds::service::KvServiceSpec;
use lightwsp_workloads::ds::stack::TreiberStackSpec;
use lightwsp_workloads::ds::RecoverableDs;

pub fn small_suite() -> Vec<Box<dyn RecoverableDs>> {
    vec![
        Box::new(DurableLogSpec {
            writers: 3,
            records: 64,
        }),
        Box::new(DurableMapSpec {
            threads: 4,
            buckets: 64,
            slots_per_bucket: 8,
            locks: 16,
            ops_per_thread: 160,
        }),
        Box::new(DurableQueueSpec {
            producers: 2,
            records: 96,
            cap: 8,
        }),
        Box::new(TreiberStackSpec {
            threads: 4,
            ops: 128,
        }),
        Box::new(KvServiceSpec::new(2, 256, 8, 64, 8, 16)),
    ]
}

//! Simulation statistics feeding every figure and table of the
//! evaluation (§V).

/// Why a core could not retire in a cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Store buffer full — the persist-path back-pressure chain
    /// (SB ← FEB ← path ← WPQ). This is LightWSP's `Twait` (Eq. 1).
    StoreBufferFull,
    /// Outstanding load miss.
    LoadMiss,
    /// Waiting at a region boundary for persistence (Capri
    /// stop-and-wait; PPA store drain). This is PPA's `Twait`.
    BoundaryWait,
    /// Spinning on a lock.
    LockSpin,
}

/// Counters accumulated over one simulation.
///
/// `PartialEq` compares every counter exactly (including the sampled
/// `wpq_mean_occupancy`, whose numerator and denominator are integers in
/// both step modes) — the step-mode parity suite relies on this to
/// assert bit-identical results between `StepMode::Reference` and
/// `StepMode::SkipAhead`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Retired instructions, including compiler instrumentation.
    pub insts: u64,
    /// Retired boundary/checkpoint instructions.
    pub instrumentation_insts: u64,
    /// Retired store-like instructions (persist-path entries).
    pub persist_stores: u64,
    /// Hardware checkpoint-slot repair stores emitted by forced region
    /// closes (timeout / spin / halt), so every synthetic boundary is a
    /// genuine recovery point.
    pub forced_ckpt_stores: u64,
    /// Stall cycles: store buffer full (persist back-pressure).
    pub stall_sb_full: u64,
    /// Stall cycles: load misses.
    pub stall_load_miss: u64,
    /// Stall cycles: boundary persistence waits (Capri/PPA).
    pub stall_boundary_wait: u64,
    /// Stall cycles: lock spinning.
    pub stall_lock_spin: u64,
    /// Regions executed (boundary events, including synthetic ones).
    pub regions: u64,
    /// Regions committed (fully persisted).
    pub regions_committed: u64,
    /// Sum over committed regions of (commit − boundary-issue) cycles.
    pub persist_latency_sum: u64,
    /// Instructions in completed regions (for insts/region, §V-G3).
    pub region_insts_sum: u64,
    /// Stores in completed regions (for stores/region, §V-G3).
    pub region_stores_sum: u64,
    /// WPQ overflow (deadlock fallback) events, §IV-D / §V-F5.
    pub wpq_overflows: u64,
    /// WPQ CAM hits on LLC load misses (Fig. 18).
    pub wpq_load_hits: u64,
    /// DRAM-cache (LLC) load misses that went to PM.
    pub llc_load_misses: u64,
    /// Stale-load hazards observed (snooping disabled only).
    pub stale_loads: u64,
    /// L1 eviction snoops (Table II).
    pub snoops: u64,
    /// L1 eviction snoops that hit a conflicting line (Table II).
    pub snoop_conflicts: u64,
    /// L1 hits aggregated over cores.
    pub l1_hits: u64,
    /// L1 misses aggregated over cores.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// DRAM-cache hits.
    pub dram_hits: u64,
    /// DRAM-cache misses.
    pub dram_misses: u64,
    /// Persist-path head-of-line blocked cycles.
    pub hol_blocked_cycles: u64,
    /// Power failures injected.
    pub failures: u64,
    /// Instructions re-executed during recoveries.
    pub reexecuted_insts: u64,
    /// Estimated total exposed persistence latency `Tp` (Eq. 1 input).
    pub tp_estimate: u64,
    /// Mean WPQ occupancy across MCs (entries; sampled every cycle).
    pub wpq_mean_occupancy: f64,
    /// Peak WPQ occupancy across MCs (entries).
    pub wpq_max_occupancy: usize,
    /// I/O operations emitted (§IV-A), including post-failure replays.
    pub io_ops: u64,
}

/// Deterministic work counters of the time advance: which loop path
/// each cycle took and how many core visits each phase made. They
/// repeat exactly across runs of one machine, but they differ between
/// step modes by design (the per-cycle stepper takes every cycle as a
/// full step and visits every core in every phase), so they live
/// beside [`SimStats`], which the parity harness compares for
/// equality, not in it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepCounters {
    /// Cycles stepped through every phase: memory controllers, then
    /// the persist stage, then retire.
    pub full_steps: u64,
    /// Cycles stepped through the retire phase alone (the machinery
    /// horizon proved the other phases idle).
    pub retire_only_steps: u64,
    /// Cycles jumped over in closed form.
    pub skipped_cycles: u64,
    /// Jumps taken.
    pub skips: u64,
    /// Persist-stage core visits.
    pub persist_visits: u64,
    /// Retire-stage core visits.
    pub retire_visits: u64,
    /// Engine dispatches of the retire stage: one per
    /// `Interp::step_batch` call (decoded engine) or `Interp::step`
    /// call (tree-walker). A decoded batch retires ALU-class
    /// instructions and L1-hit loads and returns at any other event.
    pub retire_dispatches: u64,
    /// Persist-stage visits whose arrived path head a WPQ refused
    /// (head-of-line retries).
    pub hol_retries: u64,
}

/// A stat-field value that can round-trip through the store's text
/// record format.
trait StatFieldCodec: Sized {
    fn enc(&self) -> String;
    fn dec(s: &str) -> Result<Self, String>;
}

impl StatFieldCodec for u64 {
    fn enc(&self) -> String {
        self.to_string()
    }
    fn dec(s: &str) -> Result<u64, String> {
        s.parse().map_err(|e| format!("{e}: {s:?}"))
    }
}

impl StatFieldCodec for usize {
    fn enc(&self) -> String {
        self.to_string()
    }
    fn dec(s: &str) -> Result<usize, String> {
        s.parse().map_err(|e| format!("{e}: {s:?}"))
    }
}

impl StatFieldCodec for f64 {
    // Bit-exact round-trip: the step-mode parity suite compares stats
    // with `==`, so a stored record must decode to the identical f64.
    fn enc(&self) -> String {
        format!("{:016x}", self.to_bits())
    }
    fn dec(s: &str) -> Result<f64, String> {
        u64::from_str_radix(s, 16)
            .map(f64::from_bits)
            .map_err(|e| format!("{e}: {s:?}"))
    }
}

/// Generates [`SimStats::encode_record`] / [`SimStats::decode_record`]
/// from one field list. Decode builds a struct literal, so adding a
/// field to [`SimStats`] without extending this list is a compile
/// error — the codec can never silently drop a counter.
macro_rules! sim_stats_codec {
    ($($field:ident),+ $(,)?) => {
        impl SimStats {
            /// Serialises every counter as `name=value` pairs (floats
            /// as hex bit patterns, so decoding is bit-exact).
            pub fn encode_record(&self) -> String {
                let parts: Vec<String> =
                    vec![$(format!(concat!(stringify!($field), "={}"), self.$field.enc())),+];
                parts.join(" ")
            }

            /// Parses [`SimStats::encode_record`] output.
            ///
            /// # Errors
            ///
            /// Describes the first missing or malformed field.
            pub fn decode_record(text: &str) -> Result<SimStats, String> {
                let mut map = std::collections::BTreeMap::new();
                for pair in text.split_whitespace() {
                    let (name, value) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("malformed stat pair {pair:?}"))?;
                    map.insert(name, value);
                }
                Ok(SimStats {
                    $($field: {
                        let raw = map
                            .get(stringify!($field))
                            .ok_or_else(|| format!("missing stat {}", stringify!($field)))?;
                        StatFieldCodec::dec(raw)
                            .map_err(|e| format!("stat {}: {e}", stringify!($field)))?
                    }),+
                })
            }
        }
    };
}

sim_stats_codec!(
    cycles,
    insts,
    instrumentation_insts,
    persist_stores,
    forced_ckpt_stores,
    stall_sb_full,
    stall_load_miss,
    stall_boundary_wait,
    stall_lock_spin,
    regions,
    regions_committed,
    persist_latency_sum,
    region_insts_sum,
    region_stores_sum,
    wpq_overflows,
    wpq_load_hits,
    llc_load_misses,
    stale_loads,
    snoops,
    snoop_conflicts,
    l1_hits,
    l1_misses,
    l2_hits,
    l2_misses,
    dram_hits,
    dram_misses,
    hol_blocked_cycles,
    failures,
    reexecuted_insts,
    tp_estimate,
    wpq_mean_occupancy,
    wpq_max_occupancy,
    io_ops,
);

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// Mean dynamic instructions per region (§V-G3; paper: 91.33).
    pub fn insts_per_region(&self) -> f64 {
        if self.regions == 0 {
            0.0
        } else {
            self.region_insts_sum as f64 / self.regions as f64
        }
    }

    /// Mean dynamic stores per region (§V-G3; paper: 11.29).
    pub fn stores_per_region(&self) -> f64 {
        if self.regions == 0 {
            0.0
        } else {
            self.region_stores_sum as f64 / self.regions as f64
        }
    }

    /// Fraction of retired instructions that are compiler
    /// instrumentation (§V-G3; paper: 7.03 %).
    pub fn instrumentation_fraction(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.instrumentation_insts as f64 / self.insts as f64
        }
    }

    /// The `Twait` of Eq. 1 for this scheme: persist-caused stalls.
    pub fn twait(&self) -> u64 {
        self.stall_sb_full + self.stall_boundary_wait
    }

    /// Region-level persistence efficiency (Eq. 1):
    /// `(Tp − Twait) / Tp × 100`.
    pub fn persistence_efficiency(&self) -> f64 {
        if self.tp_estimate == 0 {
            return 100.0;
        }
        let twait = self.twait().min(self.tp_estimate);
        (self.tp_estimate - twait) as f64 / self.tp_estimate as f64 * 100.0
    }

    /// WPQ load hits per million instructions (Fig. 18).
    pub fn wpq_hits_per_minsts(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.wpq_load_hits as f64 / (self.insts as f64 / 1.0e6)
        }
    }

    /// L1 miss rate in percent (Fig. 14).
    pub fn l1_miss_rate_pct(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            0.0
        } else {
            self.l1_misses as f64 / total as f64 * 100.0
        }
    }

    /// Buffer-conflict rate in permille of snoops (Table II).
    pub fn conflict_rate_permille(&self) -> f64 {
        if self.snoops == 0 {
            0.0
        } else {
            self.snoop_conflicts as f64 / self.snoops as f64 * 1000.0
        }
    }

    /// WPQ overflows per 10 000 instructions (§V-F5).
    pub fn overflows_per_10k_insts(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.wpq_overflows as f64 / (self.insts as f64 / 1.0e4)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = SimStats {
            cycles: 1000,
            insts: 2000,
            instrumentation_insts: 140,
            regions: 20,
            region_insts_sum: 1800,
            region_stores_sum: 220,
            tp_estimate: 1000,
            stall_sb_full: 10,
            wpq_load_hits: 1,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.0).abs() < 1e-9);
        assert!((s.insts_per_region() - 90.0).abs() < 1e-9);
        assert!((s.stores_per_region() - 11.0).abs() < 1e-9);
        assert!((s.instrumentation_fraction() - 0.07).abs() < 1e-9);
        assert!((s.persistence_efficiency() - 99.0).abs() < 1e-9);
        assert!((s.wpq_hits_per_minsts() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn record_codec_roundtrips_bit_exactly() {
        let s = SimStats {
            cycles: 123,
            insts: u64::MAX,
            wpq_mean_occupancy: 0.1 + 0.2, // not exactly representable
            wpq_max_occupancy: 17,
            io_ops: 9,
            ..SimStats::default()
        };
        let rec = s.encode_record();
        let d = SimStats::decode_record(&rec).unwrap();
        assert_eq!(d, s);
        assert_eq!(
            d.wpq_mean_occupancy.to_bits(),
            s.wpq_mean_occupancy.to_bits()
        );
        assert!(
            SimStats::decode_record("cycles=1").is_err(),
            "missing fields"
        );
        assert!(SimStats::decode_record(&rec.replace("io_ops=9", "io_ops=x")).is_err());
    }

    #[test]
    fn efficiency_clamps_and_handles_zero() {
        let s = SimStats::default();
        assert_eq!(s.persistence_efficiency(), 100.0);
        let s2 = SimStats {
            tp_estimate: 10,
            stall_boundary_wait: 50,
            ..SimStats::default()
        };
        assert_eq!(s2.persistence_efficiency(), 0.0, "Twait clamped to Tp");
    }
}

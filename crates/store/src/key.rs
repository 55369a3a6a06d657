//! Result-store keys.
//!
//! Every record is addressed by a [`StoreKey`] — the
//! `(workload, scheme, config, point, code-digest)` coordinate of the
//! roadmap, plus a leading `kind` discriminator so one store can hold
//! heterogeneous record families (whole-run results, crash-audit
//! cells, step/exec timing records, sweep-engine comparisons, …)
//! without colliding. Keys order lexicographically by field, which
//! groups the store's records by record family, then workload, then
//! series — the natural aggregation order for figure emission.

use std::fmt;

/// The sort key of one stored record.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StoreKey {
    /// Record family (`"run"`, `"crashcell"`, `"steptime"`, …).
    pub kind: String,
    /// Workload / case / structure name — the x-axis of most figures.
    pub workload: String,
    /// Scheme or configuration series name.
    pub scheme: String,
    /// Digest of the full input configuration (options, spec, budget,
    /// seeds) — see [`crate::digest`].
    pub config: u64,
    /// Sweep point within the cell (crash cycle, case index); 0 for
    /// whole-run records.
    pub point: u64,
    /// Workspace code digest of the producing build.
    pub code: u64,
}

impl StoreKey {
    /// Builds a key.
    pub fn new(
        kind: impl Into<String>,
        workload: impl Into<String>,
        scheme: impl Into<String>,
        config: u64,
        point: u64,
        code: u64,
    ) -> StoreKey {
        StoreKey {
            kind: kind.into(),
            workload: workload.into(),
            scheme: scheme.into(),
            config,
            point,
            code,
        }
    }

    /// The smallest key of a record family — where the store's walk
    /// over one `kind` starts.
    pub fn kind_floor(kind: &str) -> StoreKey {
        StoreKey::new(kind, "", "", 0, 0, 0)
    }
}

impl fmt::Display for StoreKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}/cfg={:016x}/pt={}/code={:016x}",
            self.kind, self.workload, self.scheme, self.config, self.point, self.code
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_groups_by_kind_then_workload() {
        let a = StoreKey::new("run", "bzip2", "LightWSP", 1, 0, 1);
        let b = StoreKey::new("run", "hmmer", "Capri", 0, 0, 0);
        let c = StoreKey::new("steptime", "aaa", "zzz", 0, 0, 0);
        assert!(a < b, "workload orders within a kind");
        assert!(b < c, "kind dominates");
        assert!(StoreKey::kind_floor("run") <= a);
    }

    #[test]
    fn point_and_code_break_ties() {
        let base = StoreKey::new("run", "w", "s", 7, 0, 10);
        let later_point = StoreKey::new("run", "w", "s", 7, 1, 10);
        let other_code = StoreKey::new("run", "w", "s", 7, 0, 11);
        assert!(base < later_point);
        assert!(base < other_code);
    }
}

//! Converts metered task work into simulated compute time.
//!
//! The MapReduce engine reports, per task, the *abstract operation
//! count* (e.g. "edges relaxed", "points × dimensions touched") and the
//! byte volumes in/out. The cost model turns those into seconds on a
//! baseline (speed = 1.0) node, calibrated to 2010-era Hadoop on Java
//! 1.6: interpreted-ish record processing with per-record
//! (de)serialization overhead dwarfing raw ALU cost.

use asyncmr_model::SimTime;

/// CPU/record cost constants of the simulated platform.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Abstract application operations per second on a speed-1 node.
    /// (Graph edge updates, distance relaxations, point-dim ops.)
    pub ops_per_sec: f64,
    /// Per-record overhead of the MapReduce framework (object churn,
    /// serialization, collector calls), seconds per record.
    pub framework_sec_per_record: f64,
    /// Map-side sort/spill cost: seconds per output byte.
    pub sort_sec_per_byte: f64,
    /// Reduce-side merge cost: seconds per input byte.
    pub merge_sec_per_byte: f64,
}

impl CostModel {
    /// Hadoop 0.20.1 on Java 1.6, 2010 commodity x86 (paper Table I).
    ///
    /// Calibration notes: Hadoop-era measurements put usable per-core
    /// record throughput at ~1–5 M records/s for trivial maps (framework
    /// overhead bound) and sort/merge at tens of MB/s per core.
    pub fn java_2010() -> Self {
        CostModel {
            ops_per_sec: 25e6,
            framework_sec_per_record: 0.4e-6,
            sort_sec_per_byte: 1.0 / 90e6,
            merge_sec_per_byte: 1.0 / 120e6,
        }
    }

    /// Compute time for `ops` abstract operations plus `records`
    /// framework record touches, on a node with relative `speed`.
    pub fn compute_time(&self, ops: u64, records: u64, speed: f64) -> SimTime {
        debug_assert!(speed > 0.0, "node speed must be positive");
        let secs = (ops as f64 / self.ops_per_sec + records as f64 * self.framework_sec_per_record)
            / speed;
        SimTime::from_secs_f64(secs)
    }

    /// Map-side sort/spill time for `bytes` of map output.
    pub fn sort_time(&self, bytes: u64, speed: f64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 * self.sort_sec_per_byte / speed)
    }

    /// Reduce-side merge time for `bytes` of shuffled input.
    pub fn merge_time(&self, bytes: u64, speed: f64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 * self.merge_sec_per_byte / speed)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::java_2010()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_time_scales_with_ops_and_speed() {
        let m = CostModel::java_2010();
        let base = m.compute_time(25_000_000, 0, 1.0);
        assert!((base.as_secs_f64() - 1.0).abs() < 1e-9);
        let fast = m.compute_time(25_000_000, 0, 2.0);
        assert!((fast.as_secs_f64() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn framework_overhead_counts_records() {
        let m = CostModel::java_2010();
        let t = m.compute_time(0, 1_000_000, 1.0);
        assert!((t.as_secs_f64() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn zero_work_is_free() {
        let m = CostModel::java_2010();
        assert_eq!(m.compute_time(0, 0, 1.0), SimTime::ZERO);
        assert_eq!(m.sort_time(0, 1.0), SimTime::ZERO);
        assert_eq!(m.merge_time(0, 1.0), SimTime::ZERO);
    }

    #[test]
    fn sort_and_merge_scale_linearly() {
        let m = CostModel::java_2010();
        let one = m.sort_time(90_000_000, 1.0);
        assert!((one.as_secs_f64() - 1.0).abs() < 1e-6);
        let half = m.merge_time(60_000_000, 1.0);
        assert!((half.as_secs_f64() - 0.5).abs() < 1e-6);
    }
}

//! Process-level measurement: CPU time and peak RSS from `/proc`, the
//! allocator policy every measuring process runs under, and the order
//! statistics every timing in the ledger is reported with.

/// Fixes glibc malloc's two thresholds so that freed buffers stay on
/// the heap and are reused, instead of being unmapped and faulted back
/// in.
///
/// By default both thresholds adapt to the sizes the program happens
/// to free, so one process wanders between "every large buffer is
/// mapped afresh" and "the heap is reused": `pr-general-shuffle`
/// measured 2.3 s a solve in the first state, 1.2 s in the second and
/// anything in between (inter-quartile spread 11–17 %) when left
/// alone. Page faults in a virtual machine are served by the host, so
/// the first state also measures the host's load. Pinned, the same
/// workload spreads 4–5 %. Every measuring process calls this before
/// it allocates anything large.
pub fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores two integers in the allocator's
        // parameter block; it is called once, before any other thread
        // exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 1 << 30);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

/// `utime + stime` of this process (all threads), in seconds.
///
/// Read from `/proc/self/stat` in clock ticks. Linux has exposed
/// `USER_HZ = 100` to user space on every architecture for decades, so
/// the tick is taken as 10 ms rather than linking libc for `sysconf`.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SEC: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after = &stat[stat.rfind(')').expect("comm field in /proc/self/stat") + 1..];
    let mut fields = after.split_ascii_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields.next().and_then(|f| f.parse::<u64>().ok()).expect("utime/stime field") as f64
    };
    (tick() + tick()) / TICKS_PER_SEC
}

/// Seconds of virtual-CPU time the hypervisor has withheld from this
/// machine since boot, summed over its CPUs (`steal` in `/proc/stat`;
/// 0 where the kernel does not account it). A run that lost a large
/// share of its time this way measured the host, not the program.
pub fn steal_seconds() -> f64 {
    const TICKS_PER_SEC: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    // "cpu  user nice system idle iowait irq softirq steal ..."
    let total = stat.lines().next().unwrap_or_default();
    let steal = total.split_ascii_whitespace().nth(8).and_then(|f| f.parse::<u64>().ok());
    steal.unwrap_or(0) as f64 / TICKS_PER_SEC
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kib as f64 / 1024.0
}

/// Order statistics of one sample set.
///
/// Quartiles follow Python's `statistics.quantiles(values, n=4)`
/// (exclusive method), so a spread computed here equals the one the
/// benchmark driver computes from the same numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Stats {
    /// Statistics of `samples` (at least one).
    pub fn of(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "statistics of an empty sample set");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
        let n = sorted.len();
        let quantile = |k: usize| -> f64 {
            if n == 1 {
                return sorted[0];
            }
            // Exclusive method: the k-th of 4 cut points sits at rank
            // k·(n+1)/4 (1-based), interpolated, clamped to the data.
            let pos = (k * (n + 1)) as f64 / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let frac = pos - j as f64;
            sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
        };
        Stats {
            n,
            min: sorted[0],
            q1: quantile(1),
            median: quantile(2),
            q3: quantile(3),
            max: sorted[n - 1],
        }
    }

    /// The fast decile of `samples`: the time the fastest tenth of them
    /// stayed under (10th percentile, interpolated between neighbours).
    ///
    /// This is what the ledger reports for a repeated timing. On a
    /// shared host interference only ever adds time, in phases that
    /// last seconds: the median of a run then says how much of the run
    /// fell into a slow phase, the fast decile what the code costs.
    /// Under a synthetic bursty neighbour the median of 36 solves
    /// spread 12–17 % between windows, the fast decile 2–3 %; on a
    /// quiet machine the two spread alike and sit ≈ 3 % apart. The
    /// median and quartiles are printed and stored next to it.
    pub fn fast_decile(samples: &[f64]) -> f64 {
        assert!(!samples.is_empty(), "fast decile of an empty sample set");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
        let pos = 0.1 * (sorted.len() - 1) as f64;
        let j = pos.floor() as usize;
        let next = sorted[(j + 1).min(sorted.len() - 1)];
        sorted[j] + (next - sorted[j]) * (pos - j as f64)
    }

    /// Inter-quartile distance.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Inter-quartile distance as a share of the median — the spread
    /// the regression bounds are judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            self.iqr() / self.median
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let s = Stats::of(&[7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 6.0));
        assert_eq!((s.n, s.min, s.max), (7, 1.0, 7.0));
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Stats::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] — the
        // exclusive method extrapolates past two points.
        let s = Stats::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn the_fast_decile_sits_a_tenth_of_the_way_up() {
        let eleven: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(Stats::fast_decile(&eleven), 1.0);
        // Seven samples: rank 0.6, between the fastest two.
        let seven = [7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0];
        assert!((Stats::fast_decile(&seven) - 1.6).abs() < 1e-12);
        assert_eq!(Stats::fast_decile(&[3.5]), 3.5);
        // Slow outliers do not move it.
        assert_eq!(Stats::fast_decile(&[1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0]), 1.0);
    }

    #[test]
    fn a_single_sample_is_its_own_statistics() {
        let s = Stats::of(&[3.5]);
        assert_eq!((s.min, s.q1, s.median, s.q3, s.max), (3.5, 3.5, 3.5, 3.5, 3.5));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() >= before + 0.03, "60 ms of spinning must show as CPU time");
        assert!(peak_rss_mib() > 1.0);
    }
}

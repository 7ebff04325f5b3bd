//! The session's one admission controller: the staleness window.
//!
//! **Invariant:** every window handed out lies in
//! `[cfg.floor, cfg.cap]`, and `peak` is the widest one handed out.
//!
//! There is a single code path for fixed and adaptive staleness. Each
//! partition's window is the EWMA of its observed dependency-arrival
//! slack, rounded up and clamped to `[floor, cap]`; a fixed
//! `max_lag = L` is the `floor = cap = L` case, where
//! `ceil(ewma).clamp(L, L) = L` whatever the EWMA does. Everything
//! conservative (mailbox retention, the convergence window, runahead)
//! is sized by [`Admission::cap`]; only the absorb admission test reads
//! the per-partition window.

use super::AdaptiveLagConfig;

/// Per-partition effective staleness windows (see the
/// [module docs](self)).
#[derive(Debug)]
pub(crate) struct Admission {
    cfg: AdaptiveLagConfig,
    /// Per-partition EWMA of observed dependency-arrival slack
    /// (iterations behind).
    ewma: Vec<f64>,
    /// Widest window any admission test was handed.
    peak: usize,
}

impl Admission {
    /// A controller for `partitions` partitions, every EWMA starting at
    /// the floor. `cfg` is already validated (`floor ≤ cap`,
    /// `alpha ∈ (0, 1]`).
    pub(crate) fn new(cfg: AdaptiveLagConfig, partitions: usize) -> Self {
        Admission { cfg, ewma: vec![cfg.floor as f64; partitions], peak: 0 }
    }

    /// The bound no window exceeds — what retention, convergence
    /// windows and runahead are sized by.
    pub(crate) fn cap(&self) -> usize {
        self.cfg.cap
    }

    /// Widest window handed out so far (0 before any admission test).
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    /// Partition `p`'s current window, for one admission test.
    pub(crate) fn window(&mut self, p: usize) -> usize {
        let window = (self.ewma[p].ceil() as usize).clamp(self.cfg.floor, self.cfg.cap);
        self.peak = self.peak.max(window);
        window
    }

    /// Feeds one observed slack (iterations behind) into `p`'s EWMA:
    /// the realized slack of an admitted absorb narrows the window back
    /// down when dependencies run fresh; the slack a blocked absorb
    /// *would* have needed widens it toward the cap, so a persistent
    /// straggler stops stalling its consumers.
    pub(crate) fn observe(&mut self, p: usize, slack: usize) {
        let e = &mut self.ewma[p];
        *e += self.cfg.alpha * (slack as f64 - *e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_equal_cap_pins_the_window_under_any_slack_sequence() {
        for (lag, alpha) in [(0usize, 1.0), (0, 0.25), (2, 1.0), (2, 0.3), (5, 0.01)] {
            let mut adm = Admission::new(AdaptiveLagConfig { cap: lag, floor: lag, alpha }, 3);
            // A deterministic but irregular slack stream, including
            // values far beyond the cap and long fresh runs.
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for step in 0..2_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let p = (x >> 60) as usize % 3;
                let slack = if step % 7 == 0 { 0 } else { (x >> 33) as usize % 1_000 };
                assert_eq!(adm.window(p), lag, "fixed lag {lag} moved at step {step}");
                adm.observe(p, slack);
            }
            assert_eq!(adm.peak(), lag);
            assert_eq!(adm.cap(), lag);
        }
    }

    #[test]
    fn windows_track_slack_within_floor_and_cap() {
        let mut adm = Admission::new(AdaptiveLagConfig { cap: 4, floor: 1, alpha: 1.0 }, 2);
        assert_eq!(adm.window(0), 1, "starts at the floor");
        adm.observe(0, 3);
        assert_eq!(adm.window(0), 3);
        adm.observe(0, 100);
        assert_eq!(adm.window(0), 4, "clamped to the cap");
        adm.observe(0, 0);
        assert_eq!(adm.window(0), 1, "fresh deps narrow back to the floor");
        assert_eq!(adm.window(1), 1, "partitions adapt independently");
        assert_eq!(adm.peak(), 4);
    }
}

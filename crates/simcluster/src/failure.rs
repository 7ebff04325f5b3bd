//! Transient task-failure and correlated node-failure injection.
//!
//! The paper reports all results "on a production cloud environment,
//! with real-life transient failures" and argues (§VI) that MapReduce's
//! deterministic-replay fault tolerance carries over to partial
//! synchronization, with slightly longer recovery for the coarser eager
//! tasks. The injectors reproduce that regime at two severities:
//!
//! * [`FailurePlan`] — independent task-*attempt* deaths: each attempt
//!   fails with a configured probability, runs for a uniform fraction
//!   of its would-be duration, is detected after the tasktracker
//!   timeout, and is rescheduled (up to `max_attempts`, Hadoop's
//!   `mapred.map.max.attempts` default of 4).
//! * [`NodeFailurePlan`](asyncmr_model::NodeFailurePlan) — correlated
//!   *node* death: a dying node takes every resident task attempt **and
//!   its already-stored outputs** with it. Completed work on that node
//!   past the last checkpoint is lost and must be rolled back and
//!   re-executed (together with everything that transitively consumed
//!   it), re-placed on the surviving nodes after a detection delay.
//!   The plan is the one the in-process session injects from
//!   (`asyncmr-model` defines it);
//!   [`crate::Simulation::with_node_failures`] takes the checkpoint
//!   spacing and detection delay beside it. See [`crate::asyncsched`]
//!   for the rollback model.

use asyncmr_model::SimTime;
use rand::RngExt;

/// The delay the node-failure figures and goldens replay under between
/// a node dying and the JobTracker noticing: a few missed heartbeats —
/// longer than a task-process death ([`FailurePlan::transient`]'s 6 s).
pub const NODE_DETECTION_DELAY: SimTime = SimTime::from_secs(30);

/// The last checkpoint iteration at or before `epoch`, with
/// checkpoints at iteration multiples of `checkpoint_interval`.
pub(crate) fn last_checkpoint(epoch: usize, checkpoint_interval: usize) -> usize {
    (epoch / checkpoint_interval) * checkpoint_interval
}

/// Failure-injection configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FailurePlan {
    /// Probability that any single task attempt fails.
    pub attempt_failure_prob: f64,
    /// Attempts before the job is declared failed (paper/Hadoop: 4).
    pub max_attempts: u32,
    /// Delay between the attempt dying and the JobTracker noticing.
    pub detection_delay: SimTime,
}

impl FailurePlan {
    /// No injected failures (the default).
    pub fn none() -> Self {
        FailurePlan { attempt_failure_prob: 0.0, max_attempts: 4, detection_delay: SimTime::ZERO }
    }

    /// A "real-life transient failures" cloud: `prob` per attempt.
    /// Detection is a few heartbeats (the task *process* dies and the
    /// TaskTracker reports it — not the 10-minute hung-task timeout).
    pub fn transient(prob: f64) -> Self {
        assert!((0.0..1.0).contains(&prob), "failure probability must be in [0, 1)");
        FailurePlan {
            attempt_failure_prob: prob,
            max_attempts: 4,
            detection_delay: SimTime::from_secs(6),
        }
    }

    /// Whether this plan can ever fail an attempt.
    pub fn enabled(&self) -> bool {
        self.attempt_failure_prob > 0.0
    }

    /// Whether attempt number `attempt` (0-based) dies, and if so the
    /// fraction of its would-be runtime it survives, uniform in
    /// `[0.05, 0.95)`. The last admissible attempt never dies. Draws the
    /// failure coin and then the fraction from `rng` — the order both
    /// replay paths' goldens pin.
    pub(crate) fn draw_death(&self, rng: &mut impl RngExt, attempt: u32) -> Option<f64> {
        let dies = self.enabled()
            && attempt + 1 < self.max_attempts
            && rng.random_range(0.0..1.0) < self.attempt_failure_prob;
        dies.then(|| rng.random_range(0.05..0.95))
    }

    /// Panics unless the fields are in range (`prob ∈ [0, 1)`,
    /// `max_attempts ≥ 1`).
    ///
    /// [`FailurePlan::transient`] checks its argument, but the fields
    /// are `pub` (the struct is a plain config record), so a plan
    /// assembled literally can carry an out-of-range probability —
    /// `prob ≥ 1` would make the injector loop every attempt into the
    /// bounded budget and `prob < 0` silently disables it.
    /// [`crate::Simulation::with_failures`] calls this once at
    /// injection time, so no simulation ever runs under an invalid
    /// plan.
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.attempt_failure_prob),
            "failure probability must be in [0, 1), got {}",
            self.attempt_failure_prob
        );
        assert!(self.max_attempts >= 1, "max_attempts must be at least 1");
    }
}

impl Default for FailurePlan {
    fn default() -> Self {
        FailurePlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmr_model::NodeFailurePlan;

    #[test]
    fn none_is_disabled() {
        assert!(!FailurePlan::none().enabled());
    }

    #[test]
    fn transient_is_enabled() {
        let p = FailurePlan::transient(0.05);
        assert!(p.enabled());
        assert_eq!(p.max_attempts, 4);
        assert!(p.detection_delay > SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "failure probability")]
    fn probability_validated() {
        let _ = FailurePlan::transient(1.5);
    }

    #[test]
    #[should_panic(expected = "failure probability")]
    fn literally_constructed_plan_is_rejected_at_injection() {
        // The constructor's range check can be bypassed because the
        // fields are pub; injection must catch it.
        let plan = FailurePlan {
            attempt_failure_prob: 1.0,
            max_attempts: 4,
            detection_delay: SimTime::from_secs(6),
        };
        let _ = crate::Simulation::new(crate::ClusterSpec::ec2_2010(), 1).with_failures(plan);
    }

    #[test]
    #[should_panic(expected = "max_attempts")]
    fn zero_attempt_budget_is_rejected_at_injection() {
        let plan = FailurePlan { max_attempts: 0, ..FailurePlan::transient(0.1) };
        let _ = crate::Simulation::new(crate::ClusterSpec::ec2_2010(), 1).with_failures(plan);
    }

    #[test]
    fn valid_plans_pass_validation() {
        FailurePlan::none().validate();
        FailurePlan::transient(0.0).validate();
        FailurePlan::transient(0.99).validate();
    }

    #[test]
    fn node_plan_checkpoint_arithmetic() {
        assert_eq!(last_checkpoint(0, 4), 0);
        assert_eq!(last_checkpoint(3, 4), 0);
        assert_eq!(last_checkpoint(4, 4), 4);
        assert_eq!(last_checkpoint(11, 4), 8);
    }

    #[test]
    #[should_panic(expected = "checkpoint_interval")]
    fn node_plan_interval_validated() {
        let _ = crate::Simulation::new(crate::ClusterSpec::ec2_2010(), 1).with_node_failures(
            NodeFailurePlan::correlated(0.1, 0),
            0,
            NODE_DETECTION_DELAY,
        );
    }
}

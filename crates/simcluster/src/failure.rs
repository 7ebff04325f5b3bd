//! Transient task-failure and correlated node-failure injection.
//!
//! The paper reports all results "on a production cloud environment,
//! with real-life transient failures" and argues (§VI) that MapReduce's
//! deterministic-replay fault tolerance carries over to partial
//! synchronization, with slightly longer recovery for the coarser eager
//! tasks. The replay injects the regime the in-process session shares
//! (both plans are `asyncmr-model`'s) at two severities:
//!
//! * [`AttemptFailurePlan`] — independent task-*attempt* deaths: each
//!   attempt fails with the plan's probability, runs for a uniform
//!   fraction of its would-be duration, is detected
//!   [`TASK_DETECTION_DELAY`] later, and is rescheduled (Hadoop's
//!   attempt budget; the last attempt never dies).
//! * [`NodeFailurePlan`](asyncmr_model::NodeFailurePlan) — correlated
//!   *node* death: a dying node takes every resident task attempt **and
//!   its already-stored outputs** with it. Completed work on that node
//!   past the plan's last checkpoint is lost and must be rolled back and
//!   re-executed (together with everything that transitively consumed
//!   it), re-placed on the surviving nodes [`NODE_DETECTION_DELAY`]
//!   later. See [`crate::asyncsched`] for the rollback model.

use asyncmr_model::{AttemptFailurePlan, SimTime};
use rand::RngExt;

/// The delay between a task attempt dying and the JobTracker noticing:
/// the task *process* dies and its TaskTracker reports it within a few
/// heartbeats (not the 10-minute hung-task timeout).
pub const TASK_DETECTION_DELAY: SimTime = SimTime::from_secs(6);

/// The delay between a node dying and the JobTracker noticing: a few
/// missed heartbeats — longer than a task-process death.
pub const NODE_DETECTION_DELAY: SimTime = SimTime::from_secs(30);

/// Whether attempt number `attempt` (0-based) dies under `plan`, and if
/// so the fraction of its would-be runtime it survives, uniform in
/// `[0.05, 0.95)`. Draws the failure coin and then the fraction from
/// `rng` — the order both replay paths' goldens pin.
pub(crate) fn draw_death(
    plan: &AttemptFailurePlan,
    rng: &mut impl RngExt,
    attempt: u32,
) -> Option<f64> {
    plan.dies(attempt, || rng.random_range(0.0..1.0)).then(|| rng.random_range(0.05..0.95))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "failure probability")]
    fn literally_constructed_plan_is_rejected_at_injection() {
        // The constructor's range check can be bypassed because the
        // field is pub; injection must catch it.
        let plan = AttemptFailurePlan { attempt_failure_prob: 1.0 };
        let _ = crate::Simulation::new(crate::ClusterSpec::ec2_2010(), 1).with_failures(plan);
    }
}

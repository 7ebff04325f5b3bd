//! Everything a session counts, and the schedule it records for replay.
//!
//! **Invariant:** each per-iteration record equals the sum of the
//! per-partition gmap and absorb records currently logged for that
//! iteration. A rollback *unwinds* a partition's records past the
//! checkpoint — subtracting exactly what was added, integer for integer
//! and nanosecond for nanosecond — and re-execution re-adds them, so
//! the contributing totals of a run under node failures equal the
//! failure-free run's. A subtraction that would underflow is a broken
//! invariant and panics by name; nothing is clamped.

use std::time::Duration;

use asyncmr_model::AsyncTaskSpec;

/// Everything metered per global iteration, summed over partitions.
#[derive(Debug, Clone, Default)]
struct IterRec {
    /// Partitions that absorbed this iteration.
    absorbed: usize,
    /// Max absorb delta so far.
    max_delta: f64,
    /// Abstract ops, gmap + absorb.
    ops: u64,
    syncs: u64,
    /// Wall-clock of the successful gmaps recorded for it.
    gmap_time: Duration,
}

/// What one partition recorded for one iteration, kept so a rollback
/// can subtract exactly what it undoes.
#[derive(Debug)]
struct PartRec {
    /// Index of the gmap's entry in the recorded schedule (which
    /// carries its op count).
    task: usize,
    syncs: u64,
    elapsed: Duration,
    /// The absorb's op count, once the iteration was absorbed.
    absorb_ops: Option<u64>,
}

/// Meters and recorded schedule of one session run (see the
/// [module docs](self)).
#[derive(Debug, Default)]
pub(crate) struct SessionMeter {
    iters: Vec<IterRec>,
    /// Per partition: its record of each iteration it completed a gmap
    /// for.
    parts: Vec<Vec<PartRec>>,
    /// Every recorded gmap in completion order; `None` = rolled back
    /// (its re-execution is recorded further down the list).
    schedule: Vec<Option<AsyncTaskSpec>>,
    /// Successful gmap completions (including post-stop stragglers;
    /// died and orphaned attempts are `failed_attempts`).
    pub(super) executed: usize,
    /// Wall-clock of every successful gmap, contributing or not.
    gmap_time: Duration,
    /// Attempts that died before delivering, or were orphaned by a
    /// rollback.
    pub(super) failed_attempts: usize,
    /// Wall-clock those attempts burned.
    pub(super) failed_time: Duration,
    /// Node-failure events fired.
    pub(super) rollbacks: usize,
    /// Absorbed iterations undone across all rollbacks.
    pub(super) rolled_back_iterations: usize,
}

impl SessionMeter {
    pub(crate) fn new(partitions: usize) -> Self {
        SessionMeter {
            parts: (0..partitions).map(|_| Vec::new()).collect(),
            ..SessionMeter::default()
        }
    }

    fn iter_mut(&mut self, iter: usize) -> &mut IterRec {
        if iter >= self.iters.len() {
            self.iters.resize(iter + 1, IterRec::default());
        }
        &mut self.iters[iter]
    }

    /// Bills an attempt that delivered nothing (died, or orphaned by a
    /// rollback).
    pub(crate) fn attempt_failed(&mut self, elapsed: Duration) {
        self.failed_attempts += 1;
        self.failed_time += elapsed;
    }

    /// Bills a successful gmap's wall-clock to the run total. One that
    /// finished after the session stopped is billed here *only* — in no
    /// contributing iteration — so it reports as speculative waste.
    pub(crate) fn gmap_succeeded(&mut self, elapsed: Duration) {
        self.executed += 1;
        self.gmap_time += elapsed;
    }

    /// Records a successful gmap — `local_syncs` partial syncs in
    /// `elapsed` — as the next schedule entry, `spec`.
    pub(crate) fn gmap_done(&mut self, spec: AsyncTaskSpec, local_syncs: u64, elapsed: Duration) {
        self.gmap_succeeded(elapsed);
        let rec = self.iter_mut(spec.iteration);
        rec.ops += spec.ops;
        rec.syncs += local_syncs;
        rec.gmap_time += elapsed;
        let log = &mut self.parts[spec.partition];
        debug_assert_eq!(log.len(), spec.iteration, "gmaps complete in iteration order");
        log.push(PartRec {
            task: self.schedule.len(),
            syncs: local_syncs,
            elapsed,
            absorb_ops: None,
        });
        self.schedule.push(Some(spec));
    }

    /// Records `p`'s absorb of `iter`.
    pub(crate) fn absorbed(&mut self, p: usize, iter: usize, ops: u64, delta: f64) {
        let absorbed = self.parts[p][iter].absorb_ops.replace(ops);
        debug_assert!(absorbed.is_none(), "an iteration is absorbed once");
        let rec = self.iter_mut(iter);
        rec.ops += ops;
        rec.max_delta = rec.max_delta.max(delta);
        rec.absorbed += 1;
    }

    /// Schedule index of `p`'s recorded gmap of `iter`.
    pub(crate) fn task_of(&self, p: usize, iter: usize) -> usize {
        self.parts[p][iter].task
    }

    /// Whether all `partitions` partitions have absorbed `iter`.
    pub(crate) fn fully_absorbed(&self, iter: usize, partitions: usize) -> bool {
        self.iters.get(iter).is_some_and(|rec| rec.absorbed == partitions)
    }

    /// Max absorb delta recorded for `iter`.
    pub(crate) fn max_delta(&self, iter: usize) -> f64 {
        self.iters[iter].max_delta
    }

    /// Unwinds everything `p` recorded at iterations `≥ c` (a rollback
    /// to checkpoint `c`; re-execution re-records it exactly once).
    /// Stale `max_delta` maxima are deliberately left in place: at
    /// `max_lag = 0` re-absorption reproduces them bitwise, and at
    /// `max_lag > 0` a stale maximum can only delay convergence, never
    /// fake it.
    pub(crate) fn unwind(&mut self, p: usize, c: usize) {
        for (rec, part) in self.iters[c..].iter_mut().zip(self.parts[p].drain(c..)) {
            if let Some(ops) = part.absorb_ops {
                self.rolled_back_iterations += 1;
                rec.absorbed -= 1;
                rec.ops -= ops;
            }
            let spec =
                self.schedule[part.task].take().expect("a recorded gmap is live until unwound");
            rec.ops -= spec.ops;
            rec.syncs -= part.syncs;
            rec.gmap_time = rec.gmap_time.checked_sub(part.elapsed).expect(
                "meter invariant broken: an iteration's gmap time must cover every gmap recorded \
                 for it",
            );
        }
    }

    /// Nanoseconds of every gmap attempt that ran, successful or not —
    /// what a trace's gmap spans must sum to exactly.
    pub(crate) fn metered_gmap_ns(&self) -> u64 {
        (self.gmap_time + self.failed_time).as_nanos() as u64
    }

    /// Takes the contributing slice of the schedule — live entries
    /// below `iterations`, dependency indices remapped — plus the remap
    /// itself (`usize::MAX` = dropped) for anything aligned with the
    /// recorded schedule.
    pub(crate) fn take_schedule(&mut self, iterations: usize) -> (Vec<AsyncTaskSpec>, Vec<usize>) {
        let mut remap = vec![usize::MAX; self.schedule.len()];
        let mut kept = Vec::with_capacity(iterations * self.parts.len());
        for (idx, spec) in std::mem::take(&mut self.schedule).into_iter().enumerate() {
            let Some(mut spec) = spec.filter(|spec| spec.iteration < iterations) else {
                continue;
            };
            remap[idx] = kept.len();
            for d in &mut spec.deps {
                debug_assert_ne!(remap[*d], usize::MAX, "deps precede their consumers");
                *d = remap[*d];
            }
            kept.push(spec);
        }
        (kept, remap)
    }

    /// `(local_syncs, total_ops, speculative_time)` of a run whose
    /// result is built from the first `iterations` iterations: the
    /// contributing sums, and the successful gmap time outside them.
    pub(crate) fn totals(&self, iterations: usize) -> (u64, u64, Duration) {
        let contributing = &self.iters[..iterations];
        let contributing_time = contributing.iter().map(|rec| rec.gmap_time).sum();
        let speculative_time = self.gmap_time.checked_sub(contributing_time).expect(
            "meter invariant broken: total successful gmap time must cover the contributing \
             iterations",
        );
        let (syncs, ops) =
            contributing.iter().fold((0, 0), |(s, o), rec| (s + rec.syncs, o + rec.ops));
        (syncs, ops, speculative_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gmap(m: &mut SessionMeter, p: usize, iter: usize, ops: u64, ns: u64, deps: Vec<usize>) {
        let spec = AsyncTaskSpec {
            partition: p,
            iteration: iter,
            input_bytes: 0,
            ops,
            output_records: 0,
            output_bytes: 0,
            deps,
        };
        m.gmap_done(spec, 1, Duration::from_nanos(ns));
    }

    #[test]
    fn unwind_subtracts_exactly_what_was_recorded() {
        let ns = Duration::from_nanos;
        let mut m = SessionMeter::new(2);
        // Two partitions, iterations 0 and 1; partition 1 also ran a
        // gmap of iteration 2 it has not absorbed.
        for (p, iter, ops, t) in [(0, 0, 5, 7), (1, 0, 6, 11), (0, 1, 8, 13), (1, 1, 9, 17)] {
            gmap(&mut m, p, iter, ops, t, Vec::new());
            m.absorbed(p, iter, 100 + ops, 0.5);
        }
        gmap(&mut m, 1, 2, 3, 19, vec![3]);
        assert!(m.fully_absorbed(1, 2) && !m.fully_absorbed(2, 2));
        let clean = m.totals(2);
        assert_eq!(clean, (4, 5 + 6 + 8 + 9 + 428, ns(19)));
        assert_eq!(m.executed, 5);

        // Roll partition 1 back to checkpoint 1: iteration 1 loses its
        // share, iteration 0 is untouched, the iteration-2 gmap is gone.
        m.unwind(1, 1);
        assert_eq!(m.rolled_back_iterations, 1);
        assert!(m.fully_absorbed(0, 2) && !m.fully_absorbed(1, 2));
        assert_eq!(m.iters[1].ops, 8 + 108);
        assert_eq!(m.iters[1].gmap_time, ns(13));
        assert_eq!(m.iters[2].gmap_time, Duration::ZERO);
        assert!(m.schedule[3].is_none() && m.schedule[4].is_none() && m.schedule[2].is_some());

        // Re-execution re-records it: contributing totals are back,
        // and the rolled-back gmaps' time now reports as waste.
        gmap(&mut m, 1, 1, 9, 23, vec![1]);
        m.absorbed(1, 1, 109, 0.5);
        assert_eq!(m.task_of(1, 1), 5);
        assert_eq!(m.totals(2), (clean.0, clean.1, ns(17 + 19)));
        assert_eq!(m.executed, 6);
        let (kept, remap) = m.take_schedule(2);
        assert_eq!(kept.len(), 4);
        assert_eq!(remap, [0, 1, 2, usize::MAX, usize::MAX, 3]);
        assert_eq!(kept[3].deps, [1]);
    }
}

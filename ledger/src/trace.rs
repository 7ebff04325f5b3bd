//! The ledger's own recorder for the traced pass.
//!
//! Spans are taken *around* calls into each layer's public functions —
//! by the [`TimedAlgo`] decorator for the session layer, and from
//! `Engine::history()` rows for the engine — never inside a library
//! crate. They stay in memory until the workload ends and are then
//! written to `<out>/<workload>.trace.json`.

use std::sync::Mutex;
use std::time::Instant;

use asyncmr_core::{Absorbed, AsyncIterative, Dependence, GmapOutput, Outbox};
use asyncmr_runtime::current_worker;

use crate::json::{obj, Value};

/// One recorded interval. `parent` indexes the span list; the solve's
/// root span is index 0 and has no parent.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Execution lane where known: pool worker index, or the worker
    /// count for the scheduler/driver thread.
    pub lane: Option<u32>,
    pub partition: Option<u32>,
    pub iteration: Option<u32>,
    pub job: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// A child of the root span with no lane/partition/iteration/job.
    pub fn child(name: &'static str, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent: Some(0),
            lane: None,
            partition: None,
            iteration: None,
            job: None,
        }
    }
}

/// Per-lane span buffers sharing one monotonic epoch. Each lane is
/// written by exactly one thread, so its mutex is never contended.
pub struct Recorder {
    epoch: Instant,
    lanes: Vec<Mutex<Vec<Span>>>,
}

impl Recorder {
    /// A recorder for `workers` pool lanes plus the scheduler lane.
    pub fn new(workers: usize) -> Recorder {
        Recorder { epoch: Instant::now(), lanes: (0..=workers).map(|_| Mutex::default()).collect() }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The calling thread's lane: its worker index, or the scheduler
    /// lane for any thread that is not a pool worker.
    fn lane(&self) -> usize {
        current_worker().unwrap_or(self.lanes.len() - 1).min(self.lanes.len() - 1)
    }

    fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        partition: usize,
        iteration: Option<usize>,
    ) {
        let lane = self.lane();
        let span = Span {
            name,
            layer: "core::session",
            start_ns,
            end_ns: self.now_ns(),
            parent: Some(0),
            lane: Some(lane as u32),
            partition: Some(partition as u32),
            iteration: iteration.map(|i| i as u32),
            job: None,
        };
        // Held only for this push, so it can never be poisoned by the
        // application code the span was taken around.
        self.lanes[lane].lock().expect("recorder lane lock").push(span);
    }

    /// All spans under a root `solve` span covering `[start_ns, end_ns]`.
    pub fn into_spans(self, start_ns: u64, end_ns: u64) -> Vec<Span> {
        let mut spans =
            vec![Span { parent: None, ..Span::child("solve", "ledger", start_ns, end_ns) }];
        for lane in self.lanes {
            spans.extend(lane.into_inner().expect("recorder lane lock"));
        }
        spans
    }
}

/// Decorator timing every `init_state` / `gmap` / `absorb` call the
/// session layer makes into an application.
pub struct TimedAlgo<'r, A> {
    inner: A,
    recorder: &'r Recorder,
}

impl<'r, A> TimedAlgo<'r, A> {
    pub fn new(inner: A, recorder: &'r Recorder) -> Self {
        TimedAlgo { inner, recorder }
    }

    pub fn into_inner(self) -> A {
        self.inner
    }
}

impl<A: AsyncIterative> AsyncIterative for TimedAlgo<'_, A> {
    type State = A::State;
    type Update = A::Update;
    type Msg = A::Msg;

    fn partitions(&self) -> usize {
        self.inner.partitions()
    }

    fn dependencies(&self, p: usize) -> Dependence {
        self.inner.dependencies(p)
    }

    fn init_state(&self, p: usize) -> A::State {
        let t = self.recorder.now_ns();
        let state = self.inner.init_state(p);
        self.recorder.record("init_state", t, p, None);
        state
    }

    fn gmap(
        &self,
        p: usize,
        iteration: usize,
        state: &A::State,
        outbox: &mut Outbox<A::Msg>,
    ) -> GmapOutput<A::Update> {
        let t = self.recorder.now_ns();
        let out = self.inner.gmap(p, iteration, state, outbox);
        self.recorder.record("gmap", t, p, Some(iteration));
        out
    }

    fn absorb(
        &self,
        p: usize,
        iteration: usize,
        state: &A::State,
        update: A::Update,
        inbox: &[(usize, &[A::Msg])],
    ) -> Absorbed<A::State> {
        let t = self.recorder.now_ns();
        let out = self.inner.absorb(p, iteration, state, update, inbox);
        self.recorder.record("absorb", t, p, Some(iteration));
        out
    }

    fn converged(&self, max_delta: f64) -> bool {
        self.inner.converged(max_delta)
    }

    fn state_bytes(&self, state: &A::State) -> u64 {
        self.inner.state_bytes(state)
    }
}

/// Self time per span: its duration minus the part of its interval
/// that its direct children cover (children on different lanes may
/// overlap each other, so coverage is the union of their intervals).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let clipped = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if clipped.0 < clipped.1 {
                children[p].push(clipped);
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (start, end) in kids {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// `(name, calls, total ns, self ns)` per distinct `(layer, name)`, in
/// first-seen order.
pub fn summarize(spans: &[Span]) -> Vec<(String, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(String, u64, u64, u64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let key = format!("{}/{}", s.layer, s.name);
        match rows.iter_mut().find(|r| r.0 == key) {
            Some(row) => {
                row.1 += 1;
                row.2 += s.dur_ns();
                row.3 += self_ns;
            }
            None => rows.push((key, 1, s.dur_ns(), self_ns)),
        }
    }
    rows
}

/// The trace file: `header` (who ran), the counts, the per-name
/// self-time summary and every span (each tagged with `workload`).
pub fn to_json(
    workload: &str,
    header: Vec<(String, Value)>,
    counts: Value,
    spans: &[Span],
) -> Value {
    let opt = |v: Option<u32>| v.map_or(Value::Null, |x| Value::from(x as u64));
    let span_rows: Vec<Value> = spans
        .iter()
        .map(|s| {
            obj([
                ("name", s.name.into()),
                ("layer", s.layer.into()),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                ("parent", s.parent.map_or(Value::Null, Value::from)),
                ("workload", workload.into()),
                ("lane", opt(s.lane)),
                ("partition", opt(s.partition)),
                ("iteration", opt(s.iteration)),
                ("job", opt(s.job)),
            ])
        })
        .collect();
    let summary: Vec<Value> = summarize(spans)
        .into_iter()
        .map(|(name, calls, total_ns, self_ns)| {
            obj([
                ("span", name.into()),
                ("calls", calls.into()),
                ("total_ns", total_ns.into()),
                ("self_ns", self_ns.into()),
            ])
        })
        .collect();
    let mut pairs = header;
    pairs.push(("counts".to_string(), counts));
    pairs.push(("summary".to_string(), Value::Arr(summary)));
    pairs.push(("spans".to_string(), Value::Arr(span_rows)));
    Value::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { parent, ..Span::child("s", "l", start_ns, end_ns) }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),  // overlaps the previous child by 10
            span(80, 120, Some(0)), // clipped to the parent's end
            span(12, 20, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - (50 + 20), "covered: [10,60) and [80,100)");
        assert_eq!(selfs[1], 30 - 8);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[4], 8);
    }

    #[test]
    fn summary_groups_by_layer_and_name() {
        let mut spans = vec![span(0, 100, None), span(0, 10, Some(0)), span(20, 50, Some(0))];
        spans[0].name = "solve";
        let rows = summarize(&spans);
        assert_eq!(rows[0], ("l/solve".to_string(), 1, 100, 60));
        assert_eq!(rows[1], ("l/s".to_string(), 2, 40, 40));
    }
}

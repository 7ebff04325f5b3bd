//! Task contexts — the paper's data-flow functions.
//!
//! `EmitIntermediate` / `Emit` become methods on the map/reduce task
//! contexts. Every emission is metered (records + approximate bytes) so
//! the engine can hand the simulator an exact profile of what the task
//! actually produced.

use crate::kv::{Key, Value};
use crate::shuffle::{Bucket, PlanOutcome, RoutePlan, RouteSink};

/// Abstract-operation + volume counters for one task attempt.
///
/// Applications call [`TaskMeter::add_ops`] with their natural work
/// unit (edges relaxed, point-dimension products, …); the simulator's
/// `asyncmr_simcluster::CostModel` turns ops into seconds. Tasks that
/// forget to meter still get record-count-based framework cost.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TaskMeter {
    ops: u64,
    input_bytes: u64,
    local_syncs: u64,
}

impl TaskMeter {
    /// Adds `n` abstract operations to this task's bill.
    #[inline]
    pub fn add_ops(&mut self, n: u64) {
        self.ops += n;
    }

    /// Counts one partial (local) synchronization — an `lreduce`
    /// barrier inside a `gmap` (paper: partial + global syncs trade
    /// off; eager runs many cheap partial syncs per global one).
    #[inline]
    pub fn add_local_sync(&mut self) {
        self.local_syncs += 1;
    }

    /// Partial synchronizations performed by this task.
    #[inline]
    pub fn local_syncs(&self) -> u64 {
        self.local_syncs
    }

    /// Records the size of the task's input split, for the simulator's
    /// DFS-read accounting. This is the one source of a split's size:
    /// each map sets it (an [`crate::EagerMapper`] task from its
    /// [`crate::LocalAlgorithm::input_bytes`]); a task that never sets
    /// it reads 0 bytes.
    #[inline]
    pub fn set_input_bytes(&mut self, bytes: u64) {
        self.input_bytes = bytes;
    }

    /// Total abstract operations metered.
    #[inline]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Input split size.
    #[inline]
    pub fn input_bytes(&self) -> u64 {
        self.input_bytes
    }
}

/// Context handed to [`crate::Mapper::map`] — wraps the paper's
/// `EmitIntermediate` plus metering.
///
/// Emissions go to a [`RouteSink`]: inside an engine job it follows the
/// map task's remembered [`RoutePlan`], so an emission whose key the
/// plan expects lands in its reduce bucket at once, as a bare value;
/// anywhere else (`MapContext::default()`) it buffers pairs for
/// [`MapContext::finish`].
#[derive(Debug)]
pub struct MapContext<K, V> {
    sink: RouteSink<K, V>,
    /// Approximate serialized bytes emitted.
    bytes: u64,
    /// Work/volume counters for this map task.
    pub meter: TaskMeter,
}

impl<K: Key, V: Value> Default for MapContext<K, V> {
    fn default() -> Self {
        Self::routing(RoutePlan::default(), 1)
    }
}

/// What a routing [`MapContext`] leaves behind: the task's emissions
/// in their reduce buckets, and its meters.
pub(crate) struct Routed<K, V> {
    pub(crate) buckets: Vec<Bucket<K, V>>,
    /// What became of the task's plan (`None`: a single partition
    /// consults none).
    pub(crate) planned: Option<PlanOutcome>,
    pub(crate) meter: TaskMeter,
    pub(crate) records: u64,
    pub(crate) bytes: u64,
}

impl<K: Key, V: Value> MapContext<K, V> {
    /// A context whose emissions are routed into `reducers` partitions
    /// as they arrive, following `plan` — the engine passes the one the
    /// same map task left behind last job (which also sizes the pair
    /// buffer of a task that runs off plan, so it is allocated once
    /// instead of regrown by doubling).
    pub(crate) fn routing(plan: RoutePlan<K>, reducers: usize) -> Self {
        MapContext {
            sink: RouteSink::following(plan, reducers),
            bytes: 0,
            meter: TaskMeter::default(),
        }
    }

    /// The paper's `EmitIntermediate(key, value)`.
    #[inline]
    pub fn emit_intermediate(&mut self, key: K, value: V) {
        self.bytes += key.approx_bytes() + value.approx_bytes();
        self.sink.emit(key, value);
    }

    /// Shorthand for `self.meter.add_ops(n)`.
    #[inline]
    pub fn add_ops(&mut self, n: u64) {
        self.meter.add_ops(n);
    }

    /// Records emitted so far.
    pub fn records(&self) -> u64 {
        self.sink.records() as u64
    }

    /// Room in the pair buffer a task off plan emits into.
    #[cfg(test)]
    pub(crate) fn buffer_capacity(&self) -> usize {
        self.sink.buffer_capacity()
    }

    /// Consumes the context: `(pairs, meter, records, bytes)`.
    ///
    /// Public so alternative drivers (e.g. [`crate::session`]) can run
    /// a [`crate::Mapper`] such as [`crate::EagerMapper`] outside an
    /// [`crate::Engine`] and still harvest the metered emissions.
    pub fn finish(self) -> (Vec<(K, V)>, TaskMeter, u64, u64) {
        let records = self.records();
        (self.sink.into_pairs(), self.meter, records, self.bytes)
    }

    /// Consumes the context the way the engine does after every map
    /// task: the emissions stay where the sink routed them. Also
    /// returns the plan to file for the task's next job.
    pub(crate) fn finish_routed(self) -> (Routed<K, V>, RoutePlan<K>) {
        let (records, bytes, meter) = (self.records(), self.bytes, self.meter);
        let (buckets, plan, planned) = self.sink.finish();
        (Routed { buckets, planned, meter, records, bytes }, plan)
    }
}

/// Context handed to [`crate::Reducer::reduce`] — wraps the paper's
/// `Emit` plus metering.
#[derive(Debug)]
pub struct ReduceContext<K, O> {
    /// The task's output, in emission order.
    pairs: Vec<(K, O)>,
    /// Approximate serialized bytes emitted.
    bytes: u64,
    /// Work/volume counters for this reduce task.
    pub meter: TaskMeter,
}

impl<K: Key, O: Value> Default for ReduceContext<K, O> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<K: Key, O: Value> ReduceContext<K, O> {
    /// A context whose output buffer starts with room for `records`
    /// emissions (the engine passes the partition's remembered group
    /// count — what a reducer that emits once per key will fill).
    pub(crate) fn with_capacity(records: usize) -> Self {
        ReduceContext { pairs: Vec::with_capacity(records), bytes: 0, meter: TaskMeter::default() }
    }

    /// The paper's `Emit(key, value)` — final job output.
    #[inline]
    pub fn emit(&mut self, key: K, value: O) {
        self.bytes += key.approx_bytes() + value.approx_bytes();
        self.pairs.push((key, value));
    }

    /// Shorthand for `self.meter.add_ops(n)`.
    #[inline]
    pub fn add_ops(&mut self, n: u64) {
        self.meter.add_ops(n);
    }

    /// Consumes the context: `(pairs, meter, records, bytes)`.
    pub(crate) fn finish(self) -> (Vec<(K, O)>, TaskMeter, u64, u64) {
        let records = self.pairs.len() as u64;
        (self.pairs, self.meter, records, self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_context_finish_reports_meter() {
        let mut ctx: MapContext<u32, u64> = MapContext::default();
        ctx.emit_intermediate(7, 70);
        ctx.add_ops(123);
        ctx.meter.set_input_bytes(456);
        let (pairs, meter, records, bytes) = ctx.finish();
        assert_eq!(pairs, vec![(7, 70)]);
        assert_eq!(meter.ops(), 123);
        assert_eq!(meter.input_bytes(), 456);
        assert_eq!(records, 1);
        assert_eq!(bytes, 12);
    }

    #[test]
    fn emitter_meters_bytes_and_records() {
        let mut ctx: ReduceContext<u32, f64> = ReduceContext::default();
        ctx.emit(1, 0.5);
        ctx.emit(2, 1.5);
        let (pairs, _, records, bytes) = ctx.finish();
        assert_eq!(records, 2);
        assert_eq!(bytes, 2 * (4 + 8));
        assert_eq!(pairs, vec![(1, 0.5), (2, 1.5)]);
    }

    #[test]
    fn reduce_context_emits() {
        let mut ctx: ReduceContext<u32, u32> = ReduceContext::default();
        ctx.emit(1, 2);
        ctx.add_ops(9);
        let (pairs, meter, records, bytes) = ctx.finish();
        assert_eq!(pairs, vec![(1, 2)]);
        assert_eq!(meter.ops(), 9);
        assert_eq!(records, 1);
        assert_eq!(bytes, 8);
    }
}

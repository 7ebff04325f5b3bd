//! The user-facing MapReduce traits (paper §IV).

use crate::emitter::{MapContext, ReduceContext};
use crate::kv::{Key, Value};

/// A (global) map function: consumes one input split and emits
/// intermediate pairs via `EmitIntermediate`.
///
/// For *general* iterative algorithms the input is typically one graph
/// partition (the paper's competitive baseline "for which maps operate
/// on complete partitions", §V-B1). For *eager* algorithms, use
/// [`crate::EagerMapper`] instead of implementing this directly.
pub trait Mapper: Send + Sync {
    /// One map task's input split.
    type Input: Send + Sync;
    /// Intermediate key.
    type Key: Key;
    /// Intermediate value.
    type Value: Value;

    /// Processes one split. `task` is the split index (stable across
    /// iterations — partition `p` is always task `p`). A task that reads
    /// a split of known size meters it through
    /// [`crate::TaskMeter::set_input_bytes`] (`ctx.meter`); one that
    /// does not is billed no input read.
    fn map(&self, task: usize, input: &Self::Input, ctx: &mut MapContext<Self::Key, Self::Value>);
}

/// A (global) reduce function: consumes one key and all its values.
pub trait Reducer: Send + Sync {
    /// Intermediate key (must match the mapper's).
    type Key: Key;
    /// Intermediate value (must match the mapper's).
    type ValueIn: Value;
    /// Output value type.
    type Out: Value;

    /// Reduces one key group. Values arrive in deterministic order
    /// (map-task order, emission order within a task).
    fn reduce(
        &self,
        key: &Self::Key,
        values: &[Self::ValueIn],
        ctx: &mut ReduceContext<Self::Key, Self::Out>,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Mapper for Echo {
        type Input = Vec<u32>;
        type Key = u32;
        type Value = u32;
        fn map(&self, _t: usize, input: &Vec<u32>, ctx: &mut MapContext<u32, u32>) {
            for &x in input {
                ctx.emit_intermediate(x, x);
            }
        }
    }

    struct Sum;
    impl Reducer for Sum {
        type Key = u32;
        type ValueIn = u32;
        type Out = u64;
        fn reduce(&self, key: &u32, values: &[u32], ctx: &mut ReduceContext<u32, u64>) {
            ctx.emit(*key, values.iter().map(|&v| v as u64).sum());
        }
    }

    #[test]
    fn traits_are_object_safe_enough_to_call() {
        let mut mctx = MapContext::default();
        Echo.map(0, &vec![1, 2, 1], &mut mctx);
        let (pairs, _, records, _) = mctx.finish();
        assert_eq!(records, 3);
        let mut rctx = ReduceContext::default();
        let ones: Vec<u32> = pairs.iter().filter(|(k, _)| *k == 1).map(|(_, v)| *v).collect();
        Sum.reduce(&1, &ones, &mut rctx);
        let (out, _, _, _) = rctx.finish();
        assert_eq!(out, vec![(1, 2)]);
    }
}

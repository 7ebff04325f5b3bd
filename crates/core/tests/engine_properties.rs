//! Property tests for the MapReduce engine: the parallel, shuffled
//! execution must compute exactly what the obvious sequential program
//! computes, for arbitrary inputs and configurations.

use std::collections::BTreeMap;

use asyncmr_core::prelude::*;
use asyncmr_runtime::ThreadPool;
use proptest::prelude::*;

/// Classic word-count-shaped job over u32 keys.
struct ModMapper {
    modulus: u32,
}

impl Mapper for ModMapper {
    type Input = Vec<u32>;
    type Key = u32;
    type Value = u64;
    fn map(&self, _t: usize, input: &Vec<u32>, ctx: &mut MapContext<u32, u64>) {
        for &x in input {
            ctx.emit_intermediate(x % self.modulus, u64::from(x));
        }
    }
}

struct SumReducer;

impl Reducer for SumReducer {
    type Key = u32;
    type ValueIn = u64;
    type Out = u64;
    fn reduce(&self, key: &u32, values: &[u64], ctx: &mut ReduceContext<u32, u64>) {
        ctx.emit(*key, values.iter().sum());
    }
}

fn expected(inputs: &[Vec<u32>], modulus: u32) -> BTreeMap<u32, u64> {
    let mut sums = BTreeMap::new();
    for split in inputs {
        for &x in split {
            *sums.entry(x % modulus).or_insert(0u64) += u64::from(x);
        }
    }
    sums
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Engine output equals the sequential computation for arbitrary
    /// splits, reducer counts, and thread counts.
    #[test]
    fn engine_equals_sequential(
        inputs in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 0..60), 0..12),
        modulus in 1u32..30,
        reducers in 1usize..9,
        threads in 1usize..4,
    ) {
        let pool = ThreadPool::new(threads);
        let mut engine = Engine::in_process(&pool);
        let mapper = ModMapper { modulus };
        let out = engine.run("prop", &inputs, &mapper, &SumReducer,
            &JobOptions::with_reducers(reducers));
        let got: BTreeMap<u32, u64> = out.pairs.into_iter().collect();
        prop_assert_eq!(got, expected(&inputs, modulus));
    }

    /// Stable hashing: the same key set routes identically regardless
    /// of insertion order.
    #[test]
    fn shuffle_routing_is_order_independent(
        mut keys in proptest::collection::vec(any::<u32>(), 1..100),
        reducers in 1usize..10,
    ) {
        use asyncmr_core::hash::reducer_for;
        let routed: Vec<usize> = keys.iter().map(|k| reducer_for(k, reducers)).collect();
        keys.reverse();
        let routed_rev: Vec<usize> = keys.iter().map(|k| reducer_for(k, reducers)).collect();
        for (a, b) in routed.iter().zip(routed_rev.iter().rev()) {
            prop_assert_eq!(a, b);
        }
    }

    /// Engine job meters add up: shuffle records seen by reducers equal
    /// records emitted by mappers.
    #[test]
    fn meter_accounting_consistent(
        inputs in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 0..40), 0..6),
        reducers in 1usize..5,
    ) {
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let mapper = ModMapper { modulus: 10 };
        let out = engine.run("m", &inputs, &mapper, &SumReducer,
            &JobOptions::with_reducers(reducers));
        let emitted: u64 = inputs.iter().map(|s| s.len() as u64).sum();
        prop_assert_eq!(out.meter.shuffle_records, emitted);
        prop_assert_eq!(out.meter.map_tasks, inputs.len());
        // Reduce tasks = shuffle partitions that actually received
        // records (empty partitions are skipped, not metered).
        let populated = {
            use asyncmr_core::hash::reducer_for;
            let mut hit = vec![false; reducers];
            for split in &inputs {
                for &x in split {
                    hit[reducer_for(&(x % 10), reducers)] = true;
                }
            }
            hit.iter().filter(|&&h| h).count()
        };
        prop_assert_eq!(out.meter.reduce_tasks, populated);
        prop_assert!(out.meter.reduce_tasks <= reducers);
        // Output keys bounded by the modulus.
        prop_assert!(out.meter.output_records <= 10);
    }
}

//! Property tests pinning the shuffle's hot path to its reference:
//!
//! * [`Grouped`]/`GroupView` grouping, through its one constructor with
//!   either [`GroupingStrategy`], must be equivalent to the `BTreeMap`
//!   reference [`shuffle::group`] on arbitrary key/value streams —
//!   including duplicate-heavy and empty inputs;
//! * `route` → move-based [`concat_buckets`] must preserve
//!   (map-task, emission-index) value order per reducer, i.e. exactly
//!   match filtering the task-ordered emission stream by routed
//!   partition.

use asyncmr_core::hash::reducer_for;
use asyncmr_core::shuffle::{self, concat_buckets, Grouped, GroupingStrategy, ShuffleScratch};
use proptest::prelude::*;

use GroupingStrategy::{Radix, Sort};

/// Groups `pairs` with `strategy` over fresh buffers.
fn grouped_by(strategy: GroupingStrategy, pairs: Vec<(u32, u32)>) -> Grouped<u32, u32> {
    Grouped::from_pairs_using(strategy, pairs, &mut ShuffleScratch::default())
}

/// Collects a `Grouped` into the reference's output shape.
fn collect<K: asyncmr_core::Key, V: asyncmr_core::Value>(
    grouped: &Grouped<K, V>,
) -> Vec<(K, Vec<V>)> {
    let mut out = Vec::new();
    grouped.for_each_group(|g| out.push((g.key.clone(), g.values.to_vec())));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary streams: same groups, same order, from both
    /// implementations.
    #[test]
    fn grouped_equals_btreemap_reference(
        pairs in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..400),
    ) {
        let reference = shuffle::group(pairs.clone());
        let grouped = grouped_by(Sort, pairs);
        prop_assert_eq!(grouped.records(), reference.iter().map(|(_, vs)| vs.len()).sum());
        prop_assert_eq!(grouped.num_groups(), reference.len());
        prop_assert_eq!(collect(&grouped), reference);
    }

    /// Duplicate-heavy streams (tiny key space): value order within a
    /// key is the emission order, on both implementations.
    #[test]
    fn grouped_equals_reference_on_duplicate_heavy_streams(
        values in proptest::collection::vec(any::<u32>(), 0..500),
        modulus in 1u32..8,
    ) {
        let pairs: Vec<(u32, u32)> =
            values.iter().enumerate().map(|(i, &v)| (v % modulus, i as u32)).collect();
        let reference = shuffle::group(pairs.clone());
        let grouped = grouped_by(Sort, pairs);
        prop_assert_eq!(collect(&grouped), reference);
    }

    /// Buffer reuse must never change results: grouping through a
    /// shared scratch matches fresh-allocation grouping, job after job.
    #[test]
    fn scratch_reuse_is_invisible(
        jobs in proptest::collection::vec(
            proptest::collection::vec((0u32..30, any::<u32>()), 0..120), 1..6),
    ) {
        let mut scratch: ShuffleScratch<u32, u32> = ShuffleScratch::default();
        for pairs in jobs {
            let reference = shuffle::group(pairs.clone());
            let grouped = Grouped::from_pairs_using(Sort, pairs, &mut scratch);
            prop_assert_eq!(collect(&grouped), reference);
            grouped.recycle_into(&mut scratch);
        }
    }

    /// route → move-concat reproduces, for every reducer, the
    /// subsequence of the task-ordered emission stream that hashes to
    /// that reducer — (map task, emission index) order preserved.
    #[test]
    fn route_then_concat_preserves_emission_order(
        tasks in proptest::collection::vec(
            proptest::collection::vec((any::<u32>(), any::<u32>()), 0..80), 0..8),
        reducers in 1usize..7,
    ) {
        // Route each task's output, then transpose per reducer (the
        // ShuffleStage's ownership transfer) and move-concatenate.
        let routed: Vec<Vec<Vec<(u32, u32)>>> =
            tasks.iter().map(|t| shuffle::route(t.clone(), reducers)).collect();
        let mut scratch = ShuffleScratch::default();
        for r in 0..reducers {
            let buckets: Vec<Vec<(u32, u32)>> = routed
                .iter()
                .map(|task_buckets| task_buckets[r].clone())
                .collect();
            let concatenated = concat_buckets(buckets, &mut scratch);

            let expected: Vec<(u32, u32)> = tasks
                .iter()
                .flatten()
                .filter(|(k, _)| reducer_for(k, reducers) == r)
                .cloned()
                .collect();
            prop_assert_eq!(&concatenated, &expected, "reducer {} order broken", r);
        }
    }

    /// Radix grouping is byte-identical to sort grouping on arbitrary
    /// key distributions — same groups, same group order, same value
    /// order within each group.
    #[test]
    fn radix_equals_sort_on_arbitrary_streams(
        pairs in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..400),
    ) {
        let sorted = grouped_by(Sort, pairs.clone());
        let radix = grouped_by(Radix, pairs);
        prop_assert_eq!(collect(&radix), collect(&sorted));
        prop_assert_eq!(radix.records(), sorted.records());
        prop_assert_eq!(radix.num_groups(), sorted.num_groups());
    }

    /// Duplicate-heavy streams (the graph-workload shape radix
    /// targets): tiny key spaces, many values per key.
    #[test]
    fn radix_equals_sort_on_duplicate_heavy_streams(
        values in proptest::collection::vec(any::<u32>(), 0..500),
        modulus in 1u32..8,
    ) {
        let pairs: Vec<(u32, u32)> =
            values.iter().enumerate().map(|(i, &v)| (v % modulus, i as u32)).collect();
        let sorted = grouped_by(Sort, pairs.clone());
        let radix = grouped_by(Radix, pairs);
        prop_assert_eq!(collect(&radix), collect(&sorted));
    }

    /// Single-reducer jobs route *everything* into one bucket (the
    /// other buckets are empty) and radix-grouping that bucket must
    /// still match the sort path — as must grouping the empty buckets.
    #[test]
    fn radix_equals_sort_through_single_reducer_route(
        pairs in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..300),
    ) {
        let mut buckets = shuffle::route(pairs.clone(), 1);
        prop_assert_eq!(buckets.len(), 1);
        let bucket = buckets.pop().unwrap();
        prop_assert_eq!(bucket.len(), pairs.len());
        let sorted = grouped_by(Sort, bucket.clone());
        let radix = grouped_by(Radix, bucket);
        prop_assert_eq!(collect(&radix), collect(&sorted));
        // Empty buckets (what the other reducers of a wider job see).
        let empty: Grouped<u32, u32> = grouped_by(Radix, Vec::new());
        prop_assert_eq!(collect(&empty), Vec::new());
    }

    /// Scratch reuse across alternating sort/radix jobs is invisible:
    /// whichever strategy a job selects, reusing the buffers the other
    /// strategy recycled must not change its output.
    #[test]
    fn radix_and_sort_share_scratch_without_interference(
        jobs in proptest::collection::vec(
            proptest::collection::vec((0u32..30, any::<u32>()), 0..120), 1..6),
    ) {
        let mut scratch: ShuffleScratch<u32, u32> = ShuffleScratch::default();
        for (i, pairs) in jobs.into_iter().enumerate() {
            let reference = shuffle::group(pairs.clone());
            let strategy = if i % 2 == 0 { Radix } else { Sort };
            let grouped = Grouped::from_pairs_using(strategy, pairs, &mut scratch);
            prop_assert_eq!(collect(&grouped), reference);
            grouped.recycle_into(&mut scratch);
        }
    }

    /// End to end at the stream level: routing then grouping each
    /// reducer's concatenated input equals grouping the filtered
    /// stream directly.
    #[test]
    fn per_reducer_grouping_matches_direct_grouping(
        pairs in proptest::collection::vec((0u32..50, any::<u32>()), 0..300),
        reducers in 1usize..5,
    ) {
        let buckets = shuffle::route(pairs.clone(), reducers);
        for (r, bucket) in buckets.into_iter().enumerate() {
            let direct: Vec<(u32, u32)> = pairs
                .iter()
                .filter(|(k, _)| reducer_for(k, reducers) == r)
                .cloned()
                .collect();
            let grouped = grouped_by(Sort, bucket);
            prop_assert_eq!(collect(&grouped), shuffle::group(direct));
        }
    }
}

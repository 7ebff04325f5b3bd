//! Shared partition machinery for the graph applications.
//!
//! PageRank, SSSP, Connected Components and Jacobi hand each map task
//! one [`GraphPartition`]:
//! the vertices it owns, its *internal* adjacency (rewritten to local
//! indices so local iterations never touch a hash map on the hot path)
//! and its *cross* adjacency (global ids — the edges whose messages
//! must wait for the global synchronization). Building these views is
//! the "locality-enhancing partition on the computation" of the paper's
//! abstract, materialized.
//!
//! The partitioning never changes during a fixed point, so neither does
//! the cut: the session formulations resolve every cross edge to its
//! `(destination partition, destination-local vertex)` **once**, as a
//! [`CutPlan`], and their `gmap`/`absorb` stream against it.
//!
//! Both adjacencies are a [`LocalCsr`] (`asyncmr_core::csr`), validated
//! once where they are built, so a flat kernel's local pass and an
//! Eager app's `lmap` walk the internal one without a bounds check per
//! edge; that unchecked walk is core's, and this crate has none.

use std::sync::Arc;

use asyncmr_core::csr::LocalCsr;
use asyncmr_core::driver::StepStatus;
use asyncmr_graph::{CsrGraph, NodeId, WeightedGraph};
use asyncmr_partition::{PartId, Partitioning};
use asyncmr_runtime::ThreadPool;

/// Local-iteration cap for the flat session kernels: the eager
/// formulations' own default, so the session drivers stop where the
/// barrier path stops.
pub(crate) use asyncmr_core::local::DEFAULT_MAX_LOCAL_ITERATIONS as MAX_LOCAL_PASSES;

/// One partition's view of the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphPartition {
    /// The partition id (== map task index).
    pub part: u32,
    /// Global ids of owned vertices, ascending — so local vertex `li`
    /// is entry `li` of a local state keyed by them, the group an
    /// Eager app's `lmap` folds its values for `li` into.
    pub nodes: Vec<NodeId>,
    /// Local indices `0..nodes.len()` (convenience for `items()`).
    pub local_ids: Vec<u32>,
    /// Out-edges *inside* this partition: local index to local index.
    pub internal: LocalCsr,
    /// Out-edges *outside* this partition: local index to global id.
    pub cross: LocalCsr,
    /// Total out-degree (internal + cross) per local node — PageRank
    /// contributions divide by the *global* out-degree.
    pub out_degree: Vec<u32>,
}

/// Narrows a partition-local index or CSR offset: the views store both
/// as `u32`.
fn index_u32(n: usize, what: &str) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| panic!("partition has more than u32::MAX {what}"))
}

/// Each vertex's index within its owning group (`groups` partition the
/// vertices `0..n`).
pub(crate) fn local_indices<'a>(n: usize, groups: impl Iterator<Item = &'a [NodeId]>) -> Vec<u32> {
    let mut local = vec![0u32; n];
    for nodes in groups {
        for (li, &v) in nodes.iter().enumerate() {
            local[v as usize] = index_u32(li, "vertices");
        }
    }
    local
}

impl GraphPartition {
    /// Splits `g` according to `parts`, with unit edge weights.
    pub fn build(g: &CsrGraph, parts: &Partitioning) -> Vec<Arc<GraphPartition>> {
        Self::build_inner(None, g, None, parts)
    }

    /// Splits a weighted graph according to `parts`.
    pub fn build_weighted(wg: &WeightedGraph, parts: &Partitioning) -> Vec<Arc<GraphPartition>> {
        Self::build_inner(None, wg.graph(), Some(wg.weights()), parts)
    }

    /// [`GraphPartition::build`] as one `pool` task per partition.
    pub fn build_on(
        pool: &ThreadPool,
        g: &CsrGraph,
        parts: &Partitioning,
    ) -> Vec<Arc<GraphPartition>> {
        Self::build_inner(Some(pool), g, None, parts)
    }

    /// [`GraphPartition::build_weighted`] as one `pool` task per
    /// partition.
    pub fn build_weighted_on(
        pool: &ThreadPool,
        wg: &WeightedGraph,
        parts: &Partitioning,
    ) -> Vec<Arc<GraphPartition>> {
        Self::build_inner(Some(pool), wg.graph(), Some(wg.weights()), parts)
    }

    fn build_inner(
        pool: Option<&ThreadPool>,
        g: &CsrGraph,
        weights: Option<&[f64]>,
        parts: &Partitioning,
    ) -> Vec<Arc<GraphPartition>> {
        assert_eq!(g.num_nodes(), parts.num_nodes(), "graph/partitioning mismatch");
        let members = parts.members();
        let local = local_indices(g.num_nodes(), members.iter().map(Vec::as_slice));
        // Partition `p`'s view: an out-edge of an owned vertex is internal
        // iff `parts` gives its target to `p` too.
        let view = |p: usize, nodes: Vec<NodeId>| {
            let part = p as PartId;
            let n_local = nodes.len();
            // Each side's offsets, targets and weights.
            let side = || (vec![0u32], Vec::new(), Vec::new());
            let (mut internal, mut cross) = (side(), side());
            let mut out_degree = Vec::with_capacity(n_local);
            for &v in &nodes {
                let range = g.edge_range(v);
                for (idx, &t) in g.out_neighbors(v).iter().enumerate() {
                    let (side, id) = if parts.part_of(t) == part {
                        (&mut internal, local[t as usize])
                    } else {
                        (&mut cross, t)
                    };
                    side.1.push(id);
                    if let Some(weights) = weights {
                        side.2.push(weights[range.start + idx]);
                    }
                }
                for side in [&mut internal, &mut cross] {
                    side.0.push(index_u32(side.1.len(), "edges"));
                }
                out_degree.push(g.out_degree(v));
            }
            let csr = |(offsets, targets, weights), bound| {
                LocalCsr::new(n_local, bound, offsets, targets, weights)
            };
            Arc::new(GraphPartition {
                part,
                local_ids: (0..index_u32(n_local, "vertices")).collect(),
                nodes,
                internal: csr(internal, n_local),
                cross: csr(cross, g.num_nodes()),
                out_degree,
            })
        };
        match pool {
            Some(pool) => pool.par_map_vec(members, view),
            None => members.into_iter().enumerate().map(|(p, nodes)| view(p, nodes)).collect(),
        }
    }

    /// Number of owned vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether this partition owns no vertices.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Approximate serialized size: the split a Hadoop map would read.
    pub fn approx_bytes(&self) -> u64 {
        // node id + degree + rank per node, id + weight per edge.
        (self.nodes.len() * 16 + (self.internal.num_edges() + self.cross.num_edges()) * 12) as u64
    }
}

/// Per vertex `t` of the `n`-vertex graph, the sum of `send(part, li)`
/// over the cross edges `li → t` into it, folded in ascending
/// partition, local id and cross-CSR order — the order the barrier
/// formulations' shuffles deliver boundary values in.
pub(crate) fn cross_edge_sums(
    partitions: &[Arc<GraphPartition>],
    n: usize,
    send: impl Fn(&GraphPartition, u32) -> f64,
) -> Vec<f64> {
    let mut sums = vec![0.0f64; n];
    for part in partitions {
        for &li in &part.local_ids {
            let c = send(part, li);
            for (t, _) in part.cross.edges(li) {
                sums[t as usize] += c;
            }
        }
    }
    sums
}

/// `|a − b|` for a maximum that must not drop a NaN: a NaN gap (a NaN
/// on either side, or ∞ against ∞, which is no fixed point) counts as
/// +∞ — `f64::min` returns its other operand when one is NaN.
pub(crate) fn gap(a: f64, b: f64) -> f64 {
    f64::INFINITY.min((a - b).abs())
}

/// Writes a job's `(vertex, value)` pairs into the global vector `x`;
/// returns the ∞-norm of the change (the pairs name each vertex once),
/// +∞ if a value or the vertex's old one is NaN.
pub(crate) fn apply_pairs(x: &mut [f64], pairs: Vec<(NodeId, f64)>) -> f64 {
    let mut diff = 0.0f64;
    for (v, value) in pairs {
        diff = diff.max(gap(value, x[v as usize]));
        x[v as usize] = value;
    }
    diff
}

/// Overwrites `slice` with the entries of the global vector `global` at
/// `nodes`, in order: one partition's view of it.
pub(crate) fn gather<T: Copy>(slice: &mut Vec<T>, nodes: &[NodeId], global: &[T]) {
    slice.clear();
    slice.extend(nodes.iter().map(|&v| global[v as usize]));
}

/// A barrier driver's step once its convergence test says `done`.
pub(crate) fn step_status(done: bool) -> StepStatus {
    if done {
        StepStatus::Converged
    } else {
        StepStatus::Continue
    }
}

/// Refuses a convergence bound that is not finite and positive, naming
/// the config field: a NaN bound never converges, and a zero or
/// negative one only stops at the iteration cap.
pub(crate) fn check_bound(field: &str, value: f64) {
    assert!(value.is_finite() && value > 0.0, "{field} is {value}; it must be finite and > 0");
}

/// One producer's cut edges into one destination partition, in the
/// producer's emission order `(source-local id, cross-CSR position)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CutRun {
    /// The destination partition (never the producer: an edge inside a
    /// partition is internal).
    pub dest: u32,
    /// The producer's dependency slot at `dest` — its index in
    /// `in_deps[dest]`, hence in `dest`'s absorb inbox and in
    /// `in_index[dest]`.
    pub slot: u32,
    /// Source-local vertex per cut edge.
    pub src: Vec<u32>,
    /// Weight per cut edge; empty for an unweighted build.
    pub weights: Vec<f64>,
}

/// The cut of a partitioned graph, resolved once: every cross edge's
/// destination partition and destination-local vertex, grouped the way
/// the session moves them — one [`CutRun`] per `(producer, consumer)`
/// pair, which is one outbox batch and one inbox entry per iteration.
///
/// Partition *q* sends to the owners of its cross targets every
/// iteration, so the dependency set of partition *p* is exactly the
/// partitions with a run into *p*: `in_deps` is what the graph apps
/// hand to [`asyncmr_core::session::AsyncIterative::dependencies`].
/// A batch that carries one value per cut edge of its run, in run
/// order, needs no per-record address: the consumer folds
/// `batch[j]` into vertex `in_index[p][slot][j]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CutPlan {
    /// Per producer: its runs, ascending by destination.
    pub runs: Vec<Vec<CutRun>>,
    /// Per consumer, per dependency slot: the destination-local vertex
    /// of each cut edge of the matching run, in run order.
    pub in_index: Vec<Vec<Vec<u32>>>,
    /// Per partition: source partitions with cross edges into it,
    /// ascending, self excluded.
    pub in_deps: Vec<Vec<usize>>,
}

impl CutPlan {
    /// The destination-local vertex of each cut edge of `run`, in run
    /// order — where the consumer folds the run's batch.
    pub fn landing(&self, run: &CutRun) -> &[u32] {
        &self.in_index[run.dest as usize][run.slot as usize]
    }

    /// Resolves the cut of `partitions` (built from `parts`), one
    /// `pool` task per producer when a pool is given.
    pub fn build(
        pool: Option<&ThreadPool>,
        partitions: &[Arc<GraphPartition>],
        parts: &Partitioning,
    ) -> Self {
        let k = partitions.len();
        assert_eq!(k, parts.num_parts(), "views/partitioning mismatch");
        let local = local_indices(parts.num_nodes(), partitions.iter().map(|p| &p.nodes[..]));
        // One producer's runs (slot not yet assigned), each with its
        // destination-local index list, ascending by destination.
        let resolve = |part: &Arc<GraphPartition>| {
            let weighted = part.cross.is_weighted();
            let mut run_of = vec![usize::MAX; parts.num_parts()];
            let mut runs: Vec<(CutRun, Vec<u32>)> = Vec::new();
            for &li in &part.local_ids {
                for (t, w) in part.cross.edges(li) {
                    let dest = parts.part_of(t);
                    let known = &mut run_of[dest as usize];
                    if *known == usize::MAX {
                        *known = runs.len();
                        let run = CutRun { dest, slot: 0, src: Vec::new(), weights: Vec::new() };
                        runs.push((run, Vec::new()));
                    }
                    let (run, dst) = &mut runs[*known];
                    run.src.push(li);
                    dst.push(local[t as usize]);
                    if weighted {
                        run.weights.push(w);
                    }
                }
            }
            runs.sort_unstable_by_key(|(run, _)| run.dest);
            runs
        };
        let resolved: Vec<_> = match pool {
            Some(pool) => pool.par_map(partitions, resolve),
            None => partitions.iter().map(resolve).collect(),
        };
        // Producers ascending, so a consumer's slots fill in `in_deps`
        // order.
        let mut in_index: Vec<Vec<Vec<u32>>> = vec![Vec::new(); k];
        let mut in_deps: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut runs = Vec::with_capacity(k);
        for (q, producer) in resolved.into_iter().enumerate() {
            let mut out = Vec::with_capacity(producer.len());
            for (mut run, dst) in producer {
                let dest = run.dest as usize;
                run.slot = index_u32(in_deps[dest].len(), "producers");
                in_deps[dest].push(q);
                in_index[dest].push(dst);
                out.push(run);
            }
            runs.push(out);
        }
        CutPlan { runs, in_index, in_deps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmr_graph::generators;
    use asyncmr_partition::{Partitioner, RangePartitioner};

    #[test]
    fn apply_pairs_reports_a_nan_as_an_infinite_change() {
        let mut x = vec![1.0, 2.0, f64::NAN];
        assert_eq!(apply_pairs(&mut x, vec![(0, 1.5), (1, 1.75)]), 0.5);
        assert_eq!(apply_pairs(&mut x, vec![(0, f64::NAN), (1, 1.75)]), f64::INFINITY);
        assert_eq!(apply_pairs(&mut x, vec![(1, 1.0), (2, 3.0)]), f64::INFINITY, "old NaN");
        assert_eq!(apply_pairs(&mut x, vec![(1, 1.0), (2, 3.0)]), 0.0);
        assert_eq!(x[1..], [1.0, 3.0]);
        assert!(x[0].is_nan());
    }

    #[test]
    fn gap_is_the_plain_absolute_difference_for_finite_values() {
        let xs = [0.0, -0.0, 1e-300, 0.15, 1.0 / 3.0, -7.25, 1e300, f64::MAX, f64::MIN];
        for &a in &xs {
            for &b in &xs {
                assert_eq!(gap(a, b).to_bits(), (a - b).abs().to_bits(), "{a} vs {b}");
            }
        }
        assert_eq!(gap(f64::INFINITY, f64::INFINITY), f64::INFINITY);
        assert_eq!(gap(f64::INFINITY, f64::NEG_INFINITY), f64::INFINITY);
        assert_eq!(gap(f64::NAN, f64::NAN), f64::INFINITY);
        assert_eq!(gap(1.0, f64::NAN), f64::INFINITY);
    }

    /// The targets of every cut edge of `view`, in cross-CSR order.
    fn cut_targets(view: &GraphPartition) -> Vec<NodeId> {
        view.local_ids.iter().flat_map(|&li| view.cross.edges(li)).map(|(t, _)| t).collect()
    }

    #[test]
    fn splits_cycle_into_internal_and_cross() {
        let g = generators::cycle(6); // 0→1→2→3→4→5→0
        let parts = RangePartitioner.partition(&g, 2); // {0,1,2} {3,4,5}
        let views = GraphPartition::build(&g, &parts);
        assert_eq!(views.len(), 2);
        let a = &views[0];
        assert_eq!(a.nodes, vec![0, 1, 2]);
        // 0→1, 1→2 internal; 2→3 cross.
        assert_eq!(a.internal.num_edges(), 2);
        assert_eq!(cut_targets(a), vec![3]);
        let b = &views[1];
        assert_eq!(cut_targets(b), vec![0]);
        // Degrees are global.
        assert!(a.out_degree.iter().all(|&d| d == 1));
    }

    #[test]
    fn internal_edges_use_local_indices() {
        let g = generators::cycle(4);
        let parts = RangePartitioner.partition(&g, 2);
        let views = GraphPartition::build(&g, &parts);
        let a = &views[0]; // nodes 0, 1
        let edges: Vec<_> = a.internal.edges(0).collect();
        assert_eq!(edges, vec![(1, 1.0)]); // 0→1 locally
        assert_eq!(a.internal.degree(1), 0); // 1→2 is cross
        let cross: Vec<_> = a.cross.edges(1).collect();
        assert_eq!(cross, vec![(2, 1.0)]);
    }

    #[test]
    fn weighted_build_aligns_weights() {
        let g = generators::cycle(4);
        let wg = asyncmr_graph::WeightedGraph::new(g, vec![10.0, 20.0, 30.0, 40.0]);
        let parts = RangePartitioner.partition(wg.graph(), 2);
        let views = GraphPartition::build_weighted(&wg, &parts);
        let a = &views[0];
        let internal: Vec<_> = a.internal.edges(0).collect();
        assert_eq!(internal, vec![(1, 10.0)]);
        let cross: Vec<_> = a.cross.edges(1).collect();
        assert_eq!(cross, vec![(2, 20.0)]);
    }

    #[test]
    fn every_edge_appears_exactly_once() {
        let g = generators::preferential_attachment(500, 3, 1, 1, 9);
        let parts = RangePartitioner.partition(&g, 7);
        let views = GraphPartition::build(&g, &parts);
        let total: usize = views.iter().map(|v| v.internal.num_edges() + v.cross.num_edges()).sum();
        assert_eq!(total, g.num_edges());
        let owned: usize = views.iter().map(|v| v.len()).sum();
        assert_eq!(owned, g.num_nodes());
    }

    #[test]
    fn cross_edge_count_matches_partition_cut() {
        let g = generators::preferential_attachment(400, 3, 1, 1, 2);
        let parts = RangePartitioner.partition(&g, 5);
        let views = GraphPartition::build(&g, &parts);
        let cross_total: usize = views.iter().map(|v| v.cross.num_edges()).sum();
        assert_eq!(cross_total, parts.edge_cut(&g));
    }

    #[test]
    fn topology_derives_ring_dependencies_from_cross_targets() {
        let g = generators::cycle(6); // 0→1→2→3→4→5→0
        let parts = RangePartitioner.partition(&g, 3); // {0,1} {2,3} {4,5}
        let views = GraphPartition::build(&g, &parts);
        let plan = CutPlan::build(None, &views, &parts);
        // Directed cycle: partition p receives only from p−1 — its
        // second vertex's one cross edge, into the next part's first.
        assert_eq!(plan.in_deps, vec![vec![2], vec![0], vec![1]]);
        for q in 0..3u32 {
            let run = CutRun { dest: (q + 1) % 3, slot: 0, src: vec![1], weights: vec![] };
            assert_eq!(plan.runs[q as usize], [run]);
        }
        assert_eq!(plan.in_index, vec![vec![vec![0]]; 3]);
    }

    #[test]
    fn topology_full_cut_depends_on_everyone_sending() {
        let g = generators::preferential_attachment(200, 3, 1, 1, 5);
        let parts = RangePartitioner.partition(&g, 4);
        let views = GraphPartition::build(&g, &parts);
        let plan = CutPlan::build(None, &views, &parts);
        for (p, deps) in plan.in_deps.iter().enumerate() {
            assert!(!deps.contains(&p), "self-dependency must be excluded");
            assert!(deps.windows(2).all(|w| w[0] < w[1]), "deps must be ascending");
        }
        // Every cross target's owner really lists the sender.
        for (q, view) in views.iter().enumerate() {
            for t in cut_targets(view) {
                let dest = parts.part_of(t) as usize;
                assert!(plan.in_deps[dest].contains(&q));
            }
        }
    }

    #[test]
    fn built_views_hold_no_growth_slack() {
        let g = generators::preferential_attachment(300, 4, 1, 1, 11);
        let wg = asyncmr_graph::WeightedGraph::random_weights(g.clone(), 1.0, 5.0, 3);
        let parts = RangePartitioner.partition(&g, 5);
        let pool = ThreadPool::new(2);
        let builds = [
            GraphPartition::build(&g, &parts),
            GraphPartition::build_on(&pool, &g, &parts),
            GraphPartition::build_weighted(&wg, &parts),
            GraphPartition::build_weighted_on(&pool, &wg, &parts),
        ];
        // The adjacencies drop theirs in `LocalCsr::new`.
        for view in builds.iter().flatten() {
            let (cap, len) = (view.out_degree.capacity(), view.out_degree.len());
            assert_eq!(cap, len, "partition {}: out degrees capacity vs length", view.part);
        }
    }

    #[test]
    fn empty_partitions_allowed() {
        let g = generators::cycle(3);
        let parts = RangePartitioner.partition(&g, 5);
        let views = GraphPartition::build(&g, &parts);
        assert_eq!(views.len(), 5);
        assert!(views[4].is_empty());
        assert!(views[4].approx_bytes() == 0);
    }
}

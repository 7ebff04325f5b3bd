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
//! The internal adjacency is a [`LocalCsr`], validated once where it is
//! built, so a flat kernel's local pass walks it without a bounds check
//! per edge — the one `unsafe` site of this crate.

use std::sync::Arc;

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
    /// Global ids of owned vertices, ascending.
    pub nodes: Vec<NodeId>,
    /// Local indices `0..nodes.len()` (convenience for `items()`).
    pub local_ids: Vec<u32>,
    /// Out-edges *inside* this partition, over local indices.
    pub internal: LocalCsr,
    /// CSR offsets into `cross_targets`/`cross_weights`.
    pub cross_offsets: Vec<u32>,
    /// Out-neighbors *outside* this partition, as global ids.
    pub cross_targets: Vec<NodeId>,
    /// Weights aligned with `cross_targets`; empty for an unweighted
    /// build (checked by [`CutPlan::build`]).
    pub cross_weights: Vec<f64>,
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
fn local_indices<'a>(n: usize, groups: impl Iterator<Item = &'a [NodeId]>) -> Vec<u32> {
    let mut local = vec![0u32; n];
    for nodes in groups {
        for (li, &v) in nodes.iter().enumerate() {
            local[v as usize] = index_u32(li, "vertices");
        }
    }
    local
}

/// `(target, weight)` over the CSR window `lo..hi`; an unweighted
/// build's empty weight array reads as 1.0 per edge.
fn window<'a>(
    targets: &'a [u32],
    weights: &'a [f64],
    lo: usize,
    hi: usize,
) -> impl Iterator<Item = (u32, f64)> + 'a {
    let mut weights = weights.get(lo..hi).unwrap_or_default().iter();
    targets[lo..hi].iter().map(move |&t| (t, weights.next().copied().unwrap_or(1.0)))
}

/// A CSR adjacency over local vertices `0..vertices` whose targets are
/// local too: one partition's internal edges.
///
/// [`LocalCsr::new`] checks, once, every fact [`LocalCsr::scatter`]'s
/// unchecked indexing rests on; the fields are private, so no later
/// write can break them.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalCsr {
    /// `vertices + 1` offsets into `targets`: from 0, never decreasing,
    /// ending at `targets.len()`.
    offsets: Vec<u32>,
    /// Out-neighbours, each `< vertices`.
    targets: Vec<u32>,
    /// Weights aligned with `targets`; empty for an unweighted build,
    /// where every edge weighs 1.0.
    weights: Vec<f64>,
}

impl LocalCsr {
    /// Validates a CSR over `vertices` local vertices.
    ///
    /// # Panics
    ///
    /// Unless `offsets` has `vertices + 1` entries, starts at 0, never
    /// decreases and ends at `targets.len()`; every target is
    /// `< vertices`; and `weights` is empty or as long as `targets`.
    pub fn new(vertices: usize, offsets: Vec<u32>, targets: Vec<u32>, weights: Vec<f64>) -> Self {
        assert_eq!(offsets.len(), vertices + 1, "local CSR over {vertices} vertices: offsets");
        assert_eq!(offsets[0], 0, "local CSR: first offset");
        if let Some(v) = offsets.windows(2).position(|w| w[0] > w[1]) {
            panic!("local CSR: offsets decrease after vertex {v}");
        }
        assert_eq!(offsets[vertices] as usize, targets.len(), "local CSR: last offset vs targets");
        // A max, not a search: it vectorises, and a session pays it once
        // per partition when it is built.
        let bound = targets.iter().fold(0, |m, &t| m.max(t as usize + 1));
        assert!(bound <= vertices, "local CSR: target {} out of {vertices} vertices", bound - 1);
        assert!(
            weights.is_empty() || weights.len() == targets.len(),
            "local CSR: {} weights for {} edges",
            weights.len(),
            targets.len()
        );
        LocalCsr { offsets, targets, weights }
    }

    /// Number of local vertices.
    pub fn vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-edges of `s` as `(target, weight)`.
    #[inline]
    pub fn edges(&self, s: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.offsets[s as usize] as usize;
        let hi = self.offsets[s as usize + 1] as usize;
        window(&self.targets, &self.weights, lo, hi)
    }

    /// Out-degree of `s`.
    #[inline]
    pub fn degree(&self, s: u32) -> u32 {
        self.offsets[s as usize + 1] - self.offsets[s as usize]
    }

    /// One local pass over every edge, sources ascending and each
    /// source's edges in CSR order — the fold order the flat kernels'
    /// bitwise contracts rest on. `push(s, dst)` says what source `s`
    /// sends this pass (`None` skips it; it may first write `dst`
    /// itself), then `fold(&mut dst[t], sent, w)` lands it on the target
    /// `t` of each of its edges, `w` being the edge weight. Returns the
    /// number of edges walked.
    ///
    /// # Panics
    ///
    /// If `dst.len()` is not [`LocalCsr::vertices`].
    #[inline]
    pub fn scatter(
        &self,
        dst: &mut [f64],
        mut push: impl FnMut(usize, &mut [f64]) -> Option<f64>,
        mut fold: impl FnMut(&mut f64, f64, f64),
    ) -> u64 {
        let n = self.vertices();
        assert_eq!(dst.len(), n, "scatter over {n} local vertices");
        let (offsets, targets, weights) = (&self.offsets[..], &self.targets[..], &self.weights[..]);
        let weighted = !weights.is_empty();
        let mut walked = 0u64;
        for s in 0..n {
            let Some(sent) = push(s, dst) else { continue };
            // SAFETY: `s + 1 <= n` and `new` checked `offsets.len() ==
            // n + 1`; it also checked that the offsets never decrease
            // and end at `targets.len()`, so `lo <= hi <= targets.len()`.
            let (lo, hi) = unsafe {
                (*offsets.get_unchecked(s) as usize, *offsets.get_unchecked(s + 1) as usize)
            };
            walked += (hi - lo) as u64;
            for e in lo..hi {
                // SAFETY: `e < hi <= targets.len()` (above), and `new`
                // checked that a non-empty `weights` is as long as
                // `targets`.
                let (t, w) = unsafe {
                    let w = if weighted { *weights.get_unchecked(e) } else { 1.0 };
                    (*targets.get_unchecked(e) as usize, w)
                };
                // SAFETY: `new` checked every target `< n`, and
                // `dst.len() == n` is asserted on entry (`push` gets a
                // slice, so it cannot change the length).
                fold(unsafe { dst.get_unchecked_mut(t) }, sent, w);
            }
        }
        walked
    }
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
            let mut internal_offsets = Vec::with_capacity(n_local + 1);
            let mut internal_targets = Vec::new();
            let mut internal_weights = Vec::new();
            let mut cross_offsets = Vec::with_capacity(n_local + 1);
            let mut cross_targets = Vec::new();
            let mut cross_weights = Vec::new();
            let mut out_degree = Vec::with_capacity(n_local);
            internal_offsets.push(0);
            cross_offsets.push(0);
            for &v in &nodes {
                let range = g.edge_range(v);
                for (idx, &t) in g.out_neighbors(v).iter().enumerate() {
                    let (targets, ws, id) = if parts.part_of(t) == part {
                        (&mut internal_targets, &mut internal_weights, local[t as usize])
                    } else {
                        (&mut cross_targets, &mut cross_weights, t)
                    };
                    targets.push(id);
                    if let Some(weights) = weights {
                        ws.push(weights[range.start + idx]);
                    }
                }
                internal_offsets.push(index_u32(internal_targets.len(), "internal edges"));
                cross_offsets.push(index_u32(cross_targets.len(), "cross edges"));
                out_degree.push(g.out_degree(v));
            }
            // Exact-size views: the pushes above leave up to half of each
            // edge vector as growth slack, held for the whole solve.
            internal_targets.shrink_to_fit();
            internal_weights.shrink_to_fit();
            cross_targets.shrink_to_fit();
            cross_weights.shrink_to_fit();
            Arc::new(GraphPartition {
                part,
                local_ids: (0..index_u32(n_local, "vertices")).collect(),
                nodes,
                internal: LocalCsr::new(
                    n_local,
                    internal_offsets,
                    internal_targets,
                    internal_weights,
                ),
                cross_offsets,
                cross_targets,
                cross_weights,
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

    /// The keys one local pass of a graph app's `lmap` emits, in
    /// emission order: each owned vertex (its keep-alive), then its
    /// internal out-neighbours in CSR order — the declared
    /// [`LocalAlgorithm::emission_keys`] of Eager PageRank, Jacobi and
    /// Connected Components.
    ///
    /// [`LocalAlgorithm::emission_keys`]: asyncmr_core::LocalAlgorithm::emission_keys
    pub fn emission_keys(&self) -> Vec<NodeId> {
        let mut keys = Vec::with_capacity(self.len() + self.internal.num_edges());
        for &li in &self.local_ids {
            keys.push(self.nodes[li as usize]);
            keys.extend(self.internal_edges(li).map(|(lt, _)| self.nodes[lt as usize]));
        }
        keys
    }

    /// Internal out-edges of local node `li` as `(local_target, weight)`.
    #[inline]
    pub fn internal_edges(&self, li: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.internal.edges(li)
    }

    /// Cross out-edges of local node `li` as `(global_target, weight)`.
    #[inline]
    pub fn cross_edges(&self, li: u32) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let lo = self.cross_offsets[li as usize] as usize;
        let hi = self.cross_offsets[li as usize + 1] as usize;
        window(&self.cross_targets, &self.cross_weights, lo, hi)
    }

    /// Count of internal out-edges of `li`.
    #[inline]
    pub fn internal_degree(&self, li: u32) -> u32 {
        self.internal.degree(li)
    }

    /// Approximate serialized size: the split a Hadoop map would read.
    pub fn approx_bytes(&self) -> u64 {
        // node id + degree + rank per node, id + weight per edge.
        (self.nodes.len() * 16 + (self.internal.num_edges() + self.cross_targets.len()) * 12) as u64
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
            for (t, _) in part.cross_edges(li) {
                sums[t as usize] += c;
            }
        }
    }
    sums
}

/// Writes a job's `(vertex, value)` pairs into the global vector `x`;
/// returns the ∞-norm of the change (the pairs name each vertex once).
pub(crate) fn apply_pairs(x: &mut [f64], pairs: Vec<(NodeId, f64)>) -> f64 {
    let mut diff = 0.0f64;
    for (v, value) in pairs {
        diff = diff.max((value - x[v as usize]).abs());
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
        // `GraphPartition`'s fields are public: a short weight array
        // would otherwise read as unit weights.
        for part in partitions {
            assert!(
                part.cross_weights.is_empty()
                    || part.cross_weights.len() == part.cross_targets.len(),
                "partition {}: {} cross weights for {} cross edges",
                part.part,
                part.cross_weights.len(),
                part.cross_targets.len()
            );
        }
        let local = local_indices(parts.num_nodes(), partitions.iter().map(|p| &p.nodes[..]));
        // One producer's runs (slot not yet assigned), each with its
        // destination-local index list, ascending by destination.
        let resolve = |part: &Arc<GraphPartition>| {
            let weighted = !part.cross_weights.is_empty();
            let mut run_of = vec![usize::MAX; parts.num_parts()];
            let mut runs: Vec<(CutRun, Vec<u32>)> = Vec::new();
            for (li, span) in part.cross_offsets.windows(2).enumerate() {
                for e in span[0] as usize..span[1] as usize {
                    let t = part.cross_targets[e];
                    let dest = parts.part_of(t);
                    let known = &mut run_of[dest as usize];
                    if *known == usize::MAX {
                        *known = runs.len();
                        let run = CutRun { dest, slot: 0, src: Vec::new(), weights: Vec::new() };
                        runs.push((run, Vec::new()));
                    }
                    let (run, dst) = &mut runs[*known];
                    run.src.push(index_u32(li, "vertices"));
                    dst.push(local[t as usize]);
                    if weighted {
                        run.weights.push(part.cross_weights[e]);
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
    fn splits_cycle_into_internal_and_cross() {
        let g = generators::cycle(6); // 0→1→2→3→4→5→0
        let parts = RangePartitioner.partition(&g, 2); // {0,1,2} {3,4,5}
        let views = GraphPartition::build(&g, &parts);
        assert_eq!(views.len(), 2);
        let a = &views[0];
        assert_eq!(a.nodes, vec![0, 1, 2]);
        // 0→1, 1→2 internal; 2→3 cross.
        assert_eq!(a.internal.num_edges(), 2);
        assert_eq!(a.cross_targets, vec![3]);
        let b = &views[1];
        assert_eq!(b.cross_targets, vec![0]);
        // Degrees are global.
        assert!(a.out_degree.iter().all(|&d| d == 1));
    }

    #[test]
    fn internal_edges_use_local_indices() {
        let g = generators::cycle(4);
        let parts = RangePartitioner.partition(&g, 2);
        let views = GraphPartition::build(&g, &parts);
        let a = &views[0]; // nodes 0, 1
        let edges: Vec<_> = a.internal_edges(0).collect();
        assert_eq!(edges, vec![(1, 1.0)]); // 0→1 locally
        assert_eq!(a.internal_degree(1), 0); // 1→2 is cross
        let cross: Vec<_> = a.cross_edges(1).collect();
        assert_eq!(cross, vec![(2, 1.0)]);
    }

    #[test]
    fn weighted_build_aligns_weights() {
        let g = generators::cycle(4);
        let wg = asyncmr_graph::WeightedGraph::new(g, vec![10.0, 20.0, 30.0, 40.0]);
        let parts = RangePartitioner.partition(wg.graph(), 2);
        let views = GraphPartition::build_weighted(&wg, &parts);
        let a = &views[0];
        let internal: Vec<_> = a.internal_edges(0).collect();
        assert_eq!(internal, vec![(1, 10.0)]);
        let cross: Vec<_> = a.cross_edges(1).collect();
        assert_eq!(cross, vec![(2, 20.0)]);
    }

    #[test]
    fn every_edge_appears_exactly_once() {
        let g = generators::preferential_attachment(500, 3, 1, 1, 9);
        let parts = RangePartitioner.partition(&g, 7);
        let views = GraphPartition::build(&g, &parts);
        let total: usize =
            views.iter().map(|v| v.internal.num_edges() + v.cross_targets.len()).sum();
        assert_eq!(total, g.num_edges());
        let owned: usize = views.iter().map(|v| v.len()).sum();
        assert_eq!(owned, g.num_nodes());
    }

    #[test]
    fn cross_edge_count_matches_partition_cut() {
        let g = generators::preferential_attachment(400, 3, 1, 1, 2);
        let parts = RangePartitioner.partition(&g, 5);
        let views = GraphPartition::build(&g, &parts);
        let cross_total: usize = views.iter().map(|v| v.cross_targets.len()).sum();
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
            for &t in &view.cross_targets {
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
        for view in builds.iter().flatten() {
            let exact = |what: &str, cap: usize, len: usize| {
                assert_eq!(cap, len, "partition {}: {what} capacity vs length", view.part);
            };
            let csr = &view.internal;
            exact("internal offsets", csr.offsets.capacity(), csr.offsets.len());
            exact("internal targets", csr.targets.capacity(), csr.targets.len());
            exact("internal weights", csr.weights.capacity(), csr.weights.len());
            exact("cross offsets", view.cross_offsets.capacity(), view.cross_offsets.len());
            exact("cross targets", view.cross_targets.capacity(), view.cross_targets.len());
            exact("cross weights", view.cross_weights.capacity(), view.cross_weights.len());
            exact("out degrees", view.out_degree.capacity(), view.out_degree.len());
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

    // `LocalCsr::scatter` indexes without checks; each of these is a
    // fact its `// SAFETY:` comments cite, so each must be rejected.

    #[test]
    #[should_panic(expected = "local CSR over 2 vertices: offsets")]
    fn local_csr_rejects_an_offset_count_other_than_vertices_plus_one() {
        LocalCsr::new(2, vec![0, 1], vec![1], vec![]);
    }

    #[test]
    #[should_panic(expected = "local CSR: target 2 out of 2 vertices")]
    fn local_csr_rejects_a_target_equal_to_the_vertex_count() {
        LocalCsr::new(2, vec![0, 1, 2], vec![1, 2], vec![]);
    }

    #[test]
    #[should_panic(expected = "local CSR: offsets decrease after vertex 1")]
    fn local_csr_rejects_decreasing_offsets() {
        LocalCsr::new(3, vec![0, 2, 1, 2], vec![0, 1], vec![]);
    }

    #[test]
    #[should_panic(expected = "local CSR: first offset")]
    fn local_csr_rejects_a_nonzero_first_offset() {
        LocalCsr::new(2, vec![1, 1, 2], vec![0, 1], vec![]);
    }

    #[test]
    #[should_panic(expected = "local CSR: last offset vs targets")]
    fn local_csr_rejects_a_last_offset_other_than_the_edge_count() {
        LocalCsr::new(2, vec![0, 1, 1], vec![0, 1], vec![]);
    }

    #[test]
    #[should_panic(expected = "local CSR: 1 weights for 2 edges")]
    fn local_csr_rejects_misaligned_weights() {
        LocalCsr::new(2, vec![0, 1, 2], vec![1, 0], vec![5.0]);
    }

    #[test]
    #[should_panic(expected = "scatter over 2 local vertices")]
    fn scatter_rejects_a_destination_of_another_length() {
        let csr = LocalCsr::new(2, vec![0, 1, 2], vec![1, 0], vec![]);
        csr.scatter(&mut [0.0; 1], |_, _| Some(1.0), |slot, x, _| *slot += x);
    }

    #[test]
    fn scatter_walks_sources_ascending_in_csr_order() {
        // 0→{1, 0, 1}, 1→{2}, 2→{0}; each weight names its edge.
        let (offsets, targets) = (vec![0, 3, 4, 5], vec![1, 0, 1, 2, 0]);
        let csr = LocalCsr::new(3, offsets.clone(), targets.clone(), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let (mut dst, mut seen) = ([0.0; 3], Vec::new());
        let walked = csr.scatter(
            &mut dst,
            |s, dst| {
                dst[s] += 100.0; // before any of `s`'s own edges land
                (s != 1).then_some(s as f64 * 10.0)
            },
            |slot, x, w| {
                seen.push(w);
                *slot += x + w;
            },
        );
        assert_eq!((walked, seen), (4, vec![1.0, 2.0, 3.0, 5.0]), "source 1 skipped");
        assert_eq!(dst, [100.0 + 2.0 + 25.0, 1.0 + 3.0 + 100.0, 100.0]);
        // An unweighted CSR's edges weigh 1.0.
        let csr = LocalCsr::new(3, offsets, targets, vec![]);
        let mut seen = Vec::new();
        let walked = csr.scatter(&mut dst, |_, _| Some(0.0), |_, _, w| seen.push(w));
        assert_eq!((walked, seen), (5, vec![1.0; 5]));
    }

    #[test]
    #[should_panic(expected = "partition 0: 1 cross weights for 2 cross edges")]
    fn cut_plan_rejects_misaligned_cross_weights() {
        let g = generators::cycle(4); // {0, 1} {2, 3}
        let wg = asyncmr_graph::WeightedGraph::new(g, vec![1.0; 4]);
        let parts = RangePartitioner.partition(wg.graph(), 2);
        let mut views = GraphPartition::build_weighted(&wg, &parts);
        let view = Arc::make_mut(&mut views[0]);
        view.cross_targets.push(3);
        view.cross_offsets[2] += 1;
        CutPlan::build(None, &views, &parts);
    }
}

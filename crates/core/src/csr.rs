//! One partition's adjacency, validated once and walked row by row.
//!
//! A [`LocalCsr`] lists the out-edges of sources `0..sources` in CSR
//! form, every target below a bound fixed at construction: a graph
//! partition's internal edges (targets are its own vertices, the bound
//! its vertex count) and its cross edges (targets are global vertex
//! ids, the bound the graph's node count) are the same type. The
//! constructor checks every fact the row walk's unchecked indexing
//! rests on, and the fields are private, so no later write can break
//! them. That row walk is this module's one `unsafe` site; a local
//! pass reaches it through [`LocalCsr::scatter`], which the flat
//! session kernels, General PageRank's mapper and an Eager `lmap`
//! (through [`crate::LocalMapContext::scatter`]) all call.

/// A CSR adjacency over sources `0..sources` whose targets lie below
/// [`LocalCsr::bound`].
#[derive(Debug, Clone, PartialEq)]
pub struct LocalCsr {
    /// `sources + 1` offsets into `targets`: from 0, never decreasing,
    /// ending at `targets.len()`.
    offsets: Vec<u32>,
    /// Out-neighbours, each `< bound`.
    targets: Vec<u32>,
    /// Weights aligned with `targets`; empty for an unweighted build,
    /// where every edge weighs 1.0.
    weights: Vec<f64>,
    /// Every target is below it.
    bound: usize,
}

impl LocalCsr {
    /// Validates a CSR over `sources` sources whose targets lie below
    /// `bound`, and drops the vectors' growth slack: a partition holds
    /// its adjacency for a whole solve.
    ///
    /// # Panics
    ///
    /// Unless `offsets` has `sources + 1` entries, starts at 0, never
    /// decreases and ends at `targets.len()`; every target is
    /// `< bound`; and `weights` is empty or as long as `targets`.
    pub fn new(
        sources: usize,
        bound: usize,
        mut offsets: Vec<u32>,
        mut targets: Vec<u32>,
        mut weights: Vec<f64>,
    ) -> Self {
        assert_eq!(offsets.len(), sources + 1, "local CSR over {sources} vertices: offsets");
        assert_eq!(offsets[0], 0, "local CSR: first offset");
        if let Some(v) = offsets.windows(2).position(|w| w[0] > w[1]) {
            panic!("local CSR: offsets decrease after vertex {v}");
        }
        assert_eq!(offsets[sources] as usize, targets.len(), "local CSR: last offset vs targets");
        // A max, not a search: it vectorises, and a session pays it once
        // per partition when it is built.
        let reach = targets.iter().fold(0, |m, &t| m.max(t as usize + 1));
        assert!(reach <= bound, "local CSR: target {} out of {bound} vertices", reach - 1);
        assert!(
            weights.is_empty() || weights.len() == targets.len(),
            "local CSR: {} weights for {} edges",
            weights.len(),
            targets.len()
        );
        offsets.shrink_to_fit();
        targets.shrink_to_fit();
        weights.shrink_to_fit();
        LocalCsr { offsets, targets, weights, bound }
    }

    /// Number of sources.
    pub fn sources(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The bound every target lies below.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Whether the edges carry weights (an unweighted CSR's weigh 1.0).
    pub fn is_weighted(&self) -> bool {
        !self.weights.is_empty()
    }

    /// The edge positions `lo..hi` of source `s`.
    #[inline]
    fn row(&self, s: usize) -> (usize, usize) {
        (self.offsets[s] as usize, self.offsets[s + 1] as usize)
    }

    /// Out-edges of `s` as `(target, weight)`, in CSR order.
    #[inline]
    pub fn edges(&self, s: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (lo, hi) = self.row(s as usize);
        let mut weights = self.weights.get(lo..hi).unwrap_or_default().iter();
        self.targets[lo..hi].iter().map(move |&t| (t, weights.next().copied().unwrap_or(1.0)))
    }

    /// Out-degree of `s`.
    #[inline]
    pub fn degree(&self, s: u32) -> u32 {
        let (lo, hi) = self.row(s as usize);
        (hi - lo) as u32
    }

    /// Walks row `s`: `fold(&mut dst[t], w)` for each of its edges
    /// `(t, w)`, in CSR order, with no bounds check per edge. Returns
    /// the row's degree.
    ///
    /// # Panics
    ///
    /// If `s` is not a source, or `dst` is shorter than
    /// [`LocalCsr::bound`].
    #[inline]
    fn fold_row<T>(&self, s: usize, dst: &mut [T], mut fold: impl FnMut(&mut T, f64)) -> u64 {
        let (sources, n) = (self.sources(), dst.len());
        assert!(s < sources, "row {s} of a CSR over {sources} sources");
        assert!(n >= self.bound, "a row walk over {n} slots of a CSR bound by {}", self.bound);
        let (offsets, targets, weights) = (&self.offsets[..], &self.targets[..], &self.weights[..]);
        let weighted = !weights.is_empty();
        // SAFETY: `s < sources` (asserted above) and `new` checked
        // `offsets.len() == sources + 1`; it also checked that the
        // offsets never decrease and end at `targets.len()`, so `lo <= hi
        // <= targets.len()`.
        let (lo, hi) = unsafe { (*offsets.get_unchecked(s), *offsets.get_unchecked(s + 1)) };
        for e in lo as usize..hi as usize {
            // SAFETY: `e < hi <= targets.len()` (above), and `new` checked
            // that a non-empty `weights` is as long as `targets`.
            let (t, w) = unsafe {
                let w = if weighted { *weights.get_unchecked(e) } else { 1.0 };
                (*targets.get_unchecked(e) as usize, w)
            };
            // SAFETY: `new` checked every target `< bound`, and `bound <=
            // dst.len()` is asserted above.
            fold(unsafe { dst.get_unchecked_mut(t) }, w);
        }
        u64::from(hi - lo)
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
    /// If `dst.len()` is not [`LocalCsr::sources`], or a target may lie
    /// past it.
    #[inline]
    pub fn scatter<T, S: Copy>(
        &self,
        dst: &mut [T],
        mut push: impl FnMut(usize, &mut [T]) -> Option<S>,
        mut fold: impl FnMut(&mut T, S, f64),
    ) -> u64 {
        let n = self.sources();
        assert_eq!(dst.len(), n, "scatter over {n} local vertices");
        let mut walked = 0u64;
        for s in 0..n {
            let Some(sent) = push(s, dst) else { continue };
            walked += self.fold_row(s, dst, |slot, w| fold(slot, sent, w));
        }
        walked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `LocalCsr::fold_row` indexes without checks; each of these is a
    // fact its `// SAFETY:` comment cites, so each must be rejected.

    #[test]
    #[should_panic(expected = "local CSR over 2 vertices: offsets")]
    fn local_csr_rejects_an_offset_count_other_than_vertices_plus_one() {
        LocalCsr::new(2, 2, vec![0, 1], vec![1], vec![]);
    }

    #[test]
    #[should_panic(expected = "local CSR: target 2 out of 2 vertices")]
    fn local_csr_rejects_a_target_equal_to_the_vertex_count() {
        LocalCsr::new(2, 2, vec![0, 1, 2], vec![1, 2], vec![]);
    }

    #[test]
    #[should_panic(expected = "local CSR: offsets decrease after vertex 1")]
    fn local_csr_rejects_decreasing_offsets() {
        LocalCsr::new(3, 3, vec![0, 2, 1, 2], vec![0, 1], vec![]);
    }

    #[test]
    #[should_panic(expected = "local CSR: first offset")]
    fn local_csr_rejects_a_nonzero_first_offset() {
        LocalCsr::new(2, 2, vec![1, 1, 2], vec![0, 1], vec![]);
    }

    #[test]
    #[should_panic(expected = "local CSR: last offset vs targets")]
    fn local_csr_rejects_a_last_offset_other_than_the_edge_count() {
        LocalCsr::new(2, 2, vec![0, 1, 1], vec![0, 1], vec![]);
    }

    #[test]
    #[should_panic(expected = "local CSR: 1 weights for 2 edges")]
    fn local_csr_rejects_misaligned_weights() {
        LocalCsr::new(2, 2, vec![0, 1, 2], vec![1, 0], vec![5.0]);
    }

    #[test]
    #[should_panic(expected = "scatter over 2 local vertices")]
    fn scatter_rejects_a_destination_of_another_length() {
        let csr = LocalCsr::new(2, 2, vec![0, 1, 2], vec![1, 0], vec![]);
        csr.scatter(&mut [0.0; 1], |_, _| Some(1.0), |slot, x, _| *slot += x);
    }

    #[test]
    fn scatter_walks_sources_ascending_in_csr_order() {
        // 0→{1, 0, 1}, 1→{2}, 2→{0}; each weight names its edge.
        let (offsets, targets) = (vec![0, 3, 4, 5], vec![1, 0, 1, 2, 0]);
        let weights = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let csr = LocalCsr::new(3, 3, offsets.clone(), targets.clone(), weights);
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
        let csr = LocalCsr::new(3, 3, offsets, targets, vec![]);
        let mut seen = Vec::new();
        let walked = csr.scatter(&mut dst, |_, _| Some(0.0), |_, _, w| seen.push(w));
        assert_eq!((walked, seen), (5, vec![1.0; 5]));
    }

    #[test]
    fn a_bound_past_the_sources_holds_cross_edges() {
        // Two sources whose targets are ids of a 10-vertex graph: 0→{9,
        // 4}, 1 a sink.
        let csr = LocalCsr::new(2, 10, vec![0, 2, 2], vec![9, 4], vec![0.5, 2.0]);
        assert_eq!((csr.sources(), csr.bound(), csr.num_edges()), (2, 10, 2));
        assert!(csr.is_weighted());
        assert_eq!(csr.edges(0).collect::<Vec<_>>(), [(9, 0.5), (4, 2.0)]);
        assert_eq!((csr.degree(0), csr.degree(1), csr.edges(1).count()), (2, 0, 0));
        let mut dst = [0.0; 10];
        assert_eq!(csr.fold_row(0, &mut dst, |slot, w| *slot += w), 2);
        assert_eq!((dst[9], dst[4]), (0.5, 2.0));
        assert_eq!(csr.fold_row(1, &mut dst, |_, _| unreachable!("a sink has no edge")), 0);
    }

    #[test]
    #[should_panic(expected = "row 2 of a CSR over 2 sources")]
    fn a_row_walk_refuses_a_row_past_the_sources() {
        let csr = LocalCsr::new(2, 2, vec![0, 1, 2], vec![1, 0], vec![]);
        csr.fold_row(2, &mut [0.0; 2], |slot, w| *slot += w);
    }

    #[test]
    #[should_panic(expected = "a row walk over 9 slots of a CSR bound by 10")]
    fn a_row_walk_refuses_a_destination_below_the_bound() {
        let csr = LocalCsr::new(1, 10, vec![0, 1], vec![3], vec![]);
        csr.fold_row(0, &mut [0.0; 9], |slot, w| *slot += w);
    }

    #[test]
    fn the_constructor_leaves_no_growth_slack() {
        // Pushed, as a partition build pushes them: 0→{}, 1→{0},
        // 2→{0, 1}, ….
        for weighted in [true, false] {
            let mut offsets = Vec::with_capacity(64);
            let (mut targets, mut weights) = (Vec::with_capacity(64), Vec::with_capacity(64));
            offsets.push(0);
            for s in 0..5u32 {
                for t in 0..s {
                    targets.push(t);
                    if weighted {
                        weights.push(f64::from(s + t));
                    }
                }
                offsets.push(targets.len() as u32);
            }
            let csr = LocalCsr::new(5, 5, offsets, targets, weights);
            let exact = |what: &str, cap: usize, len: usize| {
                assert_eq!(cap, len, "{what} capacity vs length (weighted: {weighted})");
            };
            exact("offsets", csr.offsets.capacity(), csr.offsets.len());
            exact("targets", csr.targets.capacity(), csr.targets.len());
            exact("weights", csr.weights.capacity(), csr.weights.len());
        }
    }
}

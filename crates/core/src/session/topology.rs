//! The session's immutable dependency topology.
//!
//! **Invariant:** `consumers` is the exact inverse of `deps`, and every
//! consumer entry carries the producer's *slot* — its index in that
//! consumer's ascending `deps` list, which is also its index in the
//! consumer's mailbox. Delivery, revocation and the contamination
//! closure therefore never search: they read the slot.
//!
//! Built once per run from [`AsyncIterative::dependencies`] and only
//! ever borrowed shared afterwards, so walking a partition's consumers
//! while mutating scheduler state needs no take/restore.

use super::{AsyncIterative, Dependence};

/// Who consumes whom (see the [module docs](self)).
#[derive(Debug)]
pub(crate) struct Topology {
    /// Per partition: declared dependency sources, ascending, self
    /// excluded.
    deps: Vec<Vec<usize>>,
    /// Per partition: `(consumer, slot)` for every partition that
    /// declared it as a dependency, ascending by consumer — the
    /// destinations every gmap must deliver to (empty batches
    /// included).
    consumers: Vec<Vec<(usize, usize)>>,
}

impl Topology {
    /// The topology `algo` declares ([`Dependence::Full`] expands to
    /// every other partition).
    pub(crate) fn of<A: AsyncIterative>(algo: &A) -> Self {
        let k = algo.partitions();
        let declared = |p| match algo.dependencies(p) {
            Dependence::Full => (0..k).collect(),
            Dependence::Sparse(v) => v,
        };
        Self::from_deps((0..k).map(declared).collect())
    }

    /// Normalises raw per-partition dependency lists (drops self,
    /// sorts, dedups, range-checks) and inverts them.
    pub(crate) fn from_deps(mut deps: Vec<Vec<usize>>) -> Self {
        let k = deps.len();
        let mut consumers = vec![Vec::new(); k];
        for (p, ds) in deps.iter_mut().enumerate() {
            ds.retain(|&q| q != p);
            ds.sort_unstable();
            ds.dedup();
            assert!(ds.iter().all(|&q| q < k), "dependency out of range");
            for (slot, &q) in ds.iter().enumerate() {
                consumers[q].push((p, slot)); // ascending p by construction
            }
        }
        Topology { deps, consumers }
    }

    /// Number of partitions.
    pub(crate) fn partitions(&self) -> usize {
        self.deps.len()
    }

    /// Partition `p`'s dependency sources, ascending (slot order).
    pub(crate) fn deps(&self, p: usize) -> &[usize] {
        &self.deps[p]
    }

    /// `(consumer, slot of p in that consumer's mailbox)` for every
    /// consumer of `p`, ascending by consumer.
    pub(crate) fn consumers(&self, p: usize) -> &[(usize, usize)] {
        &self.consumers[p]
    }

    /// [`Topology::consumers`] of every partition, indexed by producer.
    pub(crate) fn consumers_table(&self) -> &[Vec<(usize, usize)>] {
        &self.consumers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumers_invert_deps_and_carry_the_mailbox_slot() {
        // Raw lists: unsorted, duplicated, self-referencing.
        let topo = Topology::from_deps(vec![vec![2, 1, 2, 0], vec![3], vec![], vec![1, 0]]);
        assert_eq!(topo.deps(0), &[1, 2]);
        assert_eq!(topo.deps(3), &[0, 1]);
        for p in 0..topo.partitions() {
            for &(consumer, slot) in topo.consumers(p) {
                assert_eq!(topo.deps(consumer)[slot], p, "slot must index the consumer's deps");
            }
            let inverse: Vec<usize> =
                (0..topo.partitions()).filter(|&q| topo.deps(q).contains(&p)).collect();
            let listed: Vec<usize> = topo.consumers(p).iter().map(|&(q, _)| q).collect();
            assert_eq!(listed, inverse, "consumers of {p}");
        }
    }
}

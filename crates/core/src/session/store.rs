//! What a session holds: per-partition state history and mailboxes, and
//! the byte ledger over them.
//!
//! **Invariant:** `held()` equals, at every method boundary, the summed
//! [`AsyncIterative::state_bytes`](super::AsyncIterative::state_bytes)
//! of every retained state plus the allocated capacity of every batch
//! in every mailbox; `peak()` is its high-water mark. No code outside
//! this module can move a state or a batch, so none can break the
//! ledger — which is what
//! [`SessionReport::peak_state_bytes`](super::SessionReport::peak_state_bytes)
//! rests on.
//!
//! Batches are moved, never pooled: delivery takes each staged batch
//! out of its outbox into a mailbox, and a batch that is pruned,
//! replaced or revoked is dropped — so what the ledger counts is what
//! the heap holds. All traffic is on the scheduler thread; no locks.
//!
//! The absorb computation for partition `p` reads only `p`'s own slot
//! (its state and its mailbox) plus the shared [`Topology`]; delivery
//! and revocation are the only cross-partition writes.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use super::topology::Topology;
use super::Outbox;

/// One partition's retained states and undelivered-to-absorb batches.
#[derive(Debug)]
struct Slot<S, M> {
    /// `(state, state_bytes)` for iterations `[base ..]`, never empty.
    history: VecDeque<(Arc<S>, u64)>,
    base: usize,
    /// Per dependency slot: source iteration → message batch.
    mailbox: Vec<BTreeMap<usize, Vec<M>>>,
}

/// Bytes a mailbox batch holds: its allocation, not its length.
fn batch_bytes<M>(batch: &Vec<M>) -> u64 {
    (batch.capacity() * std::mem::size_of::<M>()) as u64
}

/// Histories, mailboxes and the ledger of one session run (see the
/// [module docs](self)).
#[derive(Debug)]
pub(crate) struct Store<S, M> {
    slots: Vec<Slot<S, M>>,
    held_state_bytes: u64,
    held_batch_bytes: u64,
    peak: u64,
    /// The most states one partition has retained at once.
    max_retained: usize,
}

impl<S, M> Store<S, M> {
    /// A store holding each partition's initial state (`init(p)` returns
    /// it with its `state_bytes`) and empty mailboxes shaped by `topo`.
    pub(crate) fn new(topo: &Topology, mut init: impl FnMut(usize) -> (S, u64)) -> Self {
        let mut held_state_bytes = 0;
        let slots = (0..topo.partitions())
            .map(|p| {
                let (state, bytes) = init(p);
                held_state_bytes += bytes;
                Slot {
                    history: VecDeque::from([(Arc::new(state), bytes)]),
                    base: 0,
                    mailbox: topo.deps(p).iter().map(|_| BTreeMap::new()).collect(),
                }
            })
            .collect();
        Store {
            slots,
            held_state_bytes,
            held_batch_bytes: 0,
            peak: held_state_bytes,
            max_retained: usize::from(topo.partitions() > 0),
        }
    }

    /// Bytes currently held: state history plus mailbox batches.
    pub(crate) fn held(&self) -> u64 {
        self.held_state_bytes + self.held_batch_bytes
    }

    /// High-water mark of [`Store::held`].
    pub(crate) fn peak(&self) -> u64 {
        self.peak
    }

    /// High-water mark of one partition's retained states (commits are
    /// the only place a history grows).
    pub(crate) fn max_retained(&self) -> usize {
        self.max_retained
    }

    fn note_peak(&mut self) {
        self.peak = self.peak.max(self.held());
    }

    /// Partition `p`'s state entering `iter` (must be retained).
    pub(crate) fn state(&self, p: usize, iter: usize) -> &Arc<S> {
        let slot = &self.slots[p];
        &slot.history[iter - slot.base].0
    }

    /// Summed `state_bytes` of every partition's state entering `iter`
    /// — what a checkpoint at `iter` would write.
    pub(crate) fn snapshot_bytes(&self, iter: usize) -> u64 {
        self.slots.iter().map(|slot| slot.history[iter - slot.base].1).sum()
    }

    /// Delivers `p`'s iteration-`iter` outbox: one batch to every
    /// declared consumer — empty if the gmap emitted nothing for it —
    /// so consumers never wait on a message that will never come. A
    /// rollback re-delivery replaces the surviving batch of identical
    /// content.
    pub(crate) fn deliver(
        &mut self,
        topo: &Topology,
        p: usize,
        iter: usize,
        mut outbox: Outbox<M>,
    ) {
        for &(dest, slot) in topo.consumers(p) {
            let msgs = std::mem::take(&mut outbox.per_dest[dest]);
            self.held_batch_bytes += batch_bytes(&msgs);
            if let Some(old) = self.slots[dest].mailbox[slot].insert(iter, msgs) {
                self.held_batch_bytes -= batch_bytes(&old);
            }
        }
        self.note_peak();
        // Hard assert (touched slots are few, this is once per gmap):
        // silently dropping a batch for an undeclared consumer would
        // converge to a *wrong* fixed point, not fail. Declared slots
        // were just taken, so any survivor is undeclared.
        for &t in &outbox.touched {
            assert!(
                outbox.per_dest[t as usize].is_empty(),
                "gmap of partition {p} emitted to a partition that does not declare it as a \
                 dependency"
            );
        }
    }

    /// Per dependency slot of `p`: the freshest delivered source
    /// iteration `≤ iter`, or `None` if nothing that old has arrived.
    pub(crate) fn freshest(
        &self,
        p: usize,
        iter: usize,
    ) -> impl Iterator<Item = Option<usize>> + '_ {
        self.slots[p]
            .mailbox
            .iter()
            .map(move |mb| mb.range(..=iter).next_back().map(|(&key, _)| key))
    }

    /// The absorb inbox of `p`: per dependency (ascending source
    /// order), the batch of the `selected` source iteration.
    pub(crate) fn inbox<'a>(
        &'a self,
        p: usize,
        deps: &[usize],
        selected: &[usize],
    ) -> Vec<(usize, &'a [M])> {
        let mailbox = &self.slots[p].mailbox;
        deps.iter()
            .zip(mailbox.iter().zip(selected))
            .map(|(&q, (mb, sel))| (q, mb[sel].as_slice()))
            .collect()
    }

    /// Commits `p`'s absorb: retains the new state and prunes `p`'s
    /// mailbox batches older than `keep_from`.
    pub(crate) fn commit(&mut self, p: usize, state: S, bytes: u64, keep_from: usize) {
        let slot = &mut self.slots[p];
        slot.history.push_back((Arc::new(state), bytes));
        self.max_retained = self.max_retained.max(slot.history.len());
        for mb in &mut slot.mailbox {
            while mb.first_key_value().is_some_and(|(&key, _)| key < keep_from) {
                self.held_batch_bytes -= batch_bytes(&mb.pop_first().expect("checked non-empty").1);
            }
        }
        self.held_state_bytes += bytes;
        self.note_peak();
    }

    /// Drops `p`'s retained states outside iterations `[lo, hi]`
    /// (always keeping the newest when pruning from the front).
    fn retain_states(&mut self, p: usize, lo: usize, hi: usize) {
        let Slot { history, base, .. } = &mut self.slots[p];
        while *base < lo && history.len() > 1 {
            self.held_state_bytes -= history.pop_front().expect("len > 1").1;
            *base += 1;
        }
        while *base + history.len() - 1 > hi {
            self.held_state_bytes -= history.pop_back().expect("checked non-empty").1;
        }
    }

    /// Drops every partition's states below iteration `floor` (always
    /// keeping the newest).
    pub(crate) fn prune_states(&mut self, floor: usize) {
        for p in 0..self.slots.len() {
            self.retain_states(p, floor, usize::MAX);
        }
    }

    /// Rewinds `p` to checkpoint `c`: revokes its delivered batches with
    /// source iteration `≥ c` from every consumer (the dead node's
    /// stored outputs are gone; a rewound survivor re-delivers identical
    /// ones anyway) and drops its states past the one entering `c`.
    pub(crate) fn rewind(&mut self, topo: &Topology, p: usize, c: usize) {
        for &(dest, slot) in topo.consumers(p) {
            let mb = &mut self.slots[dest].mailbox[slot];
            while mb.last_key_value().is_some_and(|(&key, _)| key >= c) {
                self.held_batch_bytes -= batch_bytes(&mb.pop_last().expect("checked non-empty").1);
            }
        }
        debug_assert!(self.slots[p].base <= c, "retention keeps the checkpoint state");
        self.retain_states(p, 0, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<S, M> Store<S, M> {
        /// The ledger recomputed from scratch, batches by capacity.
        fn recomputed(&self) -> u64 {
            let states: u64 = self.slots.iter().flat_map(|s| &s.history).map(|(_, b)| b).sum();
            let slots: usize = self
                .slots
                .iter()
                .flat_map(|s| &s.mailbox)
                .flat_map(|mb| mb.values())
                .map(Vec::capacity)
                .sum();
            states + (slots * std::mem::size_of::<M>()) as u64
        }
    }

    /// Partition p's state is `p` and "weighs" `10 + p` bytes.
    fn chain_store() -> (Topology, Store<usize, u32>) {
        // 0 → 1 → 2, plus 0 → 2.
        let topo = Topology::from_deps(vec![vec![], vec![0], vec![0, 1]]);
        let store = Store::new(&topo, |p| (p, 10 + p as u64));
        (topo, store)
    }

    /// `p` delivers `n` pushed messages to each of its consumers.
    fn deliver(store: &mut Store<usize, u32>, topo: &Topology, p: usize, iter: usize, n: u32) {
        let mut outbox = Outbox::new(topo.partitions());
        for &(dest, _) in topo.consumers(p) {
            for m in 0..n {
                outbox.push(dest, m);
            }
        }
        store.deliver(topo, p, iter, outbox);
    }

    /// Bytes a batch of `n` pushed messages holds: its capacity.
    fn pushed(n: u32) -> u64 {
        let mut batch: Vec<u32> = Vec::new();
        (0..n).for_each(|m| batch.push(m));
        (batch.capacity() * 4) as u64
    }

    #[test]
    fn held_bytes_track_every_insert_replace_prune_and_revoke() {
        let (topo, mut store) = chain_store();
        let initial = 10 + 11 + 12;
        assert_eq!((store.held(), store.peak()), (initial, initial));

        // Inserts: 0 delivers 3 msgs to each of {1, 2}; 1 delivers 2 to {2}.
        for (p, iter, n) in [(0, 0, 3), (1, 0, 2), (0, 1, 3), (1, 1, 0)] {
            deliver(&mut store, &topo, p, iter, n);
            assert_eq!(store.held(), store.recomputed(), "after deliver({p}, {iter})");
        }
        assert_eq!(store.held(), initial + 4 * pushed(3) + pushed(2));
        assert_eq!(store.freshest(2, 5).collect::<Vec<_>>(), [Some(1), Some(1)]);
        assert_eq!(store.inbox(2, topo.deps(2), &[0, 0]), [(0, &[0, 1, 2][..]), (1, &[0, 1][..])]);

        // A rollback re-delivery replaces the surviving batch in place.
        let before = store.held();
        deliver(&mut store, &topo, 0, 1, 3);
        assert_eq!(store.held(), before, "replacement is byte-neutral");
        assert_eq!(store.held(), store.recomputed());

        // Commit an absorb of partition 2 (state +7 bytes), pruning its
        // iteration-0 batches (3 from source 0, 2 from source 1).
        store.commit(2, 99, 7, 1);
        assert_eq!(store.held(), before + 7 - pushed(3) - pushed(2));
        assert_eq!(store.held(), store.recomputed());
        assert_eq!(**store.state(2, 1), 99);
        assert_eq!(store.snapshot_bytes(0), initial);
        let peak = store.peak();
        assert!(peak >= before, "peak is a high-water mark");

        // Revoke: rewinding producer 0 to checkpoint 1 pulls its
        // iteration-1 batches out of both consumers.
        store.rewind(&topo, 0, 1);
        assert_eq!(store.held(), before + 7 - 3 * pushed(3) - pushed(2));
        assert_eq!(store.held(), store.recomputed());
        assert_eq!(store.freshest(2, 5).collect::<Vec<_>>(), [None, Some(1)]);

        // Empty it: rewinding every partition to 0 revokes every batch
        // and drops every state but the initial ones.
        for p in 0..3 {
            store.rewind(&topo, p, 0);
        }
        assert_eq!(store.held_batch_bytes, 0, "every mailbox is empty again");
        assert_eq!(store.held(), initial, "one state per partition, back at the initial bytes");
        assert_eq!(store.held(), store.recomputed());
        assert_eq!(store.peak(), peak, "the peak never comes down");

        // Frontier pruning drops states below the floor but always
        // keeps a partition's newest.
        store.commit(2, 99, 7, 0);
        store.prune_states(1);
        assert_eq!(store.held(), initial + 7 - 12);
        assert_eq!(store.held(), store.recomputed());
    }

    #[test]
    fn a_pushed_batch_is_metered_by_its_capacity_not_its_length() {
        let (topo, mut store) = chain_store();
        deliver(&mut store, &topo, 1, 0, 5);
        let batch = &store.slots[2].mailbox[1][&0];
        assert!(batch.capacity() > batch.len(), "five pushes leave growth slack");
        assert_eq!(store.held(), 10 + 11 + 12 + (batch.capacity() * 4) as u64);
        assert_eq!(store.held(), store.recomputed());
    }

    #[test]
    fn a_small_batch_after_a_large_one_gets_its_own_capacity() {
        let (topo, mut store) = chain_store();
        deliver(&mut store, &topo, 1, 0, 1_000);
        // Partition 2 absorbs iteration 0, dropping the large batch.
        store.commit(2, 2, 12, 1);
        deliver(&mut store, &topo, 1, 1, 1);
        assert!(!store.slots[2].mailbox[1].contains_key(&0), "the large batch was pruned");
        let small = &store.slots[2].mailbox[1][&1];
        assert_eq!(((small.capacity() * 4) as u64, small.as_slice()), (pushed(1), &[0][..]));
        assert_eq!(store.held(), 10 + 11 + 2 * 12 + pushed(1));
        assert_eq!(store.held(), store.recomputed());
        assert!(store.peak() >= 10 + 11 + 12 + pushed(1_000), "the large batch set the peak");
    }

    #[test]
    fn max_retained_is_one_partition_s_longest_history() {
        let (topo, mut store) = chain_store();
        assert_eq!(store.max_retained(), 1, "the initial states");
        for iter in 0..3 {
            store.commit(0, 0, 10, iter + 1);
        }
        store.commit(1, 1, 11, 1);
        assert_eq!(store.max_retained(), 4, "partition 0 holds iterations 0..=3");
        // Pruning and rewinding shrink histories, never the maximum.
        store.rewind(&topo, 1, 0);
        store.prune_states(3);
        assert_eq!(store.max_retained(), 4);
        store.commit(0, 0, 10, 5);
        assert_eq!(store.max_retained(), 4, "partition 0 holds iterations 3..=4");
        let empty = Store::<usize, u32>::new(&Topology::from_deps(Vec::new()), |p| (p, 0));
        assert_eq!(empty.max_retained(), 0);
    }

    #[test]
    fn a_checkpoint_floor_never_holds_less_than_frontier_pruning() {
        // One schedule, two retention policies: `frontier` prunes states
        // at every frontier advance, `ckpt` at the last every-2
        // checkpoint — what `Recovery::state_floor` hands the session
        // with checkpoints off and on.
        let (topo, mut frontier) = chain_store();
        let (_, mut ckpt) = chain_store();
        let per_iteration = 10 + 11 + 12;
        for iter in 0..6 {
            for p in 0..3 {
                deliver(&mut frontier, &topo, p, iter, 2);
                deliver(&mut ckpt, &topo, p, iter, 2);
                assert!(ckpt.held() >= frontier.held(), "after deliver({p}, {iter})");
            }
            for p in 0..3 {
                frontier.commit(p, p, 10 + p as u64, iter + 1);
                ckpt.commit(p, p, 10 + p as u64, iter + 1);
                assert!(ckpt.held() >= frontier.held(), "after commit({p}, {iter})");
            }
            let advanced = iter + 1;
            let checkpoint = advanced - advanced % 2;
            frontier.prune_states(advanced);
            ckpt.prune_states(checkpoint);
            assert_eq!(
                ckpt.held() - frontier.held(),
                ((advanced - checkpoint) * per_iteration) as u64,
                "the retained tail back to checkpoint {checkpoint} is the whole difference"
            );
            assert!(ckpt.peak() >= frontier.peak());
        }
        assert_eq!((frontier.held(), ckpt.held()), (frontier.recomputed(), ckpt.recomputed()));
    }
}

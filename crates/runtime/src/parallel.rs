//! Order-preserving data-parallel helpers built on [`ThreadPool::scope`].
//!
//! These are the primitives the MapReduce engine and the applications
//! use for intra-task parallelism (the paper's "local map and local
//! reduce operations can use a thread-pool to extract further
//! parallelism", §IV).

use crate::pool::ThreadPool;

impl ThreadPool {
    /// Chunk size targeting ~4 chunks per worker, so stealing can smooth
    /// moderate load imbalance without drowning in per-task overhead.
    fn chunk_size(&self, n: usize) -> usize {
        let target_chunks = self.num_threads() * 4;
        n.div_ceil(target_chunks).max(1)
    }

    /// Applies `f` to every element, returning results *in input order*.
    ///
    /// ```
    /// use asyncmr_runtime::ThreadPool;
    /// let pool = ThreadPool::new(4);
    /// let v = pool.par_map(&[3u32, 1, 2], |x| x + 10);
    /// assert_eq!(v, vec![13, 11, 12]);
    /// ```
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_indexed(items, |_, item| f(item))
    }

    /// Like [`ThreadPool::par_map`] but the closure also receives the
    /// element's index.
    pub fn par_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let chunk = self.chunk_size(n);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let f = &f;
        self.scope(|s| {
            for (ci, (in_chunk, out_chunk)) in
                items.chunks(chunk).zip(out.chunks_mut(chunk)).enumerate()
            {
                let base = ci * chunk;
                s.spawn(move || {
                    for (j, (item, slot)) in in_chunk.iter().zip(out_chunk.iter_mut()).enumerate() {
                        *slot = Some(f(base + j, item));
                    }
                });
            }
        });
        // Every slot was filled: scope blocks until all chunks ran.
        out.into_iter().map(|slot| slot.expect("scope completed; all slots filled")).collect()
    }

    /// Like [`ThreadPool::par_map_indexed`], but each invocation takes
    /// its element **by value** — the primitive behind the MapReduce
    /// engine's reduce barrier, where every reduce task
    /// must consume (not clone) its routed buckets.
    ///
    /// Results are returned in input order.
    ///
    /// ```
    /// use asyncmr_runtime::ThreadPool;
    /// let pool = ThreadPool::new(4);
    /// let buffers: Vec<Vec<u32>> = (0..8).map(|i| vec![i; 4]).collect();
    /// let sums = pool.par_map_vec(buffers, |i, buf| (i, buf.into_iter().sum::<u32>()));
    /// assert_eq!(sums[3], (3, 12));
    /// ```
    pub fn par_map_vec<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let chunk = self.chunk_size(n);
        // Slots let each chunk move its elements out while the spawning
        // frame retains the backing allocation for the scope's duration.
        let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let f = &f;
        self.scope(|s| {
            for (ci, (in_chunk, out_chunk)) in
                slots.chunks_mut(chunk).zip(out.chunks_mut(chunk)).enumerate()
            {
                let base = ci * chunk;
                s.spawn(move || {
                    for (j, (slot, out_slot)) in
                        in_chunk.iter_mut().zip(out_chunk.iter_mut()).enumerate()
                    {
                        let item = slot.take().expect("each slot moved out once");
                        *out_slot = Some(f(base + j, item));
                    }
                });
            }
        });
        out.into_iter().map(|slot| slot.expect("scope completed; all slots filled")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let pool = ThreadPool::new(4);
        let input: Vec<u64> = (0..1000).collect();
        let out = pool.par_map(&input, |x| x * 2);
        let expected: Vec<u64> = input.iter().map(|x| x * 2).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_map_indexed_gives_correct_indices() {
        let pool = ThreadPool::new(3);
        let input = vec!["a"; 257];
        let out = pool.par_map_indexed(&input, |i, _| i);
        assert_eq!(out, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_input() {
        let pool = ThreadPool::new(2);
        let out: Vec<u32> = pool.par_map(&[] as &[u32], |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_single_element() {
        let pool = ThreadPool::new(8);
        assert_eq!(pool.par_map(&[41u8], |x| x + 1), vec![42]);
    }

    #[test]
    fn par_map_vec_moves_without_clone() {
        // The element type is deliberately not Clone.
        struct NoClone(u64);
        let pool = ThreadPool::new(4);
        let items: Vec<NoClone> = (0..777).map(NoClone).collect();
        let out = pool.par_map_vec(items, |i, x| x.0 + i as u64);
        assert_eq!(out.len(), 777);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2 * i as u64);
        }
    }

    #[test]
    fn par_map_vec_empty_and_single() {
        let pool = ThreadPool::new(2);
        let empty: Vec<String> = Vec::new();
        assert!(pool.par_map_vec(empty, |_, s| s).is_empty());
        let one = pool.par_map_vec(vec![String::from("x")], |i, s| format!("{s}{i}"));
        assert_eq!(one, vec!["x0".to_string()]);
    }

    #[test]
    fn nested_par_map_inside_par_map() {
        // Exercises helping: inner scopes run while outer chunks wait.
        let pool = ThreadPool::new(2);
        let outer: Vec<u64> = (0..8).collect();
        let out = pool.par_map(&outer, |&x| {
            let inner: Vec<u64> = (0..4).collect();
            pool_less_sum(x, &inner)
        });
        assert_eq!(out.iter().sum::<u64>(), (0..8).map(|x| x * 4 + 6).sum());
    }

    fn pool_less_sum(x: u64, inner: &[u64]) -> u64 {
        inner.iter().map(|y| x + y).sum()
    }
}

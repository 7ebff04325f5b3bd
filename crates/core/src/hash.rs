//! Run-stable hashing: shuffle partitioning and failure-injection
//! verdicts.
//!
//! `std::collections::HashMap`'s default hasher is seeded per process,
//! so `hash(key) % reducers` would route keys differently on every run
//! — fatal for reproducible figures. This FNV-1a implementation is
//! deterministic across runs and platforms — integers hash their
//! little-endian bytes, and `usize` hashes as a `u64` — and fast on the
//! short keys (node ids, centroid ids) the applications shuffle.
//!
//! The module also re-exports the **splitmix64 verdict hashing** every
//! failure injector shares ([`asyncmr_model::failure`] holds the one
//! implementation): whether a gmap attempt dies
//! ([`crate::AttemptFailurePlan`]), or a node dies at an epoch
//! ([`crate::NodeFailurePlan`], in-process and simulated alike), is
//! `verdict_unit(seed, &[...]) < prob` — a pure function of its
//! inputs, so injected patterns are reproducible under any thread
//! interleaving.

use std::hash::{BuildHasherDefault, Hasher};

pub use asyncmr_model::failure::{splitmix64, verdict_unit};

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct StableHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher(FNV_OFFSET)
    }
}

impl Hasher for StableHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    // The defaults hash native-endian bytes, and `usize` at the
    // platform's width; the signed writes delegate to these.
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `BuildHasher` for [`StableHasher`]-backed maps.
pub type StableBuildHasher = BuildHasherDefault<StableHasher>;

/// A `HashMap` with run-stable (but still DoS-unhardened — fine for
/// trusted workloads) hashing.
pub type StableHashMap<K, V> = std::collections::HashMap<K, V, StableBuildHasher>;

/// Stable 64-bit hash of any `Hash` value.
pub fn stable_hash<T: std::hash::Hash>(value: &T) -> u64 {
    let mut hasher = StableHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Reducer index for a key: `hash(key) % reducers`.
pub fn reducer_for<T: std::hash::Hash>(key: &T, reducers: usize) -> usize {
    debug_assert!(reducers > 0);
    (stable_hash(key) % reducers as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable() {
        // Golden values pin cross-run and cross-platform stability: this
        // module's FNV-1a constants over little-endian integer bytes, a
        // `usize` as a `u64`, and a string's bytes plus its 0xff
        // terminator.
        assert_eq!(stable_hash(&42u32), 0xe3a7_d9c8_352f_df7f);
        assert_eq!(stable_hash(&42u64), 0x0ac6_b56b_3789_daef);
        assert_eq!(stable_hash(&42usize), stable_hash(&42u64));
        assert_eq!(stable_hash(&String::from("pagerank")), 0x528d_7871_c998_1b5d);
        assert_ne!(stable_hash(&42u32), stable_hash(&43u32));
        let routed: Vec<usize> =
            [0u32, 1, 7, 42, 1000].iter().map(|k| reducer_for(k, 16)).collect();
        assert_eq!(routed, [5, 4, 2, 15, 12]);
        assert_eq!(reducer_for(&String::from("pagerank"), 16), 13);
    }

    #[test]
    fn spreads_sequential_keys() {
        let reducers = 8;
        let mut counts = vec![0usize; reducers];
        for k in 0..8000u32 {
            counts[reducer_for(&k, reducers)] += 1;
        }
        for (r, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "reducer {r} got {c} of 8000 keys — badly skewed");
        }
    }

    #[test]
    fn stable_map_usable() {
        let mut m: StableHashMap<u32, &str> = StableHashMap::default();
        m.insert(1, "one");
        assert_eq!(m.get(&1), Some(&"one"));
    }

    #[test]
    fn reducer_for_in_range() {
        for k in 0..100u64 {
            assert!(reducer_for(&k, 7) < 7);
        }
    }

    #[test]
    fn splitmix_mixing_avalanches() {
        // Neighboring inputs land far apart (golden regression for the
        // shared verdict hashing — a weakened mix would correlate
        // failure verdicts across partitions/iterations).
        assert_ne!(splitmix64(0), splitmix64(1));
        assert_ne!(splitmix64(0) >> 32, splitmix64(1) >> 32);
        assert_eq!(splitmix64(42), splitmix64(42), "pure function");
    }

    #[test]
    fn verdict_unit_matches_the_attempt_verdict_formula() {
        // The extraction contract: verdict_unit(seed, [p, i, a]) must
        // reproduce the inline hash the session's attempt verdict
        // historically computed, so chaos seeds pinned in tests and CI
        // keep firing
        // the same patterns.
        for (seed, p, i, a) in [(42u64, 3u64, 7u64, 1u64), (1007, 0, 0, 0), (7, 12, 99, 3)] {
            let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
            for v in [p, i, a] {
                h = splitmix64(h.wrapping_add(v).wrapping_mul(0xff51_afd7_ed55_8ccd));
            }
            let inline = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            assert_eq!(verdict_unit(seed, &[p, i, a]), inline);
        }
    }

    #[test]
    fn verdict_unit_is_in_range_and_seed_sensitive() {
        for s in 0..50u64 {
            let u = verdict_unit(s, &[1, 2, 3]);
            assert!((0.0..1.0).contains(&u));
        }
        assert_ne!(verdict_unit(1, &[5]), verdict_unit(2, &[5]));
    }
}

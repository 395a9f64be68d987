//! The paper's perfect popularity cache.

use crate::stats::CacheStats;
use crate::{Cache, CacheOutcome};
use scp_workload::fasthash::FastBuildHasher;
use std::collections::HashSet;
use std::fmt;
use std::hash::Hash;

/// An oracle cache that permanently holds the `c` most popular items.
///
/// This realizes the paper's *perfect caching* assumption (Section II.B):
/// queries for the `c` most popular items always hit; every other query
/// always misses. The popularity ranking is supplied at construction time
/// (the simulation knows the access pattern, so it knows the true top-`c`).
///
/// # Example
///
/// ```
/// use scp_cache::{Cache, CacheOutcome};
/// use scp_cache::perfect::PerfectCache;
///
/// // Keys 10 and 20 are the two most popular items.
/// let mut cache = PerfectCache::new(2, [10u64, 20, 30, 40]);
/// assert_eq!(cache.request(10), CacheOutcome::Hit);
/// assert_eq!(cache.request(30), CacheOutcome::Miss);
/// ```
#[derive(Clone)]
pub struct PerfectCache<K> {
    /// The top-`c` key set. Keyed by [`FastBuildHasher`]: membership is
    /// the per-query cost of the serving hot path, and the deterministic
    /// three-multiply hash is ~3× cheaper than SipHash per lookup. Every
    /// query probes it with an attacker-chosen key, so runs seed it.
    cached: HashSet<K, FastBuildHasher>,
    capacity: usize,
    stats: CacheStats,
}

impl<K: Copy + Eq + Hash> PerfectCache<K> {
    /// Builds the cache from keys listed in decreasing popularity order;
    /// only the first `capacity` keys are retained.
    pub fn new<I: IntoIterator<Item = K>>(capacity: usize, ranked_keys: I) -> Self {
        Self::with_hasher(capacity, ranked_keys, FastBuildHasher::default())
    }

    /// [`PerfectCache::new`] with the key set keyed by `hasher`.
    pub fn with_hasher<I: IntoIterator<Item = K>>(
        capacity: usize,
        ranked_keys: I,
        hasher: FastBuildHasher,
    ) -> Self {
        // Sized by the upper bound `take` gives even a filtered ranking.
        let ranked = ranked_keys.into_iter().take(capacity);
        let size = ranked.size_hint().1.unwrap_or(0).min(1 << 20);
        let mut cached = HashSet::with_capacity_and_hasher(size, hasher);
        cached.extend(ranked);
        Self {
            cached,
            capacity,
            stats: CacheStats::new(),
        }
    }

    /// Builds an empty oracle (capacity 0 or unknown ranking).
    pub fn empty(capacity: usize) -> Self {
        Self {
            cached: HashSet::default(),
            capacity,
            stats: CacheStats::new(),
        }
    }
}

impl<K: Copy + Eq + Hash + std::fmt::Debug> Cache<K> for PerfectCache<K> {
    fn request(&mut self, key: K) -> CacheOutcome {
        if self.cached.contains(&key) {
            self.stats.record_hit();
            CacheOutcome::Hit
        } else {
            self.stats.record_miss();
            CacheOutcome::Miss
        }
    }

    fn contains(&self, key: &K) -> bool {
        self.cached.contains(key)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.cached.len()
    }

    fn clear(&mut self) {
        self.cached.clear();
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn name(&self) -> &'static str {
        "perfect"
    }
}

impl<K> fmt::Debug for PerfectCache<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PerfectCache")
            .field("capacity", &self.capacity)
            .field("resident", &self.cached.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_exactly_top_c() {
        let c = PerfectCache::new(3, [5u64, 6, 7, 8, 9]);
        assert_eq!(c.len(), 3);
        assert!(c.contains(&5));
        assert!(c.contains(&7));
        assert!(!c.contains(&8));
        assert_eq!(c.capacity(), 3);
    }

    #[test]
    fn hits_and_misses_are_deterministic() {
        let mut c = PerfectCache::new(2, [1u64, 2, 3]);
        for _ in 0..10 {
            assert!(c.request(1).is_hit());
            assert!(c.request(2).is_hit());
            assert!(!c.request(3).is_hit());
        }
        assert_eq!(c.stats().hits(), 20);
        assert_eq!(c.stats().misses(), 10);
    }

    #[test]
    fn misses_never_admit() {
        let mut c = PerfectCache::new(1, [1u64]);
        c.request(9);
        c.request(9);
        assert!(!c.contains(&9), "perfect cache never admits non-top keys");
    }

    #[test]
    fn capacity_zero_always_misses() {
        let mut c = PerfectCache::new(0, [1u64, 2]);
        assert!(!c.request(1).is_hit());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn fewer_keys_than_capacity() {
        let c = PerfectCache::new(10, [1u64, 2]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.capacity(), 10);
    }

    #[test]
    fn clear_and_reset_stats() {
        let mut c = PerfectCache::new(2, [1u64, 2]);
        c.request(1);
        c.reset_stats();
        assert_eq!(c.stats().lookups(), 0);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.request(1).is_hit());
    }

    #[test]
    fn empty_constructor() {
        let c: PerfectCache<u64> = PerfectCache::empty(5);
        assert_eq!(c.capacity(), 5);
        assert!(c.is_empty());
    }

    #[test]
    fn debug_is_nonempty() {
        let c = PerfectCache::new(1, [1u64]);
        assert!(format!("{c:?}").contains("PerfectCache"));
    }
}

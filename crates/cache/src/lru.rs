//! Least-recently-used replacement.

use crate::stats::CacheStats;
use crate::table::Table;
use crate::{Cache, CacheOutcome};
use scp_workload::fasthash::FastBuildHasher;
use std::hash::Hash;

/// Classic LRU: every miss admits the key at the MRU position, evicting the
/// LRU key when full.
///
/// Under the paper's adversarial pattern (x > c equally popular keys) LRU
/// degenerates to near-zero hit rate — every key is evicted before its next
/// reference — which is exactly why the analysis assumes a *popularity*
/// cache rather than a recency one. The ablation experiments quantify this
/// gap.
#[derive(Debug, Clone)]
pub struct LruCache<K> {
    table: Table<K, (), 1>,
    capacity: usize,
    stats: CacheStats,
}

/// The one recency list.
const LRU: usize = 0;

impl<K: Copy + Eq + Hash> LruCache<K> {
    /// Creates an LRU cache holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, FastBuildHasher::default())
    }

    /// [`LruCache::new`] with the key table keyed by `hasher`.
    pub fn with_hasher(capacity: usize, hasher: FastBuildHasher) -> Self {
        Self {
            table: Table::with_hasher(capacity, hasher),
            capacity,
            stats: CacheStats::new(),
        }
    }
}

impl<K: Copy + Eq + Hash + std::fmt::Debug> Cache<K> for LruCache<K> {
    fn request(&mut self, key: K) -> CacheOutcome {
        if let Some((slot, _)) = self.table.find(&key) {
            self.table.move_to_front(slot, LRU);
            self.stats.record_hit();
            return CacheOutcome::Hit;
        }
        self.stats.record_miss();
        if self.capacity > 0 {
            self.stats.record_insertion();
            if self.table.len() == self.capacity && self.table.pop_back(LRU) {
                self.stats.record_eviction();
            }
            self.table.push_front(key, (), LRU);
        }
        CacheOutcome::Miss
    }

    fn contains(&self, key: &K) -> bool {
        self.table.find(key).is_some()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn clear(&mut self) {
        self.table.clear();
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scp_workload::rng::{next_below, Xoshiro256StarStar};

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.request(1);
        c.request(2);
        c.request(1); // 1 is now MRU
        c.request(3); // evicts 2
        assert!(c.contains(&1));
        assert!(!c.contains(&2));
        assert!(c.contains(&3));
    }

    #[test]
    fn repeated_requests_hit() {
        let mut c = LruCache::new(1);
        assert!(!c.request(7).is_hit());
        for _ in 0..5 {
            assert!(c.request(7).is_hit());
        }
        assert_eq!(c.stats().hits(), 5);
        assert_eq!(c.stats().misses(), 1);
        assert_eq!(c.stats().insertions(), 1);
        assert_eq!(c.stats().evictions(), 0);
    }

    #[test]
    fn eviction_counter_tracks() {
        let mut c = LruCache::new(2);
        for k in 0..5u32 {
            c.request(k);
        }
        assert_eq!(c.stats().evictions(), 3);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_never_admits() {
        let mut c = LruCache::new(0);
        assert!(!c.request(1).is_hit());
        assert!(!c.request(1).is_hit());
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().insertions(), 0);
    }

    #[test]
    fn scan_larger_than_capacity_thrashes() {
        // The adversarial degenerate case: cycling over x > c keys gives 0
        // hits after the first pass.
        let mut c = LruCache::new(10);
        for _ in 0..5 {
            for k in 0..11u32 {
                c.request(k);
            }
        }
        assert_eq!(c.stats().hits(), 0, "LRU must thrash on cyclic scans");
    }

    #[test]
    fn clear_preserves_stats() {
        let mut c = LruCache::new(2);
        c.request(1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().misses(), 1);
    }

    // Seeded randomized sweeps (stand-ins for property tests; the case
    // generator is deterministic so failures reproduce exactly).

    #[test]
    fn prop_len_never_exceeds_capacity() {
        let mut gen = Xoshiro256StarStar::seed_from_u64(0x15C4);
        for case in 0..64 {
            let cap = next_below(&mut gen, 20) as usize;
            let len = 1 + next_below(&mut gen, 499) as usize;
            let mut c = LruCache::new(cap);
            for _ in 0..len {
                let k = next_below(&mut gen, 50) as u32;
                c.request(k);
                assert!(c.len() <= cap, "case {case}: cap={cap} len={}", c.len());
            }
        }
    }

    #[test]
    fn prop_most_recent_key_is_resident() {
        let mut gen = Xoshiro256StarStar::seed_from_u64(0x3E51);
        for case in 0..64 {
            let cap = 1 + next_below(&mut gen, 19) as usize;
            let len = 1 + next_below(&mut gen, 199) as usize;
            let mut c = LruCache::new(cap);
            for _ in 0..len {
                let k = next_below(&mut gen, 50) as u32;
                c.request(k);
                assert!(
                    c.contains(&k),
                    "case {case}: just-requested key {k} must be resident (cap={cap})"
                );
            }
        }
    }
}

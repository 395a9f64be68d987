//! Least-frequently-used replacement with LRU tie-breaking.

use crate::stats::CacheStats;
use crate::{Cache, CacheOutcome};
use scp_workload::fasthash::FastBuildHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;

/// LFU: evicts the resident key with the fewest lifetime references,
/// breaking ties toward the least recently admitted/used.
///
/// Implemented with an ordered set of `(frequency, tick)` pairs — O(log c)
/// per operation, which is plenty for simulation capacities. Frequencies
/// count only references made *while resident* plus the admitting miss, so
/// a re-admitted key starts over (no ghost history).
///
/// LFU is the closest practical policy to the paper's perfect popularity
/// cache: under a stationary distribution the most frequent keys
/// accumulate the highest counters and become unevictable.
#[derive(Debug, Clone)]
pub struct LfuCache<K> {
    entries: HashMap<K, (u64, u64), FastBuildHasher>, // key -> (frequency, tick)
    order: BTreeSet<(u64, u64, K)>,                   // (frequency, tick, key)
    tick: u64,
    capacity: usize,
    stats: CacheStats,
}

impl<K: Copy + Eq + Hash + Ord> LfuCache<K> {
    /// Creates an LFU cache holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, FastBuildHasher::default())
    }

    /// [`LfuCache::new`] with the entry table keyed by `hasher`.
    pub fn with_hasher(capacity: usize, hasher: FastBuildHasher) -> Self {
        Self {
            entries: HashMap::with_capacity_and_hasher(capacity.min(1 << 20), hasher),
            order: BTreeSet::new(),
            tick: 0,
            capacity,
            stats: CacheStats::new(),
        }
    }

    /// Current reference count of a resident key.
    pub fn frequency(&self, key: &K) -> Option<u64> {
        self.entries.get(key).map(|&(f, _)| f)
    }
}

impl<K: Copy + Eq + Hash + Ord + std::fmt::Debug> Cache<K> for LfuCache<K> {
    fn request(&mut self, key: K) -> CacheOutcome {
        self.tick += 1;
        if let Some(&(freq, tick)) = self.entries.get(&key) {
            self.order.remove(&(freq, tick, key));
            self.order.insert((freq + 1, self.tick, key));
            self.entries.insert(key, (freq + 1, self.tick));
            self.stats.record_hit();
            return CacheOutcome::Hit;
        }
        self.stats.record_miss();
        if self.capacity == 0 {
            return CacheOutcome::Miss;
        }
        if self.entries.len() >= self.capacity {
            // Evict the (lowest frequency, oldest tick) entry.
            if let Some((_, _, victim)) = self.order.pop_first() {
                self.entries.remove(&victim);
                self.stats.record_eviction();
            }
        }
        self.entries.insert(key, (1, self.tick));
        self.order.insert((1, self.tick, key));
        self.stats.record_insertion();
        CacheOutcome::Miss
    }

    fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn name(&self) -> &'static str {
        "lfu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_frequent() {
        let mut c = LfuCache::new(2);
        c.request(1);
        c.request(1);
        c.request(1); // freq(1) = 3
        c.request(2); // freq(2) = 1
        c.request(3); // evicts 2
        assert!(c.contains(&1));
        assert!(!c.contains(&2));
        assert!(c.contains(&3));
        assert_eq!(c.frequency(&1), Some(3));
    }

    #[test]
    fn ties_break_to_oldest() {
        let mut c = LfuCache::new(2);
        c.request(1);
        c.request(2); // both freq 1; 1 is older
        c.request(3); // evicts 1
        assert!(!c.contains(&1));
        assert!(c.contains(&2));
    }

    #[test]
    fn hit_refreshes_tie_break_position() {
        let mut c = LfuCache::new(2);
        c.request(1);
        c.request(2);
        c.request(1); // freq(1)=2 > freq(2)=1
        c.request(3); // evicts 2
        assert!(c.contains(&1));
        assert!(!c.contains(&2));
    }

    #[test]
    fn readmitted_key_restarts_frequency() {
        let mut c = LfuCache::new(1);
        c.request(1);
        c.request(1);
        c.request(2); // evicts 1
        c.request(1); // evicts 2, freq restarts
        assert_eq!(c.frequency(&1), Some(1));
    }

    #[test]
    fn hot_set_becomes_sticky_under_zipf_like_traffic() {
        // Capacity must exceed the hot set so hot keys can accrue hits
        // between cold insertions (strict LFU keeps no ghost history).
        let mut c = LfuCache::new(3);
        // Hot keys 1,2 referenced often; cold keys stream by.
        for round in 0..50u32 {
            c.request(1);
            c.request(2);
            c.request(1000 + round);
        }
        assert!(c.contains(&1));
        assert!(c.contains(&2));
    }

    #[test]
    fn zero_capacity_never_admits() {
        let mut c = LfuCache::new(0);
        c.request(1);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn len_bounded_and_counters_consistent() {
        let mut c = LfuCache::new(3);
        for k in 0..20u32 {
            c.request(k % 7);
            assert!(c.len() <= 3);
        }
        assert_eq!(
            c.stats().insertions() - c.stats().evictions(),
            c.len() as u64
        );
    }

    #[test]
    fn clear_empties() {
        let mut c = LfuCache::new(2);
        c.request(1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.frequency(&1), None);
    }
}

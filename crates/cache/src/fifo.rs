//! First-in first-out replacement.

use crate::stats::CacheStats;
use crate::{Cache, CacheOutcome};
use scp_workload::fasthash::FastBuildHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// FIFO: misses admit at the tail; when full, the oldest admission is
/// evicted regardless of how often it was referenced.
#[derive(Debug, Clone)]
pub struct FifoCache<K> {
    queue: VecDeque<K>,
    resident: HashMap<K, (), FastBuildHasher>,
    capacity: usize,
    stats: CacheStats,
}

impl<K: Copy + Eq + Hash> FifoCache<K> {
    /// Creates a FIFO cache holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, FastBuildHasher::default())
    }

    /// [`FifoCache::new`] with the resident set keyed by `hasher`.
    pub fn with_hasher(capacity: usize, hasher: FastBuildHasher) -> Self {
        Self {
            queue: VecDeque::with_capacity(capacity.min(1 << 20)),
            resident: HashMap::with_capacity_and_hasher(capacity.min(1 << 20), hasher),
            capacity,
            stats: CacheStats::new(),
        }
    }
}

impl<K: Copy + Eq + Hash + std::fmt::Debug> Cache<K> for FifoCache<K> {
    fn request(&mut self, key: K) -> CacheOutcome {
        if self.resident.contains_key(&key) {
            self.stats.record_hit();
            return CacheOutcome::Hit;
        }
        self.stats.record_miss();
        if self.capacity > 0 {
            if self.queue.len() >= self.capacity {
                if let Some(old) = self.queue.pop_front() {
                    self.resident.remove(&old);
                    self.stats.record_eviction();
                }
            }
            self.queue.push_back(key);
            self.resident.insert(key, ());
            self.stats.record_insertion();
        }
        CacheOutcome::Miss
    }

    fn contains(&self, key: &K) -> bool {
        self.resident.contains_key(key)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn clear(&mut self) {
        self.queue.clear();
        self.resident.clear();
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_in_admission_order() {
        let mut c = FifoCache::new(2);
        c.request(1);
        c.request(2);
        c.request(1); // hit: does NOT refresh FIFO position
        c.request(3); // evicts 1 (oldest admission)
        assert!(!c.contains(&1));
        assert!(c.contains(&2));
        assert!(c.contains(&3));
    }

    #[test]
    fn hits_do_not_duplicate_entries() {
        let mut c = FifoCache::new(2);
        c.request(1);
        c.request(1);
        c.request(1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().hits(), 2);
    }

    #[test]
    fn zero_capacity_never_admits() {
        let mut c = FifoCache::new(0);
        c.request(1);
        assert!(!c.contains(&1));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn len_bounded_by_capacity() {
        let mut c = FifoCache::new(3);
        for k in 0..100u32 {
            c.request(k);
            assert!(c.len() <= 3);
        }
        assert_eq!(c.stats().evictions(), 97);
    }

    #[test]
    fn clear_empties() {
        let mut c = FifoCache::new(2);
        c.request(1);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.contains(&1));
    }
}

//! Segmented LRU (probation + protected segments).

use crate::stats::CacheStats;
use crate::table::Table;
use crate::{Cache, CacheOutcome};
use scp_workload::fasthash::FastBuildHasher;
use std::hash::Hash;

/// Default fraction of capacity given to the protected segment.
pub const DEFAULT_PROTECTED_FRACTION: f64 = 0.8;

/// The segment misses enter.
const PROBATION: usize = 0;
/// The segment a probation hit promotes to.
const PROTECTED: usize = 1;

/// Segmented LRU: new admissions enter a *probation* segment; a hit in
/// probation promotes to the *protected* segment; protected overflow
/// demotes its LRU entry back to probation. Items only leave the cache
/// entirely when the **total** size exceeds capacity, in which case the
/// probation LRU is evicted. One-hit wonders therefore wash out of
/// probation without displacing proven-popular items.
///
/// Both segments are lists of one residency table, so a request costs one
/// map probe whichever segment holds the key.
#[derive(Debug, Clone)]
pub struct SlruCache<K> {
    table: Table<K, (), 2>,
    protected_target: usize,
    capacity: usize,
    stats: CacheStats,
}

impl<K: Copy + Eq + Hash + std::fmt::Debug> SlruCache<K> {
    /// Creates an SLRU cache with the default 80% protected split.
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, FastBuildHasher::default())
    }

    /// [`SlruCache::new`] with the residency table keyed by `hasher`.
    pub fn with_hasher(capacity: usize, hasher: FastBuildHasher) -> Self {
        Self::build(capacity, DEFAULT_PROTECTED_FRACTION, hasher)
    }

    /// Creates an SLRU cache with an explicit protected fraction in
    /// `[0, 1]` (clamped). The protected segment target is strictly less
    /// than `capacity` so probation always has room to admit.
    pub fn with_protected_fraction(capacity: usize, fraction: f64) -> Self {
        Self::build(capacity, fraction, FastBuildHasher::default())
    }

    fn build(capacity: usize, fraction: f64, hasher: FastBuildHasher) -> Self {
        let fraction = fraction.clamp(0.0, 1.0);
        let protected_target =
            (((capacity as f64) * fraction).round() as usize).min(capacity.saturating_sub(1));
        Self {
            table: Table::with_hasher(capacity, hasher),
            protected_target,
            capacity,
            stats: CacheStats::new(),
        }
    }

    /// Number of items in the probation segment.
    pub fn probation_len(&self) -> usize {
        self.table.list_len(PROBATION)
    }

    /// Number of items in the protected segment.
    pub fn protected_len(&self) -> usize {
        self.table.list_len(PROTECTED)
    }

    /// Size target of the protected segment.
    pub fn protected_target(&self) -> usize {
        self.protected_target
    }
}

impl<K: Copy + Eq + Hash + std::fmt::Debug> Cache<K> for SlruCache<K> {
    fn request(&mut self, key: K) -> CacheOutcome {
        if let Some((slot, _)) = self.table.find(&key) {
            // A hit moves to the front of protected (promoting a probation
            // key); protected overflow demotes its LRU entry to the front
            // of probation — a demotion, not an eviction.
            self.table.move_to_front(slot, PROTECTED);
            if self.table.list_len(PROTECTED) > self.protected_target {
                self.table.move_back_to_front(PROTECTED, PROBATION);
            }
            self.stats.record_hit();
            return CacheOutcome::Hit;
        }
        self.stats.record_miss();
        if self.capacity > 0 {
            self.stats.record_insertion();
            // Protected stays below capacity, so a full cache always has
            // a probation victim.
            if self.table.len() == self.capacity && self.table.pop_back(PROBATION) {
                self.stats.record_eviction();
            }
            self.table.push_front(key, (), PROBATION);
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
        "slru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_goes_to_probation() {
        let mut c = SlruCache::new(10);
        c.request(1);
        assert_eq!(c.probation_len(), 1);
        assert_eq!(c.protected_len(), 0);
    }

    #[test]
    fn second_hit_promotes() {
        let mut c = SlruCache::new(10);
        c.request(1);
        assert!(c.request(1).is_hit());
        assert_eq!(c.probation_len(), 0);
        assert_eq!(c.protected_len(), 1);
    }

    #[test]
    fn one_hit_wonders_wash_out_before_popular_items() {
        let mut c = SlruCache::new(10);
        c.request(1);
        c.request(1); // promoted
        for k in 100..130u32 {
            c.request(k); // scan of one-hit wonders
        }
        assert!(c.contains(&1), "protected item evicted by scan");
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn protected_overflow_demotes_not_evicts() {
        let mut c = SlruCache::with_protected_fraction(4, 0.5); // target 2
                                                                // Promote 1 and 2 into protected.
        c.request(1);
        c.request(1);
        c.request(2);
        c.request(2);
        assert_eq!(c.protected_len(), 2);
        // Promote 3: protected overflow demotes LRU protected (1) to probation.
        c.request(3);
        c.request(3);
        assert_eq!(c.protected_len(), 2);
        assert!(c.contains(&1), "demoted key must stay resident");
        assert!(c.contains(&2));
        assert!(c.contains(&3));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn probation_can_fill_unused_protected_space() {
        // Nothing promoted yet: probation may hold the full capacity.
        let mut c = SlruCache::new(4);
        for k in 0..4u32 {
            c.request(k);
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.probation_len(), 4);
        assert_eq!(c.stats().evictions(), 0);
        c.request(4);
        assert_eq!(c.len(), 4);
        assert!(!c.contains(&0), "probation LRU should be evicted");
        assert_eq!(c.stats().evictions(), 1, "and counted");
    }

    #[test]
    fn capacity_one_still_works() {
        let mut c = SlruCache::new(1); // protected target 0
        c.request(1);
        assert!(c.contains(&1));
        assert!(c.request(1).is_hit());
        assert!(c.contains(&1), "promote+demote cycle must keep the key");
        c.request(2);
        assert!(c.contains(&2));
        assert!(!c.contains(&1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_never_admits() {
        let mut c = SlruCache::new(0);
        c.request(1);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn len_bounded_by_capacity() {
        let mut c = SlruCache::new(5);
        for k in 0..200u32 {
            c.request(k % 17);
            assert!(c.len() <= 5, "len {} over capacity", c.len());
        }
    }

    #[test]
    fn clear_empties_both_segments() {
        let mut c = SlruCache::new(4);
        c.request(1);
        c.request(1);
        c.request(2);
        c.clear();
        assert_eq!(c.len(), 0);
        assert_eq!(c.probation_len() + c.protected_len(), 0);
    }
}

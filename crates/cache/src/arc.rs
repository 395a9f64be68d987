//! ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST'03).

use crate::lru_core::LruCore;
use crate::stats::CacheStats;
use crate::{Cache, CacheOutcome};
use scp_workload::fasthash::FastBuildHasher;
use std::hash::Hash;

/// ARC balances a recency list `T1` against a frequency list `T2`,
/// steering the split with ghost lists `B1`/`B2` that remember recently
/// evicted keys. Hits in a ghost list grow the side that would have kept
/// the key — the cache *adapts* to the workload without tuning.
///
/// Invariants maintained (capacity `c`):
/// `|T1| + |T2| <= c`, `|T1| + |B1| <= c`, `|T1|+|T2|+|B1|+|B2| <= 2c`.
#[derive(Debug, Clone)]
pub struct ArcCache<K> {
    t1: LruCore<K>,
    t2: LruCore<K>,
    b1: LruCore<K>,
    b2: LruCore<K>,
    /// Target size of T1 (the adaptation parameter `p`).
    p: usize,
    capacity: usize,
    stats: CacheStats,
}

impl<K: Copy + Eq + Hash + std::fmt::Debug> ArcCache<K> {
    /// Creates an ARC cache holding at most `capacity` items
    /// (ghost lists remember up to another `capacity` evicted keys).
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, FastBuildHasher::default())
    }

    /// [`ArcCache::new`] with all four lists keyed by `hasher`.
    pub fn with_hasher(capacity: usize, hasher: FastBuildHasher) -> Self {
        let list = || LruCore::with_hasher(capacity.saturating_mul(2), hasher);
        Self {
            t1: list(),
            t2: list(),
            b1: list(),
            b2: list(),
            p: 0,
            capacity,
            stats: CacheStats::new(),
        }
    }

    /// The adaptation target for the recency side (diagnostics).
    pub fn recency_target(&self) -> usize {
        self.p
    }

    /// Number of resident recency-side items.
    pub fn t1_len(&self) -> usize {
        self.t1.len()
    }

    /// Number of resident frequency-side items.
    pub fn t2_len(&self) -> usize {
        self.t2.len()
    }

    fn replace(&mut self, in_b2: bool) {
        let t1_len = self.t1.len();
        if t1_len >= 1 && ((in_b2 && t1_len == self.p) || t1_len > self.p) {
            if let Some(victim) = self.t1.pop_lru() {
                self.b1.insert(victim);
                self.stats.record_eviction();
            }
        } else if let Some(victim) = self.t2.pop_lru() {
            self.b2.insert(victim);
            self.stats.record_eviction();
        } else if let Some(victim) = self.t1.pop_lru() {
            // T2 empty: fall back to T1 regardless of p.
            self.b1.insert(victim);
            self.stats.record_eviction();
        }
    }
}

impl<K: Copy + Eq + Hash + std::fmt::Debug> Cache<K> for ArcCache<K> {
    fn request(&mut self, key: K) -> CacheOutcome {
        if self.capacity == 0 {
            self.stats.record_miss();
            return CacheOutcome::Miss;
        }
        // Case 1: resident hit -> promote to the frequency side.
        if self.t1.contains(&key) {
            self.t1.remove(&key);
            self.t2.insert(key);
            self.stats.record_hit();
            return CacheOutcome::Hit;
        }
        if self.t2.touch(&key) {
            self.stats.record_hit();
            return CacheOutcome::Hit;
        }
        self.stats.record_miss();

        // Case 2: ghost hit in B1 -> grow the recency target.
        if self.b1.contains(&key) {
            let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
            self.p = (self.p + delta).min(self.capacity);
            self.replace(false);
            self.b1.remove(&key);
            self.t2.insert(key);
            self.stats.record_insertion();
            return CacheOutcome::Miss;
        }
        // Case 3: ghost hit in B2 -> shrink the recency target.
        if self.b2.contains(&key) {
            let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
            self.p = self.p.saturating_sub(delta);
            self.replace(true);
            self.b2.remove(&key);
            self.t2.insert(key);
            self.stats.record_insertion();
            return CacheOutcome::Miss;
        }

        // Case 4: entirely new key.
        let l1 = self.t1.len() + self.b1.len();
        if l1 == self.capacity {
            if self.t1.len() < self.capacity {
                self.b1.pop_lru();
                self.replace(false);
            } else {
                // B1 empty and T1 full: the LRU of T1 leaves without a ghost.
                self.t1.pop_lru();
                self.stats.record_eviction();
            }
        } else {
            let total = l1 + self.t2.len() + self.b2.len();
            if total >= self.capacity {
                if total >= 2 * self.capacity {
                    self.b2.pop_lru();
                }
                self.replace(false);
            }
        }
        self.t1.insert(key);
        self.stats.record_insertion();
        CacheOutcome::Miss
    }

    fn contains(&self, key: &K) -> bool {
        self.t1.contains(key) || self.t2.contains(key)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.t1.len() + self.t2.len()
    }

    fn clear(&mut self) {
        self.t1.clear();
        self.t2.clear();
        self.b1.clear();
        self.b2.clear();
        self.p = 0;
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn name(&self) -> &'static str {
        "arc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_invariants(c: &ArcCache<u32>) {
        assert!(c.t1.len() + c.t2.len() <= c.capacity, "resident overflow");
        assert!(c.t1.len() + c.b1.len() <= c.capacity, "L1 overflow");
        assert!(
            c.t1.len() + c.t2.len() + c.b1.len() + c.b2.len() <= 2 * c.capacity,
            "directory overflow"
        );
        assert!(c.p <= c.capacity);
    }

    #[test]
    fn basic_hit_and_promotion() {
        let mut c = ArcCache::new(4);
        assert!(!c.request(1).is_hit());
        assert_eq!(c.t1_len(), 1);
        assert!(c.request(1).is_hit());
        assert_eq!(c.t1_len(), 0);
        assert_eq!(c.t2_len(), 1);
        check_invariants(&c);
    }

    #[test]
    fn capacity_is_respected_under_churn() {
        let mut c = ArcCache::new(8);
        let mut x = 1u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            c.request((x % 64) as u32);
            check_invariants(&c);
        }
        assert!(c.len() <= 8);
    }

    #[test]
    fn full_t1_with_empty_b1_discards_without_ghost() {
        // Canonical case 4 corner: |T1| = c and B1 empty -> the T1 LRU is
        // deleted outright, leaving no ghost to readmit.
        let mut c = ArcCache::new(2);
        c.request(1);
        c.request(2);
        c.request(3); // discards 1 entirely
        assert!(!c.contains(&1));
        assert_eq!(c.b1.len(), 0);
        check_invariants(&c);
    }

    #[test]
    fn ghost_hit_readmits_to_frequency_side() {
        let mut c = ArcCache::new(2);
        c.request(1);
        c.request(1); // promote 1 to T2
        c.request(2); // T1 = {2}
        c.request(3); // replace(): T1 LRU (2) -> B1 ghost; T1 = {3}
        assert!(!c.contains(&2));
        assert!(c.b1.contains(&2));
        c.request(2); // ghost hit: readmitted into T2
        assert!(c.contains(&2));
        assert!(c.t2.contains(&2));
        check_invariants(&c);
    }

    #[test]
    fn adaptation_parameter_moves_on_ghost_hits() {
        let mut c = ArcCache::new(4);
        for k in 0..8u32 {
            c.request(k); // fill and overflow T1 -> B1 collects ghosts
        }
        let before = c.recency_target();
        c.request(0); // likely a B1 ghost hit -> p grows
        assert!(c.recency_target() >= before);
        check_invariants(&c);
    }

    #[test]
    fn frequent_set_survives_one_shot_scan() {
        let mut c = ArcCache::new(8);
        // Establish a frequent working set.
        for _ in 0..6 {
            for k in 0..4u32 {
                c.request(k);
            }
        }
        assert!((0..4).all(|k| c.contains(&k)));
        // A long scan of cold keys.
        for k in 1000..1100u32 {
            c.request(k);
            check_invariants(&c);
        }
        let survivors = (0..4).filter(|k| c.contains(k)).count();
        assert!(
            survivors >= 3,
            "scan displaced the hot set: {survivors}/4 left"
        );
    }

    #[test]
    fn zero_capacity_never_admits() {
        let mut c = ArcCache::new(0);
        c.request(1);
        assert_eq!(c.len(), 0);
        assert!(!c.contains(&1));
    }

    #[test]
    fn capacity_one() {
        let mut c = ArcCache::new(1);
        c.request(1);
        assert!(c.contains(&1));
        c.request(2);
        assert!(c.contains(&2));
        assert!(!c.contains(&1));
        assert_eq!(c.len(), 1);
        check_invariants(&c);
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = ArcCache::new(4);
        for k in 0..10u32 {
            c.request(k);
        }
        c.clear();
        assert_eq!(c.len(), 0);
        assert_eq!(c.recency_target(), 0);
        assert!(!c.contains(&1));
    }

    #[test]
    fn mixed_workload_beats_plain_lru_hit_rate() {
        // Loop (frequency-friendly) + scan (recency-hostile) blend where
        // ARC's adaptivity should at least match LRU.
        let mut arc = ArcCache::new(16);
        let mut lru = crate::lru::LruCache::new(16);
        let mut x = 7u64;
        for i in 0..30_000u32 {
            let key = if i % 3 != 2 {
                i % 12 // hot loop
            } else {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                100 + (x % 2000) as u32 // cold noise
            };
            arc.request(key);
            lru.request(key);
        }
        let arc_hit = arc.stats().hit_rate();
        let lru_hit = lru.stats().hit_rate();
        assert!(
            arc_hit >= lru_hit - 0.02,
            "arc {arc_hit} should not trail lru {lru_hit}"
        );
    }
}

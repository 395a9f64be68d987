//! ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST'03).

use crate::stats::CacheStats;
use crate::table::Table;
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
///
/// The four lists are one residency table (the paper's `DBL(2c)`
/// directory): each tracked key sits on exactly one of them, so a request
/// costs one map probe and a hit, ghost hit or ghosting relinks a node.
#[derive(Debug, Clone)]
pub struct ArcCache<K> {
    table: Table<K, (), 4>,
    /// Target size of T1 (the adaptation parameter `p`).
    p: usize,
    capacity: usize,
    stats: CacheStats,
}

/// Resident keys seen once since they entered.
const T1: usize = 0;
/// Resident keys seen at least twice.
const T2: usize = 1;
/// Ghosts of keys evicted from `T1`.
const B1: usize = 2;
/// Ghosts of keys evicted from `T2`.
const B2: usize = 3;

impl<K: Copy + Eq + Hash + std::fmt::Debug> ArcCache<K> {
    /// Creates an ARC cache holding at most `capacity` items
    /// (ghost lists remember up to another `capacity` evicted keys).
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, FastBuildHasher::default())
    }

    /// [`ArcCache::new`] with the residency table keyed by `hasher`.
    pub fn with_hasher(capacity: usize, hasher: FastBuildHasher) -> Self {
        Self {
            table: Table::with_hasher(capacity.saturating_mul(2), hasher),
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
        self.table.list_len(T1)
    }

    /// Number of resident frequency-side items.
    pub fn t2_len(&self) -> usize {
        self.table.list_len(T2)
    }

    /// Evicts one resident to its ghost list: the `T1` LRU if `T1`
    /// exceeds its target `p` (or meets it on a `B2` ghost hit), else the
    /// `T2` LRU, else — `T2` empty — the `T1` LRU regardless of `p`.
    fn replace(&mut self, in_b2: bool) {
        let t1_len = self.table.list_len(T1);
        let evicted = if t1_len >= 1 && ((in_b2 && t1_len == self.p) || t1_len > self.p) {
            self.table.move_back_to_front(T1, B1)
        } else {
            self.table.move_back_to_front(T2, B2) || self.table.move_back_to_front(T1, B1)
        };
        if evicted {
            self.stats.record_eviction();
        }
    }

    /// A ghost hit on the key at `slot`: `p` moves toward the side whose
    /// ghost list held it, a resident makes room, and the key re-enters
    /// as the most recent `T2` entry.
    fn readmit(&mut self, slot: usize, in_b2: bool) {
        let (b1, b2) = (self.table.list_len(B1), self.table.list_len(B2));
        if in_b2 {
            self.p = self.p.saturating_sub((b1 / b2.max(1)).max(1));
        } else {
            self.p = (self.p + (b2 / b1.max(1)).max(1)).min(self.capacity);
        }
        self.replace(in_b2);
        self.table.move_to_front(slot, T2);
        self.stats.record_insertion();
    }
}

impl<K: Copy + Eq + Hash + std::fmt::Debug> Cache<K> for ArcCache<K> {
    fn request(&mut self, key: K) -> CacheOutcome {
        if self.capacity == 0 {
            self.stats.record_miss();
            return CacheOutcome::Miss;
        }
        let found = self
            .table
            .find(&key)
            .map(|(slot, node)| (slot, node.list()));
        match found {
            // Case 1: resident hit -> most recent on the frequency side.
            Some((slot, T1 | T2)) => {
                self.table.move_to_front(slot, T2);
                self.stats.record_hit();
                return CacheOutcome::Hit;
            }
            // Cases 2 and 3: a ghost hit grows the target of the side
            // whose ghost list held the key.
            Some((slot, list)) => {
                self.stats.record_miss();
                self.readmit(slot, list == B2);
                return CacheOutcome::Miss;
            }
            None => self.stats.record_miss(),
        }

        // Case 4: entirely new key.
        let l1 = self.table.list_len(T1) + self.table.list_len(B1);
        if l1 == self.capacity {
            if self.table.list_len(T1) < self.capacity {
                self.table.pop_back(B1);
                self.replace(false);
            } else if self.table.pop_back(T1) {
                // B1 empty and T1 full: the LRU of T1 leaves without a ghost.
                self.stats.record_eviction();
            }
        } else {
            let total = self.table.len();
            if total >= self.capacity {
                if total >= 2 * self.capacity {
                    self.table.pop_back(B2);
                }
                self.replace(false);
            }
        }
        self.table.push_front(key, (), T1);
        self.stats.record_insertion();
        CacheOutcome::Miss
    }

    fn contains(&self, key: &K) -> bool {
        self.table
            .find(key)
            .is_some_and(|(_, node)| matches!(node.list(), T1 | T2))
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.table.list_len(T1) + self.table.list_len(T2)
    }

    fn clear(&mut self) {
        self.table.clear();
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
        let len = |list| c.table.list_len(list);
        assert!(len(T1) + len(T2) <= c.capacity, "resident overflow");
        assert!(len(T1) + len(B1) <= c.capacity, "L1 overflow");
        assert!(
            len(T1) + len(T2) + len(B1) + len(B2) <= 2 * c.capacity,
            "directory overflow"
        );
        assert_eq!(c.table.len(), len(T1) + len(T2) + len(B1) + len(B2));
        assert!(c.p <= c.capacity);
    }

    /// The list holding `key`, if any.
    fn list_of(c: &ArcCache<u32>, key: u32) -> Option<usize> {
        c.table.find(&key).map(|(_, node)| node.list())
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
        assert_eq!(c.table.list_len(B1), 0);
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
        assert_eq!(list_of(&c, 2), Some(B1));
        c.request(2); // ghost hit: readmitted into T2
        assert!(c.contains(&2));
        assert_eq!(list_of(&c, 2), Some(T2));
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

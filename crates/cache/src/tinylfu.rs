//! W-TinyLFU: windowed admission-filtered caching.

use crate::sketch::{key_hash, CountMinSketch, CounterSlots, DoorSlots, Doorkeeper};
use crate::slru::DEFAULT_PROTECTED_FRACTION;
use crate::stats::CacheStats;
use crate::table::Table;
use crate::{Cache, CacheOutcome};
use scp_workload::fasthash::FastBuildHasher;
use std::hash::Hash;

/// Default fraction of capacity given to the admission window.
pub const DEFAULT_WINDOW_FRACTION: f64 = 0.01;

/// W-TinyLFU (Einziger, Friedman & Manes): a small LRU *window* in front of
/// a segmented-LRU main region, with a count-min frequency sketch deciding
/// whether a window-evicted candidate may displace the main region's
/// probation victim.
///
/// TinyLFU approximates the paper's perfect popularity cache without an
/// oracle: admission compares estimated frequencies, so under a stationary
/// workload the resident set converges toward the true top-`c`. Under the
/// *adversarial equal-frequency* pattern, no subset is more popular than
/// another and even TinyLFU cannot beat the `c/x` hit ceiling — which is
/// exactly the regime where only the cache *size* bound helps.
///
/// The main region behaves as an [`crate::slru::SlruCache`] with the
/// default 80 % protected split: admissions enter *probation*, a hit there
/// promotes to *protected*, and protected overflow demotes its LRU entry
/// back to the front of probation.
///
/// All three regions are lists of one residency table (keyed by the
/// cache's [`FastBuildHasher`]). Each node keeps its key's sketch counters
/// and doorkeeper bits, derived from the key's hash once when it enters
/// the window, so a hit costs one map probe and the admission duel reads
/// both contenders' frequencies without hashing either again.
#[derive(Debug, Clone)]
pub struct TinyLfuCache<K> {
    table: Table<K, FilterSlots, 3>,
    window_cap: usize,
    main_cap: usize,
    protected_target: usize,
    filter: Filter,
    capacity: usize,
    stats: CacheStats,
}

/// The LRU window every miss enters.
const WINDOW: usize = 0;
/// The main region's segment admissions and demotions enter.
const PROBATION: usize = 1;
/// The main region's segment a probation hit promotes to.
const PROTECTED: usize = 2;

/// A key's sketch counters and doorkeeper bits.
#[derive(Debug, Clone, Copy)]
struct FilterSlots {
    counters: CounterSlots,
    door: DoorSlots,
}

/// The admission filter: a doorkeeper in front of a count-min sketch.
#[derive(Debug, Clone)]
struct Filter {
    sketch: CountMinSketch,
    doorkeeper: Doorkeeper,
}

impl Filter {
    /// Where the key whose `key_hash` is `h` lands in both structures.
    fn slots(&self, h: u64) -> FilterSlots {
        FilterSlots {
            counters: self.sketch.slots(h),
            door: self.doorkeeper.positions(h),
        }
    }

    /// Records one access of the key at `slots`.
    fn record(&mut self, slots: &FilterSlots) {
        // The doorkeeper absorbs first occurrences; repeat offenders go to
        // the sketch. Both paths advance the sample window, and every
        // halving reset also clears the doorkeeper (per the W-TinyLFU
        // paper): "seen once" is scoped to the current sample period, not
        // the whole run, or the Bloom filter saturates and answers true
        // for every key.
        let resets_before = self.sketch.resets();
        if self.doorkeeper.insert_at(&slots.door) {
            self.sketch.increment_at(&slots.counters);
        } else {
            self.sketch.observe_sample();
        }
        if self.sketch.resets() != resets_before {
            self.doorkeeper.clear();
        }
    }

    /// Admission frequency of the key at `slots`.
    fn frequency(&self, slots: &FilterSlots) -> u32 {
        let base = u32::from(self.doorkeeper.contains_at(&slots.door));
        base + u32::from(self.sketch.estimate_at(&slots.counters))
    }

    fn clear(&mut self) {
        self.sketch.clear();
        self.doorkeeper.clear();
    }
}

impl<K: Copy + Eq + Hash + std::fmt::Debug> TinyLfuCache<K> {
    /// Creates a W-TinyLFU cache with a 1% window and 99% SLRU main region.
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, FastBuildHasher::default())
    }

    /// [`TinyLfuCache::new`] with the residency table keyed by `hasher`.
    pub fn with_hasher(capacity: usize, hasher: FastBuildHasher) -> Self {
        Self::build(capacity, DEFAULT_WINDOW_FRACTION, hasher)
    }

    /// Creates a W-TinyLFU cache with an explicit window fraction in
    /// `[0, 1]` (clamped; the window gets at least one slot when
    /// `capacity > 1`).
    pub fn with_window_fraction(capacity: usize, fraction: f64) -> Self {
        Self::build(capacity, fraction, FastBuildHasher::default())
    }

    fn build(capacity: usize, fraction: f64, hasher: FastBuildHasher) -> Self {
        let fraction = fraction.clamp(0.0, 1.0);
        let mut window_cap = ((capacity as f64) * fraction).round() as usize;
        if capacity > 1 {
            window_cap = window_cap.clamp(1, capacity - 1);
        } else {
            window_cap = capacity; // capacity 0 or 1: window is everything
        }
        let main_cap = capacity - window_cap;
        // Protected stays strictly below the main capacity, so a full main
        // region always has a probation victim.
        let protected_target = (((main_cap as f64) * DEFAULT_PROTECTED_FRACTION).round() as usize)
            .min(main_cap.saturating_sub(1));
        Self {
            // A miss holds one key beyond capacity until the duel settles.
            table: Table::with_hasher(capacity.saturating_add(1), hasher),
            window_cap,
            main_cap,
            protected_target,
            filter: Filter {
                sketch: CountMinSketch::for_capacity(capacity),
                doorkeeper: Doorkeeper::for_capacity(capacity),
            },
            capacity,
            stats: CacheStats::new(),
        }
    }

    /// Estimated popularity of a key as seen by the admission filter.
    pub fn admission_frequency(&self, key: &K) -> u32 {
        self.filter.frequency(&self.filter.slots(key_hash(key)))
    }

    /// Number of sketch halving resets (each also cleared the doorkeeper).
    pub fn sketch_resets(&self) -> u64 {
        self.filter.sketch.resets()
    }

    /// Admission frequency of the resident at `slot`.
    fn frequency_at(&self, slot: usize) -> u32 {
        self.table
            .node(slot)
            .map_or(0, |node| self.filter.frequency(&node.value))
    }

    /// A hit on the resident at `slot`: window and protected residents
    /// move to the front of their list; a probation resident is promoted
    /// to protected, whose overflow demotes its LRU entry to the front of
    /// probation.
    fn touch(&mut self, slot: usize, region: usize) {
        if region != PROBATION {
            self.table.move_to_front(slot, region);
            return;
        }
        self.table.move_to_front(slot, PROTECTED);
        if self.table.list_len(PROTECTED) > self.protected_target {
            self.table.move_back_to_front(PROTECTED, PROBATION);
        }
    }

    /// Settles the window's overflow: `candidate`, its LRU entry, enters
    /// probation if the main region has room; otherwise it must beat the
    /// probation LRU victim's frequency to take that slot, evicting it. A
    /// candidate that loses, or has no main region to enter (capacity 1),
    /// is rejected.
    fn admit(&mut self, candidate: usize) {
        if self.table.list_len(PROBATION) + self.table.list_len(PROTECTED) < self.main_cap {
            self.table.move_to_front(candidate, PROBATION);
            return;
        }
        match self.table.back(PROBATION) {
            Some(victim) if self.frequency_at(candidate) > self.frequency_at(victim) => {
                self.stats.record_eviction();
                self.table.remove(victim);
                self.table.move_to_front(candidate, PROBATION);
            }
            _ => {
                self.stats.record_rejection();
                self.table.remove(candidate);
            }
        }
    }
}

impl<K: Copy + Eq + Hash + std::fmt::Debug> Cache<K> for TinyLfuCache<K> {
    fn request(&mut self, key: K) -> CacheOutcome {
        if let Some((slot, node)) = self.table.find(&key) {
            let region = node.list();
            self.filter.record(&node.value);
            self.touch(slot, region);
            self.stats.record_hit();
            return CacheOutcome::Hit;
        }
        let slots = self.filter.slots(key_hash(&key));
        self.filter.record(&slots);
        self.stats.record_miss();
        if self.capacity == 0 {
            return CacheOutcome::Miss;
        }
        self.stats.record_insertion();
        self.table.push_front(key, slots, WINDOW);
        if self.table.list_len(WINDOW) > self.window_cap {
            if let Some(candidate) = self.table.back(WINDOW) {
                self.admit(candidate);
            }
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
        self.filter.clear();
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn name(&self) -> &'static str {
        "tinylfu"
    }

    fn sketch_resets(&self) -> u64 {
        self.filter.sketch.resets()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_absorbs_new_keys() {
        let mut c = TinyLfuCache::with_window_fraction(10, 0.2); // window 2, main 8
        c.request(1);
        c.request(2);
        assert!(c.contains(&1));
        assert!(c.contains(&2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn hits_in_window_and_main() {
        let mut c = TinyLfuCache::with_window_fraction(10, 0.2);
        c.request(1);
        assert!(c.request(1).is_hit());
        // Push 1 out of the window; frequency 2 lets it into the empty main.
        c.request(2);
        c.request(3);
        assert!(c.contains(&1), "evicted window key should enter main");
        assert!(c.request(1).is_hit());
    }

    #[test]
    fn infrequent_candidate_cannot_displace_popular_victim() {
        let mut c = TinyLfuCache::with_window_fraction(4, 0.25); // window 1, main 3
                                                                 // Make keys 1..=3 popular residents of main.
        for _ in 0..8 {
            for k in 1..=3u32 {
                c.request(k);
            }
        }
        assert!(c.contains(&1) && c.contains(&2) && c.contains(&3));
        let before_rejections = c.stats().rejections();
        // A stream of one-hit wonders must not displace them. Stay inside
        // the current sample period (capacity 4 → 40 accesses): once the
        // sketch halves, untouched residents legitimately age toward
        // eviction — that freshness is the point of the reset.
        for k in 100..115u32 {
            c.request(k);
        }
        assert!(c.contains(&1) && c.contains(&2) && c.contains(&3));
        assert!(
            c.stats().rejections() > before_rejections,
            "admission filter should have rejected cold candidates"
        );
    }

    #[test]
    fn hot_newcomer_eventually_displaces_cold_resident() {
        let mut c = TinyLfuCache::with_window_fraction(4, 0.25);
        // Cold residents.
        for k in 1..=3u32 {
            c.request(k);
            c.request(k);
        }
        // Hot newcomer hammered repeatedly (interleaved with window churn).
        for _ in 0..20 {
            c.request(50);
            c.request(1000); // churns the 1-slot window, forcing 50's admission attempts
        }
        assert!(c.contains(&50), "frequent newcomer should be admitted");
    }

    #[test]
    fn zero_capacity_never_admits() {
        let mut c = TinyLfuCache::new(0);
        c.request(1);
        assert_eq!(c.len(), 0);
        assert!(!c.contains(&1));
    }

    #[test]
    fn capacity_one_is_pure_window() {
        let mut c = TinyLfuCache::new(1);
        c.request(1);
        assert!(c.contains(&1));
        c.request(2);
        assert!(c.contains(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn len_bounded_by_capacity() {
        let mut c = TinyLfuCache::new(8);
        for k in 0..500u32 {
            c.request(k % 31);
            assert!(c.len() <= 8);
        }
    }

    #[test]
    fn clear_resets_all_structures() {
        let mut c = TinyLfuCache::new(8);
        for k in 0..200u32 {
            c.request(k);
            c.request(k);
        }
        assert!(c.sketch_resets() > 0, "enough traffic to age the sketch");
        c.clear();
        assert_eq!(c.len(), 0);
        assert_eq!(c.admission_frequency(&1), 0);
        assert_eq!(c.sketch_resets(), 0, "telemetry must clear with the data");
    }

    #[test]
    fn doorkeeper_resets_with_sketch_halving() {
        // capacity 100 → sample size 1000, doorkeeper 1024 bits. Drive
        // 2000 distinct keys: every access ticks the sample window (the
        // doorkeeper absorbs them all), so halvings fire at accesses 1000,
        // 1500 and 2000 — the last one lands exactly on the final access,
        // leaving a freshly cleared doorkeeper. Before the fix the
        // doorkeeper was never cleared (and an all-distinct stream never
        // even halved): 2000 keys in 1024 bits saturate the filter and
        // every fresh key reads as already-seen.
        let mut c = TinyLfuCache::new(100);
        for k in 0..2000u64 {
            c.request(k);
        }
        assert!(
            c.sketch_resets() >= 2,
            "distinct-key stream must still age the sketch, got {} resets",
            c.sketch_resets()
        );
        let fp = (1_000_000..1_010_000u64)
            .filter(|k| c.admission_frequency(k) > 0)
            .count();
        assert!(
            fp < 500,
            "false-positive rate must recover after reset: {fp}/10000 fresh keys read as seen"
        );
    }
}

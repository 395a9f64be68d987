//! The paper's popularity oracle, approximated online.
//!
//! [`crate::perfect::PerfectCache`] is handed the true top-`c` keys;
//! [`EstimatedOracleCache`] has to *earn* them: a [`SpaceSaving`]
//! estimator (with a configurable oversampling factor) watches the query
//! stream, and every `refresh_interval` requests the resident set is
//! rebuilt from the estimator's current top-`c`. This is how a production
//! front end realizes the paper's "perfect caching" assumption, and the
//! gap between the two quantifies what the assumption costs.

use crate::stats::CacheStats;
use crate::topk::SpaceSaving;
use crate::{Cache, CacheOutcome};
use scp_workload::fasthash::FastBuildHasher;
use std::collections::HashSet;
use std::hash::Hash;

/// Default ratio of estimator counters to cache capacity.
pub const DEFAULT_OVERSAMPLE: usize = 4;

/// Default number of requests between resident-set rebuilds.
pub const DEFAULT_REFRESH_INTERVAL: u64 = 1024;

/// A popularity cache driven by online Space-Saving estimation.
#[derive(Debug, Clone)]
pub struct EstimatedOracleCache<K> {
    estimator: SpaceSaving<K>,
    resident: HashSet<K, FastBuildHasher>,
    capacity: usize,
    refresh_interval: u64,
    since_refresh: u64,
    refreshes: u64,
    stats: CacheStats,
}

impl<K: Copy + Eq + Hash + Ord> EstimatedOracleCache<K> {
    /// Creates the cache with default oversampling and refresh interval.
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, FastBuildHasher::default())
    }

    /// [`EstimatedOracleCache::new`] with the estimator and the resident
    /// set keyed by `hasher`.
    pub fn with_hasher(capacity: usize, hasher: FastBuildHasher) -> Self {
        Self::build(
            capacity,
            DEFAULT_OVERSAMPLE,
            DEFAULT_REFRESH_INTERVAL,
            hasher,
        )
    }

    /// Creates the cache with explicit tuning: the estimator tracks
    /// `capacity * oversample` keys (min 1) and the resident set is
    /// rebuilt every `refresh_interval` requests (min 1).
    pub fn with_tuning(capacity: usize, oversample: usize, refresh_interval: u64) -> Self {
        Self::build(
            capacity,
            oversample,
            refresh_interval,
            FastBuildHasher::default(),
        )
    }

    fn build(
        capacity: usize,
        oversample: usize,
        refresh_interval: u64,
        hasher: FastBuildHasher,
    ) -> Self {
        let counters = (capacity * oversample.max(1)).max(1);
        Self {
            estimator: SpaceSaving::with_hasher(counters, hasher),
            resident: HashSet::with_capacity_and_hasher(capacity, hasher),
            capacity,
            refresh_interval: refresh_interval.max(1),
            since_refresh: 0,
            refreshes: 0,
            stats: CacheStats::new(),
        }
    }

    /// Number of resident-set rebuilds so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Immutable view of the estimator.
    pub fn estimator(&self) -> &SpaceSaving<K> {
        &self.estimator
    }

    fn refresh(&mut self) {
        self.refreshes += 1;
        let old_len = self.resident.len();
        let next: HashSet<K, FastBuildHasher> = self
            .estimator
            .top(self.capacity)
            .into_iter()
            .map(|e| e.key)
            .collect();
        // Account churn as insertions/evictions for observability.
        // scp-allow(hash-iteration): only the cardinality of the
        // intersection is used, which is invariant to iteration order
        // DETERMINISM: the intersection is reduced to its cardinality,
        // which does not depend on hash iteration order.
        let kept = next.intersection(&self.resident).count();
        for _ in 0..(next.len() - kept) {
            self.stats.record_insertion();
        }
        for _ in 0..(old_len - kept) {
            self.stats.record_eviction();
        }
        self.resident = next;
    }
}

impl<K: Copy + Eq + Hash + Ord + std::fmt::Debug> Cache<K> for EstimatedOracleCache<K> {
    fn request(&mut self, key: K) -> CacheOutcome {
        if self.capacity == 0 {
            self.stats.record_miss();
            return CacheOutcome::Miss;
        }
        self.estimator.offer(key);
        let outcome = if self.resident.contains(&key) {
            self.stats.record_hit();
            CacheOutcome::Hit
        } else {
            self.stats.record_miss();
            CacheOutcome::Miss
        };
        // Refresh after answering so a hit always reflects the resident
        // set the request observed.
        self.since_refresh += 1;
        if self.since_refresh >= self.refresh_interval {
            self.since_refresh = 0;
            self.refresh();
        }
        outcome
    }

    fn contains(&self, key: &K) -> bool {
        self.resident.contains(key)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.resident.len()
    }

    fn clear(&mut self) {
        self.resident.clear();
        self.estimator.clear();
        self.since_refresh = 0;
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn name(&self) -> &'static str {
        "estimated-oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfect::PerfectCache;
    use scp_workload::rng::Xoshiro256StarStar;
    use scp_workload::zipf::ZipfSampler;

    #[test]
    fn warms_up_then_serves_the_head() {
        let mut c = EstimatedOracleCache::with_tuning(2, 4, 16);
        // A stream dominated by keys 1 and 2.
        for i in 0..400u64 {
            c.request(match i % 4 {
                0 | 1 => 1u64,
                2 => 2,
                _ => 100 + i, // cold tail
            });
        }
        assert!(c.contains(&1));
        assert!(c.contains(&2));
        assert!(c.len() <= 2);
        assert!(c.refreshes() > 0);
        // Steady state: the hot keys hit.
        assert!(c.request(1).is_hit());
        assert!(c.request(2).is_hit());
    }

    #[test]
    fn approaches_the_true_oracle_under_zipf() {
        let m = 5_000u64;
        let cache = 100usize;
        let zipf = ZipfSampler::new(1.1, m).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(42);
        let mut estimated = EstimatedOracleCache::new(cache);
        let mut oracle = PerfectCache::new(cache, 0..cache as u64);
        for _ in 0..200_000 {
            let k = zipf.sample(&mut rng);
            estimated.request(k);
            oracle.request(k);
        }
        let est = estimated.stats().hit_rate();
        let orc = oracle.stats().hit_rate();
        assert!(
            est >= orc - 0.04,
            "estimated oracle {est} too far below true oracle {orc}"
        );
    }

    #[test]
    fn matches_oracle_exactly_under_adversarial_equal_rates() {
        // Under the uniform-subset attack all keys tie; any c of the x
        // keys give the same c/x hit rate the perfect cache achieves.
        let x = 50u64;
        let cache = 25usize;
        let mut est = EstimatedOracleCache::new(cache);
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        for _ in 0..200_000 {
            let k = scp_workload::rng::next_below(&mut rng, x);
            est.request(k);
        }
        let hit = est.stats().hit_rate();
        assert!(
            (hit - cache as f64 / x as f64).abs() < 0.12,
            "hit rate {hit} should be near c/x = 0.5"
        );
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut c: EstimatedOracleCache<u64> = EstimatedOracleCache::new(0);
        for k in 0..100 {
            assert!(!c.request(k).is_hit());
        }
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn clear_forgets_history() {
        let mut c = EstimatedOracleCache::with_tuning(2, 2, 4);
        for _ in 0..50 {
            c.request(1u64);
        }
        assert!(c.contains(&1));
        c.clear();
        assert!(!c.contains(&1));
        assert_eq!(c.estimator().observed(), 0);
    }

    #[test]
    fn len_bounded_by_capacity() {
        let mut c = EstimatedOracleCache::with_tuning(5, 4, 8);
        for k in 0..2000u64 {
            c.request(k % 37);
            assert!(c.len() <= 5);
        }
    }
}

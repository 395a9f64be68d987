//! Space-Saving top-k frequency estimation (Metwally, Agrawal & El
//! Abbadi, ICDT'05).
//!
//! The paper's perfect cache assumes the front end *knows* the `c` most
//! popular keys. A real front end must estimate them from the query
//! stream in bounded memory; Space-Saving is the standard tool: `k`
//! counters track the heaviest keys with guaranteed over-count error
//! `<= N/k` after `N` observations, and every key with true frequency
//! above `N/k` is guaranteed to be tracked.

use scp_workload::fasthash::FastBuildHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;

/// One tracked entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKEntry<K> {
    /// The tracked key.
    pub key: K,
    /// Estimated occurrence count (never an undercount).
    pub count: u64,
    /// Maximum possible over-count (the evicted predecessor's count).
    pub error: u64,
}

/// Space-Saving estimator over at most `capacity` counters.
///
/// Operations are O(log capacity).
///
/// # Example
///
/// ```
/// use scp_cache::topk::SpaceSaving;
///
/// let mut ss = SpaceSaving::new(2);
/// for _ in 0..10 { ss.offer(1u64); }
/// for _ in 0..5 { ss.offer(2u64); }
/// ss.offer(3u64); // evicts the lightest counter
/// let top = ss.top(1);
/// assert_eq!(top[0].key, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SpaceSaving<K> {
    // key -> (count, error, tick)
    entries: HashMap<K, (u64, u64, u64), FastBuildHasher>,
    // (count, tick, key) ordered ascending: first() is the eviction victim.
    order: BTreeSet<(u64, u64, K)>,
    capacity: usize,
    tick: u64,
    observed: u64,
}

impl<K: Copy + Eq + Hash + Ord> SpaceSaving<K> {
    /// Creates an estimator with `capacity` counters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, FastBuildHasher::default())
    }

    /// [`SpaceSaving::new`] with the entry table keyed by `hasher`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub(crate) fn with_hasher(capacity: usize, hasher: FastBuildHasher) -> Self {
        assert!(capacity > 0, "need at least one counter");
        Self {
            entries: HashMap::with_capacity_and_hasher(capacity, hasher),
            order: BTreeSet::new(),
            capacity,
            tick: 0,
            observed: 0,
        }
    }

    /// Number of counters.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of keys currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no keys are tracked yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total observations so far (`N` in the error guarantee `N/k`).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Records one occurrence of `key`.
    pub fn offer(&mut self, key: K) {
        self.tick += 1;
        self.observed += 1;
        if let Some(&(count, error, tick)) = self.entries.get(&key) {
            self.order.remove(&(count, tick, key));
            self.entries.insert(key, (count + 1, error, self.tick));
            self.order.insert((count + 1, self.tick, key));
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(key, (1, 0, self.tick));
            self.order.insert((1, self.tick, key));
            return;
        }
        // Replace the minimum counter; inherit its count as the error.
        let Some((min_count, _, min_key)) = self.order.pop_first() else {
            return; // unreachable: `order` mirrors the full `entries`
        };
        self.entries.remove(&min_key);
        self.entries
            .insert(key, (min_count + 1, min_count, self.tick));
        self.order.insert((min_count + 1, self.tick, key));
    }

    /// Estimated count for a key (0 if untracked).
    pub fn estimate(&self, key: &K) -> u64 {
        self.entries.get(key).map(|&(c, _, _)| c).unwrap_or(0)
    }

    /// Guaranteed lower bound on a key's true count (`count - error`).
    pub fn guaranteed(&self, key: &K) -> u64 {
        self.entries
            .get(key)
            .map(|&(c, e, _)| c.saturating_sub(e))
            .unwrap_or(0)
    }

    /// The `n` heaviest tracked keys, most frequent first.
    pub fn top(&self, n: usize) -> Vec<TopKEntry<K>> {
        self.order
            .iter()
            .rev()
            .take(n)
            .map(|&(count, _, key)| {
                let error = self.entries.get(&key).map_or(0, |&(_, error, _)| error);
                TopKEntry { key, count, error }
            })
            .collect()
    }

    /// Clears all counters.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.observed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_exact_counts_below_capacity() {
        let mut ss = SpaceSaving::new(10);
        for k in [1u64, 2, 1, 3, 1, 2] {
            ss.offer(k);
        }
        assert_eq!(ss.estimate(&1), 3);
        assert_eq!(ss.estimate(&2), 2);
        assert_eq!(ss.estimate(&3), 1);
        assert_eq!(ss.guaranteed(&1), 3, "no evictions yet: zero error");
        assert_eq!(ss.observed(), 6);
        assert_eq!(ss.len(), 3);
    }

    #[test]
    fn eviction_inherits_min_count_as_error() {
        let mut ss = SpaceSaving::new(2);
        ss.offer(1u64);
        ss.offer(1);
        ss.offer(2); // counters: 1->2, 2->1
        ss.offer(3); // evicts 2 (min=1): 3 -> count 2, error 1
        assert_eq!(ss.estimate(&2), 0);
        assert_eq!(ss.estimate(&3), 2);
        assert_eq!(ss.guaranteed(&3), 1);
        // Estimates never undercount the true frequency.
        assert!(ss.estimate(&1) >= 2);
    }

    #[test]
    fn top_returns_descending_and_respects_n() {
        let mut ss = SpaceSaving::new(5);
        for (k, times) in [(1u64, 5), (2, 3), (3, 8), (4, 1)] {
            for _ in 0..times {
                ss.offer(k);
            }
        }
        let top = ss.top(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].key, 3);
        assert_eq!(top[1].key, 1);
        assert_eq!(top[2].key, 2);
        assert!(ss.top(100).len() == 4, "clamped to tracked keys");
    }

    #[test]
    fn heavy_hitters_always_survive() {
        // Guarantee: any key with true frequency > N/k stays tracked.
        // One key at 20% of a stream with k = 10 counters (threshold 10%).
        let mut ss = SpaceSaving::new(10);
        let mut x = 9u64;
        for i in 0..50_000u64 {
            if i % 5 == 0 {
                ss.offer(u64::MAX); // the heavy hitter
            } else {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ss.offer(x >> 33); // cold noise
            }
        }
        assert!(ss.estimate(&u64::MAX) >= 10_000, "heavy hitter evicted");
        assert_eq!(ss.top(1)[0].key, u64::MAX);
    }

    #[test]
    fn never_undercounts() {
        let mut ss = SpaceSaving::new(4);
        let stream: Vec<u64> = (0..2000).map(|i| i % 13).collect();
        let mut truth = std::collections::HashMap::new();
        for &k in &stream {
            ss.offer(k);
            *truth.entry(k).or_insert(0u64) += 1;
        }
        for e in ss.top(4) {
            assert!(
                e.count >= truth[&e.key],
                "undercounted {}: {} < {}",
                e.key,
                e.count,
                truth[&e.key]
            );
            assert!(e.count - e.error <= truth[&e.key], "lower bound invalid");
        }
    }

    #[test]
    fn error_bounded_by_n_over_k() {
        let mut ss = SpaceSaving::new(20);
        let mut x = 7u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ss.offer(x % 500);
        }
        let bound = ss.observed() / 20;
        for e in ss.top(20) {
            assert!(e.error <= bound, "error {} above N/k = {bound}", e.error);
        }
    }

    #[test]
    fn clear_resets() {
        let mut ss = SpaceSaving::new(3);
        ss.offer(1u64);
        ss.clear();
        assert!(ss.is_empty());
        assert_eq!(ss.observed(), 0);
        assert_eq!(ss.estimate(&1), 0);
    }

    #[test]
    #[should_panic(expected = "at least one counter")]
    fn zero_capacity_panics() {
        let _: SpaceSaving<u64> = SpaceSaving::new(0);
    }
}

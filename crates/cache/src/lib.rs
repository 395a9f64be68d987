//! Front-end cache policies for the secure-cache-provision project.
//!
//! The paper assumes a *perfect* popularity cache: the `c` most popular
//! items always hit, everything else always misses
//! ([`perfect::PerfectCache`]). Real front ends run replacement policies,
//! so this crate also ships LRU, FIFO, CLOCK, LFU, segmented LRU,
//! W-TinyLFU and ARC implementations behind one [`Cache`] trait, plus an
//! estimated oracle ([`estimated::EstimatedOracleCache`]) that learns the
//! top `c` online with a Space-Saving summary — the ablation experiments
//! measure how far each policy falls from the perfect-cache guarantee
//! under adversarial and Zipf workloads.
//!
//! All policies are deterministic, single-threaded state machines with
//! O(1) or O(log c) operations, suitable for tight simulation loops.
//!
//! # Example
//!
//! ```
//! use scp_cache::{Cache, CacheOutcome};
//! use scp_cache::lru::LruCache;
//!
//! let mut cache: LruCache<u64> = LruCache::new(2);
//! assert_eq!(cache.request(1), CacheOutcome::Miss);
//! assert_eq!(cache.request(1), CacheOutcome::Hit);
//! cache.request(2);
//! cache.request(3); // evicts key 1
//! assert_eq!(cache.request(1), CacheOutcome::Miss);
//! assert!((cache.stats().hit_rate() - 0.2).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod arc;
pub mod clock;
pub mod estimated;
pub mod fifo;
pub mod lfu;
pub mod lru;
pub mod nocache;
pub mod perfect;
pub mod sketch;
pub mod slru;
pub mod stats;
mod table;
pub mod tinylfu;
pub mod topk;

pub use stats::CacheStats;

use std::fmt;
use std::hash::Hash;

/// Result of presenting one request to a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The item was served from the cache.
    Hit,
    /// The item was not cached; the back end must serve it. The policy may
    /// have admitted it as a side effect.
    Miss,
}

impl CacheOutcome {
    /// Whether this outcome is a hit.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// A front-end cache policy.
///
/// `request` both answers "hit or miss?" and lets the policy update its
/// internal state (recency, frequency, admission) — mirroring a real
/// look-through cache where every client query passes the front end.
pub trait Cache<K: Copy + Eq + Hash + fmt::Debug>: fmt::Debug {
    /// Presents one request; updates policy state and hit/miss statistics.
    fn request(&mut self, key: K) -> CacheOutcome;

    /// Whether the key is currently resident (no state change).
    fn contains(&self, key: &K) -> bool;

    /// Maximum number of resident items.
    fn capacity(&self) -> usize;

    /// Current number of resident items.
    fn len(&self) -> usize;

    /// Whether the cache holds no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all resident items (statistics are preserved).
    fn clear(&mut self);

    /// Hit/miss counters accumulated so far.
    fn stats(&self) -> &CacheStats;

    /// Zeroes the hit/miss counters (resident items are preserved).
    fn reset_stats(&mut self);

    /// Short policy name for reports (e.g. `"lru"`).
    fn name(&self) -> &'static str;

    /// Number of frequency-sketch halving resets performed so far.
    ///
    /// Zero for policies without a frequency sketch; W-TinyLFU overrides
    /// this so serving reports can export how often the admission filter
    /// aged its estimates (each reset also clears the doorkeeper).
    fn sketch_resets(&self) -> u64 {
        0
    }

    /// Pre-populates the cache by requesting each key once, then resets
    /// statistics; convenient for warm-start experiments.
    fn warm<I: IntoIterator<Item = K>>(&mut self, keys: I)
    where
        Self: Sized,
    {
        for k in keys {
            self.request(k);
        }
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_is_hit() {
        assert!(CacheOutcome::Hit.is_hit());
        assert!(!CacheOutcome::Miss.is_hit());
    }

    #[test]
    fn warm_fills_and_resets_stats() {
        let mut c: lru::LruCache<u32> = lru::LruCache::new(4);
        c.warm([1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().lookups(), 0);
        assert_eq!(c.request(1), CacheOutcome::Hit);
    }
}

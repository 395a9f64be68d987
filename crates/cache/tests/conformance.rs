//! Conformance suite: every cache policy must uphold the `Cache` contract.
//!
//! Universal laws (all policies):
//! * residency never exceeds capacity;
//! * `request` returns `Hit` iff `contains` held immediately before;
//! * statistics: every request is exactly one hit or one miss;
//! * `clear` empties residency but keeps statistics;
//! * `reset_stats` zeroes statistics but keeps residency;
//! * identical request sequences produce identical outcome sequences.
//!
//! Admission laws (policies that admit on miss — everything except the
//! perfect oracle and the null cache):
//! * a just-requested key is resident while capacity > 0;
//! * requesting one key twice in a row yields a hit.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_cache::arc::ArcCache;
use scp_cache::clock::ClockCache;
use scp_cache::estimated::EstimatedOracleCache;
use scp_cache::fifo::FifoCache;
use scp_cache::lfu::LfuCache;
use scp_cache::lru::LruCache;
use scp_cache::nocache::NoCache;
use scp_cache::perfect::PerfectCache;
use scp_cache::slru::SlruCache;
use scp_cache::tinylfu::TinyLfuCache;
use scp_cache::{Cache, CacheOutcome};

type Factory = Box<dyn Fn(usize) -> Box<dyn Cache<u64>>>;

fn all_policies() -> Vec<(&'static str, Factory, bool)> {
    // (name, factory, admits_on_miss)
    vec![
        (
            "perfect",
            Box::new(|c| Box::new(PerfectCache::new(c, 0..c as u64)) as Box<dyn Cache<u64>>)
                as Factory,
            false,
        ),
        (
            "lru",
            Box::new(|c| Box::new(LruCache::new(c)) as Box<dyn Cache<u64>>),
            true,
        ),
        (
            "lfu",
            Box::new(|c| Box::new(LfuCache::new(c)) as Box<dyn Cache<u64>>),
            true,
        ),
        (
            "fifo",
            Box::new(|c| Box::new(FifoCache::new(c)) as Box<dyn Cache<u64>>),
            true,
        ),
        (
            "clock",
            Box::new(|c| Box::new(ClockCache::new(c)) as Box<dyn Cache<u64>>),
            true,
        ),
        (
            "slru",
            Box::new(|c| Box::new(SlruCache::new(c)) as Box<dyn Cache<u64>>),
            true,
        ),
        (
            "tinylfu",
            Box::new(|c| Box::new(TinyLfuCache::new(c)) as Box<dyn Cache<u64>>),
            true,
        ),
        (
            "arc",
            Box::new(|c| Box::new(ArcCache::new(c)) as Box<dyn Cache<u64>>),
            true,
        ),
        (
            "estimated-oracle",
            Box::new(|c| Box::new(EstimatedOracleCache::new(c)) as Box<dyn Cache<u64>>),
            false,
        ),
        (
            "none",
            Box::new(|_| Box::new(NoCache::new()) as Box<dyn Cache<u64>>),
            false,
        ),
    ]
}

/// Deterministic pseudo-random request sequence over a small key space.
fn op_sequence(len: usize, keys: u64, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % keys
        })
        .collect()
}

#[test]
fn residency_never_exceeds_capacity() {
    for (name, factory, _) in all_policies() {
        for cap in [0usize, 1, 2, 7, 64] {
            let mut cache = factory(cap);
            for &k in &op_sequence(3000, 200, 42) {
                cache.request(k);
                assert!(
                    cache.len() <= cap.max(cache.capacity()),
                    "{name}: len {} over capacity {cap}",
                    cache.len()
                );
            }
        }
    }
}

#[test]
fn hit_iff_resident_before_request() {
    for (name, factory, _) in all_policies() {
        let mut cache = factory(16);
        for &k in &op_sequence(2000, 64, 7) {
            let resident = cache.contains(&k);
            let outcome = cache.request(k);
            assert_eq!(
                outcome.is_hit(),
                resident,
                "{name}: outcome {outcome:?} but contains() said {resident}"
            );
        }
    }
}

#[test]
fn every_request_is_exactly_one_hit_or_miss() {
    for (name, factory, _) in all_policies() {
        let mut cache = factory(8);
        let ops = op_sequence(1000, 40, 99);
        for &k in &ops {
            cache.request(k);
        }
        let stats = *cache.stats();
        assert_eq!(
            stats.lookups(),
            ops.len() as u64,
            "{name}: lookups {} for {} requests",
            stats.lookups(),
            ops.len()
        );
        assert_eq!(stats.hits() + stats.misses(), stats.lookups(), "{name}");
    }
}

#[test]
fn clear_empties_but_keeps_stats() {
    for (name, factory, _) in all_policies() {
        let mut cache = factory(8);
        for &k in &op_sequence(100, 20, 3) {
            cache.request(k);
        }
        let lookups_before = cache.stats().lookups();
        cache.clear();
        assert_eq!(cache.len(), 0, "{name}: clear left residents");
        assert!(cache.is_empty(), "{name}");
        assert_eq!(
            cache.stats().lookups(),
            lookups_before,
            "{name}: clear must not touch stats"
        );
    }
}

#[test]
fn reset_stats_keeps_residency() {
    for (name, factory, _) in all_policies() {
        let mut cache = factory(8);
        for &k in &op_sequence(100, 20, 4) {
            cache.request(k);
        }
        let len_before = cache.len();
        cache.reset_stats();
        assert_eq!(cache.stats().lookups(), 0, "{name}");
        assert_eq!(cache.len(), len_before, "{name}: reset_stats evicted");
    }
}

#[test]
fn outcome_sequences_are_deterministic() {
    for (name, factory, _) in all_policies() {
        let ops = op_sequence(1500, 50, 5);
        let run = || -> Vec<bool> {
            let mut cache = factory(12);
            ops.iter().map(|&k| cache.request(k).is_hit()).collect()
        };
        assert_eq!(run(), run(), "{name}: nondeterministic outcomes");
    }
}

#[test]
fn admitting_policies_keep_the_just_requested_key() {
    for (name, factory, admits) in all_policies() {
        if !admits {
            continue;
        }
        let mut cache = factory(10);
        for &k in &op_sequence(2000, 100, 6) {
            cache.request(k);
            assert!(
                cache.contains(&k),
                "{name}: just-requested key {k} not resident"
            );
        }
    }
}

#[test]
fn admitting_policies_hit_on_immediate_rerequest() {
    for (name, factory, admits) in all_policies() {
        if !admits {
            continue;
        }
        let mut cache = factory(4);
        for &k in &op_sequence(500, 50, 8) {
            cache.request(k);
            assert_eq!(
                cache.request(k),
                CacheOutcome::Hit,
                "{name}: immediate re-request of {k} missed"
            );
        }
    }
}

#[test]
fn zero_capacity_policies_never_hit() {
    for (name, factory, _) in all_policies() {
        let mut cache = factory(0);
        for &k in &op_sequence(300, 10, 9) {
            assert_eq!(
                cache.request(k),
                CacheOutcome::Miss,
                "{name}: hit with zero capacity"
            );
        }
        assert_eq!(cache.len(), 0, "{name}");
    }
}

#[test]
fn names_are_unique_and_stable() {
    let mut names: Vec<&str> = all_policies()
        .iter()
        .map(|(_, factory, _)| factory(4).name())
        .collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "duplicate policy names: {names:?}");
}

#[test]
fn insertions_balance_residents_evictions_and_rejections() {
    // Policies whose counters are not meant to balance, and why.
    let exempt = [(
        "perfect",
        "its residents are the preloaded top c, never inserted on a request",
    )];
    for (name, factory, _) in all_policies() {
        if exempt.iter().any(|&(policy, _)| policy == name) {
            continue;
        }
        for cap in [0usize, 1, 2, 7, 64, 100] {
            let mut cache = factory(cap);
            for (i, &k) in op_sequence(3000, 300, 11).iter().enumerate() {
                cache.request(k);
                let stats = *cache.stats();
                assert_eq!(
                    stats.insertions(),
                    cache.len() as u64 + stats.evictions() + stats.rejections(),
                    "{name}, capacity {cap}, after request {i}: {stats:?}"
                );
            }
        }
    }
}

//! Per-query sampling engine.
//!
//! Draws individual queries from the access pattern and pushes each
//! through the crate's one sampled front end: a cache of the configured
//! policy, then the cluster. Slower than the rate engine but exercises
//! *real* caches (LRU, TinyLFU, ...) and includes multinomial sampling
//! noise — what a live front end would see.

use crate::config::SimConfig;
use crate::cost::CostModel;
use crate::front_end;
use crate::metrics::LoadReport;
use crate::multi_frontend::FrontendRouting;
use crate::Result;

/// Runs one query-sampling simulation of `queries` requests.
///
/// The perfect cache is seeded with the true top-`c` keys of the pattern;
/// replacement policies start cold and warm up within the run.
///
/// # Errors
///
/// Returns an error on invalid configs or `queries == 0`.
pub fn run_query_simulation(cfg: &SimConfig, queries: u64) -> Result<LoadReport> {
    cfg.validate()?;
    let uniform = CostModel::uniform();
    Ok(front_end::run(cfg, queries, 1, FrontendRouting::ByClient, &uniform)?.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdmissionKind, CacheKind, PartitionerKind, SelectorKind};
    use crate::rate_engine::run_rate_simulation;
    use scp_workload::AccessPattern;

    fn config(kind: CacheKind, c: usize, x: u64) -> SimConfig {
        SimConfig {
            nodes: 50,
            replication: 3,
            cache_kind: kind,
            admission: AdmissionKind::Oracle,
            cache_capacity: c,
            items: 5000,
            rate: 1e4,
            pattern: AccessPattern::uniform_subset(x, 5000).unwrap(),
            partitioner: PartitionerKind::Hash,
            selector: SelectorKind::LeastLoaded,
            seed: 7,
        }
    }

    #[test]
    fn conserves_query_count() {
        let r = run_query_simulation(&config(CacheKind::Perfect, 10, 100), 20_000).unwrap();
        assert!(r.is_conserved(1e-12));
        assert_eq!(r.offered, 20_000.0);
        let stats = r.cache_stats.unwrap();
        assert_eq!(stats.lookups(), 20_000);
    }

    #[test]
    fn rejects_zero_queries() {
        assert!(run_query_simulation(&config(CacheKind::Perfect, 10, 100), 0).is_err());
    }

    #[test]
    fn perfect_cache_hit_rate_matches_head_mass() {
        // Uniform over 100 keys, top-10 cached: hit rate ~ 10%.
        let r = run_query_simulation(&config(CacheKind::Perfect, 10, 100), 100_000).unwrap();
        let hit = r.cache_stats.unwrap().hit_rate();
        assert!((hit - 0.1).abs() < 0.01, "hit rate {hit}");
    }

    #[test]
    fn query_engine_agrees_with_rate_engine_in_expectation() {
        // Same config, same seed: the rate engine computes the expectation
        // the query engine estimates. Compare cache fractions and gains.
        let cfg = config(CacheKind::Perfect, 20, 200);
        let exact = run_rate_simulation(&cfg).unwrap();
        let sampled = run_query_simulation(&cfg, 400_000).unwrap();
        assert!(
            (exact.cache_fraction() - sampled.cache_fraction()).abs() < 0.01,
            "cache fractions {} vs {}",
            exact.cache_fraction(),
            sampled.cache_fraction()
        );
        assert!(
            (exact.gain().value() - sampled.gain().value()).abs() < 0.25,
            "gains {} vs {}",
            exact.gain(),
            sampled.gain()
        );
    }

    #[test]
    fn lru_matches_perfect_hit_rate_under_iid_uniform_subset() {
        // Under IID sampling of x = 2c equally popular keys, LRU's hit
        // rate is also ~ c/x (the requested key is cached iff it is among
        // the c most recently seen distinct keys). LRU only collapses
        // under *cyclic* scan orders — covered by the cache crate's
        // deterministic tests. This pins the IID equivalence, which is
        // why the paper's perfect-cache assumption is not load-bearing
        // for hit rates against IID attacks.
        let queries = 200_000;
        let perfect = run_query_simulation(&config(CacheKind::Perfect, 50, 100), queries).unwrap();
        let lru = run_query_simulation(&config(CacheKind::Lru, 50, 100), queries).unwrap();
        let p_hit = perfect.cache_stats.unwrap().hit_rate();
        let l_hit = lru.cache_stats.unwrap().hit_rate();
        assert!(p_hit > 0.45, "perfect ~0.5, got {p_hit}");
        assert!(
            (l_hit - p_hit).abs() < 0.05,
            "lru {l_hit} vs perfect {p_hit}"
        );
        // LRU spreads residual misses over all x keys (the cached set
        // drifts), so its backend balance is no worse than perfect's.
        assert!(lru.gain().value() <= perfect.gain().value() * 1.2);
    }

    #[test]
    fn lfu_approaches_perfect_under_zipf() {
        let mut cfg = config(CacheKind::Lfu, 50, 100);
        cfg.pattern = AccessPattern::zipf(1.2, 5000).unwrap();
        let lfu = run_query_simulation(&cfg, 200_000).unwrap();
        cfg.cache_kind = CacheKind::Perfect;
        let perfect = run_query_simulation(&cfg, 200_000).unwrap();
        let gap = perfect.cache_stats.unwrap().hit_rate() - lfu.cache_stats.unwrap().hit_rate();
        assert!(
            gap < 0.08,
            "LFU should be near-oracle under Zipf, gap {gap}"
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let cfg = config(CacheKind::Lru, 25, 80);
        let a = run_query_simulation(&cfg, 50_000).unwrap();
        let b = run_query_simulation(&cfg, 50_000).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn no_cache_routes_every_query() {
        let r = run_query_simulation(&config(CacheKind::None, 0, 100), 10_000).unwrap();
        assert_eq!(r.cache_load, 0.0);
        assert_eq!(r.snapshot.total(), 10_000.0);
    }

    #[test]
    fn all_cache_kinds_run_clean() {
        for kind in CacheKind::ALL {
            let c = if kind == CacheKind::None { 0 } else { 25 };
            let r = run_query_simulation(&config(kind, c, 100), 5_000).unwrap();
            assert!(r.is_conserved(1e-12), "{} leaks load", kind.name());
        }
    }
}

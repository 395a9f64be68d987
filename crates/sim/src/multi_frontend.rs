//! Multiple front-end caches.
//!
//! Production clusters run several load-balancer front ends, not one.
//! How the client tier routes queries to them decides how much cache the
//! system effectively has:
//!
//! * [`FrontendRouting::ByClient`] — clients are spread over front ends
//!   independent of the key (random L4 balancing). Every front end sees
//!   the same distribution and caches the same top-`c` keys: the system
//!   behaves exactly like one cache of `c` entries.
//! * [`FrontendRouting::ByKey`] — a key-hash router sends each key to one
//!   front end. Front ends cache the top-`c` *of their shard*, so the
//!   effective cache is `f·c` entries.
//!
//! The paper's single-cache bound therefore transfers verbatim to
//! by-client fleets, and improves by a factor `f` for by-key fleets —
//! this module lets the ablation measure both.

use crate::config::SimConfig;
use crate::cost::CostModel;
use crate::front_end;
use crate::metrics::LoadReport;
use crate::Result;

/// How queries are routed to front-end caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrontendRouting {
    /// Key-agnostic spreading (each query hits a uniformly random front
    /// end) — models random client-side or L4 balancing.
    ByClient,
    /// Deterministic key-hash routing — every key always hits the same
    /// front end.
    ByKey,
}

impl FrontendRouting {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FrontendRouting::ByClient => "by-client",
            FrontendRouting::ByKey => "by-key",
        }
    }
}

/// Outcome of a multi-front-end run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiFrontendReport {
    /// Aggregate backend/cache accounting.
    pub load: LoadReport,
    /// Hit rate of each front end.
    pub frontend_hit_rates: Vec<f64>,
    /// Number of distinct keys resident across all front ends at the end.
    pub total_resident: usize,
}

/// Runs a query-sampling simulation with `frontends` independent caches of
/// `cfg.cache_capacity` entries each.
///
/// Perfect caches are seeded with the top keys *of the traffic each front
/// end actually sees* (global top-`c` for by-client routing, shard top-`c`
/// for by-key routing); replacement policies warm up organically.
///
/// # Errors
///
/// Returns an error on invalid configs, `frontends == 0`, or
/// `queries == 0`.
pub fn run_multi_frontend_simulation(
    cfg: &SimConfig,
    frontends: usize,
    routing: FrontendRouting,
    queries: u64,
) -> Result<MultiFrontendReport> {
    cfg.validate()?;
    let (front, mut load) =
        front_end::run(cfg, queries, frontends, routing, &CostModel::uniform())?;
    load.cache_stats = None;
    let caches = front.caches();
    Ok(MultiFrontendReport {
        load,
        frontend_hit_rates: caches.iter().map(|c| c.stats().hit_rate()).collect(),
        total_resident: caches.iter().map(|c| c.len()).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdmissionKind, CacheKind, PartitionerKind, SelectorKind};
    use crate::query_engine::run_query_simulation;
    use scp_workload::AccessPattern;

    fn config(c: usize, x: u64) -> SimConfig {
        SimConfig {
            nodes: 50,
            replication: 3,
            cache_kind: CacheKind::Perfect,
            admission: AdmissionKind::Oracle,
            cache_capacity: c,
            items: 5_000,
            rate: 1e4,
            pattern: AccessPattern::uniform_subset(x, 5_000).unwrap(),
            partitioner: PartitionerKind::Hash,
            selector: SelectorKind::LeastLoaded,
            seed: 31,
        }
    }

    #[test]
    fn validates_inputs() {
        assert!(
            run_multi_frontend_simulation(&config(10, 100), 0, FrontendRouting::ByClient, 100)
                .is_err()
        );
        assert!(
            run_multi_frontend_simulation(&config(10, 100), 2, FrontendRouting::ByClient, 0)
                .is_err()
        );
    }

    #[test]
    fn by_client_matches_single_cache_hit_rate() {
        // 4 front ends, each caching the same global top-c: aggregate hit
        // rate equals one cache of c (~10%).
        let cfg = config(10, 100);
        let multi =
            run_multi_frontend_simulation(&cfg, 4, FrontendRouting::ByClient, 200_000).unwrap();
        let single = run_query_simulation(&cfg, 200_000).unwrap();
        let multi_hit = multi.load.cache_fraction();
        let single_hit = single.cache_fraction();
        assert!(
            (multi_hit - single_hit).abs() < 0.01,
            "by-client {multi_hit} vs single {single_hit}"
        );
        // All front ends cache the same keys: total resident = f * c.
        assert_eq!(multi.total_resident, 40);
    }

    #[test]
    fn by_key_multiplies_effective_cache() {
        // 4 front ends with by-key routing: effectively 4c cache entries,
        // so ~40% of the 100-key uniform attack is absorbed vs ~10%.
        let cfg = config(10, 100);
        let by_key =
            run_multi_frontend_simulation(&cfg, 4, FrontendRouting::ByKey, 200_000).unwrap();
        let by_client =
            run_multi_frontend_simulation(&cfg, 4, FrontendRouting::ByClient, 200_000).unwrap();
        assert!(
            by_key.load.cache_fraction() > by_client.load.cache_fraction() + 0.15,
            "by-key {} should absorb far more than by-client {}",
            by_key.load.cache_fraction(),
            by_client.load.cache_fraction()
        );
    }

    #[test]
    fn one_frontend_equals_plain_engine_hit_rate() {
        let cfg = config(20, 200);
        let multi =
            run_multi_frontend_simulation(&cfg, 1, FrontendRouting::ByKey, 100_000).unwrap();
        let single = run_query_simulation(&cfg, 100_000).unwrap();
        // ByKey with one front end caches the global top-c: same fraction.
        assert!((multi.load.cache_fraction() - single.cache_fraction()).abs() < 0.01);
    }

    #[test]
    fn per_frontend_hit_rates_are_reported() {
        let cfg = config(10, 100);
        let r = run_multi_frontend_simulation(&cfg, 3, FrontendRouting::ByClient, 60_000).unwrap();
        assert_eq!(r.frontend_hit_rates.len(), 3);
        for &hr in &r.frontend_hit_rates {
            assert!((hr - 0.1).abs() < 0.03, "front-end hit rate {hr}");
        }
    }

    #[test]
    fn conservation_holds() {
        let cfg = config(10, 100);
        for routing in [FrontendRouting::ByClient, FrontendRouting::ByKey] {
            let r = run_multi_frontend_simulation(&cfg, 4, routing, 50_000).unwrap();
            assert!(r.load.is_conserved(1e-9), "{}", routing.name());
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let cfg = config(10, 100);
        let a = run_multi_frontend_simulation(&cfg, 4, FrontendRouting::ByKey, 30_000).unwrap();
        let b = run_multi_frontend_simulation(&cfg, 4, FrontendRouting::ByKey, 30_000).unwrap();
        assert_eq!(a, b);
    }
}

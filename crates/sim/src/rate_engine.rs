//! Exact rate propagation (the paper's simulation methodology).
//!
//! Instead of sampling individual queries, the engine attributes each
//! rank's exact query rate `R · p_rank` to either the front-end cache (the
//! `c` most popular ranks — perfect caching) or the back-end node(s)
//! chosen by the partitioner and replica selector. The measured maximum
//! load is then a function of the random partition only, matching the
//! paper's "x different keys are queried at the same rate, and the load of
//! the most loaded nodes is recorded" (Section IV).

use crate::config::{AdmissionKind, CacheKind, SimConfig};
use crate::error::SimError;
use crate::front_end::RANK_BATCH;
use crate::metrics::LoadReport;
use crate::Result;
use scp_cluster::select::RateAssignment;
use scp_cluster::{Cluster, KeyId};
use scp_workload::permute::KeyMapping;
use scp_workload::rng::mix;

/// Runs one rate-propagation simulation.
///
/// Under [`AdmissionKind::Oracle`] this requires [`CacheKind::Perfect`]
/// or [`CacheKind::None`]: steady-state rates have no notion of recency,
/// so replacement policies need the [`crate::query_engine`] instead.
/// Under [`AdmissionKind::Online`] the effective cache (W-TinyLFU for a
/// perfect-oracle config) is instead *measured*: a seeded rank stream
/// drives it to empirical per-rank hit probabilities, which then scale
/// each rank's propagated rate.
///
/// # Errors
///
/// Returns an error on invalid configs or unsupported cache kinds.
pub fn run_rate_simulation(cfg: &SimConfig) -> Result<LoadReport> {
    cfg.validate()?;
    if cfg.admission == AdmissionKind::Online && cfg.effective_cache_kind() != CacheKind::None {
        return run_rate_simulation_online(cfg);
    }
    let cache_capacity = match cfg.cache_kind {
        CacheKind::Perfect => cfg.cache_capacity,
        CacheKind::None => 0,
        other => {
            return Err(SimError::InvalidConfig {
                field: "cache_kind",
                reason: format!(
                    "rate engine models steady state and supports only \
                     perfect/none caching, got {}; use the query engine",
                    other.name()
                ),
            })
        }
    };
    run_rate_simulation_on(cfg, &mut cfg.build_cluster()?, cache_capacity)
}

/// Rate propagation against a caller-prepared cluster (e.g. with failed
/// nodes or attached capacities). The cluster must match the config's
/// node count; its existing loads are reset first.
///
/// # Errors
///
/// Returns an error on invalid or mismatched configs.
pub fn run_rate_simulation_on(
    cfg: &SimConfig,
    cluster: &mut Cluster,
    cache_capacity: usize,
) -> Result<LoadReport> {
    let mapping = cfg.key_mapping()?;
    run_rate_simulation_with(cfg, cluster, cache_capacity, &mapping)
}

/// Rate propagation with an explicit rank-to-key mapping.
///
/// The default engines scatter ranks over the key space (the adversary's
/// key choice is arbitrary and the partition random, so the mapping is
/// irrelevant — except for the correlated [`RangePartitioner`], where an
/// adversary deliberately picks *contiguous* keys: pass
/// [`KeyMapping::Identity`] to model that attack).
///
/// [`RangePartitioner`]: scp_cluster::partition::RangePartitioner
///
/// # Errors
///
/// Returns an error on invalid or mismatched configs.
pub fn run_rate_simulation_with(
    cfg: &SimConfig,
    cluster: &mut Cluster,
    cache_capacity: usize,
    mapping: &KeyMapping,
) -> Result<LoadReport> {
    cfg.validate()?;
    if cluster.node_count() != cfg.nodes {
        return Err(SimError::InvalidConfig {
            field: "nodes",
            reason: format!(
                "cluster has {} nodes, config says {}",
                cluster.node_count(),
                cfg.nodes
            ),
        });
    }
    Ok(propagate(
        cfg,
        cluster,
        mapping,
        oracle_cut(cache_capacity),
        |_, _, _, _| {},
    ))
}

/// The oracle's hit rate by rank: a perfect cache holds exactly the
/// `cache_capacity` most popular ranks.
pub(crate) fn oracle_cut(cache_capacity: usize) -> impl Fn(u64) -> f64 {
    move |rank| {
        if rank < cache_capacity as u64 {
            1.0
        } else {
            0.0
        }
    }
}

/// The one rate loop. Rank `r` carries `R·p(r)`; the cache absorbs
/// `R·p(r)·hit(r)` and the residual goes to the cluster, where `record`
/// sees the assignment it got. The oracle's `hit` is 0 or 1, and
/// multiplying by an exact 1.0 or 0.0 leaves every sum bit-identical to
/// a plain "cache the top `c`, route the rest" loop.
///
/// The cluster's loads, counters and pins are reset first.
pub(crate) fn propagate(
    cfg: &SimConfig,
    cluster: &mut Cluster,
    mapping: &KeyMapping,
    hit: impl Fn(u64) -> f64,
    mut record: impl FnMut(&Cluster, KeyId, f64, RateAssignment),
) -> LoadReport {
    cluster.reset();
    let probs = cfg.pattern.rank_probs();
    let mut cache_load = 0.0;
    // Routed ranks and their residuals, mapped and routed a batch at a
    // time in rank order.
    let mut ranks = [0u64; RANK_BATCH];
    let mut residuals = [0.0f64; RANK_BATCH];
    let mut pending = 0;
    let mut route_pending = |ranks: &mut [u64], residuals: &[f64]| {
        mapping.apply_batch(ranks);
        for (&key, &residual) in ranks.iter().zip(residuals) {
            let key = KeyId::new(key);
            // NoLiveReplica is accounted as unserved inside the cluster.
            if let Ok(assignment) = cluster.apply_rate(key, residual) {
                record(cluster, key, residual, assignment);
            }
        }
    };
    for rank in 0..probs.support_bound() {
        let p = probs.get(rank);
        if p <= 0.0 {
            continue;
        }
        let rate = cfg.rate * p;
        let h = hit(rank);
        cache_load += rate * h;
        let residual = rate * (1.0 - h);
        if residual > 0.0 {
            if let (Some(slot), Some(share)) = (ranks.get_mut(pending), residuals.get_mut(pending))
            {
                (*slot, *share) = (rank, residual);
                pending += 1;
            }
            if pending == RANK_BATCH {
                route_pending(&mut ranks, &residuals);
                pending = 0;
            }
        }
    }
    if let (Some(ranks), Some(residuals)) = (ranks.get_mut(..pending), residuals.get(..pending)) {
        route_pending(ranks, residuals);
    }
    LoadReport {
        snapshot: cluster.snapshot(),
        cache_load,
        offered: cfg.rate,
        unserved: cluster.unserved(),
        cache_stats: None,
    }
}

/// Steady-state propagation under online admission.
///
/// The oracle path's hard `rank < c` cut assumes the cache magically
/// holds the `c` most popular keys. Here the effective cache is driven
/// with a seeded rank stream drawn from the configured pattern — a
/// warmup half, then a measured half whose per-rank hit frequencies
/// become the admission filter: rank load `R·p` splits into
/// `R·p·ĥ(rank)` absorbed by the cache and the residual propagated to
/// the cluster. This makes the gap between provable oracle provisioning
/// and a deployable sketch-driven cache directly measurable.
fn run_rate_simulation_online(cfg: &SimConfig) -> Result<LoadReport> {
    let mut cluster = cfg.build_cluster()?;
    let mapping = cfg.key_mapping()?;
    let support = cfg.pattern.rank_probs().support_bound();

    let mut cache = cfg.build_cache(0..cfg.cache_capacity as u64);
    // Seed lane 5: distinct from the mapping (3) and the query engine's
    // sampling stream (4) so engines stay independently reproducible.
    let mut sampler = cfg.pattern.sampler(mix(&[cfg.seed, 5]))?;

    // Enough draws for the admission sketch to cross several halving
    // windows (sample size is 10·c) at any capacity.
    let measured = 50_000_u64.max(cfg.cache_capacity as u64 * 200);
    for _ in 0..measured {
        let _ = cache.request(sampler.sample());
    }
    cache.reset_stats();
    let mut hits = vec![0u64; support as usize];
    let mut draws = vec![0u64; support as usize];
    for _ in 0..measured {
        let rank = sampler.sample();
        let hit = cache.request(rank).is_hit();
        if let (Some(d), Some(h)) = (draws.get_mut(rank as usize), hits.get_mut(rank as usize)) {
            *d += 1;
            *h += u64::from(hit);
        }
    }

    let hit_rate = |rank: u64| match (hits.get(rank as usize), draws.get(rank as usize)) {
        (Some(&h), Some(&d)) if d > 0 => h as f64 / d as f64,
        _ => 0.0,
    };
    let mut report = propagate(cfg, &mut cluster, &mapping, hit_rate, |_, _, _, _| {});
    report.cache_stats = Some(*cache.stats());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdmissionKind, PartitionerKind, SelectorKind};
    use scp_workload::AccessPattern;

    fn config(c: usize, x: u64) -> SimConfig {
        SimConfig {
            nodes: 100,
            replication: 3,
            cache_kind: CacheKind::Perfect,
            admission: AdmissionKind::Oracle,
            cache_capacity: c,
            items: 10_000,
            rate: 1e4,
            pattern: AccessPattern::uniform_subset(x, 10_000).unwrap(),
            partitioner: PartitionerKind::Hash,
            selector: SelectorKind::LeastLoaded,
            seed: 42,
        }
    }

    #[test]
    fn conserves_offered_rate() {
        let r = run_rate_simulation(&config(10, 50)).unwrap();
        assert!(r.is_conserved(1e-9));
        assert_eq!(r.unserved, 0.0);
    }

    #[test]
    fn cache_absorbs_exactly_head_mass() {
        // Uniform over 50 keys, cache 10 -> cache gets 20% of traffic.
        let r = run_rate_simulation(&config(10, 50)).unwrap();
        assert!((r.cache_fraction() - 0.2).abs() < 1e-9);
        assert!((r.backend_fraction() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn fully_cached_subset_leaves_backend_idle() {
        let r = run_rate_simulation(&config(50, 50)).unwrap();
        assert!((r.cache_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(r.snapshot.total(), 0.0);
        assert_eq!(r.gain().value(), 0.0);
    }

    #[test]
    fn no_cache_sends_everything_to_backend() {
        let mut cfg = config(10, 50);
        cfg.cache_kind = CacheKind::None;
        let r = run_rate_simulation(&cfg).unwrap();
        assert_eq!(r.cache_load, 0.0);
        assert!((r.backend_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_replacement_policies() {
        let mut cfg = config(10, 50);
        cfg.cache_kind = CacheKind::Lru;
        assert!(matches!(
            run_rate_simulation(&cfg),
            Err(SimError::InvalidConfig {
                field: "cache_kind",
                ..
            })
        ));
    }

    #[test]
    fn online_admission_approaches_the_oracle_on_zipf() {
        let mut cfg = config(100, 1);
        cfg.pattern = AccessPattern::zipf(1.01, 10_000).unwrap();
        let oracle = run_rate_simulation(&cfg).unwrap();
        cfg.admission = AdmissionKind::Online;
        let online = run_rate_simulation(&cfg).unwrap();
        assert!(online.is_conserved(1e-9));
        assert!(
            online.cache_fraction() > 0.75 * oracle.cache_fraction(),
            "online {} vs oracle {}",
            online.cache_fraction(),
            oracle.cache_fraction()
        );
        // Learning can only lose mass relative to the true top-c cut.
        assert!(online.cache_fraction() <= oracle.cache_fraction() + 1e-9);
    }

    #[test]
    fn online_admission_is_deterministic() {
        let mut cfg = config(10, 50);
        cfg.admission = AdmissionKind::Online;
        let a = run_rate_simulation(&cfg).unwrap();
        let b = run_rate_simulation(&cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn online_admission_accepts_replacement_policies() {
        let mut cfg = config(10, 50);
        cfg.cache_kind = CacheKind::Lru;
        cfg.admission = AdmissionKind::Online;
        let r = run_rate_simulation(&cfg).unwrap();
        assert!(r.is_conserved(1e-9));
        assert!(r.cache_load > 0.0, "an online LRU must absorb something");
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let a = run_rate_simulation(&config(10, 200)).unwrap();
        let b = run_rate_simulation(&config(10, 200)).unwrap();
        assert_eq!(a, b);
        let mut other = config(10, 200);
        other.seed = 43;
        let c = run_rate_simulation(&other).unwrap();
        assert_ne!(a.snapshot, c.snapshot, "different partitions expected");
    }

    #[test]
    fn attack_on_small_cache_is_effective() {
        // x = c+1 = 11 keys at equal rate, one uncached key carries R/11,
        // even share is R/100: gain must be ~ 100/11 >> 1.
        let r = run_rate_simulation(&config(10, 11)).unwrap();
        assert!(r.gain().is_effective());
        assert!((r.gain().value() - 100.0 / 11.0).abs() < 1e-6);
    }

    #[test]
    fn querying_everything_with_large_cache_is_ineffective() {
        let mut cfg = config(1000, 10_000);
        cfg.pattern = AccessPattern::uniform_subset(10_000, 10_000).unwrap();
        let r = run_rate_simulation(&cfg).unwrap();
        assert!(!r.gain().is_effective(), "gain {}", r.gain());
    }

    #[test]
    fn least_loaded_beats_random_selection_on_max_load() {
        let mut base = config(0, 2000);
        base.cache_kind = CacheKind::None;
        let ll = run_rate_simulation(&base).unwrap();
        let mut rnd = base.clone();
        rnd.selector = SelectorKind::Random;
        let rn = run_rate_simulation(&rnd).unwrap();
        // Random selection splits each key's rate d ways; with many keys
        // both are close to even, but least-loaded should not be worse.
        assert!(ll.max_load() <= rn.max_load() * 1.25);
    }

    #[test]
    fn zipf_pattern_with_decent_cache_is_benign() {
        let mut cfg = config(100, 1);
        cfg.pattern = AccessPattern::zipf(1.01, 10_000).unwrap();
        let r = run_rate_simulation(&cfg).unwrap();
        assert!(r.cache_fraction() > 0.4, "zipf head should hit the cache");
        assert!(!r.gain().is_effective());
    }

    #[test]
    fn failed_nodes_shift_load_to_survivors() {
        let cfg = config(0, 2000);
        let mut cluster = cfg.build_cluster().unwrap();
        for i in 0..10u32 {
            cluster.fail_node(scp_cluster::NodeId::new(i)).unwrap();
        }
        let r = run_rate_simulation_on(&cfg, &mut cluster, 0).unwrap();
        for i in 0..10 {
            assert_eq!(r.snapshot.loads()[i], 0.0, "dead node {i} got load");
        }
        assert!(r.is_conserved(1e-9), "unserved must be accounted");
    }

    #[test]
    fn contiguous_keys_break_range_partitioning() {
        // The paper's excluded case: under range partitioning an adversary
        // querying contiguous keys piles everything onto one replica group.
        use scp_workload::permute::KeyMapping;
        let mut cfg = config(0, 100);
        cfg.cache_kind = CacheKind::None;
        cfg.partitioner = PartitionerKind::Range;
        let mut cluster = cfg.build_cluster().unwrap();
        let contiguous =
            run_rate_simulation_with(&cfg, &mut cluster, 0, &KeyMapping::Identity).unwrap();
        let scattered = run_rate_simulation(&cfg).unwrap();
        assert!(
            contiguous.gain().value() > scattered.gain().value() * 3.0,
            "contiguous {} vs scattered {}",
            contiguous.gain(),
            scattered.gain()
        );
    }

    #[test]
    fn mismatched_cluster_is_rejected() {
        let cfg = config(0, 100);
        let mut small = Cluster::new(
            scp_cluster::partition::HashPartitioner::new(5, 3, 1)
                .map(Box::new)
                .unwrap(),
            cfg.build_selector(),
        );
        assert!(run_rate_simulation_on(&cfg, &mut small, 0).is_err());
    }
}

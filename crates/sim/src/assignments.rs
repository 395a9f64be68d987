//! Extracting per-key serving assignments from a configuration.
//!
//! The rebalancing experiments need to know *which key sits where at what
//! rate*, not just per-node totals. This module runs the rate engine's
//! loop while recording a [`scp_cluster::rebalance::KeyAssignment`] per
//! uncached key.

use crate::config::SimConfig;
use crate::rate_engine::{oracle_cut, propagate};
use crate::Result;
use scp_cluster::rebalance::KeyAssignment;
use scp_cluster::select::RateAssignment;

/// Replays the rate engine, returning the pinned assignment of every
/// uncached key with positive rate.
///
/// Sticky selectors yield one assignment per key; memoryless selectors
/// yield `d` assignments of `rate/d` each (their steady-state expectation),
/// all still confined to the key's replica group.
///
/// # Errors
///
/// Returns an error on invalid configs.
pub fn collect_assignments(cfg: &SimConfig, cache_capacity: usize) -> Result<Vec<KeyAssignment>> {
    cfg.validate()?;
    let mut cluster = cfg.build_cluster()?;
    let mapping = cfg.key_mapping()?;
    let mut out = Vec::new();
    let hit = oracle_cut(cache_capacity);
    propagate(
        cfg,
        &mut cluster,
        &mapping,
        hit,
        |cluster, key, rate, assignment| {
            let group = cluster.replica_group(key);
            match assignment {
                RateAssignment::Pinned(node) => out.push(KeyAssignment {
                    key,
                    node,
                    rate,
                    group,
                }),
                RateAssignment::EvenSplit => {
                    let share = rate / group.len() as f64;
                    out.extend(group.as_slice().iter().map(|&node| KeyAssignment {
                        key,
                        node,
                        rate: share,
                        group,
                    }));
                }
            }
        },
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdmissionKind, CacheKind, PartitionerKind, SelectorKind};
    use crate::rate_engine::run_rate_simulation;
    use scp_cluster::load::LoadSnapshot;
    use scp_workload::AccessPattern;

    fn config(c: usize, x: u64, selector: SelectorKind) -> SimConfig {
        SimConfig {
            nodes: 40,
            replication: 3,
            cache_kind: CacheKind::Perfect,
            admission: AdmissionKind::Oracle,
            cache_capacity: c,
            items: 2_000,
            rate: 1e4,
            pattern: AccessPattern::uniform_subset(x, 2_000).unwrap(),
            partitioner: PartitionerKind::Hash,
            selector,
            seed: 77,
        }
    }

    #[test]
    fn assignments_reproduce_engine_loads_for_sticky_selector() {
        let cfg = config(10, 500, SelectorKind::LeastLoaded);
        let assignments = collect_assignments(&cfg, 10).unwrap();
        assert_eq!(assignments.len(), 490, "one entry per uncached key");
        let mut loads = vec![0.0f64; cfg.nodes];
        for a in &assignments {
            loads[a.node.index()] += a.rate;
        }
        let engine = run_rate_simulation(&cfg).unwrap();
        let rebuilt = LoadSnapshot::new(loads);
        assert!((rebuilt.max() - engine.snapshot.max()).abs() < 1e-9);
        assert!((rebuilt.total() - engine.snapshot.total()).abs() < 1e-9);
    }

    #[test]
    fn memoryless_selector_splits_over_group() {
        let cfg = config(0, 100, SelectorKind::Random);
        let assignments = collect_assignments(&cfg, 0).unwrap();
        assert_eq!(assignments.len(), 300, "d entries per key");
        let per_key: f64 = cfg.rate / 100.0 / 3.0;
        assert!(assignments.iter().all(|a| (a.rate - per_key).abs() < 1e-9));
    }

    #[test]
    fn cached_keys_are_excluded() {
        let cfg = config(50, 100, SelectorKind::LeastLoaded);
        let assignments = collect_assignments(&cfg, 50).unwrap();
        assert_eq!(assignments.len(), 50);
        let total: f64 = assignments.iter().map(|a| a.rate).sum();
        assert!((total - cfg.rate * 0.5).abs() < 1e-6);
    }

    #[test]
    fn every_assignment_sits_inside_its_group() {
        let cfg = config(5, 200, SelectorKind::LeastLoaded);
        for a in collect_assignments(&cfg, 5).unwrap() {
            assert!(a.group.contains(a.node));
        }
    }
}

//! End-to-end integration: theory → adversary → simulated cluster.
//!
//! These tests drive the full pipeline the paper describes: a provisioner
//! sizes the cache, an adversary plans its best attack, and the simulated
//! cluster (cache + partitioner + replica selection) confirms the verdict.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use secure_cache_provision::core::adversary::{AdversaryStrategy, ReplicatedClusterAdversary};
use secure_cache_provision::core::bounds::KParam;
use secure_cache_provision::prelude::*;
use secure_cache_provision::sim::runner::repeat_rate_simulation;

const NODES: usize = 100;
const REPLICATION: usize = 3;
const ITEMS: u64 = 100_000;
const RATE: f64 = 1e5;
const RUNS: usize = 12;

fn sim_config(cache: usize, pattern: AccessPattern, seed: u64) -> SimConfig {
    SimConfig::builder()
        .nodes(NODES)
        .replication(REPLICATION)
        .cache_capacity(cache)
        .items(ITEMS)
        .rate(RATE)
        .pattern(pattern)
        .seed(seed)
        .build()
        .expect("test config is valid")
}

fn simulated_best_gain(cache: usize, seed: u64) -> f64 {
    let params = SystemParams::new(NODES, REPLICATION, cache, ITEMS, RATE).unwrap();
    let plan = ReplicatedClusterAdversary::new().plan(&params).unwrap();
    let cfg = sim_config(cache, plan.pattern, seed);
    let (_, agg) = repeat_rate_simulation(&cfg, RUNS, 0).unwrap();
    agg.max_gain()
}

#[test]
fn under_provisioned_cluster_is_breached() {
    // c far below c* (= 121 at fitted k): the planned attack must land.
    let gain = simulated_best_gain(20, 1);
    assert!(gain > 2.0, "expected a decisive breach, got {gain}");
}

#[test]
fn provisioned_cluster_holds() {
    // c comfortably above c*: even the best response stays ineffective.
    let gain = simulated_best_gain(400, 2);
    assert!(gain <= 1.0, "provisioned cluster breached with gain {gain}");
}

#[test]
fn provisioner_verdict_matches_simulation_on_both_sides() {
    let prov = Provisioner::default();
    let c_star = prov.min_cache_size(NODES, REPLICATION);
    // Stay clearly away from the critical point where noise decides.
    let below = c_star / 4;
    let above = c_star * 3;
    assert!(!prov.is_protected(&SystemParams::new(NODES, REPLICATION, below, ITEMS, RATE).unwrap()));
    assert!(prov.is_protected(&SystemParams::new(NODES, REPLICATION, above, ITEMS, RATE).unwrap()));
    assert!(simulated_best_gain(below, 3) > 1.0);
    assert!(simulated_best_gain(above, 4) <= 1.0);
}

#[test]
fn predicted_gain_upper_bounds_simulated_gain() {
    for cache in [20usize, 60, 150, 400] {
        let params = SystemParams::new(NODES, REPLICATION, cache, ITEMS, RATE).unwrap();
        let plan = ReplicatedClusterAdversary::with_k(KParam::theory())
            .plan(&params)
            .unwrap();
        let cfg = sim_config(cache, plan.pattern.clone(), 5);
        let (_, agg) = repeat_rate_simulation(&cfg, RUNS, 0).unwrap();
        assert!(
            plan.predicted_gain.value() >= agg.max_gain() - 0.05,
            "c={cache}: theory {} below simulation {}",
            plan.predicted_gain,
            agg.max_gain()
        );
    }
}

#[test]
fn cache_size_independent_of_item_count() {
    // The headline scalability claim: the same cache protects the same
    // cluster regardless of how many items the service stores.
    let prov = Provisioner::default();
    let c_star = prov.min_cache_size(NODES, REPLICATION);
    for items in [10_000u64, 100_000, 1_000_000] {
        let params = SystemParams::new(NODES, REPLICATION, c_star, items, RATE).unwrap();
        assert!(prov.is_protected(&params), "m={items} changed the verdict");
        let plan = ReplicatedClusterAdversary::new().plan(&params).unwrap();
        let cfg = SimConfig::builder()
            .nodes(NODES)
            .replication(REPLICATION)
            .cache_capacity(c_star)
            .items(items)
            .rate(RATE)
            .pattern(plan.pattern)
            .seed(6)
            .build()
            .expect("test config is valid");
        let (_, agg) = repeat_rate_simulation(&cfg, RUNS, 0).unwrap();
        assert!(
            agg.max_gain() <= 1.02,
            "m={items}: gain {} at c*",
            agg.max_gain()
        );
    }
}

#[test]
fn uncached_attacks_through_every_partitioner_are_blocked_by_sizing() {
    // The theorem needs randomized partitioning; all three randomized
    // schemes should enjoy the same protection at c >= c*.
    for partitioner in [
        PartitionerKind::Hash,
        PartitionerKind::Ring,
        PartitionerKind::Rendezvous,
    ] {
        let mut cfg = sim_config(400, AccessPattern::uniform_subset(401, ITEMS).unwrap(), 7);
        cfg.partitioner = partitioner;
        let (_, agg) = repeat_rate_simulation(&cfg, RUNS, 0).unwrap();
        assert!(
            agg.max_gain() <= 1.05,
            "{partitioner:?} breached at c=400: {}",
            agg.max_gain()
        );
    }
}

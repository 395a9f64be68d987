//! Replication vs. the Fan et al. (SoCC'11) no-replication baseline.
//!
//! The paper's core differentiator: with `d = 1` the adversary picks an
//! interior-optimal subset and *always* wins; with `d >= 2` a finite O(n)
//! cache flips the game.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use secure_cache_provision::core::adversary::{
    AdversaryStrategy, ReplicatedClusterAdversary, SmallCacheAdversary,
};
use secure_cache_provision::prelude::*;
use secure_cache_provision::sim::runner::repeat_rate_simulation;

const NODES: usize = 200;
const ITEMS: u64 = 200_000;
const RATE: f64 = 1e5;

fn sim_gain(d: usize, cache: usize, x: u64, runs: usize) -> f64 {
    let cfg = SimConfig::builder()
        .nodes(NODES)
        .replication(d)
        .cache_capacity(cache)
        .items(ITEMS)
        .rate(RATE)
        .attack_x(x)
        .seed(0xFA4 ^ ((d as u64) << 32) ^ ((cache as u64) << 8) ^ x)
        .build()
        .unwrap();
    let (_, agg) = repeat_rate_simulation(&cfg, runs, 0).unwrap();
    agg.max_gain()
}

#[test]
fn fan_adversary_picks_interior_x_that_beats_the_endpoints() {
    // At d = 1 the interior optimum must beat both x = c+1 and x = m in
    // simulation, not just in the bound.
    let cache = 100usize;
    let params = SystemParams::new(NODES, 1, cache, ITEMS, RATE).unwrap();
    let plan = SmallCacheAdversary::new().plan(&params).unwrap();
    assert!(plan.x > cache as u64 + 1 && plan.x < ITEMS);

    let interior = sim_gain(1, cache, plan.x, 10);
    let small = sim_gain(1, cache, cache as u64 + 1, 10);
    let whole = sim_gain(1, cache, ITEMS, 10);
    assert!(
        interior > small && interior > whole,
        "interior {interior} should beat endpoints {small} / {whole}"
    );
    assert!(interior > 1.0, "d=1 attack must be effective");
}

#[test]
fn replication_defeats_the_same_budget_that_fails_at_d_one() {
    // Cache sized for d = 3 (c* = 241 at fitted k): protects the
    // replicated cluster; the d = 1 cluster still falls to the Fan
    // adversary with the same cache.
    let cache = 300usize;

    let params_d3 = SystemParams::new(NODES, 3, cache, ITEMS, RATE).unwrap();
    let plan_d3 = ReplicatedClusterAdversary::new().plan(&params_d3).unwrap();
    let gain_d3 = sim_gain(3, cache, plan_d3.x, 10);
    assert!(gain_d3 <= 1.0, "d=3 should hold at c=300, got {gain_d3}");

    let params_d1 = SystemParams::new(NODES, 1, cache, ITEMS, RATE).unwrap();
    let plan_d1 = SmallCacheAdversary::new().plan(&params_d1).unwrap();
    let gain_d1 = sim_gain(1, cache, plan_d1.x, 10);
    assert!(
        gain_d1 > 1.0,
        "d=1 should still be breached at c=300, got {gain_d1}"
    );
}

#[test]
fn fan_strategy_is_suboptimal_against_replicated_clusters() {
    // Using the d=1 playbook against a d=3 cluster with a small cache is
    // no better than the paper's optimal x = c + 1.
    let cache = 40usize; // below c* so the optimal play is x = c+1
    let params = SystemParams::new(NODES, 3, cache, ITEMS, RATE).unwrap();
    let fan_plan = SmallCacheAdversary::new().plan(&params).unwrap();
    let fan_gain = sim_gain(3, cache, fan_plan.x, 10);
    let optimal_gain = sim_gain(3, cache, cache as u64 + 1, 10);
    assert!(
        optimal_gain >= fan_gain - 0.05,
        "optimal {optimal_gain} should not trail fan {fan_gain}"
    );
}

#[test]
fn single_choice_max_load_grows_with_subset_size_but_d_choice_does_not() {
    // The structural difference behind the two papers: the d=1 deviation
    // term grows as sqrt(x), the d>=2 term is a constant. Measure the
    // *excess* keys-above-average on the fullest node with no cache.
    let excess = |d: usize, x: u64| {
        let gain = sim_gain(d, 0, x, 8);
        // keys on fullest node = gain * x / n; average = x / n.
        (gain - 1.0) * x as f64 / NODES as f64
    };
    let d1_small = excess(1, 2_000);
    let d1_large = excess(1, 50_000);
    assert!(
        d1_large > d1_small * 2.0,
        "d=1 excess should grow: {d1_small} -> {d1_large}"
    );
    let d3_small = excess(3, 2_000);
    let d3_large = excess(3, 50_000);
    assert!(
        d3_large < d3_small * 3.0 + 3.0,
        "d=3 excess should stay ~constant: {d3_small} -> {d3_large}"
    );
    assert!(d3_large < d1_large, "d-choice must beat single choice");
}

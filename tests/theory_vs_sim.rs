//! The Eq. (10) bound against simulation, across a parameter grid.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use secure_cache_provision::core::bounds::{attack_gain_bound, critical_cache_size, KParam};
use secure_cache_provision::prelude::*;
use secure_cache_provision::sim::critical::find_critical_cache_size;
use secure_cache_provision::sim::runner::repeat_rate_simulation;

fn sim_max_gain(n: usize, d: usize, c: usize, x: u64, m: u64, runs: usize) -> f64 {
    let cfg = SimConfig::builder()
        .nodes(n)
        .replication(d)
        .cache_capacity(c)
        .items(m)
        .attack_x(x)
        .seed(0xBEEF ^ (n as u64) ^ ((d as u64) << 8) ^ ((c as u64) << 16) ^ x)
        .build()
        .unwrap();
    let (_, agg) = repeat_rate_simulation(&cfg, runs, 0).unwrap();
    agg.max_gain()
}

#[test]
fn theory_bound_dominates_simulation_across_grid() {
    let m = 50_000u64;
    let k = KParam::theory();
    for (n, d) in [(50usize, 2usize), (100, 3), (200, 4)] {
        for c in [10usize, 50, 200] {
            for x in [c as u64 + 1, 2_000, m] {
                if x <= c as u64 {
                    continue;
                }
                let params = SystemParams::new(n, d, c, m, 1e5).unwrap();
                let bound = attack_gain_bound(&params, x, &k).value();
                let sim = sim_max_gain(n, d, c, x, m, 8);
                assert!(
                    bound >= sim - 0.1,
                    "bound {bound} < sim {sim} at n={n} d={d} c={c} x={x}"
                );
            }
        }
    }
}

#[test]
fn bound_is_tight_at_small_x() {
    // At x = c + 1 the uncached load is a single key on one node; the
    // simulated gain is exactly n/(c+1) and the bound should be within a
    // small constant factor of it.
    let (n, d, c, m) = (100usize, 3usize, 30usize, 50_000u64);
    let sim = sim_max_gain(n, d, c, (c + 1) as u64, m, 4);
    assert!((sim - n as f64 / (c as f64 + 1.0)).abs() < 1e-6);
    let params = SystemParams::new(n, d, c, m, 1e5).unwrap();
    let bound = attack_gain_bound(&params, (c + 1) as u64, &KParam::theory()).value();
    assert!(bound / sim < 2.5, "bound {bound} too loose vs sim {sim}");
}

#[test]
fn empirical_critical_size_within_theory_bound() {
    // The theoretical c* upper-bounds the empirical critical point, and
    // should not be off by more than a small factor (the paper's "our
    // bound is tight" claim, Fig. 5).
    let base = SimConfig::builder()
        .nodes(100)
        .items(50_000)
        .pattern(AccessPattern::uniform(50_000).unwrap())
        .seed(77)
        .build()
        .unwrap();
    let cp = find_critical_cache_size(&base, 6, 0).unwrap();
    let theory = critical_cache_size(100, 3, &KParam::theory());
    assert!(
        cp.cache_size <= theory,
        "empirical critical {} exceeds theory c* {}",
        cp.cache_size,
        theory
    );
    assert!(
        (cp.cache_size as f64) >= theory as f64 * 0.15,
        "empirical critical {} suspiciously far below theory {}",
        cp.cache_size,
        theory
    );
}

#[test]
fn larger_replication_weakens_the_attack() {
    // Same cache, same adversary, growing d: the max load should drop
    // (more choices = flatter allocation).
    let m = 50_000u64;
    let c = 50usize;
    let x = 5_000u64;
    let mut last = f64::INFINITY;
    for d in [1usize, 2, 4] {
        let gain = sim_max_gain(200, d, c, x, m, 8);
        assert!(
            gain <= last + 0.05,
            "gain {gain} at d={d} above previous {last}"
        );
        last = gain;
    }
}

#[test]
fn gain_scale_invariance_in_rate() {
    // Normalized gain must not depend on the absolute client rate.
    let mk = |rate: f64| {
        SimConfig::builder()
            .nodes(100)
            .cache_capacity(20)
            .items(10_000)
            .rate(rate)
            .seed(5)
            .build()
            .unwrap()
    };
    let lo = run_rate_simulation(&mk(1e3)).unwrap();
    let hi = run_rate_simulation(&mk(1e7)).unwrap();
    assert!((lo.gain().value() - hi.gain().value()).abs() < 1e-9);
}

//! Property tests over the Eq. (10) bound and the critical-size case
//! analysis: the structural claims of Section III must hold for arbitrary
//! valid parameters, not just the paper's configuration.
//!
//! Cases are drawn from a seeded in-repo generator rather than an external
//! property-testing framework, so every failure reproduces exactly from the
//! constants below.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_core::bounds::{
    attack_gain_bound, critical_cache_size, optimal_subset_size, BestSubsetSize, KParam,
};
use scp_core::params::SystemParams;
use scp_workload::rng::{next_below, Xoshiro256StarStar};

const CASES: usize = 256;

/// Draws arbitrary valid parameters: `3 <= n < 5000`, `2 <= d < 6` (clamped
/// to `n`), `1000 <= m < 10^7`, `0 <= c < 3000` (clamped to `m`).
fn arb_params(gen: &mut Xoshiro256StarStar) -> SystemParams {
    let n = 3 + next_below(gen, 5000 - 3) as usize;
    let d = (2 + next_below(gen, 4) as usize).min(n);
    let m = 1_000 + next_below(gen, 10_000_000 - 1_000);
    let c = (next_below(gen, 3000) as usize).min(m as usize);
    SystemParams::new(n, d, c, m, 1e5).unwrap()
}

#[test]
fn prop_gain_bound_sign_matches_critical_size() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0xB0D0_0001);
    for case in 0..CASES {
        let params = arb_params(&mut gen);
        let k = KParam::theory();
        let n = params.nodes();
        let d = params.replication();
        let c = params.cache_size();
        let c_star = critical_cache_size(n, d, &k);
        // Below c*: querying c+1 keys is effective (if c+1 fits in m).
        if c < c_star && (c as u64) < params.items() {
            let g = attack_gain_bound(&params, c as u64 + 1, &k);
            assert!(
                g.is_effective(),
                "case {case}: c={c} < c*={c_star} but gain {g}"
            );
        }
        // At or above c*: NO x yields an effective bound.
        if c >= c_star {
            for x in [c as u64 + 1, c as u64 + 100, params.items()] {
                if x > c as u64 && x <= params.items() && x >= 2 {
                    let g = attack_gain_bound(&params, x, &k);
                    assert!(
                        g.value() <= 1.0 + 1e-9,
                        "case {case}: c={c} >= c*={c_star} but x={x} gives {g}"
                    );
                }
            }
        }
    }
}

#[test]
fn prop_gain_bound_monotone_in_cache_size() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0xB0D0_0002);
    for case in 0..CASES {
        let params = arb_params(&mut gen);
        let x_off = 1 + next_below(&mut gen, 999);
        let k = KParam::theory();
        let c = params.cache_size();
        if c == 0 {
            continue;
        }
        let x = (c as u64 + x_off).min(params.items());
        if x <= c as u64 || x < 2 {
            continue;
        }
        let smaller = params.with_cache_size(c - 1).unwrap();
        let g_small_cache = attack_gain_bound(&smaller, x, &k).value();
        let g_large_cache = attack_gain_bound(&params, x, &k).value();
        assert!(
            g_large_cache <= g_small_cache + 1e-12,
            "case {case}: more cache increased the bound: {g_small_cache} -> {g_large_cache}"
        );
    }
}

#[test]
fn prop_gain_bound_monotone_in_replication() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0xB0D0_0003);
    for case in 0..CASES {
        let params = arb_params(&mut gen);
        let x_off = 1 + next_below(&mut gen, 999);
        let k = KParam::theory();
        let d = params.replication();
        if d >= 6 || d + 1 > params.nodes() {
            continue;
        }
        let x = (params.cache_size() as u64 + x_off).min(params.items());
        if x <= params.cache_size() as u64 || x < 2 {
            continue;
        }
        let more_replicas = params.with_replication(d + 1).unwrap();
        let g_d = attack_gain_bound(&params, x, &k).value();
        let g_d1 = attack_gain_bound(&more_replicas, x, &k).value();
        assert!(
            g_d1 <= g_d + 1e-12,
            "case {case}: more replication raised the bound"
        );
    }
}

#[test]
fn prop_critical_size_monotone_in_n() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0xB0D0_0004);
    for case in 0..CASES {
        let n = 3 + next_below(&mut gen, 20_000 - 3) as usize;
        let d = 2 + next_below(&mut gen, 4) as usize;
        let k = KParam::theory();
        let c1 = critical_cache_size(n, d, &k);
        let c2 = critical_cache_size(n + 1, d, &k);
        assert!(
            c2 >= c1,
            "case {case}: c* shrank as the cluster grew: {c1} -> {c2}"
        );
    }
}

#[test]
fn prop_optimal_subset_is_the_argmax_of_the_bound() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0xB0D0_0005);
    for case in 0..CASES {
        let params = arb_params(&mut gen);
        let k = KParam::theory();
        let c = params.cache_size() as u64;
        if c >= params.items() {
            continue;
        }
        let choice = optimal_subset_size(&params, &k);
        let best = choice.x();
        let g_best = attack_gain_bound(&params, best, &k).value();
        // The chosen x must dominate a probe grid of alternatives.
        for x in [c + 1, c + 2, (c + params.items()) / 2, params.items()] {
            if x > c && x >= 2 && x <= params.items() {
                let g = attack_gain_bound(&params, x, &k).value();
                assert!(
                    g <= g_best + 1e-9,
                    "case {case}: x={x} gives {g} beating chosen {best} at {g_best}"
                );
            }
        }
        // And the case analysis picks the right branch.
        match choice {
            BestSubsetSize::JustAboveCache(x) => {
                assert_eq!(x, c + 1, "case {case}");
                assert!(
                    (c as usize) < critical_cache_size(params.nodes(), params.replication(), &k),
                    "case {case}"
                );
            }
            BestSubsetSize::EntireKeySpace(x) => assert_eq!(x, params.items(), "case {case}"),
        }
    }
}

#[test]
fn prop_gain_bound_approaches_one_for_huge_x() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0xB0D0_0006);
    for case in 0..CASES {
        let params = arb_params(&mut gen);
        let k = KParam::theory();
        let m = params.items();
        if m <= params.cache_size() as u64 + 1 || m < 1_000_000 {
            continue;
        }
        let g = attack_gain_bound(&params, m, &k).value();
        assert!(
            (g - 1.0).abs() < 0.05,
            "case {case}: gain at x=m={m} should be near 1, got {g}"
        );
    }
}

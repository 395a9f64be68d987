//! Property tests for the online admission tentpole: over 500 seeded
//! cases each, W-TinyLFU converges to the true top-`c` resident set on a
//! stationary Zipf stream, and the rotating attacker — re-drawing its
//! working set faster than the sketch's halving window adapts — destroys
//! exactly that convergence.
//!
//! Keys are pattern ranks used verbatim (no permutation): rank `k` is the
//! `k`-th most popular key, so the true top-`c` set is `0..c` and the
//! oracle's stationary hit ratio on an equal-rate `x`-subset is `c/x`.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use secure_cache_provision::cache::tinylfu::TinyLfuCache;
use secure_cache_provision::cache::Cache;
use secure_cache_provision::workload::rng::mix;
use secure_cache_provision::workload::AccessPattern;

const CASES: u64 = 500;
const DRAWS: u64 = 4_000;

/// Drives `draws` samples of `pattern` through a fresh TinyLFU cache of
/// size `c` and returns `(cache, hits)`.
fn drive(pattern: &AccessPattern, c: usize, seed: u64, draws: u64) -> (TinyLfuCache<u64>, u64) {
    let mut sampler = pattern.sampler(seed).expect("pattern samples");
    let mut cache = TinyLfuCache::new(c);
    let mut hits = 0u64;
    for _ in 0..draws {
        if cache.request(sampler.sample()).is_hit() {
            hits += 1;
        }
    }
    (cache, hits)
}

#[test]
fn online_tinylfu_converges_to_top_c_on_stationary_zipf() {
    let mut overlap_sum = 0.0f64;
    for case in 0..CASES {
        let seed = mix(&[0x0AD1, case]);
        let c = 4 + (case % 13) as usize; // 4..=16
        let m = 500 + (seed % 1_500); // 500..2000 items
        let alpha = 1.0 + 0.1 * (case % 5) as f64; // 1.0..1.4
        let pattern = AccessPattern::zipf(alpha, m).expect("valid zipf");
        let (cache, _) = drive(&pattern, c, seed, DRAWS);

        // Resident-set overlap with the true top-c (ranks 0..c).
        let resident = (0..c as u64).filter(|k| cache.contains(k)).count();
        overlap_sum += resident as f64 / c as f64;
        // Loose per-case floor: the stream is random, but the sketch
        // must capture at least a quarter of the head in every case.
        assert!(
            resident >= c.div_ceil(4),
            "case {case}: only {resident}/{c} of the Zipf head resident (alpha {alpha}, m {m})"
        );
    }
    // Tight aggregate: on average the resident set is mostly the head.
    let mean_overlap = overlap_sum / CASES as f64;
    assert!(
        mean_overlap > 0.65,
        "mean top-c overlap {mean_overlap} over {CASES} cases"
    );
}

#[test]
fn rotating_attacker_degrades_hits_below_the_static_floor() {
    let mut static_sum = 0.0f64;
    let mut rotating_sum = 0.0f64;
    for case in 0..CASES {
        let seed = mix(&[0x0AD2, case]);
        let c = 4 + (case % 13); // 4..=16
        let x = 4 * c;
        let m = 40 * x; // plenty of fresh keys to rotate into
        let stationary = AccessPattern::uniform_subset(x, m).expect("valid subset");
        // Re-draw the working set every x/2 queries: each key is seen
        // O(1) times per period, far below the sketch's sample window.
        let rotating = AccessPattern::rotating_subset(x, m, x / 2).expect("valid rotation");

        let (_, static_hits) = drive(&stationary, c as usize, seed, DRAWS);
        let (_, rotating_hits) = drive(&rotating, c as usize, seed, DRAWS);
        let static_hit = static_hits as f64 / DRAWS as f64;
        let rotating_hit = rotating_hits as f64 / DRAWS as f64;
        static_sum += static_hit;
        rotating_sum += rotating_hit;

        let oracle = c as f64 / x as f64; // stationary oracle floor c/x
        assert!(
            static_hit > 0.5 * oracle,
            "case {case}: static hit {static_hit} far below oracle {oracle} (c {c}, x {x})"
        );
        // Loose per-case bound; the aggregate below is the sharp claim.
        assert!(
            rotating_hit < static_hit + 0.05,
            "case {case}: rotation did not degrade hits ({rotating_hit} vs {static_hit})"
        );
    }
    let static_mean = static_sum / CASES as f64;
    let rotating_mean = rotating_sum / CASES as f64;
    assert!(
        rotating_mean < 0.5 * static_mean,
        "rotation should at least halve the hit ratio: {rotating_mean} vs static {static_mean}"
    );
}

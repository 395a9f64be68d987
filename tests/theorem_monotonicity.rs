//! Empirical validation of Theorem 1: shifting query mass toward the
//! Eq. (4) canonical shape never decreases the expected maximum load.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use secure_cache_provision::core::theorem::{canonicalize, shift_once};
use secure_cache_provision::prelude::*;
use secure_cache_provision::sim::runner::repeat_rate_simulation;
use secure_cache_provision::workload::zipf::zipf_probs;
use secure_cache_provision::workload::Pmf;

const NODES: usize = 40;
const CACHE: usize = 8;
const RUNS: usize = 40;

fn mean_max_gain(pmf: Pmf, seed: u64) -> f64 {
    let cfg = SimConfig::builder()
        .nodes(NODES)
        .cache_capacity(CACHE)
        .items(pmf.len() as u64)
        .rate(1e4)
        .pattern(AccessPattern::explicit(pmf))
        .seed(seed)
        .build()
        .unwrap();
    let (_, agg) = repeat_rate_simulation(&cfg, RUNS, 0).unwrap();
    agg.mean_gain()
}

#[test]
fn canonical_attack_dominates_the_zipf_it_came_from() {
    // Start from an organic Zipf distribution over 400 keys and apply the
    // full Theorem-1 iteration. The canonical head/tail shape must load
    // the fullest node at least as much, in expectation over partitions.
    let probs = zipf_probs(1.1, 400).unwrap();
    let original = Pmf::new(probs).unwrap();
    let canonical = canonicalize(&original, CACHE).unwrap();
    assert!(canonical.shifts > 0, "zipf is not already canonical");

    let before = mean_max_gain(original, 11);
    let after = mean_max_gain(canonical.pmf, 11);
    assert!(
        after >= before * 0.98,
        "canonicalization lowered expected max load: {before} -> {after}"
    );
    // And meaningfully so for a skew-1.1 start (mass concentrates).
    assert!(
        after > before,
        "canonical shape should strictly dominate: {before} -> {after}"
    );
}

#[test]
fn single_shift_step_does_not_hurt_the_adversary() {
    // One elementary Theorem-1 shift (fill key i up to h from the tail
    // key j) on a hand-rolled distribution.
    let mut probs = vec![0.0f64; 60];
    // 8 cached keys at h = 0.05, 20 uncached keys descending.
    let h = 0.05;
    for p in probs.iter_mut().take(CACHE) {
        *p = h;
    }
    let mut rest = 1.0 - h * CACHE as f64;
    for slot in probs.iter_mut().take(28).skip(CACHE) {
        let share = (rest * 0.2).min(h);
        *slot = share;
        rest -= share;
    }
    probs[28] = rest;
    let original = Pmf::new(probs.clone()).unwrap().to_sorted_descending();

    let mut shifted = original.as_slice().to_vec();
    // Shift from the last positive key onto the first below-h uncached key.
    let i = (CACHE..shifted.len())
        .find(|&i| shifted[i] < h - 1e-12)
        .unwrap();
    let j = (0..shifted.len())
        .rev()
        .find(|&j| shifted[j] > 0.0)
        .unwrap();
    assert!(i < j);
    shift_once(&mut shifted, h, i, j).unwrap();
    let shifted = Pmf::new(shifted).unwrap();

    let before = mean_max_gain(original, 13);
    let after = mean_max_gain(shifted, 13);
    assert!(
        after >= before * 0.97,
        "a single shift lowered expected max load: {before} -> {after}"
    );
}

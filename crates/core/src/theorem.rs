//! Executable form of Theorem 1.
//!
//! Theorem 1 says: if an access distribution has two uncached keys `i < j`
//! with `h >= p_i >= p_j > 0` (where `h` is the cached keys' common
//! probability), shifting `δ = min(h - p_i, p_j)` of mass from `j` onto `i`
//! can only increase the expected maximum load. Iterating the shift drives
//! any distribution to the canonical Eq. (4) shape — the first `x - 1`
//! queried keys at probability `h` and one residual key — which for
//! minimal `h = 1/x` is simply *uniform over `x` keys*.
//!
//! This module implements the shift and its fixed-point iteration so the
//! optimality claim can be property-tested and demonstrated empirically
//! (the simulation crate measures that shifted distributions indeed load
//! the fullest node more).

use crate::error::CoreError;
use crate::Result;
use scp_workload::Pmf;

/// Threshold below which a probability is treated as zero when counting the
/// support of a canonical attack distribution.
///
/// Theorem-1 shifts accumulate floating-point residue of order
/// `len * f64::EPSILON` on drained keys, so an exact `> 0.0` test would
/// over-count the support; anything below this threshold is rounding noise,
/// not attack mass. Both [`canonicalize`] and its tests use this single
/// constant so production and verification cannot disagree about what
/// "positive probability" means.
pub const POSITIVE_PROB_EPSILON: f64 = 1e-12;

/// Whether `v` is indistinguishable from zero at the workspace's shared
/// rounding tolerance ([`POSITIVE_PROB_EPSILON`]).
///
/// Raw `== 0.0` comparisons on accumulated floats are how production and
/// verification drift apart (the `float-eq` analyzer rule rejects them);
/// route zero tests through this helper instead so every crate agrees on
/// what "zero" means for derived quantities like loads and probabilities.
pub fn is_negligible(v: f64) -> bool {
    v.abs() <= POSITIVE_PROB_EPSILON
}

/// One Theorem-1 shift: moves `δ = min(h - p[i], p[j])` from `p[j]` to
/// `p[i]`. Returns the δ actually moved.
///
/// # Errors
///
/// Returns an error unless `i < j`, both indices are in range, and the
/// precondition `h >= p[i] >= p[j] > 0` holds.
#[expect(
    clippy::indexing_slicing,
    reason = "i < j < probs.len() is verified before any index"
)]
pub fn shift_once(probs: &mut [f64], h: f64, i: usize, j: usize) -> Result<f64> {
    if i >= j || j >= probs.len() {
        return Err(CoreError::InvalidParameter {
            name: "i,j",
            reason: format!("need i < j < len, got i={i}, j={j}, len={}", probs.len()),
        });
    }
    let (pi, pj) = (probs[i], probs[j]);
    if !(h >= pi && pi >= pj && pj > 0.0) {
        return Err(CoreError::InvalidParameter {
            name: "h",
            reason: format!("precondition h >= p_i >= p_j > 0 violated: h={h}, p_i={pi}, p_j={pj}"),
        });
    }
    let delta = (h - pi).min(pj);
    probs[i] += delta;
    probs[j] -= delta;
    Ok(delta)
}

/// Outcome of iterating Theorem-1 shifts to the fixed point.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalAttack {
    /// The transformed distribution (still sums to 1).
    pub pmf: Pmf,
    /// Number of keys with positive probability after the iteration.
    pub x: u64,
    /// Number of individual shifts applied.
    pub shifts: usize,
}

/// Iterates Theorem-1 shifts until no eligible pair remains, yielding the
/// Eq. (4) canonical attack shape.
///
/// `probs` must be sorted in non-increasing order with the first `c`
/// entries being the cached keys; `h` is taken as the probability of the
/// least popular cached key (`probs[c - 1]`), or of the most popular key
/// when `c == 0` — uncached keys may never exceed it, or they would be
/// cached instead.
///
/// # Errors
///
/// Returns an error if the input is unsorted or `c` exceeds its length.
#[expect(
    clippy::indexing_slicing,
    reason = "Pmf is non-empty, c <= len is checked, and fill < drain < probs.len() by the loop bound"
)]
pub fn canonicalize(pmf: &Pmf, c: usize) -> Result<CanonicalAttack> {
    if !pmf.is_sorted_descending() {
        return Err(CoreError::InvalidParameter {
            name: "pmf",
            reason: "probabilities must be sorted in non-increasing order".to_owned(),
        });
    }
    if c > pmf.len() {
        return Err(CoreError::InvalidParameter {
            name: "c",
            reason: format!("cache size {c} exceeds {} keys", pmf.len()),
        });
    }
    let mut probs = pmf.as_slice().to_vec();
    let h = if c == 0 { probs[0] } else { probs[c - 1] };

    // Two-pointer sweep: fill each uncached key up to h from the lightest
    // positive tail key. Each shift either saturates `fill` (p_fill == h)
    // or zeroes `drain` (p_drain == 0), so the sweep is O(m).
    let mut shifts = 0usize;
    let mut fill = c;
    let mut drain = probs.len() - 1;
    while fill < drain {
        if probs[fill] >= h {
            fill += 1;
            continue;
        }
        if probs[drain] <= 0.0 {
            drain -= 1;
            continue;
        }
        shift_once(&mut probs, h, fill, drain)?;
        shifts += 1;
    }

    let x = probs.iter().filter(|&&p| p > POSITIVE_PROB_EPSILON).count() as u64;
    Ok(CanonicalAttack {
        pmf: Pmf::new(probs)?,
        x,
        shifts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scp_workload::rng::{next_below, next_f64, Xoshiro256StarStar};

    #[test]
    fn shift_moves_exactly_delta() {
        let mut p = vec![0.4, 0.3, 0.2, 0.1];
        // h = 0.4, fill key 1 (0.3) from key 3 (0.1): delta = min(0.1, 0.1).
        let d = shift_once(&mut p, 0.4, 1, 3).unwrap();
        assert!((d - 0.1).abs() < 1e-12);
        assert!((p[1] - 0.4).abs() < 1e-12);
        assert!(p[3].abs() < 1e-12);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shift_caps_at_h() {
        let mut p = vec![0.5, 0.25, 0.25];
        // delta = min(h - p1, p2) = min(0.05, 0.25) = 0.05.
        let d = shift_once(&mut p, 0.3, 1, 2).unwrap();
        assert!((d - 0.05).abs() < 1e-12);
        assert!((p[1] - 0.3).abs() < 1e-12);
        assert!((p[2] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn shift_validates_preconditions() {
        let mut p = vec![0.5, 0.3, 0.2];
        assert!(shift_once(&mut p, 0.4, 2, 1).is_err(), "i must precede j");
        assert!(shift_once(&mut p, 0.4, 1, 5).is_err(), "j in range");
        assert!(shift_once(&mut p, 0.2, 1, 2).is_err(), "h >= p_i");
        let mut q = vec![0.5, 0.5, 0.0];
        assert!(shift_once(&mut q, 0.5, 1, 2).is_err(), "p_j > 0");
    }

    #[test]
    fn canonicalize_zipf_becomes_head_plus_tail() {
        let probs = scp_workload::zipf::zipf_probs(1.2, 50).unwrap();
        let pmf = Pmf::new(probs).unwrap();
        let c = 5;
        let out = canonicalize(&pmf, c).unwrap();
        let h = pmf.get(c - 1);
        let result = out.pmf.as_slice();
        // All positive uncached keys except at most one sit exactly at h.
        let positive: Vec<f64> = result[c..]
            .iter()
            .copied()
            .filter(|&p| p > POSITIVE_PROB_EPSILON)
            .collect();
        assert!(!positive.is_empty());
        for &p in &positive[..positive.len() - 1] {
            assert!((p - h).abs() < 1e-12, "intermediate key not at h: {p}");
        }
        assert!(*positive.last().unwrap() <= h + 1e-12);
        // Mass conserved.
        let sum: f64 = result.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Support shrank: mass concentrated on fewer keys.
        assert!(out.x < 50);
        assert!(out.shifts > 0);
    }

    #[test]
    fn canonicalize_uniform_subset_is_fixed_point() {
        // Already canonical: uniform over x keys, rest zero.
        let mut probs = vec![0.1; 10];
        probs.extend(vec![0.0; 10]);
        let pmf = Pmf::new(probs).unwrap();
        let out = canonicalize(&pmf, 3).unwrap();
        assert_eq!(out.shifts, 0);
        assert_eq!(out.x, 10);
        assert_eq!(out.pmf, pmf);
    }

    #[test]
    fn canonicalize_rejects_unsorted_or_bad_c() {
        let pmf = Pmf::new(vec![0.2, 0.5, 0.3]).unwrap();
        assert!(canonicalize(&pmf, 1).is_err());
        let sorted = Pmf::new(vec![0.5, 0.3, 0.2]).unwrap();
        assert!(canonicalize(&sorted, 4).is_err());
    }

    #[test]
    fn canonicalize_with_zero_cache() {
        let pmf = Pmf::new(vec![0.4, 0.3, 0.2, 0.1]).unwrap();
        let out = canonicalize(&pmf, 0).unwrap();
        // h = 0.4; keys fill to 0.4 until mass runs out: 0.4, 0.4, 0.2, 0.
        let r = out.pmf.as_slice();
        assert!((r[0] - 0.4).abs() < 1e-12);
        assert!((r[1] - 0.4).abs() < 1e-12);
        assert!((r[2] - 0.2).abs() < 1e-12);
        assert!(r[3].abs() < 1e-12);
        assert_eq!(out.x, 3);
    }

    // Seeded randomized sweep (stand-in for a property test; the case
    // generator is deterministic so failures reproduce exactly).

    #[test]
    fn prop_canonicalize_conserves_mass_and_shape() {
        let mut gen = Xoshiro256StarStar::seed_from_u64(0x7E03_0001);
        for case in 0..256 {
            let len = 3 + next_below(&mut gen, 117) as usize;
            let weights: Vec<f64> = (0..len)
                .map(|_| 0.01 + (10.0 - 0.01) * next_f64(&mut gen))
                .collect();
            let c_frac = 0.9 * next_f64(&mut gen);
            let pmf = Pmf::from_weights(weights).unwrap().to_sorted_descending();
            let c = ((pmf.len() as f64) * c_frac) as usize;
            let out = canonicalize(&pmf, c).unwrap();
            let r = out.pmf.as_slice();
            // Mass conserved (Pmf::new revalidated it, but check exactly).
            let sum: f64 = r.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "case {case}: mass {sum}");
            // Cached prefix untouched.
            for (i, &ri) in r.iter().enumerate().take(c) {
                assert!(
                    (ri - pmf.get(i)).abs() < 1e-12,
                    "case {case}: cached key {i} moved"
                );
            }
            // Uncached positive keys: all at h except at most one.
            let h = if c == 0 { pmf.get(0) } else { pmf.get(c - 1) };
            let positive: Vec<f64> = r[c..]
                .iter()
                .copied()
                .filter(|&p| p > POSITIVE_PROB_EPSILON)
                .collect();
            let off_h = positive.iter().filter(|&&p| (p - h).abs() > 1e-9).count();
            assert!(off_h <= 1, "case {case}: {off_h} keys away from h");
            // No key above h among the uncached.
            assert!(
                positive.iter().all(|&p| p <= h + 1e-9),
                "case {case}: uncached key above h"
            );
        }
    }
}

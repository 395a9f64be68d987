//! Walker alias method for O(1) sampling from arbitrary finite pmfs.

use crate::error::WorkloadError;
use crate::rng::Rng;
use crate::rng::{next_below, next_f64};
use crate::Result;

/// An alias table built with Vose's algorithm.
///
/// Construction is O(n); every draw costs one uniform integer plus one
/// uniform float. Used wherever a simulation samples queries from an
/// explicit distribution (e.g. Zipf tails, recorded traces, the head/tail
/// adversarial shape of Eq. (4)).
///
/// # Example
///
/// ```
/// use scp_workload::alias::AliasSampler;
/// use scp_workload::rng::Xoshiro256StarStar;
///
/// let sampler = AliasSampler::new(&[0.5, 0.25, 0.25]).unwrap();
/// let mut rng = Xoshiro256StarStar::seed_from_u64(3);
/// assert!(sampler.sample(&mut rng) < 3);
/// ```
#[derive(Debug, Clone)]
pub struct AliasSampler {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasSampler {
    /// Builds the table from non-negative weights (need not be normalized).
    ///
    /// # Errors
    ///
    /// Returns an error if `weights` is empty, longer than `u32::MAX`,
    /// contains a negative or non-finite entry, or sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self> {
        let n = weights.len();
        if n == 0 {
            return Err(WorkloadError::EmptyDistribution);
        }
        if n > u32::MAX as usize {
            return Err(WorkloadError::InvalidParameter {
                name: "weights",
                reason: format!("support of {n} entries exceeds u32 capacity"),
            });
        }
        let mut sum = 0.0;
        for (index, &value) in weights.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(WorkloadError::InvalidProbability { index, value });
            }
            sum += value;
        }
        if sum <= 0.0 {
            return Err(WorkloadError::NotNormalized { sum });
        }

        let scale = n as f64 / sum;
        // Vose's method in place: an outcome's scaled weight is final once
        // it leaves `small`, so `prob` holds the scaled weights throughout.
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias = vec![0u32; n];

        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            let i = u32::try_from(i).unwrap_or(u32::MAX);
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }

        // Every index below is below `n`, so each `get` finds its slot.
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            let p_s = prob.get(s as usize).copied().unwrap_or(1.0);
            if let (Some(a), Some(p_l)) = (alias.get_mut(s as usize), prob.get_mut(l as usize)) {
                *a = l;
                *p_l = (*p_l + p_s) - 1.0;
                if *p_l < 1.0 {
                    large.pop();
                    small.push(l);
                }
            }
        }
        // Whatever remains (numerical leftovers) gets probability one.
        for &i in small.iter().chain(large.iter()) {
            if let (Some(p), Some(a)) = (prob.get_mut(i as usize), alias.get_mut(i as usize)) {
                (*p, *a) = (1.0, i);
            }
        }

        Ok(Self { prob, alias })
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true for a constructed sampler).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome index.
    #[inline]
    pub fn sample(&self, rng: &mut dyn Rng) -> u64 {
        let i = next_below(rng, self.prob.len() as u64) as usize;
        let keep = next_f64(rng) < self.prob.get(i).copied().unwrap_or(1.0);
        match self.alias.get(i) {
            Some(&alias) if !keep => u64::from(alias),
            _ => i as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    fn empirical(weights: &[f64], draws: usize, seed: u64) -> Vec<f64> {
        let sampler = AliasSampler::new(weights).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            counts[sampler.sample(&mut rng) as usize] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn rejects_empty_and_invalid() {
        assert!(AliasSampler::new(&[]).is_err());
        assert!(AliasSampler::new(&[0.0, 0.0]).is_err());
        assert!(AliasSampler::new(&[1.0, -1.0]).is_err());
        assert!(AliasSampler::new(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn single_outcome_always_sampled() {
        let sampler = AliasSampler::new(&[3.0]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(sampler.sample(&mut rng), 0);
        }
    }

    #[test]
    fn matches_uniform_weights() {
        let freqs = empirical(&[1.0; 8], 200_000, 2);
        for &f in &freqs {
            assert!((f - 0.125).abs() < 0.005, "frequency {f}");
        }
    }

    #[test]
    fn matches_skewed_weights() {
        let freqs = empirical(&[8.0, 4.0, 2.0, 1.0, 1.0], 400_000, 3);
        let expected = [0.5, 0.25, 0.125, 0.0625, 0.0625];
        for (f, e) in freqs.iter().zip(expected) {
            assert!((f - e).abs() < 0.01, "frequency {f} vs expected {e}");
        }
    }

    #[test]
    fn zero_weight_entries_never_sampled() {
        let sampler = AliasSampler::new(&[1.0, 0.0, 1.0, 0.0]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        for _ in 0..100_000 {
            let k = sampler.sample(&mut rng);
            assert!(k == 0 || k == 2, "sampled zero-weight outcome {k}");
        }
    }

    #[test]
    fn unnormalized_weights_equivalent_to_normalized() {
        let a = empirical(&[2.0, 6.0], 200_000, 5);
        let b = empirical(&[0.25, 0.75], 200_000, 5);
        assert!((a[0] - b[0]).abs() < 0.005);
    }

    #[test]
    fn large_support_construction_is_consistent() {
        let weights: Vec<f64> = (1..=10_000u32).map(|i| 1.0 / i as f64).collect();
        let sampler = AliasSampler::new(&weights).unwrap();
        assert_eq!(sampler.len(), 10_000);
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        for _ in 0..10_000 {
            assert!(sampler.sample(&mut rng) < 10_000);
        }
    }
}

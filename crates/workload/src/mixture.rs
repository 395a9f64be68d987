//! Mixtures of access patterns.
//!
//! Real attack traffic rides on top of organic load: a cluster serving a
//! Zipf workload sees an adversarial uniform-subset flood *blended in*.
//! [`MixturePattern`] represents `p(rank) = Σ w_i · p_i(rank)` over
//! patterns sharing one key space, with exact per-rank probabilities and a
//! two-stage sampler (pick a component by weight, then sample it).

use crate::error::WorkloadError;
use crate::pattern::{AccessPattern, PatternSampler, RankProbs};
use crate::rng::{next_f64, Xoshiro256StarStar};
use crate::Result;

/// A convex combination of access patterns over a common key space.
///
/// # Example
///
/// ```
/// use scp_workload::mixture::MixturePattern;
/// use scp_workload::AccessPattern;
///
/// // 80% organic Zipf traffic, 20% adversarial flood over 101 keys.
/// let organic = AccessPattern::zipf(1.01, 10_000)?;
/// let attack = AccessPattern::uniform_subset(101, 10_000)?;
/// let blend = MixturePattern::new(vec![(0.8, organic), (0.2, attack)])?;
/// let probs = blend.rank_probs();
/// assert!(probs.get(0) > 0.0);
/// # Ok::<(), scp_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MixturePattern {
    components: Vec<(f64, AccessPattern)>,
    key_space: u64,
}

impl MixturePattern {
    /// Builds a mixture from `(weight, pattern)` components.
    ///
    /// Weights are normalized; they must be non-negative, finite, and sum
    /// to something positive.
    ///
    /// # Errors
    ///
    /// Returns an error if the component list is empty, a weight is
    /// invalid, the weights sum to zero, or the patterns disagree on the
    /// key-space size.
    pub fn new(components: Vec<(f64, AccessPattern)>) -> Result<Self> {
        let Some((_, first)) = components.first() else {
            return Err(WorkloadError::EmptyDistribution);
        };
        let key_space = first.key_space();
        let mut total = 0.0;
        for (index, (w, pattern)) in components.iter().enumerate() {
            if !w.is_finite() || *w < 0.0 {
                return Err(WorkloadError::InvalidProbability { index, value: *w });
            }
            if pattern.key_space() != key_space {
                return Err(WorkloadError::InvalidParameter {
                    name: "components",
                    reason: format!(
                        "component {index} has key space {}, expected {key_space}",
                        pattern.key_space()
                    ),
                });
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(WorkloadError::NotNormalized { sum: total });
        }
        let components = components
            .into_iter()
            .map(|(w, p)| (w / total, p))
            .collect();
        Ok(Self {
            components,
            key_space,
        })
    }

    /// The shared key-space size.
    pub fn key_space(&self) -> u64 {
        self.key_space
    }

    /// Normalized `(weight, pattern)` components.
    pub fn components(&self) -> &[(f64, AccessPattern)] {
        &self.components
    }

    /// Largest rank bound across components.
    pub fn support_bound(&self) -> u64 {
        self.components
            .iter()
            .map(|(_, p)| p.support_bound())
            .max()
            .unwrap_or(0)
    }

    /// Exact per-rank probability tables (one per component, weighted).
    pub fn rank_probs(&self) -> MixtureRankProbs<'_> {
        MixtureRankProbs {
            tables: self
                .components
                .iter()
                .map(|(w, p)| (*w, p.rank_probs()))
                .collect(),
            support: self.support_bound(),
        }
    }

    /// Materializes the blended distribution as an explicit pattern
    /// (useful for the rate engine, which wants one pmf).
    ///
    /// # Errors
    ///
    /// Returns an error if the blended pmf fails validation (it cannot,
    /// absent float pathologies).
    pub fn to_explicit(&self) -> Result<AccessPattern> {
        let probs = self.rank_probs();
        let dense: Vec<f64> = (0..self.key_space).map(|r| probs.get(r)).collect();
        Ok(AccessPattern::Explicit(crate::Pmf::new(dense)?))
    }

    /// A two-stage sampler: choose a component by weight, then sample it.
    ///
    /// # Errors
    ///
    /// Returns an error if a component cannot build its sampler.
    pub fn sampler(&self, seed: u64) -> Result<MixtureSampler> {
        let samplers = self
            .components
            .iter()
            .enumerate()
            .map(|(i, (w, p))| Ok((*w, p.sampler(seed ^ ((i as u64 + 1) << 48))?)))
            .collect::<Result<Vec<_>>>()?;
        Ok(MixtureSampler {
            samplers,
            rng: Xoshiro256StarStar::seed_from_u64(seed ^ 0x3117_0000_0000_0000),
        })
    }
}

/// Exact per-rank probabilities of a [`MixturePattern`].
#[derive(Debug, Clone)]
pub struct MixtureRankProbs<'a> {
    tables: Vec<(f64, RankProbs<'a>)>,
    support: u64,
}

impl MixtureRankProbs<'_> {
    /// Probability of `rank` under the blend.
    pub fn get(&self, rank: u64) -> f64 {
        self.tables.iter().map(|(w, t)| w * t.get(rank)).sum()
    }

    /// Number of leading ranks that can have positive probability.
    pub fn support_bound(&self) -> u64 {
        self.support
    }
}

/// Sampler for a [`MixturePattern`].
#[derive(Debug, Clone)]
pub struct MixtureSampler {
    samplers: Vec<(f64, PatternSampler)>,
    rng: Xoshiro256StarStar,
}

impl MixtureSampler {
    /// Draws the next rank.
    #[expect(clippy::expect_used, reason = "Mixture::new rejects empty lists")]
    pub fn sample(&mut self) -> u64 {
        let mut u = next_f64(&mut self.rng);
        for (w, s) in &mut self.samplers {
            if u < *w {
                return s.sample();
            }
            u -= *w;
        }
        // Float round-off: fall back to the last component.
        self.samplers
            .last_mut()
            .expect("mixture has components")
            .1
            .sample()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blend() -> MixturePattern {
        MixturePattern::new(vec![
            (0.8, AccessPattern::zipf(1.01, 1000).unwrap()),
            (0.2, AccessPattern::uniform_subset(11, 1000).unwrap()),
        ])
        .unwrap()
    }

    #[test]
    fn validation() {
        assert!(MixturePattern::new(vec![]).is_err());
        assert!(MixturePattern::new(vec![(-1.0, AccessPattern::uniform(10).unwrap())]).is_err());
        assert!(MixturePattern::new(vec![(0.0, AccessPattern::uniform(10).unwrap())]).is_err());
        assert!(MixturePattern::new(vec![
            (0.5, AccessPattern::uniform(10).unwrap()),
            (0.5, AccessPattern::uniform(20).unwrap()),
        ])
        .is_err());
    }

    #[test]
    fn weights_are_normalized() {
        let m = MixturePattern::new(vec![
            (2.0, AccessPattern::uniform(10).unwrap()),
            (6.0, AccessPattern::uniform(10).unwrap()),
        ])
        .unwrap();
        assert!((m.components()[0].0 - 0.25).abs() < 1e-12);
        assert!((m.components()[1].0 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn rank_probs_blend_and_sum_to_one() {
        let m = blend();
        let rp = m.rank_probs();
        let total: f64 = (0..m.key_space()).map(|r| rp.get(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Rank 5 gets zipf mass plus 0.2 * 1/11 from the flood.
        let zipf = AccessPattern::zipf(1.01, 1000).unwrap();
        let expected = 0.8 * zipf.rank_probs().get(5) + 0.2 / 11.0;
        assert!((rp.get(5) - expected).abs() < 1e-12);
        // Beyond the flood's support only zipf mass remains.
        let expected_tail = 0.8 * zipf.rank_probs().get(500);
        assert!((rp.get(500) - expected_tail).abs() < 1e-12);
    }

    #[test]
    fn to_explicit_matches_rank_probs() {
        let m = blend();
        let explicit = m.to_explicit().unwrap();
        let ep = explicit.rank_probs();
        let mp = m.rank_probs();
        for r in [0u64, 3, 10, 11, 100, 999] {
            assert!((ep.get(r) - mp.get(r)).abs() < 1e-12, "rank {r}");
        }
    }

    #[test]
    fn sampler_tracks_blended_distribution() {
        let m = blend();
        let mut s = m.sampler(9).unwrap();
        let draws = 200_000;
        let mut head = 0usize; // ranks 0..11 (flood support)
        for _ in 0..draws {
            if s.sample() < 11 {
                head += 1;
            }
        }
        let expected = {
            let rp = m.rank_probs();
            (0..11u64).map(|r| rp.get(r)).sum::<f64>()
        };
        let freq = head as f64 / draws as f64;
        assert!(
            (freq - expected).abs() < 0.01,
            "head frequency {freq} vs expected {expected}"
        );
    }

    #[test]
    fn sampler_is_deterministic() {
        let m = blend();
        let mut a = m.sampler(3).unwrap();
        let mut b = m.sampler(3).unwrap();
        for _ in 0..100 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn single_component_mixture_is_transparent() {
        let m = MixturePattern::new(vec![(1.0, AccessPattern::uniform_subset(5, 100).unwrap())])
            .unwrap();
        let rp = m.rank_probs();
        assert!((rp.get(0) - 0.2).abs() < 1e-12);
        assert_eq!(rp.get(5), 0.0);
        assert_eq!(m.support_bound(), 5);
    }
}

//! Adversarial strategies: from theory to concrete access patterns.

use crate::bounds::{
    attack_gain_bound, attack_gain_bound_single_choice, optimal_subset_size,
    optimal_subset_size_single_choice, BestSubsetSize, KParam,
};
use crate::error::CoreError;
use crate::gain::AttackGain;
use crate::params::SystemParams;
use crate::Result;
use scp_workload::AccessPattern;
use std::fmt;

/// A concrete plan of attack: how many keys to query and with what
/// distribution, plus the gain the strategy's own theory predicts.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackPlan {
    /// Number of distinct keys the adversary queries.
    pub x: u64,
    /// The access distribution over popularity ranks.
    pub pattern: AccessPattern,
    /// The gain the strategy predicts for this plan (upper bound).
    pub predicted_gain: AttackGain,
}

/// A strategy for choosing an adversarial access pattern against a system.
///
/// The adversary knows `(n, d, c, m)` — everything except the randomized
/// key-to-node mapping (Section II.B assumption 1).
pub trait AdversaryStrategy: fmt::Debug {
    /// Produces the attack plan for the given system.
    ///
    /// # Errors
    ///
    /// Returns an error if the system parameters leave the strategy no
    /// legal move (e.g. the whole key space is cached).
    fn plan(&self, params: &SystemParams) -> Result<AttackPlan>;

    /// Short strategy name for reports.
    fn name(&self) -> &'static str;
}

/// The paper's optimal adversary (Section III): query `x = c + 1` keys at
/// equal rates when the cache is under-provisioned, otherwise the entire
/// key space.
#[derive(Debug, Clone, Default)]
pub struct ReplicatedClusterAdversary {
    k: KParam,
}

impl ReplicatedClusterAdversary {
    /// Creates the adversary with the default (paper-fitted) `k`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the adversary with an explicit `k` parameterization.
    pub fn with_k(k: KParam) -> Self {
        Self { k }
    }

    /// The `k` parameterization used in the case analysis.
    pub fn k(&self) -> &KParam {
        &self.k
    }
}

impl AdversaryStrategy for ReplicatedClusterAdversary {
    fn plan(&self, params: &SystemParams) -> Result<AttackPlan> {
        let choice = optimal_subset_size(params, &self.k);
        let x = choice.x();
        if x <= params.cache_size() as u64 {
            // The whole key space is cached; no query reaches the backend.
            return Err(CoreError::InvalidParameter {
                name: "params",
                reason: "entire key space is cached; no effective move exists".to_owned(),
            });
        }
        let predicted_gain = attack_gain_bound(params, x, &self.k);
        let pattern = AccessPattern::uniform_subset(x, params.items())?;
        let _ = matches!(choice, BestSubsetSize::JustAboveCache(_));
        Ok(AttackPlan {
            x,
            pattern,
            predicted_gain,
        })
    }

    fn name(&self) -> &'static str {
        "replicated-optimal"
    }
}

/// The Fan et al. (SoCC'11) baseline adversary for clusters **without**
/// replication: picks the interior-optimal `x*` maximizing the
/// single-choice gain bound.
///
/// Applied to a replicated cluster it is *suboptimal* (it assumes `d = 1`
/// dynamics); the ablation experiments use it to show how replication
/// changes the adversary's calculus.
#[derive(Debug, Clone)]
pub struct SmallCacheAdversary {
    beta: f64,
}

impl SmallCacheAdversary {
    /// Creates the baseline adversary with deviation coefficient
    /// `beta = 1`.
    pub fn new() -> Self {
        Self { beta: 1.0 }
    }
}

impl Default for SmallCacheAdversary {
    fn default() -> Self {
        Self::new()
    }
}

impl AdversaryStrategy for SmallCacheAdversary {
    fn plan(&self, params: &SystemParams) -> Result<AttackPlan> {
        let (n, c, m) = (params.nodes(), params.cache_size(), params.items());
        if c as u64 >= m {
            return Err(CoreError::InvalidParameter {
                name: "params",
                reason: "entire key space is cached; no effective move exists".to_owned(),
            });
        }
        let x = optimal_subset_size_single_choice(n, c, m, self.beta);
        let predicted_gain = attack_gain_bound_single_choice(n, c, x, self.beta);
        Ok(AttackPlan {
            x,
            pattern: AccessPattern::uniform_subset(x, m)?,
            predicted_gain,
        })
    }

    fn name(&self) -> &'static str {
        "small-cache-baseline"
    }
}

/// A naive adversary that queries a fixed number of keys at equal rates —
/// the x-sweep building block behind Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedSubsetAdversary {
    x: u64,
    k: Option<KParamCopy>,
}

// KParam is Copy-able but kept behind a tiny wrapper so FixedSubsetAdversary
// stays Copy without exposing representation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct KParamCopy(KParam);
impl Eq for KParamCopy {}

impl FixedSubsetAdversary {
    /// Queries exactly `x` keys at equal rates.
    pub fn new(x: u64) -> Self {
        Self { x, k: None }
    }

    /// Same, but also predicts the gain with the given `k`.
    pub fn with_k(x: u64, k: KParam) -> Self {
        Self {
            x,
            k: Some(KParamCopy(k)),
        }
    }
}

impl AdversaryStrategy for FixedSubsetAdversary {
    fn plan(&self, params: &SystemParams) -> Result<AttackPlan> {
        if self.x <= params.cache_size() as u64 {
            return Err(CoreError::InvalidParameter {
                name: "x",
                reason: format!(
                    "querying {} keys never reaches the backend behind a {}-entry cache",
                    self.x,
                    params.cache_size()
                ),
            });
        }
        if self.x > params.items() {
            return Err(CoreError::InvalidParameter {
                name: "x",
                reason: format!(
                    "{} keys exceed the {}-item key space",
                    self.x,
                    params.items()
                ),
            });
        }
        let k = self.k.map(|k| k.0).unwrap_or_default();
        Ok(AttackPlan {
            x: self.x,
            pattern: AccessPattern::uniform_subset(self.x, params.items())?,
            predicted_gain: attack_gain_bound(params, self.x, &k),
        })
    }

    fn name(&self) -> &'static str {
        "fixed-subset"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_params(c: usize) -> SystemParams {
        SystemParams::new(1000, 3, c, 1_000_000, 1e5).unwrap()
    }

    #[test]
    fn replicated_adversary_below_critical_queries_c_plus_one() {
        let plan = ReplicatedClusterAdversary::new()
            .plan(&paper_params(200))
            .unwrap();
        assert_eq!(plan.x, 201);
        assert!(plan.predicted_gain.is_effective());
        assert_eq!(
            plan.pattern,
            AccessPattern::uniform_subset(201, 1_000_000).unwrap()
        );
    }

    #[test]
    fn replicated_adversary_above_critical_queries_everything() {
        let plan = ReplicatedClusterAdversary::new()
            .plan(&paper_params(2000))
            .unwrap();
        assert_eq!(plan.x, 1_000_000);
        assert!(!plan.predicted_gain.is_effective());
    }

    #[test]
    fn replicated_adversary_fails_when_all_cached() {
        let p = SystemParams::new(10, 2, 100, 100, 1.0).unwrap();
        assert!(ReplicatedClusterAdversary::new().plan(&p).is_err());
    }

    #[test]
    fn replicated_adversary_custom_k_changes_threshold() {
        // With a tiny k the critical size shrinks below c=200.
        let adv = ReplicatedClusterAdversary::with_k(KParam::Fitted(0.1));
        let plan = adv.plan(&paper_params(200)).unwrap();
        assert_eq!(plan.x, 1_000_000, "c=200 >= c*=101 -> query everything");
        assert_eq!(adv.k(), &KParam::Fitted(0.1));
    }

    #[test]
    fn small_cache_adversary_always_finds_effective_interior_x() {
        let plan = SmallCacheAdversary::new().plan(&paper_params(200)).unwrap();
        assert!(plan.x > 201);
        assert!(plan.x < 1_000_000);
        assert!(plan.predicted_gain.is_effective());
    }

    #[test]
    fn small_cache_adversary_effective_even_with_large_cache() {
        // Fan et al.'s point: for d=1 the adversary stays effective at
        // cache sizes far beyond the replicated c* — here 10k entries
        // (vs. c* ≈ 1.2k for d=3) still loses. The adversary needs
        // x - c > (c-1)^2 / (n β² ln n) keys, which fits inside m.
        let plan = SmallCacheAdversary::new()
            .plan(&paper_params(10_000))
            .unwrap();
        assert!(plan.predicted_gain.is_effective());
    }

    #[test]
    fn small_cache_adversary_capped_by_finite_key_space() {
        // With c large enough that the required x exceeds m, the finite
        // key space itself saves the d=1 cluster: x* hits m and the gain
        // bound dips below 1. (Fan et al.'s always-effective claim is for
        // unbounded key spaces.)
        let plan = SmallCacheAdversary::new()
            .plan(&paper_params(100_000))
            .unwrap();
        assert_eq!(plan.x, 1_000_000);
        assert!(!plan.predicted_gain.is_effective());
    }

    #[test]
    fn small_cache_adversary_rejects_fully_cached() {
        let p = SystemParams::new(10, 1, 100, 100, 1.0).unwrap();
        assert!(SmallCacheAdversary::new().plan(&p).is_err());
    }

    #[test]
    fn fixed_subset_validates_range() {
        let p = paper_params(200);
        assert!(FixedSubsetAdversary::new(200).plan(&p).is_err());
        assert!(FixedSubsetAdversary::new(1_000_001).plan(&p).is_err());
        let plan = FixedSubsetAdversary::new(500).plan(&p).unwrap();
        assert_eq!(plan.x, 500);
    }

    #[test]
    fn fixed_subset_with_k_predicts_gain() {
        let p = paper_params(200);
        let plan = FixedSubsetAdversary::with_k(201, KParam::Fitted(1.2))
            .plan(&p)
            .unwrap();
        let expected = attack_gain_bound(&p, 201, &KParam::Fitted(1.2));
        assert_eq!(plan.predicted_gain, expected);
    }

    #[test]
    fn strategy_names_are_distinct() {
        let names = [
            ReplicatedClusterAdversary::new().name(),
            SmallCacheAdversary::new().name(),
            FixedSubsetAdversary::new(10).name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn strategies_work_as_trait_objects() {
        let strategies: Vec<Box<dyn AdversaryStrategy>> = vec![
            Box::new(ReplicatedClusterAdversary::new()),
            Box::new(SmallCacheAdversary::new()),
            Box::new(FixedSubsetAdversary::new(300)),
        ];
        let p = paper_params(200);
        for s in &strategies {
            let plan = s.plan(&p).unwrap();
            assert!(plan.x > 200);
        }
    }
}

//! Heterogeneous operation costs.
//!
//! The paper assumes uniform query cost (Section II.B, assumption 4) and
//! points at Fan et al. for the weighted extension. This module supplies
//! that extension: a read/write mix where writes can cost more and —
//! crucially — can *bypass* the front-end cache (a look-through cache
//! serves reads; writes must reach the authoritative replicas). The
//! weighted query engine quantifies how much of the provable protection
//! survives write-heavy floods.

use crate::config::SimConfig;
use crate::error::SimError;
use crate::front_end;
use crate::metrics::LoadReport;
use crate::multi_frontend::FrontendRouting;
use crate::Result;

/// A read/write cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of serving one read at a back-end node.
    pub read_cost: f64,
    /// Cost of serving one write at a back-end node.
    pub write_cost: f64,
    /// Fraction of queries that are writes, in `[0, 1]`.
    pub write_fraction: f64,
    /// Whether writes skip the front-end cache entirely (write-through /
    /// write-around front ends).
    pub writes_bypass_cache: bool,
}

impl CostModel {
    /// The paper's uniform-cost model.
    pub fn uniform() -> Self {
        Self {
            read_cost: 1.0,
            write_cost: 1.0,
            write_fraction: 0.0,
            writes_bypass_cache: false,
        }
    }

    /// A read/write mix with cache-bypassing writes.
    ///
    /// # Errors
    ///
    /// Returns an error unless costs are finite and positive and the
    /// fraction lies in `[0, 1]`.
    pub fn read_write(read_cost: f64, write_cost: f64, write_fraction: f64) -> Result<Self> {
        let model = Self {
            read_cost,
            write_cost,
            write_fraction,
            writes_bypass_cache: true,
        };
        model.validate()?;
        Ok(model)
    }

    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns an error on non-positive costs or an out-of-range fraction.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("read_cost", self.read_cost),
            ("write_cost", self.write_cost),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(SimError::InvalidConfig {
                    field: "cost_model",
                    reason: format!("{name} must be finite and positive, got {v}"),
                });
            }
        }
        if !(0.0..=1.0).contains(&self.write_fraction) {
            return Err(SimError::InvalidConfig {
                field: "cost_model",
                reason: format!(
                    "write_fraction must lie in [0, 1], got {}",
                    self.write_fraction
                ),
            });
        }
        Ok(())
    }

    /// Mean cost of one query under this model.
    pub fn mean_cost(&self) -> f64 {
        self.write_fraction * self.write_cost + (1.0 - self.write_fraction) * self.read_cost
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::uniform()
    }
}

/// Query-sampling simulation with per-operation costs.
///
/// Like [`crate::query_engine::run_query_simulation`], but each query is a
/// read or a write per the model; node loads and cache load are measured
/// in *cost units*, and the report's `offered` is the total cost so gains
/// stay normalized.
///
/// # Errors
///
/// Returns an error on invalid configs, models, or `queries == 0`.
pub fn run_weighted_query_simulation(
    cfg: &SimConfig,
    queries: u64,
    model: &CostModel,
) -> Result<LoadReport> {
    cfg.validate()?;
    model.validate()?;
    Ok(front_end::run(cfg, queries, 1, FrontendRouting::ByClient, model)?.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdmissionKind, CacheKind, PartitionerKind, SelectorKind};
    use scp_workload::AccessPattern;

    fn config(c: usize, x: u64) -> SimConfig {
        SimConfig {
            nodes: 50,
            replication: 3,
            cache_kind: CacheKind::Perfect,
            admission: AdmissionKind::Oracle,
            cache_capacity: c,
            items: 5_000,
            rate: 1e4,
            pattern: AccessPattern::uniform_subset(x, 5_000).unwrap(),
            partitioner: PartitionerKind::Hash,
            selector: SelectorKind::LeastLoaded,
            seed: 21,
        }
    }

    #[test]
    fn model_validation() {
        assert!(CostModel::read_write(0.0, 1.0, 0.5).is_err());
        assert!(CostModel::read_write(1.0, -1.0, 0.5).is_err());
        assert!(CostModel::read_write(1.0, 1.0, 1.5).is_err());
        assert!(CostModel::read_write(1.0, 5.0, 0.2).is_ok());
        assert!((CostModel::read_write(1.0, 5.0, 0.25).unwrap().mean_cost() - 2.0).abs() < 1e-12);
        assert_eq!(CostModel::default(), CostModel::uniform());
    }

    #[test]
    fn uniform_model_matches_plain_query_engine() {
        let cfg = config(10, 100);
        let weighted = run_weighted_query_simulation(&cfg, 50_000, &CostModel::uniform()).unwrap();
        let plain = crate::query_engine::run_query_simulation(&cfg, 50_000).unwrap();
        // Different RNG draw order (op rng) does not affect key choice;
        // loads must match exactly since all costs are 1 and no bypass.
        assert_eq!(weighted.snapshot, plain.snapshot);
        assert_eq!(weighted.cache_load, plain.cache_load);
    }

    #[test]
    fn conservation_in_cost_units() {
        let model = CostModel::read_write(1.0, 4.0, 0.3).unwrap();
        let r = run_weighted_query_simulation(&config(10, 100), 50_000, &model).unwrap();
        assert!(r.is_conserved(1e-9));
        // Offered is close to queries * mean cost.
        assert!((r.offered / 50_000.0 - model.mean_cost()).abs() < 0.05);
    }

    #[test]
    fn cache_bypassing_writes_defeat_the_cache() {
        // Fully cached subset: pure reads never touch the backend, but a
        // 30% write mix leaks cost straight through.
        let cfg = config(100, 100);
        let reads_only =
            run_weighted_query_simulation(&cfg, 30_000, &CostModel::uniform()).unwrap();
        assert_eq!(reads_only.snapshot.total(), 0.0);

        let writes = CostModel::read_write(1.0, 1.0, 0.3).unwrap();
        let with_writes = run_weighted_query_simulation(&cfg, 30_000, &writes).unwrap();
        assert!(
            with_writes.snapshot.total() > 0.25 * 30_000.0,
            "writes must reach the backend, got {}",
            with_writes.snapshot.total()
        );
    }

    #[test]
    fn expensive_writes_scale_backend_cost() {
        let cfg = config(0, 100);
        let cheap = CostModel::read_write(1.0, 1.0, 0.5).unwrap();
        let pricey = CostModel::read_write(1.0, 10.0, 0.5).unwrap();
        let a = run_weighted_query_simulation(&cfg, 40_000, &cheap).unwrap();
        let b = run_weighted_query_simulation(&cfg, 40_000, &pricey).unwrap();
        let ratio = b.snapshot.total() / a.snapshot.total();
        assert!(
            ratio > 4.0 && ratio < 7.0,
            "expected ~5.5x total cost, got {ratio}"
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let model = CostModel::read_write(1.0, 3.0, 0.2).unwrap();
        let a = run_weighted_query_simulation(&config(10, 50), 20_000, &model).unwrap();
        let b = run_weighted_query_simulation(&config(10, 50), 20_000, &model).unwrap();
        assert_eq!(a, b);
    }
}

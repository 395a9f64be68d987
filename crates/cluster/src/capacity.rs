//! Per-node capacity modelling and saturation checks.
//!
//! The paper closes Section III with: *"if the capacity `r_i` of each node
//! is larger than `E[L_max]`, then with high probability the adversary will
//! never saturate any node."* This module expresses that check.

use crate::error::ClusterError;
use crate::ids::NodeId;
use crate::load::LoadSnapshot;
use crate::Result;

/// Maximum sustainable query rates `r_i` for each node.
#[derive(Debug, Clone, PartialEq)]
pub struct Capacities {
    rates: Vec<f64>,
}

impl Capacities {
    /// All nodes share the same capacity `r`.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0` or `r` is not finite and positive.
    pub fn uniform(n: usize, r: f64) -> Result<Self> {
        if n == 0 {
            return Err(ClusterError::InvalidParameter {
                name: "n",
                reason: "need at least one node".to_owned(),
            });
        }
        if !r.is_finite() || r <= 0.0 {
            return Err(ClusterError::InvalidParameter {
                name: "r",
                reason: format!("capacity must be finite and positive, got {r}"),
            });
        }
        Ok(Self { rates: vec![r; n] })
    }

    /// Heterogeneous capacities.
    ///
    /// # Errors
    ///
    /// Returns an error if `rates` is empty or any rate is not finite and
    /// positive.
    pub fn heterogeneous(rates: Vec<f64>) -> Result<Self> {
        if rates.is_empty() {
            return Err(ClusterError::InvalidParameter {
                name: "rates",
                reason: "need at least one node".to_owned(),
            });
        }
        for (i, &r) in rates.iter().enumerate() {
            if !r.is_finite() || r <= 0.0 {
                return Err(ClusterError::InvalidParameter {
                    name: "rates",
                    reason: format!("capacity {r} at node {i} must be finite and positive"),
                });
            }
        }
        Ok(Self { rates })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.rates.len()
    }

    /// Capacity of one node.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn rate(&self, node: NodeId) -> f64 {
        let rate = self.rates.get(node.index()).copied();
        assert!(rate.is_some(), "node {} out of range", node.index());
        rate.unwrap_or(f64::NAN)
    }

    /// All capacities.
    pub fn as_slice(&self) -> &[f64] {
        &self.rates
    }

    /// The smallest capacity in the cluster.
    pub fn min_rate(&self) -> f64 {
        self.rates.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Nodes whose load exceeds their capacity.
    ///
    /// Loads beyond `rates.len()` are ignored (caller mismatch is a bug,
    /// but saturation reporting should not panic mid-experiment).
    #[expect(
        clippy::indexing_slicing,
        reason = "take(self.rates.len()) keeps every index below rates.len()"
    )]
    pub fn saturated_nodes(&self, snapshot: &LoadSnapshot) -> Vec<NodeId> {
        snapshot
            .loads()
            .iter()
            .take(self.rates.len())
            .enumerate()
            .filter(|&(i, &load)| load > self.rates[i])
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }

    /// Smallest ratio `r_i / load_i` across nodes with positive load.
    ///
    /// Values above 1 mean every node has slack; below 1 means at least one
    /// node is over capacity. Returns `f64::INFINITY` if nothing is loaded.
    #[expect(
        clippy::indexing_slicing,
        reason = "take(self.rates.len()) keeps every index below rates.len()"
    )]
    pub fn headroom(&self, snapshot: &LoadSnapshot) -> f64 {
        snapshot
            .loads()
            .iter()
            .take(self.rates.len())
            .enumerate()
            .filter(|&(_, &load)| load > 0.0)
            .map(|(i, &load)| self.rates[i] / load)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_validation() {
        assert!(Capacities::uniform(0, 1.0).is_err());
        assert!(Capacities::uniform(3, 0.0).is_err());
        assert!(Capacities::uniform(3, f64::NAN).is_err());
        let c = Capacities::uniform(3, 5.0).unwrap();
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.rate(NodeId::new(2)), 5.0);
        assert_eq!(c.min_rate(), 5.0);
    }

    #[test]
    fn heterogeneous_validation() {
        assert!(Capacities::heterogeneous(vec![]).is_err());
        assert!(Capacities::heterogeneous(vec![1.0, -2.0]).is_err());
        let c = Capacities::heterogeneous(vec![1.0, 4.0]).unwrap();
        assert_eq!(c.min_rate(), 1.0);
        assert_eq!(c.as_slice(), &[1.0, 4.0]);
    }

    #[test]
    fn saturation_detection() {
        let c = Capacities::heterogeneous(vec![10.0, 10.0, 2.0]).unwrap();
        let snap = LoadSnapshot::new(vec![5.0, 11.0, 3.0]);
        let sat = c.saturated_nodes(&snap);
        assert_eq!(sat, vec![NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn headroom_reports_tightest_node() {
        let c = Capacities::uniform(3, 10.0).unwrap();
        let snap = LoadSnapshot::new(vec![5.0, 8.0, 0.0]);
        assert!((c.headroom(&snap) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn headroom_of_idle_cluster_is_infinite() {
        let c = Capacities::uniform(2, 10.0).unwrap();
        let snap = LoadSnapshot::new(vec![0.0, 0.0]);
        assert_eq!(c.headroom(&snap), f64::INFINITY);
    }

    #[test]
    fn mismatched_lengths_do_not_panic() {
        let c = Capacities::uniform(2, 1.0).unwrap();
        let snap = LoadSnapshot::new(vec![2.0, 0.5, 9.0]);
        assert_eq!(c.saturated_nodes(&snap), vec![NodeId::new(0)]);
    }
}

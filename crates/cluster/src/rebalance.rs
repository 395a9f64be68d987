//! Load rebalancing by key migration — the alternative the paper's
//! property 4 ("costly to shift results") argues against.
//!
//! Instead of caching hot keys at the front end, an operator could chase
//! imbalance by *moving* keys between replicas. This module implements the
//! greedy rebalancer so experiments can price that alternative:
//!
//! * moves are restricted to a key's replica group (re-pointing the
//!   serving replica; cross-group re-homing would additionally move data);
//! * every move costs `move_cost` units of bandwidth/IO/consistency work;
//! * the paper's optimal attack (`x = c + 1`: one white-hot key) is
//!   *immune* to rebalancing — the hot key's entire rate travels with it,
//!   so the maximum load cannot drop. Only a front-end cache helps.

use crate::ids::{KeyId, NodeId};
use crate::load::LoadSnapshot;
use crate::partition::ReplicaGroup;
use std::collections::BinaryHeap;

/// A key pinned to a serving replica, with its steady query rate and the
/// group it may move within.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyAssignment {
    /// The key.
    pub key: KeyId,
    /// The replica currently serving it.
    pub node: NodeId,
    /// Steady query rate attributed to the key.
    pub rate: f64,
    /// The replica group the key may be served from.
    pub group: ReplicaGroup,
}

/// One executed migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Migration {
    /// The moved key.
    pub key: KeyId,
    /// Previous serving replica.
    pub from: NodeId,
    /// New serving replica.
    pub to: NodeId,
    /// The rate that moved with it.
    pub rate: f64,
}

/// Rebalancer tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Cost charged per migrated key (bandwidth/IO/consistency).
    pub move_cost: f64,
    /// Stop once `max load <= target_ratio * mean load`.
    pub target_ratio: f64,
    /// Hard cap on migrations (guards against thrashing).
    pub max_moves: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            move_cost: 1.0,
            target_ratio: 1.05,
            max_moves: 1_000_000,
        }
    }
}

/// Outcome of a rebalancing pass.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceOutcome {
    /// Loads before.
    pub before: LoadSnapshot,
    /// Loads after.
    pub after: LoadSnapshot,
    /// Executed migrations, in order.
    pub migrations: Vec<Migration>,
    /// Total migration cost (`moves * move_cost`).
    pub total_cost: f64,
    /// Whether the target ratio was reached.
    pub converged: bool,
}

impl RebalanceOutcome {
    /// Relative improvement of the maximum load (0 = none).
    pub fn max_load_reduction(&self) -> f64 {
        let before = self.before.max();
        if before <= 0.0 {
            0.0
        } else {
            1.0 - self.after.max() / before
        }
    }
}

/// Greedily migrates keys off the most loaded node until the target ratio,
/// the move budget, or a fixed point is reached.
///
/// Each step takes the currently most loaded node, scans its keys for the
/// move yielding the biggest drop in the pairwise max (key to the least
/// loaded live member of its group), and executes it if it strictly
/// improves. Keys whose groups offer no lighter replica stay put. A node
/// an assignment names at or beyond `node_count` gets a load slot of its
/// own, so both snapshots cover every node the input mentions.
pub fn rebalance(
    assignments: &[KeyAssignment],
    node_count: usize,
    cfg: &RebalanceConfig,
) -> RebalanceOutcome {
    let slots = assignments
        .iter()
        .flat_map(|a| std::iter::once(&a.node).chain(a.group.as_slice()))
        .map(|n| n.index() + 1)
        .fold(node_count, usize::max);
    let mut loads = vec![0.0f64; slots];
    // Keys per node for fast "who lives here" lookups, and each key's
    // current serving replica.
    let mut keys_on: Vec<Vec<usize>> = vec![Vec::new(); slots];
    let mut owner: Vec<NodeId> = Vec::with_capacity(assignments.len());
    for (idx, a) in assignments.iter().enumerate() {
        add(&mut loads, a.node.index(), a.rate);
        if let Some(keys) = keys_on.get_mut(a.node.index()) {
            keys.push(idx);
        }
        owner.push(a.node);
    }
    let before = LoadSnapshot::new(loads.clone());
    let load = |loads: &[f64], node: usize| loads.get(node).copied().unwrap_or(0.0);

    let mut migrations = Vec::new();
    let mut converged = false;
    // Max-heap of (load, node); entries go stale as loads change, so each
    // pop is validated against the live load vector.
    let mut heap: BinaryHeap<(Ord64, usize)> = loads
        .iter()
        .enumerate()
        .map(|(i, &l)| (ord(l), i))
        .collect();

    while migrations.len() < cfg.max_moves {
        let total: f64 = loads.iter().sum();
        let mean = total / slots as f64;
        // Find the live maximum.
        let hot = loop {
            match heap.pop() {
                Some((l, node)) if (l.0 - load(&loads, node)).abs() < 1e-12 => break Some(node),
                Some(_) => continue, // stale entry
                None => break None,
            }
        };
        let Some(hot) = hot else { break };
        let hot_load = load(&loads, hot);
        if hot_load <= cfg.target_ratio * mean || scp_core::is_negligible(hot_load) {
            converged = true;
            break;
        }

        // Best move: the key on `hot` whose relocation minimizes
        // max(new hot load, new destination load).
        let mut best: Option<(usize, &KeyAssignment, NodeId, f64)> = None;
        for &idx in keys_on.get(hot).into_iter().flatten() {
            let (Some(a), Some(serving)) = (assignments.get(idx), owner.get(idx)) else {
                continue;
            };
            if serving.index() != hot {
                continue; // stale membership entry
            }
            for &candidate in a.group.as_slice() {
                if candidate.index() == hot {
                    continue;
                }
                let new_pair_max =
                    (hot_load - a.rate).max(load(&loads, candidate.index()) + a.rate);
                if new_pair_max < hot_load - 1e-12
                    && best.is_none_or(|(_, _, _, b)| new_pair_max < b)
                {
                    best = Some((idx, a, candidate, new_pair_max));
                }
            }
        }
        let Some((idx, a, to, _)) = best else {
            // Hottest node cannot improve: global fixed point (any other
            // node's max is lower, so moving elsewhere cannot reduce max).
            break;
        };
        let hot_after = add(&mut loads, hot, -a.rate);
        let to_after = add(&mut loads, to.index(), a.rate);
        if let Some(serving) = owner.get_mut(idx) {
            *serving = to;
        }
        if let Some(keys) = keys_on.get_mut(hot) {
            keys.retain(|&i| i != idx);
        }
        if let Some(keys) = keys_on.get_mut(to.index()) {
            keys.push(idx);
        }
        migrations.push(Migration {
            key: a.key,
            from: NodeId::from_index(hot),
            to,
            rate: a.rate,
        });
        heap.push((ord(hot_after), hot));
        heap.push((ord(to_after), to.index()));
    }

    RebalanceOutcome {
        before,
        after: LoadSnapshot::new(loads),
        total_cost: migrations.len() as f64 * cfg.move_cost,
        migrations,
        converged,
    }
}

/// Adds `delta` to node `node`'s load and returns the new load.
fn add(loads: &mut [f64], node: usize, delta: f64) -> f64 {
    loads.get_mut(node).map_or(0.0, |l| {
        *l += delta;
        *l
    })
}

// f64 max-heap key: totally ordered wrapper.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ord64(f64);
impl Eq for Ord64 {}
impl PartialOrd for Ord64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ord64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

fn ord(v: f64) -> Ord64 {
    Ord64(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(ids: &[u32]) -> ReplicaGroup {
        ids.iter().map(|&i| NodeId::new(i)).collect()
    }

    fn assignment(key: u64, node: u32, rate: f64, g: &[u32]) -> KeyAssignment {
        KeyAssignment {
            key: KeyId::new(key),
            node: NodeId::new(node),
            rate,
            group: group(g),
        }
    }

    #[test]
    fn spreads_stacked_keys_across_their_group() {
        // Three unit keys stacked on node 0; groups allow nodes 0..3.
        let assignments = vec![
            assignment(1, 0, 1.0, &[0, 1, 2]),
            assignment(2, 0, 1.0, &[0, 1, 2]),
            assignment(3, 0, 1.0, &[0, 1, 2]),
        ];
        let out = rebalance(&assignments, 3, &RebalanceConfig::default());
        assert!(out.converged);
        assert_eq!(out.migrations.len(), 2);
        assert!((out.after.max() - 1.0).abs() < 1e-12);
        assert!((out.max_load_reduction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((out.total_cost - 2.0).abs() < 1e-12);
        // Mass conserved.
        assert!((out.after.total() - out.before.total()).abs() < 1e-12);
    }

    #[test]
    fn single_hot_key_is_immovable_relief() {
        // The paper's optimal attack: one key carries everything. Moving
        // it just moves the hotspot; the rebalancer must refuse.
        let assignments = vec![
            assignment(1, 0, 100.0, &[0, 1, 2]),
            assignment(2, 1, 1.0, &[1, 2, 3]),
        ];
        let out = rebalance(&assignments, 4, &RebalanceConfig::default());
        assert_eq!(out.migrations.len(), 0, "no move can reduce the max");
        assert_eq!(out.after.max(), 100.0);
        assert_eq!(out.max_load_reduction(), 0.0);
    }

    #[test]
    fn moves_are_confined_to_replica_groups() {
        // Node 3 is idle but outside every group: must not receive keys.
        let assignments = vec![
            assignment(1, 0, 2.0, &[0, 1]),
            assignment(2, 0, 2.0, &[0, 1]),
            assignment(3, 1, 0.5, &[0, 1]),
        ];
        let out = rebalance(&assignments, 4, &RebalanceConfig::default());
        for m in &out.migrations {
            assert!(m.to.index() <= 1, "migrated outside the group: {m:?}");
        }
        assert_eq!(out.after.loads()[3], 0.0);
        assert_eq!(out.after.loads()[2], 0.0);
    }

    #[test]
    fn respects_move_budget() {
        let assignments: Vec<KeyAssignment> = (0..50)
            .map(|k| assignment(k, 0, 1.0, &[0, 1, 2, 3]))
            .collect();
        let cfg = RebalanceConfig {
            max_moves: 5,
            ..RebalanceConfig::default()
        };
        let out = rebalance(&assignments, 4, &cfg);
        assert_eq!(out.migrations.len(), 5);
        assert!(!out.converged);
        assert!((out.total_cost - 5.0).abs() < 1e-12);
    }

    #[test]
    fn already_balanced_input_is_a_fixed_point() {
        let assignments = vec![
            assignment(1, 0, 1.0, &[0, 1]),
            assignment(2, 1, 1.0, &[0, 1]),
        ];
        let out = rebalance(&assignments, 2, &RebalanceConfig::default());
        assert!(out.converged);
        assert!(out.migrations.is_empty());
        assert_eq!(out.before, out.after);
    }

    #[test]
    fn nodes_past_node_count_get_their_own_slot() {
        // Node 5 is beyond `node_count`; it is counted, not a panic.
        let assignments = vec![
            assignment(1, 5, 2.0, &[5, 0]),
            assignment(2, 5, 2.0, &[5, 0]),
        ];
        let out = rebalance(&assignments, 3, &RebalanceConfig::default());
        assert_eq!(out.before.loads().len(), 6);
        assert_eq!(out.migrations.len(), 1);
        assert!((out.after.total() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_is_trivially_converged() {
        let out = rebalance(&[], 3, &RebalanceConfig::default());
        assert!(out.migrations.is_empty());
        assert_eq!(out.after.total(), 0.0);
    }

    #[test]
    fn heterogeneous_rates_converge_near_mean() {
        // Mixed rates stacked on two nodes of a 10-node cluster, with
        // wide groups: greedy should get close to the mean.
        let mut assignments = Vec::new();
        for k in 0..40u64 {
            let rate = 1.0 + (k % 5) as f64;
            let node = (k % 2) as u32;
            assignments.push(assignment(k, node, rate, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]));
        }
        let out = rebalance(&assignments, 10, &RebalanceConfig::default());
        let mean = out.after.total() / 10.0;
        assert!(
            out.after.max() <= mean * 1.5,
            "max {} far above mean {mean}",
            out.after.max()
        );
        assert!(out.max_load_reduction() > 0.5);
    }
}

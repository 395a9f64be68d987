//! Replica selection: which member of a replica group serves a query.
//!
//! The paper's balls-into-bins analysis corresponds to
//! [`LeastLoadedSelector`] — every key is *pinned* to the least-loaded
//! member of its group when first seen (d-choice allocation). The other
//! selectors implement the "random selection or round-robin" rules the
//! paper mentions, which spread each key's rate evenly across its group.
//!
//! The sticky selectors keep per-key state in tables keyed by a
//! [`FastBuildHasher`]: the keys are whatever clients query, so runs seed
//! the hasher (see [`scp_workload::fasthash`]). The tables are never
//! iterated, so the seed changes their layout, never a decision.

use crate::ids::{KeyId, NodeId};
use scp_workload::fasthash::FastBuildHasher;
use scp_workload::rng::{next_below, Xoshiro256StarStar};
use std::collections::HashMap;
use std::fmt;

/// How a steady per-key query rate should be attributed to nodes by the
/// rate-propagation engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateAssignment {
    /// The whole rate goes to one node (sticky assignment).
    Pinned(NodeId),
    /// The rate is split evenly across the (live) group, the expectation
    /// of memoryless per-query policies.
    EvenSplit,
}

/// Chooses the serving node for queries within a replica group.
///
/// `group` is always non-empty and contains only live nodes; `loads` is the
/// cluster-wide load vector indexed by [`NodeId::index`].
pub trait ReplicaSelector: Send + fmt::Debug {
    /// Selects the node serving one query for `key`.
    fn select(&mut self, key: KeyId, group: &[NodeId], loads: &[f64]) -> NodeId;

    /// How a steady rate for `key` is attributed (rate-propagation mode).
    fn rate_assignment(&mut self, key: KeyId, group: &[NodeId], loads: &[f64]) -> RateAssignment;

    /// Clears any per-key state (pins, counters, RNG position is kept).
    fn reset(&mut self);

    /// A short name for reports.
    fn name(&self) -> &'static str;
}

fn argmin_load(group: &[NodeId], loads: &[f64]) -> NodeId {
    debug_assert!(!group.is_empty(), "selector invoked with empty group");
    // A node missing from `loads` scores infinity so it is never chosen
    // over a tracked node; callers pass cluster-wide load vectors that
    // cover every NodeId, so the fallback never fires in practice.
    let load_of = |n: NodeId| loads.get(n.index()).copied().unwrap_or(f64::INFINITY);
    let mut iter = group.iter().copied();
    let Some(mut best) = iter.next() else {
        return NodeId::new(0);
    };
    let mut best_load = load_of(best);
    for n in iter {
        let l = load_of(n);
        if l < best_load {
            best = n;
            best_load = l;
        }
    }
    best
}

/// Uniform random member per query.
#[derive(Debug, Clone)]
pub struct RandomSelector {
    rng: Xoshiro256StarStar,
}

impl RandomSelector {
    /// Creates the selector with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Xoshiro256StarStar::seed_from_u64(seed ^ 0x5E1E_C70F),
        }
    }
}

impl ReplicaSelector for RandomSelector {
    fn select(&mut self, _key: KeyId, group: &[NodeId], _loads: &[f64]) -> NodeId {
        // `next_below(len)` is always `< len`, so the fallback only
        // covers the contract-violating empty group.
        let idx = next_below(&mut self.rng, group.len() as u64) as usize;
        group.get(idx).copied().unwrap_or(NodeId::new(0))
    }

    fn rate_assignment(
        &mut self,
        _key: KeyId,
        _group: &[NodeId],
        _loads: &[f64],
    ) -> RateAssignment {
        RateAssignment::EvenSplit
    }

    fn reset(&mut self) {}

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Per-key round-robin over the group.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinSelector {
    counters: HashMap<KeyId, u32, FastBuildHasher>,
}

impl RoundRobinSelector {
    /// Creates the selector.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`RoundRobinSelector::new`] with the per-key counters keyed by
    /// `hasher`.
    pub fn with_hasher(hasher: FastBuildHasher) -> Self {
        Self {
            counters: HashMap::with_hasher(hasher),
        }
    }
}

impl ReplicaSelector for RoundRobinSelector {
    fn select(&mut self, key: KeyId, group: &[NodeId], _loads: &[f64]) -> NodeId {
        let counter = self.counters.entry(key).or_insert(0);
        // `max(1)` keeps the modulus total; the `get` fallback only
        // covers the contract-violating empty group.
        let idx = (*counter as usize) % group.len().max(1);
        let node = group.get(idx).copied().unwrap_or(NodeId::new(0));
        *counter = counter.wrapping_add(1);
        node
    }

    fn rate_assignment(
        &mut self,
        _key: KeyId,
        _group: &[NodeId],
        _loads: &[f64],
    ) -> RateAssignment {
        RateAssignment::EvenSplit
    }

    fn reset(&mut self) {
        self.counters.clear();
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Sticky least-loaded assignment: the first query for a key pins it to the
/// least-loaded group member; later queries stick to that pin while it
/// remains live.
///
/// This is the "power of `d` choices" allocation underlying the paper's
/// Eq. (5) bound.
#[derive(Debug, Clone, Default)]
pub struct LeastLoadedSelector {
    pins: HashMap<KeyId, NodeId, FastBuildHasher>,
}

impl LeastLoadedSelector {
    /// Creates the selector.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`LeastLoadedSelector::new`] with the pin table keyed by `hasher`.
    pub fn with_hasher(hasher: FastBuildHasher) -> Self {
        Self {
            pins: HashMap::with_hasher(hasher),
        }
    }

    /// Number of keys currently pinned.
    pub fn pinned_keys(&self) -> usize {
        self.pins.len()
    }

    fn pin(&mut self, key: KeyId, group: &[NodeId], loads: &[f64]) -> NodeId {
        if let Some(&pinned) = self.pins.get(&key) {
            if group.contains(&pinned) {
                return pinned;
            }
        }
        let node = argmin_load(group, loads);
        self.pins.insert(key, node);
        node
    }
}

impl ReplicaSelector for LeastLoadedSelector {
    fn select(&mut self, key: KeyId, group: &[NodeId], loads: &[f64]) -> NodeId {
        self.pin(key, group, loads)
    }

    fn rate_assignment(&mut self, key: KeyId, group: &[NodeId], loads: &[f64]) -> RateAssignment {
        RateAssignment::Pinned(self.pin(key, group, loads))
    }

    fn reset(&mut self) {
        self.pins.clear();
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }
}

/// Memoryless join-the-least-loaded: every query independently picks the
/// currently least-loaded group member (no pinning).
#[derive(Debug, Clone, Default)]
pub struct PerQueryLeastLoaded;

impl PerQueryLeastLoaded {
    /// Creates the selector.
    pub fn new() -> Self {
        Self
    }
}

impl ReplicaSelector for PerQueryLeastLoaded {
    fn select(&mut self, _key: KeyId, group: &[NodeId], loads: &[f64]) -> NodeId {
        argmin_load(group, loads)
    }

    fn rate_assignment(
        &mut self,
        _key: KeyId,
        _group: &[NodeId],
        _loads: &[f64],
    ) -> RateAssignment {
        // In steady state, per-query least-loaded keeps group members equal.
        RateAssignment::EvenSplit
    }

    fn reset(&mut self) {}

    fn name(&self) -> &'static str {
        "per-query-least-loaded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId::new(i)).collect()
    }

    #[test]
    fn random_selector_covers_group_and_is_seeded() {
        let g = group(&[1, 4, 7]);
        let loads = vec![0.0; 10];
        let mut a = RandomSelector::new(5);
        let mut b = RandomSelector::new(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            let n = a.select(KeyId::new(0), &g, &loads);
            assert_eq!(n, b.select(KeyId::new(0), &g, &loads));
            assert!(g.contains(&n));
            seen.insert(n);
        }
        assert_eq!(seen.len(), 3, "all members should be used");
        assert_eq!(
            a.rate_assignment(KeyId::new(0), &g, &loads),
            RateAssignment::EvenSplit
        );
    }

    #[test]
    fn round_robin_cycles_in_order() {
        let g = group(&[2, 5, 8]);
        let loads = vec![0.0; 10];
        let mut s = RoundRobinSelector::new();
        let picks: Vec<u32> = (0..6)
            .map(|_| s.select(KeyId::new(1), &g, &loads).value())
            .collect();
        assert_eq!(picks, vec![2, 5, 8, 2, 5, 8]);
        // Independent counter per key.
        assert_eq!(s.select(KeyId::new(2), &g, &loads).value(), 2);
        s.reset();
        assert_eq!(s.select(KeyId::new(1), &g, &loads).value(), 2);
    }

    #[test]
    fn least_loaded_picks_min_and_sticks() {
        let g = group(&[0, 1, 2]);
        let mut loads = vec![5.0, 1.0, 3.0];
        let mut s = LeastLoadedSelector::new();
        let first = s.select(KeyId::new(9), &g, &loads);
        assert_eq!(first, NodeId::new(1));
        // Even after loads change, the pin holds.
        loads[1] = 100.0;
        assert_eq!(s.select(KeyId::new(9), &g, &loads), NodeId::new(1));
        assert_eq!(s.pinned_keys(), 1);
        assert_eq!(
            s.rate_assignment(KeyId::new(9), &g, &loads),
            RateAssignment::Pinned(NodeId::new(1))
        );
    }

    #[test]
    fn least_loaded_repins_when_pin_leaves_group() {
        let g = group(&[0, 1, 2]);
        let loads = vec![5.0, 1.0, 3.0];
        let mut s = LeastLoadedSelector::new();
        assert_eq!(s.select(KeyId::new(9), &g, &loads), NodeId::new(1));
        // Node 1 fails: group shrinks, key must be re-pinned.
        let live = group(&[0, 2]);
        assert_eq!(s.select(KeyId::new(9), &live, &loads), NodeId::new(2));
        // New pin persists.
        assert_eq!(s.select(KeyId::new(9), &live, &loads), NodeId::new(2));
    }

    #[test]
    fn least_loaded_ties_break_to_first() {
        let g = group(&[3, 1, 2]);
        let loads = vec![0.0; 5];
        let mut s = LeastLoadedSelector::new();
        assert_eq!(s.select(KeyId::new(0), &g, &loads), NodeId::new(3));
    }

    #[test]
    fn least_loaded_reset_clears_pins() {
        let g = group(&[0, 1]);
        let mut loads = vec![0.0, 1.0];
        let mut s = LeastLoadedSelector::new();
        assert_eq!(s.select(KeyId::new(5), &g, &loads), NodeId::new(0));
        loads[0] = 9.0;
        s.reset();
        assert_eq!(s.select(KeyId::new(5), &g, &loads), NodeId::new(1));
    }

    #[test]
    fn per_query_least_loaded_follows_loads() {
        let g = group(&[0, 1]);
        let mut s = PerQueryLeastLoaded::new();
        assert_eq!(s.select(KeyId::new(0), &g, &[1.0, 2.0]), NodeId::new(0));
        assert_eq!(s.select(KeyId::new(0), &g, &[3.0, 2.0]), NodeId::new(1));
        assert_eq!(
            s.rate_assignment(KeyId::new(0), &g, &[1.0, 2.0]),
            RateAssignment::EvenSplit
        );
    }

    #[test]
    fn sticky_decisions_do_not_depend_on_the_hasher_seed() {
        // The pin and counter tables are never iterated, so keying them
        // with another seed changes their layout and nothing else: the
        // same stream routes identically, re-pins included.
        fn route(mut s: Box<dyn ReplicaSelector>) -> Vec<NodeId> {
            let mut gen = Xoshiro256StarStar::seed_from_u64(0x5E1E);
            let mut loads = vec![0.0; 16];
            let mut picks = Vec::new();
            for step in 0..20_000u64 {
                let key = next_below(&mut gen, 3_000) * 0x9E37_79B9;
                let first = (key % 16) as u32;
                let mut g = group(&[first, (first + 5) % 16, (first + 11) % 16]);
                if step % 97 == 0 {
                    g.remove(0); // a member drops out: pinned keys re-pin
                }
                let node = s.select(KeyId::new(key), &g, &loads);
                loads[node.index()] += 1.0;
                picks.push(node);
            }
            picks
        }
        let (a, b) = (FastBuildHasher::new(1), FastBuildHasher::new(2));
        assert_eq!(
            route(Box::new(LeastLoadedSelector::with_hasher(a))),
            route(Box::new(LeastLoadedSelector::with_hasher(b)))
        );
        assert_eq!(
            route(Box::new(RoundRobinSelector::with_hasher(a))),
            route(Box::new(RoundRobinSelector::with_hasher(b)))
        );
    }

    #[test]
    fn selector_names_are_distinct() {
        let names = [
            RandomSelector::new(0).name(),
            RoundRobinSelector::new().name(),
            LeastLoadedSelector::new().name(),
            PerQueryLeastLoaded::new().name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}

//! Seeded property tests for the membership layer: minimal disruption on
//! join/leave and `MigrationPlan` soundness.
//!
//! Deterministic stand-ins for property tests: the case generator is a
//! seeded xoshiro stream, so every failure reproduces exactly from the
//! case number printed in its assertion message.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_cluster::ids::{KeyId, NodeId};
use scp_cluster::topology::{MigrationPlan, Topology};
use scp_cluster::{PartitionerKind, PartitionerSpec};
use scp_workload::rng::{next_below, Rng, Xoshiro256StarStar};

fn build(
    kind: PartitionerKind,
    t: &Topology,
    d: usize,
    seed: u64,
) -> Box<dyn scp_cluster::Partitioner> {
    PartitionerSpec::new(kind)
        .topology(t.clone())
        .replication(d)
        .seed(seed)
        .items(1 << 20)
        .build()
        .unwrap()
}

/// Multi-probe joins move close to the 1/(n+1) ideal; the hash
/// partitioner (independent placement keyed on the member set) remaps
/// nearly everything. This is the contrast the reshard experiment
/// exists to show, checked here across random cluster sizes and seeds.
#[test]
fn prop_multiprobe_join_disruption_is_minimal_and_hash_is_not() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0xE1A57);
    for case in 0..12 {
        let n = 20 + next_below(&mut gen, 60) as usize;
        let seed = gen.next_u64();
        let mut t = Topology::with_nodes(n).unwrap();
        let keys: Vec<KeyId> = (0..8_000).map(KeyId::new).collect();

        let mp_old = build(PartitionerKind::MultiProbe, &t, 1, seed);
        let hash_old = build(PartitionerKind::Hash, &t, 1, seed);
        let from = t.epoch();
        t.join(NodeId::from_index(n)).unwrap();
        let mp_new = build(PartitionerKind::MultiProbe, &t, 1, seed);
        let hash_new = build(PartitionerKind::Hash, &t, 1, seed);

        let ideal = 1.0 / (n as f64 + 1.0);
        let mp_plan = MigrationPlan::between(
            mp_old.as_ref(),
            from,
            mp_new.as_ref(),
            t.epoch(),
            keys.iter().copied(),
        );
        let moved = mp_plan.primary_moved_fraction();
        assert!(
            moved > 0.0 && moved < 2.0 * ideal,
            "case {case}: multi-probe join moved {moved:.4}, ideal {ideal:.4} (n={n} seed={seed})"
        );
        // Every multi-probe move lands on the joiner.
        for mv in &mp_plan.moves {
            assert_eq!(
                mv.to.as_slice(),
                &[NodeId::from_index(n)],
                "case {case}: move not onto the joiner (n={n} seed={seed})"
            );
        }

        let hash_plan = MigrationPlan::between(
            hash_old.as_ref(),
            from,
            hash_new.as_ref(),
            t.epoch(),
            keys.iter().copied(),
        );
        // Independent placement has no movement bound. On an append-join
        // the fixed-point index map is monotone, so "only" about half of
        // all keys remap — still ~30x the multi-probe ideal.
        let hash_moved = hash_plan.moved_key_fraction();
        assert!(
            hash_moved > 0.4,
            "case {case}: hash join remap collapsed to {hash_moved:.4} (n={n})"
        );
        assert!(
            hash_moved > 10.0 * moved,
            "case {case}: hash remap {hash_moved:.4} not >> multi-probe {moved:.4}"
        );

        // At realistic replication (d = 3) almost every key has at least
        // one replica remapped — the near-total movement the fixed-`n`
        // analysis never has to pay.
        let hash3_old = build(
            PartitionerKind::Hash,
            &Topology::with_nodes(n).unwrap(),
            3,
            seed,
        );
        let hash3_new = build(PartitionerKind::Hash, &t, 3, seed);
        let d3_plan = MigrationPlan::between(
            hash3_old.as_ref(),
            from,
            hash3_new.as_ref(),
            t.epoch(),
            keys.iter().copied(),
        );
        let d3_moved = d3_plan.moved_key_fraction();
        assert!(
            d3_moved > 0.8,
            "case {case}: d=3 hash remap should be near-total, got {d3_moved:.4}"
        );
    }
}

/// Leaves are the mirror image: multi-probe moves only the departing
/// node's ≈ 1/n share, and every move's source is the leaver.
#[test]
fn prop_multiprobe_leave_moves_only_the_leavers_share() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0xB0A7);
    for case in 0..12 {
        let n = 20 + next_below(&mut gen, 60) as usize;
        let seed = gen.next_u64();
        let leaver = NodeId::from_index(next_below(&mut gen, n as u64) as usize);
        let mut t = Topology::with_nodes(n).unwrap();
        let old = build(PartitionerKind::MultiProbe, &t, 1, seed);
        let from = t.epoch();
        t.leave(leaver).unwrap();
        let new = build(PartitionerKind::MultiProbe, &t, 1, seed);
        let plan = MigrationPlan::between(
            old.as_ref(),
            from,
            new.as_ref(),
            t.epoch(),
            (0..8_000).map(KeyId::new),
        );
        let ideal = 1.0 / n as f64;
        let moved = plan.primary_moved_fraction();
        assert!(
            moved > 0.0 && moved < 2.5 * ideal,
            "case {case}: leave moved {moved:.4}, ideal {ideal:.4} (n={n} seed={seed})"
        );
        for mv in &plan.moves {
            assert_eq!(
                mv.from.as_slice(),
                &[leaver],
                "case {case}: a key moved whose old owner was not the leaver"
            );
        }
    }
}

/// MigrationPlan soundness, for every partitioner kind across random
/// join/leave mutations: per-key sources and destinations are disjoint,
/// the plan is complete (keys absent from the plan did not change
/// groups), and applying the plan to the old group reproduces the new
/// epoch's `replica_group` exactly.
#[test]
fn prop_migration_plans_are_disjoint_complete_and_apply_cleanly() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0x51D3);
    for case in 0..10 {
        let n = 10 + next_below(&mut gen, 30) as usize;
        let seed = gen.next_u64();
        let d = 1 + next_below(&mut gen, 3) as usize;
        let mut t = Topology::with_nodes(n).unwrap();
        // One random join or leave.
        let joining = gen.next_u64().is_multiple_of(2);
        let keys: Vec<KeyId> = (0..2_000).map(KeyId::new).collect();
        for kind in PartitionerKind::ALL {
            let old = build(kind, &t, d, seed);
            let from = t.epoch();
            let mut t2 = t.clone();
            if joining {
                t2.join(NodeId::from_index(n + case)).unwrap();
            } else {
                t2.leave(NodeId::from_index(n - 1)).unwrap();
            }
            let new = build(kind, &t2, d, seed);
            let plan = MigrationPlan::between(
                old.as_ref(),
                from,
                new.as_ref(),
                t2.epoch(),
                keys.iter().copied(),
            );
            assert_eq!(plan.keys_sampled, keys.len() as u64);
            assert_eq!(plan.from_epoch, from);
            assert_eq!(plan.to_epoch, t2.epoch());

            let mut planned: std::collections::HashMap<KeyId, (&_, &_)> =
                std::collections::HashMap::new();
            for mv in &plan.moves {
                // Disjoint: a replica cannot be both source and
                // destination for the same key.
                for node in mv.from.iter() {
                    assert!(
                        !mv.to.contains(*node),
                        "case {case} {kind:?}: {node} is both source and destination"
                    );
                }
                assert!(
                    planned.insert(mv.key, (&mv.from, &mv.to)).is_none(),
                    "case {case} {kind:?}: duplicate key in plan"
                );
            }
            for &key in &keys {
                let before = old.replica_group(key);
                let after = new.replica_group(key);
                match planned.get(&key) {
                    None => {
                        // Complete: unplanned keys hold the same replica
                        // *set* with the same primary (pure order churn
                        // among secondaries moves no data).
                        let mut b: Vec<NodeId> = before.iter().copied().collect();
                        let mut a: Vec<NodeId> = after.iter().copied().collect();
                        assert_eq!(
                            b.first(),
                            a.first(),
                            "case {case} {kind:?}: primary of {key} changed outside the plan"
                        );
                        b.sort_unstable();
                        a.sort_unstable();
                        assert_eq!(
                            b, a,
                            "case {case} {kind:?}: key {key} changed but is not in the plan"
                        );
                    }
                    Some((from_g, to_g)) => {
                        // Applying the plan (drop sources, add
                        // destinations) reproduces the new group as a set.
                        let mut applied: Vec<NodeId> = before
                            .iter()
                            .copied()
                            .filter(|n| !from_g.contains(*n))
                            .chain(to_g.iter().copied())
                            .collect();
                        let mut want: Vec<NodeId> = after.iter().copied().collect();
                        applied.sort_unstable();
                        want.sort_unstable();
                        assert_eq!(
                            applied, want,
                            "case {case} {kind:?}: applying the plan diverges for {key}"
                        );
                    }
                }
            }
        }
        // Mutate the base topology between cases too.
        if case % 2 == 0 {
            t.join(NodeId::from_index(n + 100 + case)).unwrap();
        }
    }
}

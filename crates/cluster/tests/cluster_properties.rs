//! Property tests over the cluster substrate: routing conservation,
//! replica-group validity and failure semantics for arbitrary shapes.
//!
//! Cases are drawn from a seeded in-repo generator rather than an external
//! property-testing framework, so every failure reproduces exactly from the
//! constants below.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_cluster::capacity::Capacities;
use scp_cluster::cluster::Cluster;
use scp_cluster::partition::{
    ConsistentHashRing, HashPartitioner, Partitioner, RangePartitioner, RendezvousPartitioner,
};
use scp_cluster::select::{
    LeastLoadedSelector, PerQueryLeastLoaded, RandomSelector, ReplicaSelector, RoundRobinSelector,
};
use scp_cluster::{KeyId, NodeId};
use scp_workload::rng::{next_below, next_f64, Rng, Xoshiro256StarStar};

const CASES: usize = 64;

/// Draws an arbitrary cluster shape `(n, d, seed)` with `1 <= d <= min(n, 4)`.
fn arb_shape(gen: &mut Xoshiro256StarStar) -> (usize, usize, u64) {
    let n = 1 + next_below(gen, 79) as usize;
    let d = (1 + next_below(gen, 4) as usize).min(n);
    let seed = gen.next_u64();
    (n, d, seed)
}

fn arb_keys(gen: &mut Xoshiro256StarStar, max_len: u64, bound: u64) -> Vec<u64> {
    let len = 1 + next_below(gen, max_len - 1) as usize;
    (0..len).map(|_| next_below(gen, bound)).collect()
}

fn build_partitioner(which: u8, n: usize, d: usize, seed: u64) -> Box<dyn Partitioner> {
    match which % 4 {
        0 => Box::new(HashPartitioner::new(n, d, seed).unwrap()),
        1 => Box::new(ConsistentHashRing::with_vnodes(n, d, 16, seed).unwrap()),
        2 => Box::new(RendezvousPartitioner::new(n, d, seed).unwrap()),
        _ => Box::new(RangePartitioner::new(n, d, 1_000_000).unwrap()),
    }
}

fn build_selector(which: u8, seed: u64) -> Box<dyn ReplicaSelector> {
    match which % 4 {
        0 => Box::new(RandomSelector::new(seed)),
        1 => Box::new(RoundRobinSelector::new()),
        2 => Box::new(LeastLoadedSelector::new()),
        _ => Box::new(PerQueryLeastLoaded::new()),
    }
}

#[test]
fn prop_groups_always_valid() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0xC1AD_0001);
    for case in 0..CASES {
        let (n, d, seed) = arb_shape(&mut gen);
        let which = gen.next_u64() as u8;
        let keys = arb_keys(&mut gen, 60, 1_000_000);
        let p = build_partitioner(which, n, d, seed);
        for k in keys {
            let g = p.replica_group(KeyId::new(k));
            assert_eq!(g.len(), d, "case {case}: n={n} d={d} seed={seed}");
            let mut idx: Vec<usize> = g.iter().map(|x| x.index()).collect();
            idx.sort_unstable();
            idx.dedup();
            assert_eq!(idx.len(), d, "case {case}: duplicate members");
            assert!(
                idx.iter().all(|&i| i < n),
                "case {case}: member out of range"
            );
            // Determinism.
            let again = p.replica_group(KeyId::new(k));
            assert_eq!(
                g.as_slice(),
                again.as_slice(),
                "case {case}: unstable group"
            );
        }
    }
}

#[test]
fn prop_routing_conserves_every_query() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0xC1AD_0002);
    for case in 0..CASES {
        let (n, d, seed) = arb_shape(&mut gen);
        let pw = gen.next_u64() as u8;
        let sw = gen.next_u64() as u8;
        let queries = arb_keys(&mut gen, 200, 100_000);
        let mut cluster = Cluster::new(build_partitioner(pw, n, d, seed), build_selector(sw, seed));
        for &k in &queries {
            let node = cluster.route_query(KeyId::new(k)).unwrap();
            // The serving node is always a member of the key's group.
            assert!(
                cluster.replica_group(KeyId::new(k)).contains(node),
                "case {case}: served off-group"
            );
        }
        assert_eq!(
            cluster.queries_served(),
            queries.len() as u64,
            "case {case}"
        );
        assert!(
            (cluster.snapshot().total() - queries.len() as f64).abs() < 1e-9,
            "case {case}: load not conserved"
        );
        assert_eq!(cluster.unserved(), 0.0, "case {case}");
    }
}

#[test]
fn prop_rate_application_conserves() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0xC1AD_0003);
    for case in 0..CASES {
        let (n, d, seed) = arb_shape(&mut gen);
        let pw = gen.next_u64() as u8;
        let sw = gen.next_u64() as u8;
        let len = 1 + next_below(&mut gen, 99) as usize;
        let rates: Vec<f64> = (0..len)
            .map(|_| 0.01 + (100.0 - 0.01) * next_f64(&mut gen))
            .collect();
        let mut cluster = Cluster::new(build_partitioner(pw, n, d, seed), build_selector(sw, seed));
        let mut total = 0.0;
        for (i, &r) in rates.iter().enumerate() {
            cluster.apply_rate(KeyId::new(i as u64), r).unwrap();
            total += r;
        }
        assert!(
            (cluster.snapshot().total() - total).abs() < 1e-6 * total.max(1.0),
            "case {case}: rate mass not conserved"
        );
    }
}

#[test]
fn prop_failures_never_route_to_dead_nodes() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0xC1AD_0004);
    for case in 0..CASES {
        let (n, d, seed) = arb_shape(&mut gen);
        let pw = gen.next_u64() as u8;
        let dead_fraction = 0.9 * next_f64(&mut gen);
        let keys = arb_keys(&mut gen, 100, 100_000);
        let mut cluster = Cluster::new(
            build_partitioner(pw, n, d, seed),
            Box::new(LeastLoadedSelector::new()),
        );
        let dead = ((n as f64) * dead_fraction) as usize;
        for i in 0..dead {
            cluster.fail_node(NodeId::new(i as u32)).unwrap();
        }
        let mut served = 0u64;
        let mut refused = 0u64;
        for &k in &keys {
            match cluster.route_query(KeyId::new(k)) {
                Ok(node) => {
                    assert!(cluster.is_alive(node), "case {case}: routed to dead {node}");
                    served += 1;
                }
                Err(_) => refused += 1,
            }
        }
        assert_eq!(served + refused, keys.len() as u64, "case {case}");
        assert!(
            (cluster.unserved() - refused as f64).abs() < 1e-9,
            "case {case}: unserved mismatch"
        );
        // Dead nodes carry no load.
        for i in 0..dead {
            assert_eq!(cluster.loads()[i], 0.0, "case {case}: dead node {i} loaded");
        }
    }
}

#[test]
fn prop_saturation_report_is_exact() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0xC1AD_0005);
    for case in 0..CASES {
        let (n, _d, seed) = arb_shape(&mut gen);
        let rate = 0.1 + (10.0 - 0.1) * next_f64(&mut gen);
        let capacity = 0.5 + (5.0 - 0.5) * next_f64(&mut gen);
        let keys = 1 + next_below(&mut gen, 199) as usize;
        let d = 1; // deterministic membership for the check below
        let mut cluster = Cluster::new(
            Box::new(HashPartitioner::new(n, d, seed).unwrap()),
            Box::new(LeastLoadedSelector::new()),
        )
        .with_capacities(Capacities::uniform(n, capacity).unwrap())
        .unwrap();
        for k in 0..keys {
            cluster.apply_rate(KeyId::new(k as u64), rate).unwrap();
        }
        let snapshot = cluster.snapshot();
        let reported = cluster.saturated_nodes();
        for i in 0..n {
            let is_over = snapshot.loads()[i] > capacity;
            let is_reported = reported.contains(&NodeId::new(i as u32));
            assert_eq!(is_over, is_reported, "case {case}: node {i} mismatch");
        }
    }
}

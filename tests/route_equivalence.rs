//! Golden digests of `Cluster`'s routing decisions.
//!
//! Every case builds a `Cluster` from `SimConfig::build_partitioner` and
//! `SimConfig::build_selector` — the five partitioners × the four
//! selectors — and drives it through one seeded stream that mixes
//! `route_query`, `route_query_with_cost` (non-unit costs),
//! `route_prefetched` and `apply_rate` with the events that move a pin:
//! `fail_node` on a random node and on a pin's own node, a whole group
//! down, `recover_node`, `reshard` to a joined, a departed and a crashed
//! topology, and `reset`. Keys sit on both sides of the selector's
//! 1024-key page boundaries and of its domain, once below and once at
//! `DENSE_KEY_CAP`. After every step the returned node or error,
//! `loads()` (as bits), `queries_served()` and `unserved()` fold into an
//! FNV-1a digest per partitioner × selector.
//!
//! The digests were recorded while every routed query still computed its
//! key's replica group. Any decision, load or counter that a shortcut in
//! front of the group changes moves one of them.
//!
//! A second golden test runs a reshard-heavy stream with no `reset`:
//! a reshard every `CHURN_EVERY` steps, 1 000 per case, each joining or
//! removing a node id from a small recycled pool (or crashing or
//! recovering one), so a pin can leave its key's group and later name a
//! live member again. Cold keys are routed only every `g` reshards, for
//! gaps `g` from 1 to 512 reshards, so an old pin is checked again after
//! exactly as many reshards as it sat untouched. Its digests were recorded
//! at commit `6713e17`, whose cluster still computed every group after the
//! first reshard.

#![allow(clippy::restriction, clippy::disallowed_methods)]

mod golden;

use golden::Digest;
use secure_cache_provision::cluster::select::{RateAssignment, DENSE_KEY_CAP};
use secure_cache_provision::cluster::{
    Cluster, ClusterError, KeyId, NodeId, PartitionerKind, Topology,
};
use secure_cache_provision::prelude::*;
use secure_cache_provision::workload::rng::{mix, next_below, Rng, Xoshiro256StarStar};

const NODES: usize = 12;
const REPLICATION: usize = 3;
const STEPS: usize = 2_000;
const SEEDS: u64 = 3;
/// A key space whose page-table domain ends mid-page, and one past the
/// cap, whose domain is `DENSE_KEY_CAP` itself.
const ITEMS: [u64; 2] = [3_000, DENSE_KEY_CAP + 4_096];

/// Digests in `PartitionerKind::ALL` × `SelectorKind::ALL` order.
const GOLDEN: [[&str; 4]; 5] = [
    [
        "ee9442e42f91a456",
        "9f6b5ff742d4be8f",
        "7944397816a9e11b",
        "f0f4dc9ed8f0101d",
    ],
    [
        "ad956324a4c303c1",
        "b2bef3f98dc6d9cf",
        "6fbba84548e91b3c",
        "61fb2b8d88ded2ab",
    ],
    [
        "dbd55bb064614228",
        "9a02125b94665bb1",
        "0e9ba8c3d86e7327",
        "c3fcff46f8d6eea8",
    ],
    [
        "72588d4c5c2903ba",
        "e57b7a9f3d5c14a7",
        "0410d5b334f47075",
        "31ed6fb8a488cab7",
    ],
    [
        "4836c0d52beae6c6",
        "38a1b0e14a5fccc9",
        "3f041c348efbce80",
        "334a6201e0f473d5",
    ],
];

impl Digest {
    /// A routing outcome: the node, or the key of a `NoLiveReplica`.
    fn routed(&mut self, outcome: Result<NodeId, ClusterError>) {
        match outcome {
            Ok(node) => self.word(u64::from(node.value())),
            Err(ClusterError::NoLiveReplica(key)) => {
                self.word(u64::MAX);
                self.word(key.value());
            }
            Err(other) => panic!("routing returned {other}"),
        }
    }

    /// Whether a membership or liveness call succeeded.
    fn status<T>(&mut self, outcome: Result<T, ClusterError>) {
        self.word(u64::from(outcome.is_ok()));
    }

    /// The cluster's observable state after a step.
    fn state(&mut self, cluster: &Cluster) {
        self.word(cluster.loads().len() as u64);
        for load in cluster.loads() {
            self.word(load.to_bits());
        }
        self.word(cluster.queries_served());
        self.word(cluster.unserved().to_bits());
    }
}

/// The keys one case draws from: the first page boundaries, the
/// domain's edges and the page boundary below it, keys spread over the
/// domain, keys just above it and arbitrary 64-bit keys.
fn key_pool(rng: &mut Xoshiro256StarStar, items: u64) -> Vec<u64> {
    let domain = items.min(DENSE_KEY_CAP);
    let mut pool = vec![
        0,
        1_023,
        1_024,
        1_025,
        2_047,
        2_048,
        domain - 1_025,
        domain - 1_024,
        domain - 1,
        domain,
        domain + 1,
        u64::MAX,
    ];
    for _ in 0..24 {
        pool.push(next_below(rng, domain));
    }
    for _ in 0..4 {
        pool.push(domain + next_below(rng, 4_096));
        pool.push(rng.next_u64());
    }
    pool
}

/// A node index below the cluster's current bound.
fn any_node(rng: &mut Xoshiro256StarStar, cluster: &Cluster) -> NodeId {
    NodeId::from_index(next_below(rng, cluster.node_count() as u64) as usize)
}

/// One case: a fresh cluster through `STEPS` seeded steps.
fn run_case(
    partitioner: PartitionerKind,
    selector: SelectorKind,
    items: u64,
    seed: u64,
    digest: &mut Digest,
) {
    let sim = SimConfig::builder()
        .nodes(NODES)
        .replication(REPLICATION)
        .items(items)
        .partitioner(partitioner)
        .selector(selector)
        .seed(seed)
        .build()
        .expect("valid shape");
    let mut cluster = Cluster::new(
        sim.build_partitioner().expect("partitioner builds"),
        sim.build_selector(),
    );
    let mut topology = Topology::with_nodes(NODES).expect("valid topology");
    let mut next_id = NODES as u32;
    let mut rng = Xoshiro256StarStar::seed_from_u64(mix(&[0x0A7E_5EED, seed, items]));
    let pool = key_pool(&mut rng, items);

    for _ in 0..STEPS {
        let key = KeyId::new(
            pool.get(next_below(&mut rng, pool.len() as u64) as usize)
                .copied()
                .expect("index below the pool size"),
        );
        match next_below(&mut rng, 100) {
            0..=54 => digest.routed(cluster.route_query(key)),
            55..=64 => {
                let cost = [0.25, 2.5, 7.0][next_below(&mut rng, 3) as usize];
                digest.routed(cluster.route_query_with_cost(key, cost));
            }
            65..=77 => {
                let group = cluster.replica_group(key);
                digest.routed(cluster.route_prefetched(key, &group));
            }
            78..=85 => {
                let rate = (1 + next_below(&mut rng, 8)) as f64 * 0.75;
                match cluster.apply_rate(key, rate) {
                    Ok(RateAssignment::Pinned(node)) => digest.word(u64::from(node.value())),
                    Ok(RateAssignment::EvenSplit) => digest.word(u64::MAX - 1),
                    Err(e) => digest.routed(Err(e)),
                }
            }
            86..=88 => {
                let node = any_node(&mut rng, &cluster);
                digest.status(cluster.fail_node(node));
            }
            // The node a key is pinned to fails: the key must re-pin.
            89..=90 => {
                let outcome = cluster.route_query(key);
                digest.routed(outcome.clone());
                if let Ok(node) = outcome {
                    digest.status(cluster.fail_node(node));
                    digest.routed(cluster.route_query(key));
                }
            }
            91..=94 => {
                let node = any_node(&mut rng, &cluster);
                digest.status(cluster.recover_node(node));
            }
            // The key's whole group goes down, then comes back.
            95 => {
                let group = cluster.replica_group(key);
                for &node in group.as_slice() {
                    digest.status(cluster.fail_node(node));
                }
                digest.routed(cluster.route_query(key));
                digest.routed(cluster.route_prefetched(key, &group));
                digest.status(cluster.apply_rate(key, 2.0));
                for &node in group.as_slice() {
                    digest.status(cluster.recover_node(node));
                }
                digest.routed(cluster.route_query(key));
            }
            96..=97 => {
                let members = topology.members();
                let (member, alive) = members
                    .get(next_below(&mut rng, members.len() as u64) as usize)
                    .map(|m| (m.id, m.alive))
                    .expect("a topology is never empty");
                match next_below(&mut rng, 5) {
                    0 | 1 => {
                        // Sparse ids: the index bound grows past the count.
                        next_id += 1 + next_below(&mut rng, 3) as u32;
                        digest.status(topology.join(NodeId::new(next_id)));
                    }
                    2 | 3 if topology.len() > REPLICATION + 1 => {
                        digest.status(topology.leave(member));
                    }
                    // Same member set: a crash (or its recovery) moves no key.
                    _ if alive => digest.status(topology.crash(member)),
                    _ => digest.status(topology.recover(member)),
                }
                digest.status(cluster.reshard(&topology));
            }
            98 => {
                for index in 0..cluster.node_count() {
                    digest.status(cluster.recover_node(NodeId::from_index(index)));
                }
            }
            _ => cluster.reset(),
        }
        digest.state(&cluster);
    }
}

#[test]
fn routing_decisions_match_their_golden_digests() {
    let mut actual = Vec::new();
    for partitioner in PartitionerKind::ALL {
        for selector in SelectorKind::ALL {
            let mut digest = Digest::new();
            for items in ITEMS {
                for seed in 0..SEEDS {
                    run_case(partitioner, selector, items, seed, &mut digest);
                }
            }
            actual.push((partitioner, selector, digest.hex()));
        }
    }
    let expected = GOLDEN.iter().flatten();
    let mismatches: Vec<String> = actual
        .iter()
        .zip(expected)
        .filter(|((_, _, got), want)| got != *want)
        .map(|((p, s, got), want)| format!("{} × {}: {got} (golden {want})", p.name(), s.name()))
        .collect();
    assert!(
        mismatches.is_empty(),
        "routing digests moved:\n{}",
        mismatches.join("\n")
    );
}

/// Steps between two reshards of the churn stream.
const CHURN_EVERY: usize = 10;
/// Reshards per churn case.
const CHURN_RESHARDS: usize = 1_000;
/// Node ids the churn stream joins and removes: every one comes back.
const ID_POOL: u32 = 18;
/// Reshards between two routes of each cold key.
const COLD_GAPS: [usize; 16] = [
    1, 2, 3, 7, 31, 127, 254, 255, 256, 257, 300, 509, 510, 511, 512, 513,
];
/// The partitioners of the churn stream: the paper's hash placement and
/// the elastic default.
const CHURN_PARTITIONERS: [PartitionerKind; 2] =
    [PartitionerKind::Hash, PartitionerKind::MultiProbe];

/// Churn digests in `CHURN_PARTITIONERS` × `SelectorKind::ALL` order.
const CHURN_GOLDEN: [[&str; 4]; 2] = [
    [
        "f5b247d518fba9f5",
        "56cfef59b35c89f5",
        "4ba010065786b6d2",
        "28002b7d3bcc4620",
    ],
    [
        "abe77397d58bc5be",
        "adc9ba42c96ca4b4",
        "44db95a2ba824da0",
        "f643617cc27064b8",
    ],
];

/// One reshard of the churn stream: a recycled id joins or leaves, or a
/// member crashes or recovers.
fn churn_topology(rng: &mut Xoshiro256StarStar, topology: &mut Topology, digest: &mut Digest) {
    let id = NodeId::new(next_below(rng, u64::from(ID_POOL)) as u32);
    match (topology.get(id).map(|m| m.alive), next_below(rng, 4)) {
        (None, _) => digest.status(topology.join(id)),
        (Some(_), 0 | 1) if topology.len() > REPLICATION + 1 => {
            digest.status(topology.leave(id));
        }
        (Some(true), _) => digest.status(topology.crash(id)),
        (Some(false), _) => digest.status(topology.recover(id)),
    }
}

/// One churn case: a fresh cluster through `CHURN_RESHARDS` reshards.
fn run_churn_case(
    partitioner: PartitionerKind,
    selector: SelectorKind,
    items: u64,
    seed: u64,
    digest: &mut Digest,
) {
    let sim = SimConfig::builder()
        .nodes(NODES)
        .replication(REPLICATION)
        .items(items)
        .partitioner(partitioner)
        .selector(selector)
        .seed(seed)
        .build()
        .expect("valid shape");
    let mut cluster = Cluster::new(
        sim.build_partitioner().expect("partitioner builds"),
        sim.build_selector(),
    );
    let mut topology = Topology::with_nodes(NODES).expect("valid topology");
    let mut rng = Xoshiro256StarStar::seed_from_u64(mix(&[0xC4_0121, seed, items]));
    let domain = items.min(DENSE_KEY_CAP);
    // One cold key below the domain and one above it per gap.
    let cold: Vec<(usize, [KeyId; 2])> = COLD_GAPS
        .iter()
        .zip(0u64..)
        .map(|(&gap, i)| {
            (
                gap,
                [KeyId::new(domain / 2 + i), KeyId::new(domain + 8_192 + i)],
            )
        })
        .collect();
    let mut pool = key_pool(&mut rng, items);
    pool.retain(|&k| !cold.iter().any(|(_, keys)| keys.contains(&KeyId::new(k))));
    for (_, keys) in &cold {
        for &key in keys {
            digest.routed(cluster.route_query(key));
        }
    }

    for step in 1..=CHURN_RESHARDS * CHURN_EVERY {
        if step.is_multiple_of(CHURN_EVERY) {
            churn_topology(&mut rng, &mut topology, digest);
            digest.status(cluster.reshard(&topology));
            let reshards = step / CHURN_EVERY;
            for (gap, keys) in &cold {
                if reshards.is_multiple_of(*gap) {
                    for &key in keys {
                        digest.routed(cluster.route_query(key));
                    }
                }
            }
            digest.state(&cluster);
            continue;
        }
        let key = KeyId::new(
            pool.get(next_below(&mut rng, pool.len() as u64) as usize)
                .copied()
                .expect("index below the pool size"),
        );
        match next_below(&mut rng, 100) {
            0..=49 => digest.routed(cluster.route_query(key)),
            50..=59 => digest.routed(cluster.route_query_with_cost(key, 2.5)),
            60..=74 => {
                let group = cluster.replica_group(key);
                digest.routed(cluster.route_prefetched(key, &group));
            }
            75..=84 => match cluster.apply_rate(key, 1.5) {
                Ok(RateAssignment::Pinned(node)) => digest.word(u64::from(node.value())),
                Ok(RateAssignment::EvenSplit) => digest.word(u64::MAX - 1),
                Err(e) => digest.routed(Err(e)),
            },
            85..=89 => {
                let node = any_node(&mut rng, &cluster);
                digest.status(cluster.fail_node(node));
            }
            _ => {
                let node = any_node(&mut rng, &cluster);
                digest.status(cluster.recover_node(node));
            }
        }
        digest.state(&cluster);
    }
}

#[test]
fn churn_decisions_match_their_golden_digests() {
    let mut mismatches = Vec::new();
    for (partitioner, golden) in CHURN_PARTITIONERS.into_iter().zip(CHURN_GOLDEN) {
        for (selector, want) in SelectorKind::ALL.into_iter().zip(golden) {
            let mut digest = Digest::new();
            for items in ITEMS {
                for seed in 0..2 {
                    run_churn_case(partitioner, selector, items, seed, &mut digest);
                }
            }
            if digest.hex() != want {
                mismatches.push(format!(
                    "{} × {}: {} (golden {want})",
                    partitioner.name(),
                    selector.name(),
                    digest.hex()
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "churn digests moved:\n{}",
        mismatches.join("\n")
    );
}

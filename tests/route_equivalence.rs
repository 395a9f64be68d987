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

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

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

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
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

//! Golden replica groups for every partitioner, and for a multi-probe
//! topology taken through a join, a crash and a leave.
//!
//! Each test folds the exact node indices of every `replica_group` it
//! asks for into one FNV-1a digest. The digests were recorded before
//! multi-probe lookups moved from a binary search to a bucket successor
//! index; any change to which node serves which key moves one. The
//! `serve_elastic` benchmark digests, the `reshard` figure CSVs and the
//! `MigrationPlan`s all derive from these groups.

mod golden;

use golden::Digest;
use secure_cache_provision::cluster::{
    KeyId, MigrationPlan, MultiProbePartitioner, NodeId, Partitioner, PartitionerKind,
    PartitionerSpec, Topology,
};
use secure_cache_provision::workload::rng::mix;

const NODES: usize = 64;
const REPLICATION: usize = 3;
const ITEMS: u64 = 100_000;
const SEEDS: [u64; 2] = [7, 2013];

/// 64 keys: the edges of the key space (`0`, `m − 1`, `u64::MAX`), a
/// few small ranks, and scattered 64-bit values.
fn keys() -> Vec<KeyId> {
    let mut out = vec![0, ITEMS - 1, u64::MAX, 1, 2, ITEMS / 2, ITEMS, u64::MAX - 1];
    out.extend((0..56u64).map(|i| mix(&[0x0060_1DE7, i])));
    out.into_iter().map(KeyId::new).collect()
}

impl Digest {
    /// Folds every key's group, node by node, with its length.
    fn groups(&mut self, p: &dyn Partitioner) {
        for key in keys() {
            let group = p.replica_group(key);
            assert_eq!(
                group.len(),
                p.replication_factor(),
                "short group for {key:?}"
            );
            self.word(group.len() as u64);
            for node in group.iter() {
                self.word(u64::from(node.value()));
            }
        }
    }

    fn plan(&mut self, plan: &MigrationPlan) {
        self.word(plan.primary_moves);
        self.word(plan.replicas_moved);
        for mv in &plan.moves {
            self.word(mv.key.value());
            for node in mv.from.iter().chain(mv.to.iter()) {
                self.word(u64::from(node.value()));
            }
        }
    }
}

#[test]
fn golden_groups_for_every_partitioner() {
    let mut got = Vec::new();
    for kind in PartitionerKind::ALL {
        for seed in SEEDS {
            let p = PartitionerSpec::new(kind)
                .nodes(NODES)
                .replication(REPLICATION)
                .items(ITEMS)
                .seed(seed)
                .build()
                .unwrap();
            let mut digest = Digest::new();
            digest.groups(p.as_ref());
            got.push(format!("{kind}/{seed}={}", digest.hex()));
        }
    }
    assert_eq!(
        got,
        [
            "hash/7=93dbeca9c39b897f",
            "hash/2013=4ac96019e5bf81ac",
            "ring/7=6e2ed1dd7dcc8397",
            "ring/2013=ee45c1676d8bf027",
            "rendezvous/7=bb57c064b160a247",
            "rendezvous/2013=85caf01a566b75ca",
            "range/7=8cd5bacf995e3845",
            "range/2013=8cd5bacf995e3845",
            "multi-probe/7=366671bba5fdd6c6",
            "multi-probe/2013=b6afe84668a915c1",
        ]
    );
}

#[test]
fn golden_multiprobe_through_membership_changes() {
    let mut got = Vec::new();
    for seed in SEEDS {
        let mut topology = Topology::with_nodes(NODES).unwrap();
        let mut p = MultiProbePartitioner::from_topology(
            &topology,
            REPLICATION,
            MultiProbePartitioner::DEFAULT_PROBES,
            seed,
        )
        .unwrap();
        let mut digest = Digest::new();
        digest.groups(&p);
        // Each change goes through the live `rebuild` seam; the plan
        // between consecutive epochs is folded in beside the groups.
        let changes: [fn(&mut Topology); 3] = [
            |t| t.join_weighted(NodeId::new(90), 3).unwrap(),
            |t| t.crash(NodeId::new(5)).unwrap(),
            |t| t.leave(NodeId::new(17)).unwrap(),
        ];
        for change in changes {
            let old = p.clone();
            let from_epoch = topology.epoch();
            change(&mut topology);
            p.rebuild(&topology).unwrap();
            digest.groups(&p);
            digest.plan(&MigrationPlan::between(
                &old,
                from_epoch,
                &p,
                topology.epoch(),
                keys(),
            ));
        }
        assert_eq!(p.point_count(), NODES - 1 + 3);
        got.push(format!("{seed}={}", digest.hex()));
    }
    assert_eq!(got, ["7=8411e46158b80ac3", "2013=97fd4d70a2e208ce"]);
}

//! Multi-probe consistent hashing (Appleton & O'Reilly, arXiv 1505.00062).
//!
//! Classic consistent hashing needs many virtual nodes per server to tame
//! its load variance; multi-probe inverts the trade: **one point per node**
//! (O(1) storage per node) and `k` probes per lookup. Each probe hashes
//! the key with a different salt and finds its clockwise successor on the
//! ring; the key is owned by the successor whose clockwise distance is
//! smallest. Nodes owning large arcs are hit by few *close* probes, so
//! peak-to-average load converges to `1 + ε` with `k ≈ ln(1/ε)/ln 2`
//! probes — the default 21 probes give ≈ 1.1×.
//!
//! Because membership changes add or remove single points, a join moves
//! only the keys the new point wins — the `1/(n+1)` minimal-movement
//! ideal this repo's `reshard` binary measures against.
//!
//! Lookups cost `O(k)` expected, not `O(k log n)`: [`Partitioner::rebuild`]
//! also builds a bucket successor index over the sorted points, so each
//! probe finds its successor with one table load instead of a binary
//! search. The table has `8 × next_pow2(points)` `u32` slots (32 B per
//! point, 32 KB at `n = 1000`), so a probe's bucket holds a point below
//! the probe, which the lookup must scan past, about one time in eight.

use crate::error::ClusterError;
use crate::ids::{KeyId, NodeId};
use crate::partition::{validate_n_d, Partitioner, ReplicaGroup};
use crate::topology::Topology;
use crate::Result;
use scp_workload::rng::mix;

/// Salt separating multi-probe point/probe hashes from the other
/// partitioners' hash streams under a shared master seed.
const MULTIPROBE_SALT: u64 = 0x4D50_5F70_726F_6265; // "MP_probe"

/// Successor-index slots per ring point, before the table is rounded up
/// to a power of two. Fewer slots mean more scan steps; more buy a few
/// ns per lookup for twice the memory (the probe is in EXPERIMENTS.md).
const SLOTS_PER_POINT: usize = 8;

/// Multi-probe consistent hashing: one ring point per unit of node
/// weight, `k` probes per lookup, minimal key movement on membership
/// change.
#[derive(Debug, Clone)]
pub struct MultiProbePartitioner {
    // (point, owner), sorted by point. One entry per unit of weight.
    points: Vec<(u64, NodeId)>,
    // Bucket successor index: `starts[b]` is the number of points whose
    // top bits (`point >> shift`) are below `b`, i.e. the position of the
    // first point at or after the start of bucket `b`.
    starts: Vec<u32>,
    shift: u32,
    n: usize,
    d: usize,
    probes: usize,
    seed: u64,
}

impl MultiProbePartitioner {
    /// Default probe count: `k = 21` puts the peak-to-average load near
    /// 1.1 (ε ≈ 2^-k·ln2 per the multi-probe analysis).
    pub const DEFAULT_PROBES: usize = 21;

    /// Creates the partitioner for a dense `n`-node topology with
    /// [`Self::DEFAULT_PROBES`] probes.
    ///
    /// # Errors
    ///
    /// Returns an error unless `1 <= d <= min(n, MAX_REPLICATION)`.
    ///
    /// [`MAX_REPLICATION`]: crate::partition::MAX_REPLICATION
    pub fn new(n: usize, d: usize, seed: u64) -> Result<Self> {
        let topology = Topology::with_nodes(n)?;
        Self::from_topology(&topology, d, Self::DEFAULT_PROBES, seed)
    }

    /// Creates the partitioner over an explicit topology.
    ///
    /// Each member contributes `weight` ring points, so a weight-2 node
    /// attracts twice the keys. Liveness is ignored here: crashed members
    /// keep their placement and are routed around by the cluster.
    ///
    /// # Errors
    ///
    /// Returns an error on an invalid `(n, d)` pair or `probes == 0`.
    pub fn from_topology(topology: &Topology, d: usize, probes: usize, seed: u64) -> Result<Self> {
        validate_n_d(topology.len(), d)?;
        if probes == 0 {
            return Err(ClusterError::InvalidParameter {
                name: "probes",
                reason: "need at least one probe per lookup".to_owned(),
            });
        }
        let mut slf = Self {
            points: Vec::with_capacity(topology.len()),
            starts: Vec::new(),
            shift: 0,
            n: topology.len(),
            d,
            probes,
            seed,
        };
        slf.rebuild(topology)?;
        Ok(slf)
    }

    /// Number of probes per lookup.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// Number of ring points (`Σ weight`, minus astronomically unlikely
    /// hash collisions).
    pub fn point_count(&self) -> usize {
        self.points.len()
    }

    /// Position of the first point at or clockwise after `h`: the sorted
    /// ring's `partition_point(|p| p < h)`, wrapped to 0 past the last
    /// point.
    ///
    /// Every point of an earlier bucket lies below `h`, so the scan starts
    /// at the first point of `h`'s bucket and passes only that bucket's
    /// points still below `h`.
    #[inline]
    fn successor(&self, h: u64) -> usize {
        let bucket = (h >> self.shift) as usize;
        let mut pos = self.starts.get(bucket).map_or(0, |&s| s as usize);
        while self.points.get(pos).is_some_and(|&(point, _)| point < h) {
            pos += 1;
        }
        if pos == self.points.len() {
            0
        } else {
            pos
        }
    }

    /// Rebuilds the successor index in one pass over the sorted points:
    /// each point extends the table through its own bucket with its
    /// position, and the slots past the last point's bucket hold `len`.
    fn index_points(&mut self) {
        let slots = SLOTS_PER_POINT * self.points.len().next_power_of_two();
        self.shift = u64::BITS - slots.trailing_zeros();
        self.starts.clear();
        self.starts.reserve(slots);
        // A position past `u32::MAX` saturates; a start that is too small
        // costs scan steps, never a wrong successor.
        let start = |pos: usize| u32::try_from(pos).unwrap_or(u32::MAX);
        for (pos, &(point, _)) in self.points.iter().enumerate() {
            let bucket = (point >> self.shift) as usize;
            if self.starts.len() <= bucket {
                self.starts.resize(bucket + 1, start(pos));
            }
        }
        self.starts.resize(slots, start(self.points.len()));
    }
}

impl Partitioner for MultiProbePartitioner {
    fn replica_group(&self, key: KeyId) -> ReplicaGroup {
        // Probe k times; the owner is the successor with the smallest
        // clockwise distance (wrapping subtraction handles the cycle).
        let mut best_dist = u64::MAX;
        let mut best_pos = 0usize;
        for probe in 0..self.probes {
            let h = mix(&[self.seed, MULTIPROBE_SALT, key.value(), probe as u64]);
            let pos = self.successor(h);
            if let Some(&(point, _)) = self.points.get(pos) {
                let dist = point.wrapping_sub(h);
                if dist < best_dist {
                    best_dist = dist;
                    best_pos = pos;
                }
            }
        }
        // Replicas: the owner plus the next distinct successors, as on a
        // classic ring — successor sets shift minimally on membership
        // change, keeping replica movement near the ideal too.
        let (before, from_owner) = self.points.split_at(best_pos);
        let mut group = ReplicaGroup::new();
        for &(_, node) in from_owner.iter().chain(before) {
            if !group.contains(node) {
                group.push_unchecked(node);
                if group.len() == self.d {
                    break;
                }
            }
        }
        group
    }

    fn node_count(&self) -> usize {
        self.n
    }

    fn replication_factor(&self) -> usize {
        self.d
    }

    fn index_bound(&self) -> usize {
        self.points
            .iter()
            .map(|&(_, node)| node.index() + 1)
            .max()
            .unwrap_or(0)
    }

    fn rebuild(&mut self, topology: &Topology) -> Result<()> {
        validate_n_d(topology.len(), self.d)?;
        self.points.clear();
        self.points
            .reserve(usize::try_from(topology.total_weight()).unwrap_or(0));
        for member in topology.members() {
            for replica in 0..member.weight {
                self.points.push((
                    mix(&[
                        self.seed,
                        MULTIPROBE_SALT,
                        u64::from(member.id.value()),
                        u64::from(replica),
                    ]),
                    member.id,
                ));
            }
        }
        self.points.sort_unstable();
        self.points.dedup_by_key(|p| p.0);
        self.index_points();
        self.n = topology.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::MAX_REPLICATION;
    use crate::topology::MigrationPlan;
    use scp_workload::rng::{next_below, Rng, Xoshiro256StarStar};

    /// Asserts that the indexed successor equals a binary search over the
    /// sorted points, wrapped to 0 past the last point, for hashes below
    /// the first point, above the last, on, beside and between points,
    /// and at random.
    fn assert_successors_match_search(p: &MultiProbePartitioner, gen: &mut dyn Rng, case: u64) {
        let first = p.points.first().map_or(0, |q| q.0);
        let last = p.points.last().map_or(0, |q| q.0);
        let mut hashes = vec![0, u64::MAX, first.saturating_sub(1), last.saturating_add(1)];
        for &(point, _) in &p.points {
            hashes.extend([point, point.wrapping_sub(1), point.wrapping_add(1)]);
        }
        hashes.extend((0..64).map(|_| gen.next_u64()));
        for h in hashes {
            let wrapped = p.points.partition_point(|&(q, _)| q < h) % p.points.len();
            assert_eq!(
                p.successor(h),
                wrapped,
                "case {case}: h={h:#x}, {} points",
                p.points.len()
            );
        }
    }

    #[test]
    fn prop_indexed_successor_equals_binary_search() {
        let mut gen = Xoshiro256StarStar::seed_from_u64(0x5CC5);
        for case in 0..500 {
            let d = 1 + next_below(&mut gen, MAX_REPLICATION as u64) as usize;
            let n = d + next_below(&mut gen, 301 - d as u64) as usize;
            let probes = 1 + next_below(&mut gen, 32) as usize;
            let seed = gen.next_u64();
            let mut t = Topology::with_nodes(1).unwrap();
            for id in 1..n {
                let weight = 1 + next_below(&mut gen, 4) as u32;
                t.join_weighted(NodeId::from_index(id), weight).unwrap();
            }
            let mut p = MultiProbePartitioner::from_topology(&t, d, probes, seed).unwrap();
            assert_successors_match_search(&p, &mut gen, case);

            let joiner = NodeId::from_index(n + next_below(&mut gen, 50) as usize);
            t.join_weighted(joiner, 1 + next_below(&mut gen, 4) as u32)
                .unwrap();
            p.rebuild(&t).unwrap();
            assert_successors_match_search(&p, &mut gen, case);

            let leaver = next_below(&mut gen, t.len() as u64) as usize;
            t.leave(t.members()[leaver].id).unwrap();
            p.rebuild(&t).unwrap();
            assert_successors_match_search(&p, &mut gen, case);
            for key in 0..8 {
                assert_eq!(p.replica_group(KeyId::new(key)).len(), d, "case {case}");
            }
        }
    }

    #[test]
    fn groups_have_d_distinct_in_range_nodes() {
        let p = MultiProbePartitioner::new(40, 3, 11).unwrap();
        for k in 0..300u64 {
            let g = p.replica_group(KeyId::new(k));
            assert_eq!(g.len(), 3);
            let mut v: Vec<usize> = g.iter().map(|n| n.index()).collect();
            v.sort_unstable();
            v.dedup();
            assert_eq!(v.len(), 3, "duplicate nodes for key {k}");
            assert!(v.iter().all(|&i| i < 40));
        }
    }

    #[test]
    fn lookups_are_deterministic() {
        let p = MultiProbePartitioner::new(25, 2, 5).unwrap();
        let q = MultiProbePartitioner::new(25, 2, 5).unwrap();
        for k in [0u64, 9, 1_000_003] {
            assert_eq!(
                p.replica_group(KeyId::new(k)).as_slice(),
                q.replica_group(KeyId::new(k)).as_slice()
            );
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(MultiProbePartitioner::new(0, 1, 0).is_err());
        assert!(MultiProbePartitioner::new(5, 6, 0).is_err());
        let t = Topology::with_nodes(5).unwrap();
        assert!(MultiProbePartitioner::from_topology(&t, 2, 0, 0).is_err());
    }

    #[test]
    fn peak_to_average_is_tight() {
        // The multi-probe selling point: without virtual nodes, 21 probes
        // keep the most loaded node within ~1.3x of the mean primary
        // ownership (the paper's asymptotic bound is 1.1; small n and
        // finite samples are noisier).
        let n = 50;
        let p = MultiProbePartitioner::new(n, 1, 3).unwrap();
        let keys = 60_000u64;
        let mut counts = vec![0u64; n];
        for k in 0..keys {
            counts[p.replica_group(KeyId::new(k)).as_slice()[0].index()] += 1;
        }
        let mean = keys as f64 / n as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(
            max / mean < 1.35,
            "peak-to-average {:.3} too loose",
            max / mean
        );
    }

    #[test]
    fn single_probe_degenerates_to_plain_consistent_hashing() {
        // With k = 1 the variance is ring-like (loose); with the default
        // 21 probes it must be strictly tighter on the same topology.
        let n = 50;
        let t = Topology::with_nodes(n).unwrap();
        let one = MultiProbePartitioner::from_topology(&t, 1, 1, 3).unwrap();
        let many = MultiProbePartitioner::from_topology(&t, 1, 21, 3).unwrap();
        let keys = 40_000u64;
        let peak = |p: &MultiProbePartitioner| {
            let mut counts = vec![0u64; n];
            for k in 0..keys {
                counts[p.replica_group(KeyId::new(k)).as_slice()[0].index()] += 1;
            }
            *counts.iter().max().unwrap() as f64 / (keys as f64 / n as f64)
        };
        assert!(
            peak(&many) < peak(&one),
            "more probes must tighten the peak: k=21 {:.3} vs k=1 {:.3}",
            peak(&many),
            peak(&one)
        );
    }

    #[test]
    fn join_moves_roughly_one_over_n_plus_one() {
        let n = 40;
        let old = MultiProbePartitioner::new(n, 1, 7).unwrap();
        let mut t = Topology::with_nodes(n).unwrap();
        t.join(NodeId::from_index(n)).unwrap();
        let new = MultiProbePartitioner::from_topology(&t, 1, 21, 7).unwrap();
        let plan = MigrationPlan::between(&old, 0, &new, t.epoch(), (0..20_000).map(KeyId::new));
        let ideal = 1.0 / (n as f64 + 1.0);
        let moved = plan.primary_moved_fraction();
        assert!(
            moved < 2.0 * ideal,
            "join moved {moved:.4}, ideal {ideal:.4}"
        );
        assert!(moved > 0.0, "a join must claim some keys");
        // Every move is onto the joining node.
        for mv in &plan.moves {
            if mv.primary_moved {
                assert!(
                    new.replica_group(mv.key).as_slice()[0] == NodeId::from_index(n),
                    "primary moved somewhere other than the joiner"
                );
            }
        }
    }

    #[test]
    fn weight_two_nodes_attract_double_share() {
        let mut t = Topology::with_nodes(20).unwrap();
        t.leave(NodeId::new(19)).unwrap();
        t.join_weighted(NodeId::new(19), 2).unwrap();
        let p = MultiProbePartitioner::from_topology(&t, 1, 21, 5).unwrap();
        let keys = 60_000u64;
        let mut counts = [0u64; 20];
        for k in 0..keys {
            counts[p.replica_group(KeyId::new(k)).as_slice()[0].index()] += 1;
        }
        let unit_mean = counts[..19].iter().sum::<u64>() as f64 / 19.0;
        let heavy = counts[19] as f64;
        let ratio = heavy / unit_mean;
        assert!(
            (1.5..3.0).contains(&ratio),
            "weight-2 node got {ratio:.2}x a unit share"
        );
    }

    #[test]
    fn rebuild_tracks_topology_and_index_bound() {
        let mut t = Topology::with_nodes(10).unwrap();
        let mut p = MultiProbePartitioner::from_topology(&t, 3, 21, 1).unwrap();
        assert_eq!(p.node_count(), 10);
        assert_eq!(p.index_bound(), 10);
        t.join(NodeId::new(32)).unwrap();
        p.rebuild(&t).unwrap();
        assert_eq!(p.node_count(), 11);
        assert_eq!(p.index_bound(), 33);
        assert_eq!(p.point_count(), 11);
        // Shrinking below d must fail and leave d intact.
        let small = Topology::with_nodes(2).unwrap();
        assert!(p.rebuild(&small).is_err());
    }
}

//! Staged replays of the engines over the public layer APIs.
//!
//! Each walk performs the computation of its engine — same seed
//! derivations, same call sequence into every layer — but one stage at a
//! time over blocks of [`BLOCK`] queries, so a span can be put around
//! each layer. Its counts must equal the engine's report for the same
//! configuration; that equality is what entitles the stage costs to be
//! called a ledger of the engine's work.

use crate::trace::{Recorder, BLOCK};
use scp_cluster::{Cluster, KeyId, NodeId, ReplicaGroup, Topology};
use scp_serve::pow::{scan_start, solve_from};
use scp_serve::{PowVerdict, PowVerifier, ServeConfig, ServeReport, TokenBucket};
use scp_sim::{LoadReport, SimConfig};
use scp_workload::permute::KeyMapping;
use scp_workload::rng::mix;
use scp_workload::stream::QueryStream;

/// The single deterministic client of `run_deterministic`.
const CLIENT: u32 = 0;

/// Stage names of the serve walk, in pipeline order.
pub(crate) const SERVE_STAGES: [&str; 8] = [
    "keygen",
    "pow_solve",
    "pow_verify",
    "cache",
    "replica_group",
    "select",
    "capacity",
    "rebuild",
];

/// Stage names of the query-engine walk, in pipeline order.
pub(crate) const QUERY_STAGES: [&str; 4] = ["sample", "permute", "cache", "route_query"];

/// Exact counts of one serve walk, comparable field by field with a
/// [`ServeReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ServeCounts {
    pub(crate) submitted: u64,
    pub(crate) hits: u64,
    pub(crate) unserved: u64,
    pub(crate) pow_rejected: u64,
    pub(crate) pow_attempts: u64,
    pub(crate) routed: Vec<u64>,
    pub(crate) shed_capacity: Vec<u64>,
    pub(crate) batches: u64,
    pub(crate) migrated: u64,
    pub(crate) reshards: u64,
    pub(crate) cache_rejections: u64,
    pub(crate) sketch_resets: u64,
}

impl ServeCounts {
    #[cfg(test)]
    pub(crate) fn lookups(&self) -> u64 {
        self.routed.iter().sum::<u64>() + self.unserved
    }

    /// Differences from the engine's report, empty when the walk priced
    /// the same computation.
    pub(crate) fn mismatches(&self, report: &ServeReport) -> Vec<String> {
        let mut out = Vec::new();
        let mut want = |name: &str, walk: u64, engine: u64| {
            if walk != engine {
                out.push(format!("{name}: walk {walk} != engine {engine}"));
            }
        };
        want("submitted", self.submitted, report.submitted);
        want("hits", self.hits, report.cache_hits);
        want("unserved", self.unserved, report.unserved);
        want("pow_rejected", self.pow_rejected, report.pow_rejected);
        want("pow_attempts", self.pow_attempts, report.pow_attempts);
        want("migrated", self.migrated, report.migrated);
        want("reshards", self.reshards, report.reshards);
        want(
            "cache_rejections",
            self.cache_rejections,
            report.cache_rejections,
        );
        want("sketch_resets", self.sketch_resets, report.sketch_resets);
        want(
            "batches",
            self.batches,
            report.shards.iter().map(|s| s.batches).sum(),
        );
        want(
            "shards",
            self.routed.len() as u64,
            report.shards.len() as u64,
        );
        for (i, shard) in report.shards.iter().enumerate() {
            let at = |v: &[u64]| v.get(i).copied().unwrap_or(0);
            want(&format!("routed[{i}]"), at(&self.routed), shard.routed);
            want(
                &format!("shed_capacity[{i}]"),
                at(&self.shed_capacity),
                shard.shed_capacity,
            );
        }
        out
    }
}

fn bump(counters: &mut [u64], index: usize) {
    if let Some(c) = counters.get_mut(index) {
        *c += 1;
    }
}

/// `r_i` and its burst for `members` serving nodes, spelled as the
/// engine spells them so the buckets refill bit for bit alike.
fn provision(headroom: f64, inv_rate: f64, members: usize) -> (f64, f64) {
    let r = headroom / (inv_rate * members as f64);
    (r, (r * 0.01).max(8.0))
}

/// Replays `run_deterministic(cfg)` stage by stage.
pub(crate) fn serve_walk(cfg: &ServeConfig, rec: &mut Recorder) -> Result<ServeCounts, String> {
    let sim = &cfg.sim;
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mapping = KeyMapping::scattered(sim.items, mix(&[sim.seed, 3])).map_err(|e| err(&e))?;
    let mut stream = QueryStream::with_mapping(&sim.pattern, mix(&[sim.seed, 4]), mapping.clone())
        .map_err(|e| err(&e))?;
    let (_, shards) = cfg.replay_topology().map_err(|e| err(&e))?;
    let mut topology = Topology::with_nodes(sim.nodes).map_err(|e| err(&e))?;
    let top = (sim.cache_capacity as u64).min(sim.items);
    let mut cache = sim.build_cache((0..top).map(|rank| mapping.apply(rank)));
    let mut cluster = Cluster::new(
        sim.build_partitioner().map_err(|e| err(&e))?,
        sim.build_selector(),
    );
    let mut buckets: Option<Vec<TokenBucket>> = cfg.shard_capacity().map(|r| {
        let burst = (r * 0.01).max(8.0);
        (0..shards).map(|_| TokenBucket::new(r, burst)).collect()
    });
    let mut verifier = cfg.pow.as_ref().map(|s| PowVerifier::new(s, sim.seed));
    let inv_rate = 1.0 / sim.rate;
    let batch_size = cfg.batch_size.max(1);

    let mut counts = ServeCounts {
        routed: vec![0; shards],
        shed_capacity: vec![0; shards],
        ..ServeCounts::default()
    };
    let mut pending: Vec<Vec<u64>> = (0..shards)
        .map(|_| Vec::with_capacity(batch_size))
        .collect();
    let mut keys: Vec<u64> = Vec::with_capacity(BLOCK);
    let mut proofs: Vec<u64> = Vec::with_capacity(BLOCK);
    let mut accepted: Vec<bool> = Vec::with_capacity(BLOCK);
    let mut misses: Vec<(u64, f64)> = Vec::with_capacity(BLOCK);
    let mut groups: Vec<ReplicaGroup> = Vec::with_capacity(BLOCK);
    let mut routed: Vec<(usize, u64, f64)> = Vec::with_capacity(BLOCK);

    let total = cfg.total_queries;
    let mut next_event = 0usize;
    while counts.submitted < total {
        // Membership events fire when the submitted count reaches their
        // mark, before the next query enters admission.
        while let Some(event) = cfg.membership.get(next_event) {
            if event.at_query > counts.submitted {
                break;
            }
            next_event += 1;
            if event.change.apply(&mut topology).is_err() {
                continue;
            }
            let resharded = rec.stage("rebuild", || (cluster.reshard(&topology).is_ok(), 1));
            if !resharded {
                continue;
            }
            counts.reshards += 1;
            if let Some(buckets) = &mut buckets {
                let (r, burst) = provision(cfg.capacity_headroom, inv_rate, topology.len());
                for bucket in buckets.iter_mut() {
                    bucket.set_rate(r, burst);
                }
            }
            for (shard, buf) in pending.iter_mut().enumerate() {
                let node = NodeId::from_index(shard);
                let before = buf.len();
                buf.retain(|&key| cluster.replica_group(KeyId::new(key)).contains(node));
                counts.migrated += (before - buf.len()) as u64;
            }
        }
        // A block never crosses a membership mark, so every stage of it
        // sees one topology epoch, exactly as the engine's segments do.
        let until = cfg
            .membership
            .get(next_event)
            .map_or(total, |e| e.at_query.min(total));
        let take = (until - counts.submitted).min(BLOCK as u64);
        let first = counts.submitted;
        let now_of = |i: usize| (first + i as u64) as f64 * inv_rate;

        rec.begin_block();
        rec.stage("keygen", || {
            keys.clear();
            for _ in 0..take {
                keys.push(stream.next_key());
            }
            ((), take)
        });
        accepted.clear();
        if let Some(verifier) = &mut verifier {
            let attempts = rec.stage("pow_solve", || {
                proofs.clear();
                let mut attempts = 0u64;
                for (i, &key) in keys.iter().enumerate() {
                    let at = first + i as u64;
                    let nonce = verifier.server_nonce(verifier.window_at(now_of(i)));
                    let (proof, spent) = solve_from(
                        nonce,
                        CLIENT,
                        key,
                        verifier.difficulty(),
                        scan_start(CLIENT, at),
                    );
                    proofs.push(proof);
                    attempts += spent;
                }
                (attempts, take)
            });
            counts.pow_attempts += attempts;
            let rejected = rec.stage("pow_verify", || {
                let mut rejected = 0u64;
                for (i, (&key, &proof)) in keys.iter().zip(&proofs).enumerate() {
                    let ok = verifier.verify(now_of(i), CLIENT, key, Some(proof))
                        == PowVerdict::Accepted;
                    rejected += u64::from(!ok);
                    accepted.push(ok);
                }
                (rejected, take)
            });
            counts.pow_rejected += rejected;
        }
        let hits = rec.stage("cache", || {
            misses.clear();
            let (mut hits, mut requests) = (0u64, 0u64);
            for (i, &key) in keys.iter().enumerate() {
                if accepted.get(i).is_some_and(|ok| !ok) {
                    continue;
                }
                requests += 1;
                if cache.request(key).is_hit() {
                    hits += 1;
                } else {
                    misses.push((key, now_of(i)));
                }
            }
            (hits, requests)
        });
        counts.hits += hits;
        rec.stage("replica_group", || {
            groups.clear();
            for &(key, _) in &misses {
                groups.push(cluster.replica_group(KeyId::new(key)));
            }
            ((), misses.len() as u64)
        });
        let unserved = rec.stage("select", || {
            routed.clear();
            let mut unserved = 0u64;
            for (&(key, now), group) in misses.iter().zip(&groups) {
                match cluster.route_prefetched(KeyId::new(key), group) {
                    Ok(node) => routed.push((node.index(), key, now)),
                    Err(_) => unserved += 1,
                }
            }
            (unserved, misses.len() as u64)
        });
        counts.unserved += unserved;
        rec.stage("capacity", || {
            for &(shard, key, now) in &routed {
                bump(&mut counts.routed, shard);
                let admitted = buckets
                    .as_mut()
                    .and_then(|b| b.get_mut(shard))
                    .is_none_or(|bucket| bucket.try_take(now));
                if !admitted {
                    bump(&mut counts.shed_capacity, shard);
                    continue;
                }
                if let Some(buf) = pending.get_mut(shard) {
                    buf.push(key);
                    if buf.len() >= batch_size {
                        counts.batches += 1;
                        buf.clear();
                    }
                }
            }
            ((), routed.len() as u64)
        });
        rec.end_block();
        counts.submitted += take;
    }
    counts.batches += pending.iter().filter(|buf| !buf.is_empty()).count() as u64;
    counts.cache_rejections = cache.stats().rejections();
    counts.sketch_resets = cache.sketch_resets();
    Ok(counts)
}

/// Exact outputs of one query-engine walk, comparable with a
/// [`LoadReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct QueryCounts {
    pub(crate) queries: u64,
    pub(crate) hits: u64,
    pub(crate) lookups: u64,
    pub(crate) rejections: u64,
    pub(crate) loads: Vec<f64>,
    pub(crate) unserved: f64,
}

impl QueryCounts {
    /// Differences from the engine's report, empty when the walk priced
    /// the same computation.
    pub(crate) fn mismatches(&self, report: &LoadReport) -> Vec<String> {
        let mut out = Vec::new();
        if self.hits as f64 != report.cache_load {
            out.push(format!(
                "hits: walk {} != engine {}",
                self.hits, report.cache_load
            ));
        }
        if self.queries as f64 != report.offered {
            out.push(format!(
                "queries: walk {} != engine {}",
                self.queries, report.offered
            ));
        }
        let same_bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        if !same_bits(&self.loads, report.snapshot.loads()) {
            out.push("per-node loads differ".to_owned());
        }
        if self.unserved.to_bits() != report.unserved.to_bits() {
            out.push(format!(
                "unserved: walk {} != engine {}",
                self.unserved, report.unserved
            ));
        }
        out
    }
}

/// Replays `run_query_simulation(cfg, queries)` stage by stage.
pub(crate) fn query_walk(
    cfg: &SimConfig,
    queries: u64,
    rec: &mut Recorder,
) -> Result<QueryCounts, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mapping = KeyMapping::scattered(cfg.items, mix(&[cfg.seed, 3])).map_err(|e| err(&e))?;
    let mut sampler = cfg
        .pattern
        .sampler(mix(&[cfg.seed, 4]))
        .map_err(|e| err(&e))?;
    let top = (cfg.cache_capacity as u64).min(cfg.items);
    let mut cache = cfg.build_cache((0..top).map(|rank| mapping.apply(rank)));
    let mut cluster = Cluster::new(
        cfg.build_partitioner().map_err(|e| err(&e))?,
        cfg.build_selector(),
    );
    let mut ranks = vec![0u64; BLOCK];
    let mut keys: Vec<u64> = Vec::with_capacity(BLOCK);
    let mut misses: Vec<u64> = Vec::with_capacity(BLOCK);
    let mut counts = QueryCounts::default();
    let mut remaining = queries;
    while remaining > 0 {
        let take = remaining.min(BLOCK as u64);
        let Some(batch) = ranks.get_mut(..take as usize) else {
            break;
        };
        rec.begin_block();
        rec.stage("sample", || {
            sampler.sample_batch(batch);
            ((), take)
        });
        rec.stage("permute", || {
            keys.clear();
            keys.extend(batch.iter().map(|&rank| mapping.apply(rank)));
            ((), take)
        });
        let hits = rec.stage("cache", || {
            misses.clear();
            let mut hits = 0u64;
            for &key in &keys {
                if cache.request(key).is_hit() {
                    hits += 1;
                } else {
                    misses.push(key);
                }
            }
            (hits, take)
        });
        counts.hits += hits;
        rec.stage("route_query", || {
            for &key in &misses {
                let _ = cluster.route_query(KeyId::new(key));
            }
            ((), misses.len() as u64)
        });
        rec.end_block();
        counts.lookups += misses.len() as u64;
        remaining -= take;
    }
    counts.queries = queries;
    counts.rejections = cache.stats().rejections();
    counts.loads = cluster.loads().to_vec();
    counts.unserved = cluster.unserved();
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{self, Workload};
    use scp_serve::run_deterministic;
    use scp_sim::query_engine::run_query_simulation;

    #[test]
    fn serve_walk_equals_the_engine_on_every_deterministic_serve_workload() {
        for workload in [
            Workload::ServeHit,
            Workload::ServeMiss,
            Workload::ServeElastic,
            Workload::ServeDefended,
        ] {
            // Past one logical second, so nonce and gain windows roll.
            let cfg = fixtures::serve_config(workload, 3, 150_000)
                .unwrap()
                .unwrap();
            let report = run_deterministic(&cfg).unwrap();
            for on in [false, true] {
                let mut rec = Recorder::new(on);
                let counts = serve_walk(&cfg, &mut rec).unwrap();
                assert_eq!(
                    counts.mismatches(&report),
                    Vec::<String>::new(),
                    "{workload:?}"
                );
                assert_eq!(rec.spans().is_empty(), !on);
            }
        }
    }

    #[test]
    fn elastic_walk_reproduces_migrations_and_records_rebuild_spans() {
        let cfg = fixtures::serve_config(Workload::ServeElastic, 8, 60_000)
            .unwrap()
            .unwrap();
        let mut rec = Recorder::new(true);
        let counts = serve_walk(&cfg, &mut rec).unwrap();
        assert_eq!(counts.reshards, 4);
        assert_eq!(rec.total("rebuild").ops, 4);
        assert!(rec
            .spans()
            .iter()
            .any(|s| s.name == "rebuild" && s.parent.is_none()));
        assert_eq!(rec.total("keygen").ops, 60_000);
        assert_eq!(rec.total("replica_group").ops, counts.lookups());
    }

    #[test]
    fn a_wrong_count_is_reported_as_a_mismatch() {
        let cfg = fixtures::serve_config(Workload::ServeMiss, 3, 10_000)
            .unwrap()
            .unwrap();
        let report = run_deterministic(&cfg).unwrap();
        let mut counts = serve_walk(&cfg, &mut Recorder::new(false)).unwrap();
        counts.hits += 1;
        assert_eq!(counts.mismatches(&report).len(), 1);
    }

    #[test]
    fn query_walk_equals_the_engine_for_every_policy() {
        for kind in fixtures::SIM_QUERY_POLICIES {
            let cfg = fixtures::sim_query_config(5, kind).unwrap();
            let report = run_query_simulation(&cfg, 30_000).unwrap();
            let mut rec = Recorder::new(true);
            let counts = query_walk(&cfg, 30_000, &mut rec).unwrap();
            assert_eq!(counts.mismatches(&report), Vec::<String>::new(), "{kind:?}");
            assert_eq!(rec.total("sample").ops, 30_000);
            assert_eq!(rec.total("route_query").ops, counts.lookups);
        }
    }
}

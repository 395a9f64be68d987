//! The front end: the one cache → partition → select pipeline under
//! every per-query engine and `scp-serve`'s admission stage.
//!
//! The paper's system is a front-end cache that absorbs the most popular
//! keys, a random partition that gives every other key its `d`-replica
//! group, and a selector that picks the serving node. [`FrontEnd`] is that
//! pipeline, built once from a [`SimConfig`]:
//!
//! * `f` caches, each seeded with the top `c` keys of the traffic it sees
//!   (the popularity oracle uses them, every other policy starts cold);
//! * the cluster: partitioner, selector and per-node load accounting.
//!
//! [`FrontEnd::step`] serves one key, drawn by the caller from
//! [`SimConfig::query_stream`]. `run` is the one sampling loop under the
//! query, weighted and multi-front-end engines; the discrete-event engine
//! and `scp-serve`'s admission stage call the step themselves.

use crate::config::SimConfig;
use crate::cost::CostModel;
use crate::error::SimError;
use crate::metrics::LoadReport;
use crate::multi_frontend::FrontendRouting;
use crate::Result;
use scp_cache::Cache;
use scp_cluster::{Cluster, KeyId, NodeId};
use scp_workload::permute::KeyMapping;
use scp_workload::rng::{mix, next_below, next_f64, Xoshiro256StarStar};

/// What became of one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// A front-end cache answered it.
    Hit,
    /// The selector sent it to this node.
    Routed(NodeId),
    /// Its whole replica group is down; the cluster counts it unserved.
    Unserved,
}

/// Caches in front of a cluster.
pub struct FrontEnd {
    caches: Vec<Box<dyn Cache<u64>>>,
    pick: Pick,
    cluster: Cluster,
}

/// How [`FrontEnd::step`] picks a query's cache: the only one, by key
/// hash, or by a draw on seed lane 8.
enum Pick {
    Only,
    ByKey,
    ByClient(Xoshiro256StarStar),
}

impl FrontEnd {
    /// Builds the pipeline of `cfg` with `frontends` caches of
    /// `cfg.cache_capacity` entries each.
    ///
    /// Each cache is seeded with the first `c` keys in popularity order
    /// (ranks mapped by `mapping`, `cfg`'s [`SimConfig::key_mapping`])
    /// that its routing sends it: the global top `c` for by-client
    /// routing, the top `c` of its own key shard for by-key routing.
    ///
    /// # Errors
    ///
    /// Returns an error on `frontends == 0` or an invalid cluster config.
    pub fn new(
        cfg: &SimConfig,
        mapping: &KeyMapping,
        frontends: usize,
        routing: FrontendRouting,
    ) -> Result<Self> {
        if frontends == 0 {
            return Err(SimError::InvalidConfig {
                field: "frontends",
                reason: "need at least one front end".to_owned(),
            });
        }
        let caches = (0..frontends)
            .map(|f| {
                // Batches of `c`: by-client routing maps exactly the keys
                // it seeds.
                let ranked = RankedKeys::new(mapping, cfg.items, cfg.cache_capacity)
                    .filter(|&key| {
                        routing == FrontendRouting::ByClient
                            || frontend_for_key(key, frontends) == f
                    })
                    .take(cfg.cache_capacity);
                cfg.build_cache(ranked)
            })
            .collect();
        let pick = match routing {
            _ if frontends == 1 => Pick::Only,
            FrontendRouting::ByKey => Pick::ByKey,
            FrontendRouting::ByClient => {
                Pick::ByClient(Xoshiro256StarStar::seed_from_u64(mix(&[cfg.seed, 8])))
            }
        };
        Ok(Self {
            caches,
            pick,
            cluster: cfg.build_cluster()?,
        })
    }

    /// Serves one query of weight `cost`: its front end's cache, and on a
    /// miss the cluster.
    #[inline]
    pub fn step(&mut self, key: u64, cost: f64) -> Served {
        let f = match &mut self.pick {
            Pick::Only => 0,
            Pick::ByKey => frontend_for_key(key, self.caches.len()),
            Pick::ByClient(rng) => next_below(rng, self.caches.len() as u64) as usize,
        };
        let hit = self
            .caches
            .get_mut(f)
            .is_some_and(|cache| cache.request(key).is_hit());
        if hit {
            Served::Hit
        } else {
            self.route(key, cost)
        }
    }

    /// Sends one query of weight `cost` past the caches, straight to the
    /// cluster.
    #[inline]
    pub(crate) fn route(&mut self, key: u64, cost: f64) -> Served {
        match self.cluster.route_query_with_cost(KeyId::new(key), cost) {
            Ok(node) => Served::Routed(node),
            Err(_) => Served::Unserved,
        }
    }

    /// The caches, in front-end order.
    pub fn caches(&self) -> &[Box<dyn Cache<u64>>] {
        &self.caches
    }

    /// The back end.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The back end, for failure injection and resharding.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// The back end's loads, with the first cache's counters.
    pub(crate) fn report(&self, cache_load: f64, offered: f64) -> LoadReport {
        LoadReport {
            snapshot: self.cluster.snapshot(),
            cache_load,
            offered,
            unserved: self.cluster.unserved(),
            cache_stats: self.caches.first().map(|cache| *cache.stats()),
        }
    }
}

/// The front end a by-key router sends `key` to.
fn frontend_for_key(key: u64, frontends: usize) -> usize {
    (mix(&[key, 0xF407_E4D5]) % frontends as u64) as usize
}

/// Most ranks [`RankedKeys`] maps per `apply_batch`.
pub(crate) const RANK_BATCH: usize = 256;

/// The keys of ranks `0..end` in popularity order, mapped through
/// [`KeyMapping::apply_batch`] up to `batch` ranks at a time. Lazy: a
/// consumer that stops early has mapped fewer than `batch` ranks past
/// the last key it read.
pub(crate) struct RankedKeys<'a> {
    mapping: &'a KeyMapping,
    /// Next rank to map.
    rank: u64,
    end: u64,
    batch: usize,
    keys: [u64; RANK_BATCH],
    /// Mapped keys in `keys`, and how many of them were read.
    len: usize,
    read: usize,
}

impl<'a> RankedKeys<'a> {
    /// `batch` is clamped to `1..=RANK_BATCH`.
    pub(crate) fn new(mapping: &'a KeyMapping, end: u64, batch: usize) -> Self {
        Self {
            mapping,
            rank: 0,
            end,
            batch: batch.clamp(1, RANK_BATCH),
            keys: [0; RANK_BATCH],
            len: 0,
            read: 0,
        }
    }

    /// Maps the next batch of ranks and returns its keys, all of them
    /// read; `None` once rank `end` is reached.
    pub(crate) fn next_batch(&mut self) -> Option<&[u64]> {
        let len = self.end.saturating_sub(self.rank).min(self.batch as u64) as usize;
        let chunk = self.keys.get_mut(..len).filter(|chunk| !chunk.is_empty())?;
        for (key, rank) in chunk.iter_mut().zip(self.rank..) {
            *key = rank;
        }
        self.mapping.apply_batch(chunk);
        self.rank += len as u64;
        (self.len, self.read) = (len, len);
        Some(chunk)
    }
}

impl Iterator for RankedKeys<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.read == self.len {
            self.next_batch()?;
            self.read = 0;
        }
        let key = self.keys.get(self.read).copied();
        self.read += 1;
        key
    }
}

/// The one sampling loop: `queries` draws of [`SimConfig::query_stream`]
/// through a fresh [`FrontEnd`], each a read or a write per `model`.
/// Loads, cache load and `offered` are in cost units. Seed lane 7 decides
/// read or write, and is drawn only when writes occur at all.
///
/// # Errors
///
/// Returns an error on `queries == 0` or a config the front end rejects.
pub(crate) fn run(
    cfg: &SimConfig,
    queries: u64,
    frontends: usize,
    routing: FrontendRouting,
    model: &CostModel,
) -> Result<(FrontEnd, LoadReport)> {
    if queries == 0 {
        return Err(SimError::InvalidConfig {
            field: "queries",
            reason: "need at least one query".to_owned(),
        });
    }
    let mapping = cfg.key_mapping()?;
    let mut front = FrontEnd::new(cfg, &mapping, frontends, routing)?;
    let mut stream = cfg.query_stream(mapping)?;
    let mut ops = (model.write_fraction > 0.0)
        .then(|| Xoshiro256StarStar::seed_from_u64(mix(&[cfg.seed, 7])));
    let (mut cache_load, mut offered) = (0.0, 0.0);
    for _ in 0..queries {
        let key = stream.next_key();
        let write = ops
            .as_mut()
            .is_some_and(|rng| next_f64(rng) < model.write_fraction);
        let (cost, bypass) = if write {
            (model.write_cost, model.writes_bypass_cache)
        } else {
            (model.read_cost, false)
        };
        offered += cost;
        let served = if bypass {
            front.route(key, cost)
        } else {
            front.step(key, cost)
        };
        if served == Served::Hit {
            cache_load += cost;
        }
    }
    let report = front.report(cache_load, offered);
    Ok((front, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_zero_front_ends() {
        let cfg = SimConfig::builder().nodes(10).items(100).build().unwrap();
        let mapping = cfg.key_mapping().unwrap();
        for routing in [FrontendRouting::ByClient, FrontendRouting::ByKey] {
            let err = FrontEnd::new(&cfg, &mapping, 0, routing).err();
            assert!(err.is_some_and(|e| e.to_string().contains("frontends")));
            assert!(FrontEnd::new(&cfg, &mapping, 1, routing).is_ok());
        }
    }
}

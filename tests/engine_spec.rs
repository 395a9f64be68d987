//! The executable spec of the paper's pipeline, and golden vectors for
//! every public simulation entry point.
//!
//! Part one is a deliberately naive reference: one straight-line function
//! per engine that spells out cache → partition → select with nothing
//! shared, cached or batched. The rate, query, weighted and
//! multi-front-end engines must equal it under `assert_eq!`, i.e. to the
//! last bit of every `f64`, and `scp-serve`'s deterministic replay must
//! route exactly what the query engine and the spec do.
//!
//! Part two folds the exact bits of every report (loads, `cache_load`,
//! `offered`, `unserved`, cache hits and misses, and each engine's own
//! extras) over a small seed × selector × partitioner grid into one FNV-1a
//! digest per entry point. The digests were recorded before the engines
//! were rewritten onto one front end and one rate loop; any change to an
//! outcome moves one.

mod golden;

use golden::Digest;
use secure_cache_provision::cache::{Cache, CacheStats};
use secure_cache_provision::cluster::load::LoadSnapshot;
use secure_cache_provision::cluster::partition::Partitioner;
use secure_cache_provision::cluster::select::ReplicaSelector;
use secure_cache_provision::cluster::{Cluster, KeyId, NodeId};
use secure_cache_provision::prelude::*;
use secure_cache_provision::sim::assignments::collect_assignments;
use secure_cache_provision::sim::cost::{run_weighted_query_simulation, CostModel};
use secure_cache_provision::sim::des::{
    run_des, run_des_with_events, DesConfig, DesReport, FailAction, NodeEvent,
};
use secure_cache_provision::sim::multi_frontend::{
    run_multi_frontend_simulation, FrontendRouting, MultiFrontendReport,
};
use secure_cache_provision::sim::rate_engine::{run_rate_simulation_on, run_rate_simulation_with};
use secure_cache_provision::sim::sweep::RunSweep;
use secure_cache_provision::workload::permute::KeyMapping;
use secure_cache_provision::workload::rng::{mix, next_below, next_f64, Xoshiro256StarStar};

const NODES: usize = 24;
const ITEMS: u64 = 600;
const CACHE: usize = 20;
const QUERIES: u64 = 1_500;
const SEEDS: [u64; 2] = [3, 8];

fn config(seed: u64, selector: SelectorKind, partitioner: PartitionerKind) -> SimConfig {
    SimConfig::builder()
        .nodes(NODES)
        .items(ITEMS)
        .rate(1e4)
        .cache_capacity(CACHE)
        .pattern(AccessPattern::zipf(0.9, ITEMS).unwrap())
        .selector(selector)
        .partitioner(partitioner)
        .seed(seed)
        .build()
        .unwrap()
}

/// Every (seed, selector, partitioner) of the grid.
fn grid() -> Vec<SimConfig> {
    let mut out = Vec::new();
    for seed in SEEDS {
        for selector in SelectorKind::ALL {
            for partitioner in PartitionerKind::ALL {
                out.push(config(seed, selector, partitioner));
            }
        }
    }
    out
}

fn with_pattern(cfg: &SimConfig, pattern: AccessPattern) -> SimConfig {
    cfg.to_builder().pattern(pattern).build().unwrap()
}

// ---------------------------------------------------------------------
// Part one: the naive reference.
// ---------------------------------------------------------------------

/// The back end: a partition, a selector, a load per node, a dead set.
struct Backend {
    partitioner: Box<dyn Partitioner>,
    selector: Box<dyn ReplicaSelector>,
    sticky: bool,
    loads: Vec<f64>,
    dead: Vec<NodeId>,
    unserved: f64,
}

impl Backend {
    fn new(cfg: &SimConfig, dead: &[NodeId]) -> Self {
        Self {
            partitioner: cfg.build_partitioner().unwrap(),
            selector: cfg.build_selector(),
            sticky: cfg.selector == SelectorKind::LeastLoaded,
            loads: vec![0.0; cfg.nodes],
            dead: dead.to_vec(),
            unserved: 0.0,
        }
    }

    fn live(&self, key: u64) -> Vec<NodeId> {
        let group = self.partitioner.replica_group(KeyId::new(key));
        let live = group.as_slice().iter().filter(|n| !self.dead.contains(n));
        live.copied().collect()
    }

    /// One query of weight `cost`: the selector picks a live replica.
    fn query(&mut self, key: u64, cost: f64) {
        let live = self.live(key);
        if live.is_empty() {
            self.unserved += cost;
            return;
        }
        let node = self.selector.select(KeyId::new(key), &live, &self.loads);
        self.loads[node.index()] += cost;
    }

    /// A steady rate: a sticky selector pins the key to one replica, a
    /// memoryless one spreads the rate evenly over the live group.
    fn rate(&mut self, key: u64, rate: f64) {
        let live = self.live(key);
        if live.is_empty() {
            self.unserved += rate;
        } else if self.sticky {
            let node = self.selector.select(KeyId::new(key), &live, &self.loads);
            self.loads[node.index()] += rate;
        } else {
            for node in &live {
                self.loads[node.index()] += rate / live.len() as f64;
            }
        }
    }

    fn report(self, cache_load: f64, offered: f64, stats: Option<CacheStats>) -> LoadReport {
        LoadReport {
            snapshot: LoadSnapshot::new(self.loads),
            cache_load,
            offered,
            unserved: self.unserved,
            cache_stats: stats,
        }
    }
}

/// Rate propagation: rank `r` carries `R·p(r)`; the oracle caches the
/// top `c` ranks, an online cache a measured fraction of every rank.
fn spec_rate(cfg: &SimConfig, c: usize, mapping: &KeyMapping, dead: &[NodeId]) -> LoadReport {
    let probs = cfg.pattern.rank_probs();
    let online =
        cfg.admission == AdmissionKind::Online && cfg.effective_cache_kind() != CacheKind::None;
    let mut hit = vec![if online { 0.0 } else { 1.0 }; c.min(probs.support_bound() as usize)];
    let mut stats = None;
    if online {
        // Warm a cache over rank ids with a lane-5 stream, then measure
        // each rank's hit frequency over as many draws again.
        let mut cache = cfg.build_cache(0..cfg.cache_capacity as u64);
        let mut sampler = cfg.pattern.sampler(mix(&[cfg.seed, 5])).unwrap();
        let draws = 50_000u64.max(cfg.cache_capacity as u64 * 200);
        for _ in 0..draws {
            let _ = cache.request(sampler.sample());
        }
        cache.reset_stats();
        let (mut hits, mut seen) = (
            vec![0u64; probs.support_bound() as usize],
            vec![0u64; probs.support_bound() as usize],
        );
        for _ in 0..draws {
            let rank = sampler.sample() as usize;
            seen[rank] += 1;
            hits[rank] += u64::from(cache.request(rank as u64).is_hit());
        }
        hit = hits
            .iter()
            .zip(&seen)
            .map(|(&h, &d)| if d > 0 { h as f64 / d as f64 } else { 0.0 })
            .collect();
        stats = Some(*cache.stats());
    }
    let mut backend = Backend::new(cfg, dead);
    let mut cache_load = 0.0;
    for rank in 0..probs.support_bound() {
        let p = probs.get(rank);
        if p <= 0.0 {
            continue;
        }
        let rate = cfg.rate * p;
        let h = hit.get(rank as usize).copied().unwrap_or(0.0);
        if online {
            cache_load += rate * h;
            if rate * (1.0 - h) > 0.0 {
                backend.rate(mapping.apply(rank), rate * (1.0 - h));
            }
        } else if h == 1.0 {
            cache_load += rate;
        } else {
            backend.rate(mapping.apply(rank), rate);
        }
    }
    backend.report(cache_load, cfg.rate, stats)
}

/// Query sampling through `f` front ends, each a cache seeded with the
/// top `c` keys of the traffic it sees; misses and bypassing writes go
/// to the back end.
fn spec_queries(
    cfg: &SimConfig,
    queries: u64,
    model: &CostModel,
    f: usize,
    routing: FrontendRouting,
) -> (LoadReport, Vec<Box<dyn Cache<u64>>>) {
    let mapping = cfg.key_mapping().unwrap();
    let front = |key: u64| (mix(&[key, 0xF407_E4D5]) % f as u64) as usize;
    let mut caches: Vec<_> = (0..f)
        .map(|i| {
            let ranked: Vec<u64> = (0..cfg.items)
                .map(|rank| mapping.apply(rank))
                .filter(|&key| routing == FrontendRouting::ByClient || front(key) == i)
                .take(cfg.cache_capacity)
                .collect();
            cfg.build_cache(ranked)
        })
        .collect();
    let mut sampler = cfg.pattern.sampler(mix(&[cfg.seed, 4])).unwrap();
    let mut ops = Xoshiro256StarStar::seed_from_u64(mix(&[cfg.seed, 7]));
    let mut clients = Xoshiro256StarStar::seed_from_u64(mix(&[cfg.seed, 8]));
    let mut backend = Backend::new(cfg, &[]);
    let (mut cache_load, mut offered) = (0.0, 0.0);
    for _ in 0..queries {
        let key = mapping.apply(sampler.sample());
        let write = next_f64(&mut ops) < model.write_fraction;
        let cost = if write {
            model.write_cost
        } else {
            model.read_cost
        };
        offered += cost;
        if write && model.writes_bypass_cache {
            backend.query(key, cost);
            continue;
        }
        let i = match routing {
            FrontendRouting::ByClient => next_below(&mut clients, f as u64) as usize,
            FrontendRouting::ByKey => front(key),
        };
        if caches[i].request(key).is_hit() {
            cache_load += cost;
        } else {
            backend.query(key, cost);
        }
    }
    let stats = Some(*caches[0].stats());
    (backend.report(cache_load, offered, stats), caches)
}

#[test]
fn rate_engine_equals_the_spec() {
    for cfg in grid() {
        let mapping = cfg.key_mapping().unwrap();
        for pattern in [
            AccessPattern::zipf(0.9, ITEMS).unwrap(),
            AccessPattern::uniform_subset(CACHE as u64 + 1, ITEMS).unwrap(),
            AccessPattern::uniform_subset(300, ITEMS).unwrap(),
        ] {
            let cfg = with_pattern(&cfg, pattern);
            assert_eq!(
                run_rate_simulation(&cfg).unwrap(),
                spec_rate(&cfg, CACHE, &mapping, &[]),
                "{cfg:?}"
            );
        }
        let dead = [NodeId::new(0), NodeId::new(5), NodeId::new(6)];
        let mut cluster = Cluster::new(cfg.build_partitioner().unwrap(), cfg.build_selector());
        for &node in &dead {
            cluster.fail_node(node).unwrap();
        }
        let report = run_rate_simulation_on(&cfg, &mut cluster, 7).unwrap();
        assert_eq!(report, spec_rate(&cfg, 7, &mapping, &dead), "{cfg:?}");
        let report =
            run_rate_simulation_with(&cfg, &mut cluster, 0, &KeyMapping::Identity).unwrap();
        assert_eq!(
            report,
            spec_rate(&cfg, 0, &KeyMapping::Identity, &dead),
            "{cfg:?}"
        );
    }
    for cfg in online_grid() {
        let mapping = cfg.key_mapping().unwrap();
        assert_eq!(
            run_rate_simulation(&cfg).unwrap(),
            spec_rate(&cfg, CACHE, &mapping, &[]),
            "{cfg:?}"
        );
    }
}

#[test]
fn sampling_engines_equal_the_spec() {
    let uniform = CostModel::uniform();
    let mixes = [
        uniform,
        CostModel::read_write(1.0, 4.0, 0.3).unwrap(),
        CostModel {
            writes_bypass_cache: false,
            ..CostModel::read_write(2.0, 0.5, 0.6).unwrap()
        },
    ];
    for (i, cfg) in grid().iter().enumerate() {
        let kind = CacheKind::ALL[i % CacheKind::ALL.len()];
        let cfg = cfg.to_builder().cache_kind(kind).build().unwrap();
        let spec = spec_queries(&cfg, QUERIES, &uniform, 1, FrontendRouting::ByClient).0;
        assert_eq!(
            run_query_simulation(&cfg, QUERIES).unwrap(),
            spec,
            "{cfg:?}"
        );
        for model in &mixes {
            let spec = spec_queries(&cfg, QUERIES, model, 1, FrontendRouting::ByClient).0;
            assert_eq!(
                run_weighted_query_simulation(&cfg, QUERIES, model).unwrap(),
                spec,
                "{cfg:?} {model:?}"
            );
        }
        for (f, routing) in [
            (1, FrontendRouting::ByKey),
            (3, FrontendRouting::ByClient),
            (3, FrontendRouting::ByKey),
        ] {
            let (mut load, caches) = spec_queries(&cfg, QUERIES, &uniform, f, routing);
            load.cache_stats = None;
            let spec = MultiFrontendReport {
                load,
                frontend_hit_rates: caches.iter().map(|c| c.stats().hit_rate()).collect(),
                total_resident: caches.iter().map(|c| c.len()).sum(),
            };
            assert_eq!(
                run_multi_frontend_simulation(&cfg, f, routing, QUERIES).unwrap(),
                spec,
                "{cfg:?} {f} {routing:?}"
            );
        }
    }
}

/// Where `scp-serve`'s deterministic replay of `cfg` and `load` disagree
/// on what they routed: per-shard `routed` against per-node loads, cache
/// hits, unserved queries. `None` when they agree.
fn serve_differs(cfg: &SimConfig, load: &LoadReport) -> Option<String> {
    let mut serve = ServeConfig::new(cfg.clone());
    serve.total_queries = QUERIES;
    let report = run_deterministic(&serve).unwrap();
    let routed: Vec<f64> = report.shards.iter().map(|s| s.routed as f64).collect();
    let hits = load.cache_stats.map(|stats| stats.hits());
    (routed != load.snapshot.loads()
        || Some(report.cache_hits) != hits
        || report.unserved as f64 != load.unserved)
        .then(|| format!("{cfg:?}"))
}

/// With no shield, no token buckets (`capacity_headroom = 0`) and no
/// membership events, serve's admission is one front-end step per query
/// of the same lane-4 stream, so its replay routes exactly what the query
/// engine does, on every policy, selector and pattern (a whole-domain
/// uniform included), and what the spec does on the Zipf grid.
#[test]
fn serve_replay_equals_the_sampling_engines() {
    let mut differ = Vec::new();
    let mut cases = 0;
    for (i, kind) in CacheKind::ALL.into_iter().enumerate() {
        for selector in SelectorKind::ALL {
            let partitioner = PartitionerKind::ALL[i % PartitionerKind::ALL.len()];
            let cfg = config(SEEDS[i % SEEDS.len()], selector, partitioner);
            for pattern in [
                AccessPattern::zipf(0.9, ITEMS).unwrap(),
                AccessPattern::uniform_subset(CACHE as u64 + 1, ITEMS).unwrap(),
                AccessPattern::uniform(ITEMS).unwrap(),
            ] {
                let cfg = cfg
                    .to_builder()
                    .cache_kind(kind)
                    .pattern(pattern)
                    .build()
                    .unwrap();
                let load = run_query_simulation(&cfg, QUERIES).unwrap();
                differ.extend(serve_differs(&cfg, &load));
                cases += 1;
            }
        }
    }
    let uniform = CostModel::uniform();
    for cfg in grid() {
        let spec = spec_queries(&cfg, QUERIES, &uniform, 1, FrontendRouting::ByClient).0;
        differ.extend(serve_differs(&cfg, &spec));
        cases += 1;
    }
    assert!(
        differ.is_empty(),
        "{} of {cases} cases differ: {differ:#?}",
        differ.len()
    );
}

fn online_grid() -> Vec<SimConfig> {
    let mut out = Vec::new();
    for seed in SEEDS {
        for (selector, kind) in [
            (SelectorKind::LeastLoaded, CacheKind::Perfect),
            (SelectorKind::Random, CacheKind::Lru),
        ] {
            let cfg = config(seed, selector, PartitionerKind::Hash);
            out.push(
                cfg.to_builder()
                    .admission(AdmissionKind::Online)
                    .cache_kind(kind)
                    .build()
                    .unwrap(),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------
// Part two: golden vectors.
// ---------------------------------------------------------------------

impl Digest {
    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn report(&mut self, r: &LoadReport) {
        for &load in r.snapshot.loads() {
            self.float(load);
        }
        self.float(r.cache_load);
        self.float(r.offered);
        self.float(r.unserved);
        match &r.cache_stats {
            Some(s) => {
                self.word(s.hits());
                self.word(s.misses());
            }
            None => self.word(u64::MAX),
        }
    }

    fn des(&mut self, r: &DesReport) {
        for w in [
            r.completed,
            r.cache_hits,
            r.unfinished,
            r.max_queue_depth as u64,
        ] {
            self.word(w);
        }
        for x in [
            r.mean_latency,
            r.p50_latency,
            r.p95_latency,
            r.p99_latency,
            r.max_latency,
            r.max_utilization,
        ] {
            self.float(x);
        }
        self.report(&r.load);
    }
}

#[test]
fn golden_rate_engine() {
    let (mut oracle, mut failed, mut identity) = (Digest::new(), Digest::new(), Digest::new());
    for cfg in grid() {
        for pattern in [
            AccessPattern::zipf(0.9, ITEMS).unwrap(),
            AccessPattern::uniform_subset(CACHE as u64 + 1, ITEMS).unwrap(),
            AccessPattern::uniform_subset(300, ITEMS).unwrap(),
        ] {
            oracle.report(&run_rate_simulation(&with_pattern(&cfg, pattern)).unwrap());
        }
        let mut cluster = Cluster::new(cfg.build_partitioner().unwrap(), cfg.build_selector());
        for node in [0, 5, 6, 11] {
            cluster.fail_node(NodeId::new(node)).unwrap();
        }
        failed.report(&run_rate_simulation_on(&cfg, &mut cluster, 7).unwrap());
        identity.report(
            &run_rate_simulation_with(&cfg, &mut cluster, 3, &KeyMapping::Identity).unwrap(),
        );
    }
    let mut online = Digest::new();
    for cfg in online_grid() {
        online.report(&run_rate_simulation(&cfg).unwrap());
    }
    assert_eq!(
        oracle.hex(),
        "20c1a83d0677603c",
        "run_rate_simulation (oracle)"
    );
    assert_eq!(
        online.hex(),
        "98423029e1378570",
        "run_rate_simulation (online)"
    );
    assert_eq!(
        failed.hex(),
        "39b43d8628abc77f",
        "run_rate_simulation_on (failed nodes)"
    );
    assert_eq!(
        identity.hex(),
        "35dcb4937597b9c3",
        "run_rate_simulation_with (identity)"
    );
}

#[test]
fn golden_sampling_engines() {
    let (mut query, mut weighted, mut multi) = (Digest::new(), Digest::new(), Digest::new());
    let mixes = [
        CostModel::uniform(),
        CostModel::read_write(1.0, 4.0, 0.3).unwrap(),
        CostModel::read_write(0.5, 2.0, 0.9).unwrap(),
    ];
    for (i, cfg) in grid().iter().enumerate() {
        for kind in CacheKind::ALL {
            let cfg = cfg.to_builder().cache_kind(kind).build().unwrap();
            query.report(&run_query_simulation(&cfg, QUERIES).unwrap());
        }
        let cfg = cfg
            .to_builder()
            .cache_kind(CacheKind::ALL[i % CacheKind::ALL.len()])
            .build()
            .unwrap();
        for model in &mixes {
            weighted.report(&run_weighted_query_simulation(&cfg, QUERIES, model).unwrap());
        }
        for routing in [FrontendRouting::ByClient, FrontendRouting::ByKey] {
            for f in [1, 3] {
                let r = run_multi_frontend_simulation(&cfg, f, routing, QUERIES).unwrap();
                multi.report(&r.load);
                r.frontend_hit_rates.iter().for_each(|&h| multi.float(h));
                multi.word(r.total_resident as u64);
            }
        }
    }
    assert_eq!(query.hex(), "415fd45e0dd18fa7", "run_query_simulation");
    assert_eq!(
        weighted.hex(),
        "d955cbb40e1b3700",
        "run_weighted_query_simulation"
    );
    assert_eq!(
        multi.hex(),
        "eb0c8b4db86a967e",
        "run_multi_frontend_simulation"
    );
}

#[test]
fn golden_des() {
    let (mut plain, mut events) = (Digest::new(), Digest::new());
    for cfg in grid().into_iter().step_by(3) {
        let des = DesConfig {
            sim: cfg.to_builder().rate(300.0).build().unwrap(),
            duration: 2.0,
            service_rate: 25.0,
        };
        plain.des(&run_des(&des).unwrap());
        let schedule = [
            (0.3, 1, FailAction::Fail),
            (0.5, 4, FailAction::Fail),
            (0.9, 1, FailAction::Recover),
            (1.2, 7, FailAction::Fail),
            (1.2, 4, FailAction::Recover),
        ];
        let schedule: Vec<NodeEvent> = schedule
            .iter()
            .map(|&(at, node, action)| NodeEvent {
                at,
                node: NodeId::new(node),
                action,
            })
            .collect();
        events.des(&run_des_with_events(&des, &schedule).unwrap());
    }
    assert_eq!(plain.hex(), "e50e74c3d9484b81", "run_des");
    assert_eq!(events.hex(), "b6bf5e0f1a3d9318", "run_des_with_events");
}

#[test]
fn golden_assignments_and_sweep() {
    let (mut assigned, mut oracle, mut online) = (Digest::new(), Digest::new(), Digest::new());
    for cfg in grid() {
        for a in collect_assignments(&cfg, CACHE).unwrap() {
            assigned.word(a.key.value());
            assigned.word(u64::from(a.node.value()));
            assigned.float(a.rate);
            a.group
                .as_slice()
                .iter()
                .for_each(|n| assigned.word(u64::from(n.value())));
        }
        let cfg = with_pattern(
            &cfg,
            AccessPattern::uniform_subset(ITEMS / 2, ITEMS).unwrap(),
        );
        let mut sweep = RunSweep::new(&cfg, ITEMS).unwrap();
        let grid = [1, 20, 21, 22, 90, 400, ITEMS];
        for c in [0, CACHE, 100] {
            sweep
                .evaluate(c, &grid)
                .unwrap()
                .iter()
                .for_each(|r| oracle.report(r));
        }
        for eta in [0.0, 0.4, 1.0] {
            sweep
                .evaluate_online(CACHE, eta, &grid)
                .unwrap()
                .iter()
                .for_each(|r| online.report(r));
        }
    }
    assert_eq!(assigned.hex(), "7246c5af5fea4070", "collect_assignments");
    assert_eq!(oracle.hex(), "ccaeb136301c58f6", "RunSweep::evaluate");
    assert_eq!(
        online.hex(),
        "1328d529a1b906d1",
        "RunSweep::evaluate_online"
    );
}

//! Property tests over the simulation engines: conservation, bounds and
//! determinism must hold for *arbitrary* valid configurations, not just
//! the hand-picked ones in the unit tests.
//!
//! Cases are drawn from a seeded in-repo generator rather than an external
//! property-testing framework, so every failure reproduces exactly from the
//! constants below.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_sim::config::{AdmissionKind, CacheKind, PartitionerKind, SelectorKind, SimConfig};
use scp_sim::query_engine::run_query_simulation;
use scp_sim::rate_engine::run_rate_simulation;
use scp_workload::rng::{next_below, next_f64, Rng, Xoshiro256StarStar};
use scp_workload::AccessPattern;

const CASES: usize = 48;

fn arb_pattern(gen: &mut Xoshiro256StarStar, items: u64) -> AccessPattern {
    match next_below(gen, 3) {
        0 => {
            let x = 1 + next_below(gen, items);
            AccessPattern::uniform_subset(x, items).unwrap()
        }
        1 => {
            let a = 0.5 + (1.6 - 0.5) * next_f64(gen);
            AccessPattern::zipf(a, items).unwrap()
        }
        _ => AccessPattern::uniform(items).unwrap(),
    }
}

fn arb_config(gen: &mut Xoshiro256StarStar) -> SimConfig {
    let nodes = 2 + next_below(gen, 58) as usize;
    let replication = (1 + next_below(gen, 3) as usize).min(nodes);
    let items = 100 + next_below(gen, 1900);
    let cache_capacity = (next_below(gen, 50) as usize).min(items as usize);
    let seed = gen.next_u64();
    let partitioner = match next_below(gen, 3) {
        0 => PartitionerKind::Hash,
        1 => PartitionerKind::Ring,
        _ => PartitionerKind::Range,
    };
    let selector = match next_below(gen, 4) {
        0 => SelectorKind::Random,
        1 => SelectorKind::RoundRobin,
        2 => SelectorKind::LeastLoaded,
        _ => SelectorKind::PerQueryLeastLoaded,
    };
    let pattern = arb_pattern(gen, items);
    SimConfig {
        nodes,
        replication,
        cache_kind: CacheKind::Perfect,
        admission: AdmissionKind::Oracle,
        cache_capacity,
        items,
        rate: 1e4,
        pattern,
        partitioner,
        selector,
        seed,
    }
}

#[test]
fn prop_rate_engine_conserves_and_bounds() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0xE161_0001);
    for case in 0..CASES {
        let cfg = arb_config(&mut gen);
        let r = run_rate_simulation(&cfg).unwrap();
        // Conservation: cache + backend == offered (no failures here).
        assert!(r.is_conserved(1e-9), "case {case}: leaked load: {r:?}");
        assert_eq!(r.unserved, 0.0, "case {case}");
        // Gain cannot exceed n (everything on one node) and max load
        // cannot exceed total backend load.
        assert!(r.gain().value() <= cfg.nodes as f64 + 1e-9, "case {case}");
        assert!(r.max_load() <= r.snapshot.total() + 1e-9, "case {case}");
        // The cache can never absorb more than the offered rate.
        assert!(r.cache_load <= cfg.rate + 1e-9, "case {case}");
    }
}

#[test]
fn prop_rate_engine_deterministic() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0xE161_0002);
    for case in 0..CASES {
        let cfg = arb_config(&mut gen);
        let a = run_rate_simulation(&cfg).unwrap();
        let b = run_rate_simulation(&cfg).unwrap();
        assert_eq!(a, b, "case {case}: engine not deterministic");
    }
}

#[test]
fn prop_query_engine_conserves() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0xE161_0003);
    for case in 0..CASES {
        let cfg = arb_config(&mut gen);
        let queries = 2000u64;
        let r = run_query_simulation(&cfg, queries).unwrap();
        assert!(r.is_conserved(1e-12), "case {case}");
        let stats = r.cache_stats.unwrap();
        assert_eq!(stats.lookups(), queries, "case {case}");
        assert_eq!(stats.hits() as f64, r.cache_load, "case {case}");
        assert_eq!(
            r.snapshot.total(),
            (queries - stats.hits()) as f64,
            "case {case}"
        );
    }
}

#[test]
fn prop_bigger_cache_never_increases_backend_load() {
    let mut gen = Xoshiro256StarStar::seed_from_u64(0xE161_0004);
    for case in 0..CASES {
        let cfg = arb_config(&mut gen);
        let extra = 1 + next_below(&mut gen, 39) as usize;
        let small = run_rate_simulation(&cfg).unwrap();
        let mut bigger = cfg.clone();
        bigger.cache_capacity = (cfg.cache_capacity + extra).min(cfg.items as usize);
        let big = run_rate_simulation(&bigger).unwrap();
        assert!(
            big.snapshot.total() <= small.snapshot.total() + 1e-9,
            "case {case}: more cache increased backend load: {} -> {}",
            small.snapshot.total(),
            big.snapshot.total()
        );
    }
}

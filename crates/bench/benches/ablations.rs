//! Macro-benchmarks for the design-choice ablations: replica-selection
//! policies on the rate-engine hot path, and a full rebalancing pass.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_bench::bench_baseline;
use scp_bench::harness::Criterion;
use scp_bench::{criterion_group, criterion_main};
use scp_cluster::rebalance::{rebalance, RebalanceConfig};
use scp_sim::assignments::collect_assignments;
use scp_sim::config::SelectorKind;
use scp_sim::rate_engine::run_rate_simulation;
use scp_workload::AccessPattern;
use std::hint::black_box;

fn bench_selectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/selector_rate_run");
    group.sample_size(20);
    for kind in SelectorKind::ALL {
        let mut cfg = bench_baseline(0, AccessPattern::uniform_subset(20_000, 100_000).unwrap());
        cfg.cache_capacity = 0;
        cfg.selector = kind;
        group.bench_function(kind.name(), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut cfg = cfg.clone();
                cfg.seed = seed;
                black_box(run_rate_simulation(&cfg).expect("valid config"))
            });
        });
    }
    group.finish();
}

fn bench_rebalance(c: &mut Criterion) {
    let cfg = bench_baseline(0, AccessPattern::uniform_subset(20_000, 100_000).unwrap());
    let assignments = collect_assignments(&cfg, 0).expect("valid config");
    let mut group = c.benchmark_group("ablation/rebalance_pass");
    group.sample_size(20);
    group.bench_function("greedy_20k_keys_1k_nodes", |b| {
        b.iter(|| {
            black_box(rebalance(
                black_box(&assignments),
                cfg.nodes,
                &RebalanceConfig {
                    target_ratio: 1.001,
                    ..RebalanceConfig::default()
                },
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_selectors, bench_rebalance);
criterion_main!(benches);

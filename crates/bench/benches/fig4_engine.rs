//! Macro-benchmark: one Figure-4 rate run per access pattern
//! (uniform / Zipf(1.01) / adversarial) at the scaled baseline.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_bench::bench_baseline;
use scp_bench::harness::{Criterion, Throughput};
use scp_bench::{criterion_group, criterion_main};
use scp_sim::rate_engine::run_rate_simulation;
use scp_workload::AccessPattern;
use std::hint::black_box;

fn bench_fig4(c: &mut Criterion) {
    let items = 100_000u64;
    let cache = 100usize;
    let patterns = [
        ("uniform", AccessPattern::uniform(items).unwrap()),
        ("zipf_1.01", AccessPattern::zipf(1.01, items).unwrap()),
        (
            "adversarial",
            AccessPattern::uniform_subset(cache as u64 + 1, items).unwrap(),
        ),
    ];

    let mut group = c.benchmark_group("fig4/rate_run");
    group.sample_size(20);
    for (label, pattern) in patterns {
        let support = pattern.support_bound();
        let cfg = bench_baseline(cache, pattern);
        group.throughput(Throughput::Elements(support));
        group.bench_function(label, |b| {
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

criterion_group!(benches, bench_fig4);
criterion_main!(benches);

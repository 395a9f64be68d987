//! Macro-benchmark: one Figure-3 rate-propagation run (x-sweep hot path),
//! at the small-x and large-x extremes and for both panels' cache sizes.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_bench::harness::{Criterion, Throughput};
use scp_bench::{adversarial_pattern, bench_baseline};
use scp_bench::{criterion_group, criterion_main};
use scp_sim::rate_engine::run_rate_simulation;
use scp_workload::AccessPattern;
use std::hint::black_box;

fn bench_fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3/rate_run");
    group.sample_size(20);

    for (label, cache, x) in [
        ("panel_a_small_x", 200usize, 201u64),
        ("panel_a_large_x", 200, 100_000),
        ("panel_b_small_x", 2000, 2001),
        ("panel_b_large_x", 2000, 100_000),
    ] {
        let mut cfg = bench_baseline(cache, adversarial_pattern(cache));
        cfg.pattern = AccessPattern::uniform_subset(x, cfg.items).unwrap();
        group.throughput(Throughput::Elements(x));
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

criterion_group!(benches, bench_fig3);
criterion_main!(benches);

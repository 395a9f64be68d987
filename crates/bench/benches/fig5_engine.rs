//! Macro-benchmark: the Figure-5 best-response evaluation at one cache
//! size (both candidate plays of the adversary), plus the theory-side
//! provisioning computation for contrast.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_bench::harness::Criterion;
use scp_bench::{adversarial_pattern, bench_baseline};
use scp_bench::{criterion_group, criterion_main};
use scp_core::bounds::KParam;
use scp_core::provision::Provisioner;
use scp_sim::rate_engine::run_rate_simulation;
use scp_workload::AccessPattern;
use std::hint::black_box;

fn bench_fig5(c: &mut Criterion) {
    let cache = 1200usize; // near the critical point
    let mut group = c.benchmark_group("fig5/best_response");
    group.sample_size(20);

    let small = bench_baseline(cache, adversarial_pattern(cache));
    group.bench_function("x_eq_c_plus_1", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut cfg = small.clone();
            cfg.seed = seed;
            black_box(run_rate_simulation(&cfg).expect("valid config"))
        });
    });

    let mut whole = bench_baseline(cache, adversarial_pattern(cache));
    whole.pattern = AccessPattern::uniform_subset(whole.items, whole.items).unwrap();
    group.bench_function("x_eq_m", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut cfg = whole.clone();
            cfg.seed = seed;
            black_box(run_rate_simulation(&cfg).expect("valid config"))
        });
    });
    group.finish();

    // Theory is effectively free next to simulation; keep it visible.
    let mut theory = c.benchmark_group("fig5/theory");
    theory.bench_function("provision_report", |b| {
        let prov = Provisioner::with_k(KParam::paper_fitted());
        let params = small.system_params().unwrap();
        b.iter(|| black_box(prov.report(black_box(&params))));
    });
    theory.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);

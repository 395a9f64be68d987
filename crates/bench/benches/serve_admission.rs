//! Macro-benchmark: the admission path under its three policies — the
//! PerfectCache oracle, online W-TinyLFU admission, and the
//! proof-of-work shield at increasing difficulty (solver + verifier
//! cost, measured end to end through the deterministic engine).
//!
//! With `SCP_BENCH_SMOKE=1` (the CI smoke mode) the bench shrinks its
//! sample counts and then *enforces* the admission-layer floor: every
//! policy must sustain at least 1M queries/minute, or the process exits
//! non-zero.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_bench::harness::{Criterion, Throughput};
use scp_bench::{criterion_group, criterion_main};
use scp_serve::{run_deterministic, PowShield, ServeConfig};
use scp_sim::config::AdmissionKind;
use scp_sim::SimConfig;
use std::hint::black_box;

/// Queries each admission policy must move per minute in smoke mode.
const SMOKE_FLOOR_PER_MIN: f64 = 1e6;

fn smoke() -> bool {
    std::env::var_os("SCP_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// The smoke-gate system: 8 shards under the optimal `x = c + 1` attack
/// (the builder's `AttackHead` default), one admission knob varied per
/// scenario.
fn admission_config(total_queries: u64, admission: AdmissionKind, difficulty: u32) -> ServeConfig {
    let sim = SimConfig::builder()
        .nodes(8)
        .replication(3)
        .cache_capacity(64)
        .items(100_000)
        .rate(1e5)
        .admission(admission)
        .seed(0xAD_515)
        .build()
        .expect("bench shape is valid");
    let mut cfg = ServeConfig::new(sim);
    cfg.total_queries = total_queries;
    cfg.capacity_headroom = 1.5;
    cfg.pow = (difficulty > 0).then(|| PowShield::new(difficulty));
    cfg
}

fn bench_admission(c: &mut Criterion) {
    let (queries, samples) = if smoke() { (50_000, 3) } else { (200_000, 10) };

    let mut group = c.benchmark_group("serve/admission");
    group
        .sample_size(samples)
        .throughput(Throughput::Elements(queries));

    let scenarios = [
        ("oracle", AdmissionKind::Oracle, 0u32),
        ("online_tinylfu", AdmissionKind::Online, 0),
        ("pow_d8", AdmissionKind::Oracle, 8),
        ("pow_d12", AdmissionKind::Oracle, 12),
    ];
    for (name, admission, difficulty) in scenarios {
        let cfg = admission_config(queries, admission, difficulty);
        group.bench_function(name, |b| {
            b.iter(|| black_box(run_deterministic(&cfg).expect("deterministic run completes")))
        });
    }
    group.finish();

    if smoke() {
        for r in c.results() {
            let Some(Throughput::Elements(e)) = r.throughput else {
                continue;
            };
            let per_min = e as f64 * 60e9 / r.mean_ns;
            assert!(
                per_min >= SMOKE_FLOOR_PER_MIN,
                "{}: {per_min:.0} queries/min is below the 1M/min smoke floor",
                r.id
            );
            println!(
                "smoke gate: {} sustains {:.1}M queries/min (floor 1M)",
                r.id,
                per_min / 1e6
            );
        }
    }
}

criterion_group!(admission_benches, bench_admission);
criterion_main!(admission_benches);

//! Macro-benchmark: the live serving engine's query throughput at 1, 4
//! and 8 shards, for both the deterministic replay path and the full
//! threaded pipeline (clients → batch rings → admission → SPSC fan-out
//! → run-to-completion shard workers).
//!
//! With `SCP_BENCH_SMOKE=1` (the CI smoke mode) the bench shrinks its
//! sample counts and then *enforces* the serving-layer floors: the
//! 8-shard headline configurations must sustain at least 400M
//! queries/minute (the pre-batching ceiling, so the PR-9 win can never
//! silently regress), and every other shape at least 1M queries/minute.
//!
//! With `SCP_BENCH_BASELINE=1` (or a path) the results are written as
//! JSON — the committed `BENCH_serve.json` trajectory.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_bench::harness::{Criterion, Throughput};
use scp_bench::{criterion_group, criterion_main};
use scp_serve::{run_deterministic, run_threaded, ServeConfig};
use scp_sim::SimConfig;
use std::hint::black_box;

/// Queries/minute the 8-shard headline configs must move in smoke mode:
/// the ceiling of the pre-batching pipeline, which the lock-free intake
/// and batched admission must beat by construction.
const SMOKE_FLOOR_HEADLINE_PER_MIN: f64 = 4e8;

/// Queries/minute every other shape must move in smoke mode (the
/// original liveness floor; 1-shard threaded runs serialize the whole
/// pipeline onto one worker, so they get the lenient gate).
const SMOKE_FLOOR_PER_MIN: f64 = 1e6;

fn smoke() -> bool {
    std::env::var_os("SCP_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// A serving system under the optimal `x = c + 1` attack (the builder's
/// `AttackHead` default), shedding enabled so the hot shard sheds
/// instead of queueing without bound.
fn shard_config(shards: usize, total_queries: u64) -> ServeConfig {
    let sim = SimConfig::builder()
        .nodes(shards)
        .replication(shards.min(3))
        .cache_capacity(64)
        .items(100_000)
        .rate(1e5)
        .seed(0x5E4E)
        .build()
        .expect("bench shape is valid");
    let mut cfg = ServeConfig::new(sim);
    cfg.total_queries = total_queries;
    cfg.capacity_headroom = 1.5;
    cfg
}

fn bench_serve(c: &mut Criterion) {
    let (queries, samples) = if smoke() { (50_000, 3) } else { (200_000, 10) };

    for shards in [1usize, 4, 8] {
        let mut group = c.benchmark_group(format!("serve/{shards}_shards"));
        group
            .sample_size(samples)
            .throughput(Throughput::Elements(queries));

        let cfg = shard_config(shards, queries);
        group.bench_function("deterministic", |b| {
            b.iter(|| black_box(run_deterministic(&cfg).expect("deterministic run completes")))
        });
        group.bench_function("threaded", |b| {
            b.iter(|| black_box(run_threaded(&cfg).expect("threaded run completes")))
        });
        group.finish();
    }

    if smoke() {
        for r in c.results() {
            let Some(Throughput::Elements(e)) = r.throughput else {
                continue;
            };
            let per_min = e as f64 * 60e9 / r.mean_ns;
            let floor = if r.id.starts_with("serve/8_shards/") {
                SMOKE_FLOOR_HEADLINE_PER_MIN
            } else {
                SMOKE_FLOOR_PER_MIN
            };
            assert!(
                per_min >= floor,
                "{}: {per_min:.0} queries/min is below the {floor:.0}/min smoke floor",
                r.id
            );
            println!(
                "smoke gate: {} sustains {:.1}M queries/min (floor {:.0}M)",
                r.id,
                per_min / 1e6,
                floor / 1e6
            );
        }
    }

    c.write_baseline(std::env::var_os("SCP_BENCH_BASELINE"), "BENCH_serve.json")
        .expect("baseline path is writable");
}

criterion_group!(serve_benches, bench_serve);
criterion_main!(serve_benches);

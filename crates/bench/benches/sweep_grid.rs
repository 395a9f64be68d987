//! Macro-benchmark: the incremental `(x, c)` sweep engine against the
//! per-point rate engine on a Figure-3-shaped grid, plus the amortized
//! cost of re-walking an already-built sweep (the critical-size probe
//! path).
//!
//! With `SCP_BENCH_SMOKE=1` (the CI smoke mode) the bench shrinks its
//! sample counts and then *enforces* the sweep floor: the full-run sweep
//! path must clear a minimum number of grid points per second, or the
//! process exits non-zero.
//!
//! With `SCP_BENCH_BASELINE=1` (or a path) the results are written as
//! JSON — the committed `BENCH_sweep.json` trajectory.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_bench::harness::{Criterion, Throughput};
use scp_bench::{adversarial_pattern, bench_baseline, criterion_group, criterion_main};
use scp_sim::rate_engine::run_rate_simulation;
use scp_sim::sweep::RunSweep;
use std::hint::black_box;

/// Grid points per second the full-run sweep must sustain in smoke mode.
/// Measured ~2k/s on CI-class hardware; the floor leaves 10x headroom.
const SMOKE_FLOOR_POINTS_PER_SEC: f64 = 200.0;

fn smoke() -> bool {
    std::env::var_os("SCP_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Figure-3-shaped geometric grid from `c + 1` to `m`, deduplicated.
fn log_grid(cache: usize, items: u64, points: usize) -> Vec<u64> {
    let lo = cache as u64 + 1;
    let (flo, fhi) = (lo as f64, items as f64);
    let mut out: Vec<u64> = (0..points)
        .map(|i| {
            let t = i as f64 / (points - 1) as f64;
            (flo * (fhi / flo).powf(t)).round() as u64
        })
        .collect();
    out[0] = lo;
    *out.last_mut().expect("non-empty") = items;
    out.dedup();
    out
}

fn bench_sweep_grid(c: &mut Criterion) {
    let samples = if smoke() { 3 } else { 10 };
    let cache = 200usize;
    let base = bench_baseline(cache, adversarial_pattern(cache));
    let grid = log_grid(cache, base.items, 15);

    let mut group = c.benchmark_group("sweep_grid/fig3_shape");
    group
        .sample_size(samples)
        .throughput(Throughput::Elements(grid.len() as u64));

    // The sweep path as the repro drivers use it: build the per-run
    // routing structure, then walk the whole grid once.
    group.bench_function("sweep_full_run", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut cfg = base.clone();
            cfg.seed = seed;
            let mut sweep = RunSweep::new(&cfg, cfg.items).expect("valid sweep");
            black_box(sweep.evaluate(cache, &grid).expect("valid grid"))
        });
    });

    // The bisection-probe path: the routing structure already exists and
    // only the incremental walk remains.
    group.bench_function("sweep_rewalk", |b| {
        let mut sweep = RunSweep::new(&base, base.items).expect("valid sweep");
        b.iter(|| black_box(sweep.evaluate(cache, &grid).expect("valid grid")));
    });

    // The pre-sweep path: one full rate simulation per grid point.
    group.bench_function("per_point_engine", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            for &x in &grid {
                let mut cfg = base.to_builder().attack_x(x).build().expect("valid config");
                cfg.seed = seed;
                black_box(run_rate_simulation(&cfg).expect("valid config"));
            }
        });
    });
    group.finish();

    let mean_of = |suffix: &str| {
        c.results()
            .iter()
            .find(|r| r.id.ends_with(suffix))
            .map(|r| r.mean_ns)
            .expect("bench ran")
    };
    let speedup = mean_of("per_point_engine") / mean_of("sweep_full_run");
    println!("sweep_full_run is {speedup:.1}x faster than per_point_engine on this grid");

    if smoke() {
        let mean = mean_of("sweep_full_run");
        let points_per_sec = grid.len() as f64 * 1e9 / mean;
        assert!(
            points_per_sec >= SMOKE_FLOOR_POINTS_PER_SEC,
            "sweep_full_run: {points_per_sec:.0} grid points/s is below the \
             {SMOKE_FLOOR_POINTS_PER_SEC} floor"
        );
        println!(
            "smoke gate: sweep_full_run sustains {points_per_sec:.0} grid points/s \
             (floor {SMOKE_FLOOR_POINTS_PER_SEC})"
        );
    }

    c.write_baseline(std::env::var_os("SCP_BENCH_BASELINE"), "BENCH_sweep.json")
        .expect("baseline path is writable");
}

criterion_group!(sweep_benches, bench_sweep_grid);
criterion_main!(sweep_benches);

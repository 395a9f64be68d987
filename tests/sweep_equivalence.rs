//! The incremental sweep engine against the per-point rate engine.
//!
//! The sweep promises **bit-identical** reports (exact `f64` equality,
//! not tolerance-equal): for equal-rate patterns every accumulator in the
//! per-point engine is fed the same addend repeatedly, so its final value
//! is a pure function of the addend count and can be reconstructed from
//! integer counts (see `scp_sim::sweep` module docs for the summation
//! order argument). These tests pin that promise across selectors,
//! partitioners, seeds and the grid boundaries the paper's artifacts
//! exercise — `x = c + 1` and `c = 0` included.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use secure_cache_provision::prelude::*;
use secure_cache_provision::sim::sweep::{repeat_sweep_journaled, RunSweep, SweepPoint};

fn base(
    selector: SelectorKind,
    partitioner: PartitionerKind,
    cache: usize,
    seed: u64,
) -> SimConfig {
    base_with_replication(selector, partitioner, 3, cache, seed)
}

fn base_with_replication(
    selector: SelectorKind,
    partitioner: PartitionerKind,
    replication: usize,
    cache: usize,
    seed: u64,
) -> SimConfig {
    SimConfig::builder()
        .nodes(60)
        .replication(replication)
        .items(3_000)
        .rate(1e4)
        .cache_capacity(cache)
        .partitioner(partitioner)
        .selector(selector)
        .seed(seed)
        .build()
        .unwrap()
}

fn per_point(cfg: &SimConfig, c: usize, x: u64) -> LoadReport {
    let point = cfg
        .to_builder()
        .cache_capacity(c)
        .attack_x(x)
        .build()
        .unwrap();
    run_rate_simulation(&point).unwrap()
}

const SELECTORS: [SelectorKind; 4] = [
    SelectorKind::LeastLoaded,
    SelectorKind::Random,
    SelectorKind::RoundRobin,
    SelectorKind::PerQueryLeastLoaded,
];

/// Walks the `x = c + 1` boundary, interior points and `x = m` of one
/// config at cache `cache` and asserts every report equals the per-point
/// engine's.
fn assert_sweep_matches_per_point(cfg: &SimConfig, cache: usize) {
    let mut sweep = RunSweep::new(cfg, cfg.items).unwrap();
    let grid: Vec<u64> = [cache as u64 + 1, 40, 500, 3_000]
        .into_iter()
        .filter(|&x| x > cache as u64)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let reports = sweep.evaluate(cache, &grid).unwrap();
    for (&x, report) in grid.iter().zip(&reports) {
        assert_eq!(
            report,
            &per_point(cfg, cache, x),
            "mismatch at {:?}/{:?}/d={}/seed={}/c={cache}/x={x}",
            cfg.selector,
            cfg.partitioner,
            cfg.replication,
            cfg.seed
        );
    }
}

#[test]
fn sweep_is_bit_identical_across_selectors_partitioners_and_seeds() {
    for &selector in &SELECTORS {
        for partitioner in PartitionerKind::ALL {
            for seed in [0u64, 7, 0xDEAD_BEEF] {
                for cache in [0usize, 25] {
                    assert_sweep_matches_per_point(
                        &base(selector, partitioner, cache, seed),
                        cache,
                    );
                }
            }
        }
    }
}

#[test]
fn sweep_is_bit_identical_at_other_replication_factors() {
    // The walk and the hash partitioner's batch kernel read groups of a
    // length fixed at compile time at d = 3 and of a runtime length at
    // every other d. Both must match the engine.
    for replication in [2usize, 4, 5] {
        for &selector in &SELECTORS {
            for partitioner in PartitionerKind::ALL {
                for cache in [0usize, 25] {
                    let cfg = base_with_replication(selector, partitioner, replication, cache, 11);
                    assert_sweep_matches_per_point(&cfg, cache);
                }
            }
        }
    }
}

#[test]
fn one_walk_covers_multiple_cache_sizes_bit_identically() {
    // The same RunSweep evaluated at several cache sizes (as the
    // critical-size bisection does) keeps matching the per-point engine,
    // including the fully-cached x <= c degenerate corner.
    let cfg = base(SelectorKind::LeastLoaded, PartitionerKind::Hash, 10, 42);
    let mut sweep = RunSweep::new(&cfg, cfg.items).unwrap();
    for c in [0usize, 1, 10, 100, 1_000] {
        let grid = [c as u64 + 1, 2_000, 3_000];
        let reports = sweep.evaluate(c, &grid).unwrap();
        for (&x, report) in grid.iter().zip(&reports) {
            assert_eq!(report, &per_point(&cfg, c, x), "c={c} x={x}");
        }
    }
}

#[test]
fn journaled_sweep_is_identical_at_one_and_eight_threads() {
    let cfg = base(SelectorKind::LeastLoaded, PartitionerKind::Hash, 20, 9);
    let points = [
        SweepPoint { cache: 20, x: 21 },
        SweepPoint {
            cache: 20,
            x: 3_000,
        },
        SweepPoint { cache: 0, x: 1 },
        SweepPoint { cache: 0, x: 3_000 },
    ];
    let rule = StopRule::adaptive(4, 12, 0.3);
    let a = repeat_sweep_journaled(&cfg, &points, &rule, 1).unwrap();
    let b = repeat_sweep_journaled(&cfg, &points, &rule, 8).unwrap();
    assert_eq!(a.len(), b.len());
    for (left, right) in a.iter().zip(&b) {
        assert_eq!(left.point, right.point);
        assert_eq!(left.journaled.reports, right.journaled.reports);
        assert_eq!(left.journaled.aggregate, right.journaled.aggregate);
        assert_eq!(
            left.journaled.journal.stopping,
            right.journaled.journal.stopping
        );
    }
}

#[test]
fn journal_seeds_replay_through_the_per_point_engine() {
    // Every journal record's seed must reproduce that run's report when
    // fed back through run_rate_simulation — the observability contract
    // the per-point path has always offered.
    let cfg = base(SelectorKind::LeastLoaded, PartitionerKind::Hash, 15, 77);
    let points = [
        SweepPoint { cache: 15, x: 16 },
        SweepPoint {
            cache: 15,
            x: 3_000,
        },
    ];
    let swept = repeat_sweep_journaled(&cfg, &points, &StopRule::fixed(3), 0).unwrap();
    for run in &swept {
        let point_cfg = cfg
            .to_builder()
            .cache_capacity(run.point.cache)
            .attack_x(run.point.x)
            .build()
            .unwrap();
        for (record, report) in run
            .journaled
            .journal
            .records
            .iter()
            .zip(&run.journaled.reports)
        {
            let replayed = run_rate_simulation(&point_cfg.for_run(record.run as u64)).unwrap();
            assert_eq!(&replayed, report, "record seed failed to replay");
            assert_eq!(record.seed, point_cfg.for_run(record.run as u64).seed);
        }
    }
}

#[test]
fn batched_key_mapping_equals_scalar_apply_at_paper_scale() {
    // `RunSweep::new`, the sampled front end and the rate loop map ranks
    // with `apply_batch`; each rank must get the key `apply` gives it on
    // the lane-3 mapping of m = 10^5, through the round table's arming
    // point (the 4096-rank prefix) and across the whole domain.
    for seed in [1u64, 2, 3001] {
        let cfg = SimConfig::builder()
            .items(100_000)
            .seed(seed)
            .build()
            .unwrap();
        let scalar = cfg.key_mapping().unwrap();
        let batched = cfg.key_mapping().unwrap();
        let mut ranks: Vec<u64> = (0..4096).chain((0..100_000).step_by(89)).collect();
        ranks.push(99_999);
        let want: Vec<u64> = ranks.iter().map(|&r| scalar.apply(r)).collect();
        for chunk in ranks.chunks_mut(1000) {
            batched.apply_batch(chunk);
        }
        assert_eq!(ranks, want, "seed {seed}");
    }
}

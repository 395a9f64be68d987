//! Reproducibility guarantees: every engine is a pure function of its
//! seed, and parallel repetition never leaks thread scheduling.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use secure_cache_provision::prelude::*;
use secure_cache_provision::sim::des::{run_des, DesConfig};
use secure_cache_provision::sim::runner::{repeat, repeat_rate_simulation};
use secure_cache_provision::workload::stream::QueryStream;

fn config(seed: u64) -> SimConfig {
    SimConfig::builder()
        .nodes(60)
        .cache_capacity(15)
        .items(5_000)
        .rate(1e4)
        .pattern(AccessPattern::zipf(1.01, 5_000).unwrap())
        .partitioner(PartitionerKind::Ring)
        .seed(seed)
        .build()
        .expect("test config is valid")
}

#[test]
fn rate_engine_is_seed_deterministic() {
    assert_eq!(
        run_rate_simulation(&config(9)).unwrap(),
        run_rate_simulation(&config(9)).unwrap()
    );
    assert_ne!(
        run_rate_simulation(&config(9)).unwrap().snapshot,
        run_rate_simulation(&config(10)).unwrap().snapshot
    );
}

#[test]
fn query_engine_is_seed_deterministic() {
    let mut cfg = config(11);
    cfg.cache_kind = CacheKind::TinyLfu;
    assert_eq!(
        run_query_simulation(&cfg, 30_000).unwrap(),
        run_query_simulation(&cfg, 30_000).unwrap()
    );
}

#[test]
fn des_engine_is_seed_deterministic() {
    let des = DesConfig {
        sim: config(12),
        duration: 3.0,
        service_rate: 400.0,
    };
    assert_eq!(run_des(&des).unwrap(), run_des(&des).unwrap());
}

#[test]
fn parallel_repetitions_are_schedule_independent() {
    let cfg = config(13);
    let (one_thread, one_agg) = repeat_rate_simulation(&cfg, 10, 1).unwrap();
    let (eight_threads, eight_agg) = repeat_rate_simulation(&cfg, 10, 8).unwrap();
    assert_eq!(one_thread, eight_threads);
    // The gain aggregate is a pure function of the reports, so it must
    // also be bit-identical across thread counts.
    assert_eq!(one_agg, eight_agg);
}

#[test]
fn generic_repeat_is_schedule_independent() {
    // The raw fan-out primitive, not just the rate-simulation wrapper:
    // per-run values must land at their run index regardless of workers.
    let job = |i: usize| (i, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let serial = repeat(23, 1, job);
    let parallel = repeat(23, 8, job);
    assert_eq!(serial, parallel);
    assert!(serial.iter().enumerate().all(|(i, &(j, _))| i == j));
}

#[test]
fn adaptive_stopping_is_schedule_independent() {
    // The CI-driven stop point is decided on run-order prefixes, so the
    // kept reports, the journal and the stopping metadata must all be
    // independent of worker count.
    let cfg = config(16);
    let rule = StopRule::adaptive(4, 24, 0.05);
    let a = repeat_rate_simulation_journaled(&cfg, &rule, 1).unwrap();
    let b = repeat_rate_simulation_journaled(&cfg, &rule, 8).unwrap();
    assert_eq!(a.reports, b.reports);
    assert_eq!(a.journal.stopping, b.journal.stopping);
    // Journal records carry wall-clock durations, which are the one field
    // allowed to differ across schedules; everything else must match.
    assert_eq!(a.journal.len(), b.journal.len());
    for (ra, rb) in a.journal.records.iter().zip(&b.journal.records) {
        assert_eq!(ra.run, rb.run);
        assert_eq!(ra.seed, rb.seed);
        assert_eq!(ra.max_load, rb.max_load);
        assert_eq!(ra.mean_load, rb.mean_load);
        assert_eq!(ra.cache_fraction, rb.cache_fraction);
        assert_eq!(ra.gain, rb.gain);
    }
}

#[test]
fn zero_ci_target_degenerates_to_fixed_runs() {
    // ci_target = 0 must reproduce the historical fixed-count behavior
    // exactly: same reports as plain repetition, no early stop.
    let cfg = config(17);
    let rule = StopRule {
        min_runs: 4,
        max_runs: 12,
        ci_target: 0.0,
    };
    let adaptive_off = repeat_rate_simulation_journaled(&cfg, &rule, 4).unwrap();
    let (fixed, _) = repeat_rate_simulation(&cfg, 12, 4).unwrap();
    assert_eq!(adaptive_off.reports, fixed);
    assert_eq!(adaptive_off.journal.len(), 12);
    assert!(!adaptive_off.journal.stopping.stopped_early);
}

#[test]
fn workload_streams_are_seed_deterministic() {
    let p = AccessPattern::zipf(1.2, 100_000).unwrap();
    let a: Vec<u64> = QueryStream::scattered(&p, 42).unwrap().take(200).collect();
    let b: Vec<u64> = QueryStream::scattered(&p, 42).unwrap().take(200).collect();
    assert_eq!(a, b);
}

#[test]
fn engines_do_not_share_random_state() {
    // Running the rate engine must not perturb a subsequent query-engine
    // run with the same seed (no global RNG anywhere).
    let cfg = config(14);
    let before = run_query_simulation(&cfg, 10_000).unwrap();
    let _ = run_rate_simulation(&cfg).unwrap();
    let _ = run_rate_simulation(&config(15)).unwrap();
    let after = run_query_simulation(&cfg, 10_000).unwrap();
    assert_eq!(before, after);
}

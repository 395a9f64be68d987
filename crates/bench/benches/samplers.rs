//! Micro-benchmarks: workload generation primitives.
//!
//! With `SCP_BENCH_BASELINE=1` (or a path) the results are written as
//! JSON — `BENCH_samplers.json` at the repo root is the committed
//! trajectory.

use scp_bench::harness::{Criterion, Throughput};
use scp_bench::{criterion_group, criterion_main};
use scp_workload::alias::AliasSampler;
use scp_workload::permute::{FeistelPermutation, KeyMapping};
use scp_workload::rng::{next_below, Xoshiro256StarStar};
use scp_workload::stream::QueryStream;
use scp_workload::zipf::ZipfSampler;
use scp_workload::AccessPattern;
use std::hint::black_box;

/// Domain of the Feistel benches (`half_bits = 9`, 4 KB round table).
const FEISTEL_M: u64 = 100_000;

/// Applies after which a fresh `FEISTEL_M` permutation has certainly
/// armed: the break-even count is `1 << half_bits = 512` passes and every
/// apply is at least one pass, so the 513th apply finds the count reached
/// and fills the table.
const FEISTEL_ARMING_APPLIES: u64 = 513;

fn bench_samplers(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload/sample");
    // 100 timed batches of 2-4 ms per row, about 4 s for the ten rows:
    // at the harness default of 10 a round takes 0.4 s and its rows move
    // by up to 70 % from round to round (EXPERIMENTS.md).
    group.sample_size(150);
    group.throughput(Throughput::Elements(1));

    group.bench_function("zipf_rejection_inversion", |b| {
        let zipf = ZipfSampler::new(1.01, 1_000_000).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        b.iter(|| black_box(zipf.sample(&mut rng)));
    });

    group.bench_function("alias_table", |b| {
        let weights: Vec<f64> = (1..=10_000).map(|i| 1.0 / i as f64).collect();
        let alias = AliasSampler::new(&weights).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        b.iter(|| black_box(alias.sample(&mut rng)));
    });

    group.bench_function("uniform_below", |b| {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        b.iter(|| black_box(next_below(&mut rng, 1_000_000)));
    });

    // Steady state: a long-lived permutation, round table armed during
    // calibration. m = 10^5 is the scale every engine and scp-e2e run at.
    group.bench_function("feistel_apply", |b| {
        let perm = FeistelPermutation::new(FEISTEL_M, 4).unwrap();
        let mut rank = 0u64;
        b.iter(|| {
            rank = (rank + 1) % FEISTEL_M;
            black_box(perm.apply(black_box(rank)))
        });
    });

    // A serving stream's key generation: a sampled rank pushed through a
    // long-lived scattered mapping, after calibration has warmed the
    // stream and armed the permutation's round table. Uniform over the
    // whole domain draws the key directly; uniform over all but one key
    // still walks the permutation for every rank past the head table.
    for (name, pattern) in [
        (
            "stream_next_key_zipf",
            AccessPattern::zipf(0.99, FEISTEL_M).unwrap(),
        ),
        (
            "stream_next_key_uniform",
            AccessPattern::uniform(FEISTEL_M).unwrap(),
        ),
        (
            "stream_next_key_walk",
            AccessPattern::uniform_subset(FEISTEL_M - 1, FEISTEL_M).unwrap(),
        ),
    ] {
        group.bench_function(name, |b| {
            let mapping = KeyMapping::scattered(FEISTEL_M, 4).unwrap();
            let mut stream = QueryStream::with_mapping(&pattern, 6, mapping).unwrap();
            b.iter(|| black_box(stream.next_key()));
        });
    }

    // The same steady state through the batch walk: 256 random ranks
    // (one `apply_batch` chunk) per iteration, reported per rank.
    group.throughput(Throughput::Elements(256));
    group.bench_function("feistel_apply_batch", |b| {
        let perm = FeistelPermutation::new(FEISTEL_M, 4).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut lanes = [0u64; 256];
        b.iter(|| {
            for lane in &mut lanes {
                *lane = next_below(&mut rng, FEISTEL_M);
            }
            perm.apply_batch(black_box(&mut lanes));
            black_box(lanes[0])
        });
    });

    // The oracle-seeding shape that a run's set-up sees: a fresh
    // permutation and 64 applies, below the break-even count, so every
    // round is computed and no table is ever built.
    group.throughput(Throughput::Elements(64));
    group.bench_function("feistel_apply_unarmed", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let perm = FeistelPermutation::new(FEISTEL_M, seed).unwrap();
            (0..64).fold(0, |acc, rank| acc ^ perm.apply(black_box(rank)))
        });
    });

    // One whole life up to arming: a fresh permutation driven just past
    // the break-even count, i.e. the compute-path applies that earn the
    // table plus the fill itself (the cost a long-lived instance pays once).
    group.throughput(Throughput::Elements(1));
    group.bench_function("feistel_build_table", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let perm = FeistelPermutation::new(FEISTEL_M, seed).unwrap();
            (0..FEISTEL_ARMING_APPLIES).fold(0, |acc, rank| acc ^ perm.apply(black_box(rank)))
        });
    });

    group.finish();

    c.write_baseline(
        std::env::var_os("SCP_BENCH_BASELINE"),
        "BENCH_samplers.json",
    )
    .expect("baseline path is writable");
}

criterion_group!(benches, bench_samplers);
criterion_main!(benches);

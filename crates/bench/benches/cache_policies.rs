//! Micro-benchmarks: one cache request per policy under Zipf traffic.
//!
//! With `SCP_BENCH_BASELINE=1` (or a path) the results are written as
//! JSON — `BENCH_cache.json` at the repo root is the committed
//! trajectory.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_bench::harness::{Criterion, Throughput};
use scp_bench::{criterion_group, criterion_main};
use scp_cache::{
    arc::ArcCache, clock::ClockCache, fifo::FifoCache, lfu::LfuCache, lru::LruCache,
    perfect::PerfectCache, slru::SlruCache, tinylfu::TinyLfuCache, Cache,
};
use scp_workload::rng::Xoshiro256StarStar;
use scp_workload::zipf::ZipfSampler;
use std::hint::black_box;

const CAPACITY: usize = 1024;
const KEYS: u64 = 100_000;

fn workload(len: usize) -> Vec<u64> {
    let zipf = ZipfSampler::new(1.01, KEYS).unwrap();
    let mut rng = Xoshiro256StarStar::seed_from_u64(99);
    (0..len).map(|_| zipf.sample(&mut rng)).collect()
}

fn drive<C: Cache<u64>>(cache: &mut C, keys: &[u64]) -> u64 {
    let mut hits = 0;
    for &k in keys {
        if cache.request(k).is_hit() {
            hits += 1;
        }
    }
    hits
}

fn bench_caches(c: &mut Criterion) {
    let keys = workload(10_000);
    let mut group = c.benchmark_group("cache/request_zipf");
    group.throughput(Throughput::Elements(keys.len() as u64));

    group.bench_function("perfect", |b| {
        let mut cache = PerfectCache::new(CAPACITY, 0..CAPACITY as u64);
        b.iter(|| black_box(drive(&mut cache, &keys)));
    });
    group.bench_function("lru", |b| {
        let mut cache = LruCache::new(CAPACITY);
        b.iter(|| black_box(drive(&mut cache, &keys)));
    });
    group.bench_function("lfu", |b| {
        let mut cache = LfuCache::new(CAPACITY);
        b.iter(|| black_box(drive(&mut cache, &keys)));
    });
    group.bench_function("fifo", |b| {
        let mut cache = FifoCache::new(CAPACITY);
        b.iter(|| black_box(drive(&mut cache, &keys)));
    });
    group.bench_function("clock", |b| {
        let mut cache = ClockCache::new(CAPACITY);
        b.iter(|| black_box(drive(&mut cache, &keys)));
    });
    group.bench_function("slru", |b| {
        let mut cache = SlruCache::new(CAPACITY);
        b.iter(|| black_box(drive(&mut cache, &keys)));
    });
    group.bench_function("tinylfu", |b| {
        let mut cache = TinyLfuCache::new(CAPACITY);
        b.iter(|| black_box(drive(&mut cache, &keys)));
    });
    group.bench_function("arc", |b| {
        let mut cache = ArcCache::new(CAPACITY);
        b.iter(|| black_box(drive(&mut cache, &keys)));
    });
    group.finish();

    c.write_baseline(std::env::var_os("SCP_BENCH_BASELINE"), "BENCH_cache.json")
        .expect("baseline path is writable");
}

criterion_group!(benches, bench_caches);
criterion_main!(benches);

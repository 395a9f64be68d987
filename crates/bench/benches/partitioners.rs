//! Micro-benchmarks: replica-group lookups per partitioning scheme.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_bench::harness::{Criterion, Throughput};
use scp_bench::{criterion_group, criterion_main};
use scp_cluster::ids::KeyId;
use scp_cluster::partition::{
    ConsistentHashRing, HashPartitioner, Partitioner, RangePartitioner, RendezvousPartitioner,
};
use std::hint::black_box;

fn bench_partitioners(c: &mut Criterion) {
    let n = 1000;
    let d = 3;
    let schemes: Vec<(&str, Box<dyn Partitioner>)> = vec![
        ("hash", Box::new(HashPartitioner::new(n, d, 7).unwrap())),
        ("ring", Box::new(ConsistentHashRing::new(n, d, 7).unwrap())),
        (
            "rendezvous",
            Box::new(RendezvousPartitioner::new(n, d, 7).unwrap()),
        ),
        (
            "range",
            Box::new(RangePartitioner::new(n, d, 1_000_000).unwrap()),
        ),
    ];
    let mut group = c.benchmark_group("partitioner/replica_group");
    group.throughput(Throughput::Elements(1));
    for (name, p) in &schemes {
        group.bench_function(*name, |b| {
            let mut key = 0u64;
            b.iter(|| {
                key = key.wrapping_add(0x9E37_79B9);
                black_box(p.replica_group(KeyId::new(black_box(key))))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partitioners);
criterion_main!(benches);

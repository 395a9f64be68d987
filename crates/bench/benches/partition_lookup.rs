//! Macro-benchmark: replica-group lookup throughput for every
//! [`PartitionerSpec`] scheme at cluster scale, and of the hash scheme's
//! batch form ([`append_replica_groups`]), plus the cost of the
//! live [`rebuild`] seam (the operation `scp-serve` performs at an
//! epoch boundary, while queries are waiting), and of one whole routing
//! decision through the sticky least-loaded selector.
//!
//! With `SCP_BENCH_SMOKE=1` (the CI smoke mode) the bench shrinks its
//! sample counts and then *enforces* a lookup floor on the multi-probe
//! scheme — the default elastic partitioner must stay cheap enough to
//! sit on the admission hot path.
//!
//! With `SCP_BENCH_BASELINE=1` (or a path) the results are written as
//! JSON — the committed `BENCH_partition.json` trajectory.
//!
//! [`rebuild`]: scp_cluster::Partitioner::rebuild
//! [`append_replica_groups`]: scp_cluster::Partitioner::append_replica_groups

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_bench::harness::{Criterion, Throughput};
use scp_bench::{criterion_group, criterion_main};
use scp_cluster::select::LeastLoadedSelector;
use scp_cluster::{Cluster, KeyId, NodeId, PartitionerKind, PartitionerSpec, Topology};
use scp_workload::fasthash::FastBuildHasher;
use std::hint::black_box;

/// Lookups per second the multi-probe scheme must sustain in smoke
/// mode. Measured well above 1M/s on CI-class hardware; the floor
/// leaves ample headroom for noisy runners.
const SMOKE_FLOOR_LOOKUPS_PER_SEC: f64 = 100_000.0;

/// Keys per call of the batched lookup row.
const BATCH_KEYS: usize = 256;

fn smoke() -> bool {
    std::env::var_os("SCP_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn bench_partition_lookup(c: &mut Criterion) {
    let samples = if smoke() { 10 } else { 30 };
    let n = 1000usize;
    let d = 3usize;

    let items = 1_000_000u64;
    let build = |kind: PartitionerKind| {
        PartitionerSpec::new(kind)
            .nodes(n)
            .replication(d)
            .items(items)
            .seed(7)
            .build()
            .expect("valid spec")
    };

    let mut group = c.benchmark_group("partition_lookup/replica_group");
    group
        .sample_size(samples)
        .throughput(Throughput::Elements(1));
    for kind in PartitionerKind::ALL {
        let p = build(kind);
        group.bench_function(kind.name(), |b| {
            let mut key = 0u64;
            b.iter(|| {
                key = key.wrapping_add(0x9E37_79B9);
                black_box(p.replica_group(KeyId::new(black_box(key))))
            });
        });
    }
    group.finish();

    // The batch form on the hash partitioner: one call appends the
    // groups of 256 keys (one `RunSweep::new` batch), walking the same
    // key sequence as `replica_group/hash`; `per_sec` counts keys.
    let mut group = c.benchmark_group("partition_lookup/replica_groups_batch");
    group
        .sample_size(samples)
        .throughput(Throughput::Elements(BATCH_KEYS as u64));
    let p = build(PartitionerKind::Hash);
    group.bench_function("hash", |b| {
        let mut keys = [0u64; BATCH_KEYS];
        let mut groups = Vec::with_capacity(BATCH_KEYS * d);
        let mut key = 0u64;
        b.iter(|| {
            for slot in &mut keys {
                key = key.wrapping_add(0x9E37_79B9);
                *slot = key;
            }
            groups.clear();
            p.append_replica_groups(black_box(&keys), &mut groups);
            black_box(&groups);
        });
    });
    group.finish();

    // The epoch-boundary path: one join applied through rebuild. This
    // is the latency a reshard adds before rerouting can begin.
    let mut joined = Topology::with_nodes(n).expect("dense topology");
    joined.join(NodeId::new(n as u32)).expect("fresh id");
    let base = Topology::with_nodes(n).expect("dense topology");
    let mut group = c.benchmark_group("partition_lookup/rebuild_join");
    group
        .sample_size(samples)
        .throughput(Throughput::Elements(1));
    for kind in PartitionerKind::ALL {
        let mut p = build(kind);
        group.bench_function(kind.name(), |b| {
            let mut grow = true;
            b.iter(|| {
                let target = if grow { &joined } else { &base };
                grow = !grow;
                p.rebuild(black_box(target)).expect("valid topology");
                black_box(&p);
            });
        });
    }
    group.finish();

    // `Cluster::route_query` under the selector every serve workload
    // runs, over the hash partitioner so selection dominates. Keys walk
    // 0..m by an odd stride that is not a multiple of 5, a permutation
    // of 0..10⁶. `first_touch` pins a fresh key on every query (the
    // cluster is reset after each full pass, inside the timing);
    // `pinned` re-reads the pins a warm-up pass made.
    // `pinned_after_reshard` does the same on the multi-probe scheme
    // after one join reshard and one pass that re-checks every pin in
    // the new epoch: it should cost what `pinned` costs.
    let stride = 0x9E37_79B9u64;
    let route_cluster_on = |kind: PartitionerKind| {
        Cluster::new(
            build(kind),
            Box::new(LeastLoadedSelector::for_items(
                items,
                FastBuildHasher::new(7),
            )),
        )
    };
    let route_cluster = || route_cluster_on(PartitionerKind::Hash);
    let mut group = c.benchmark_group("partition_lookup/route_least_loaded");
    group
        .sample_size(samples)
        .throughput(Throughput::Elements(1));
    group.bench_function("first_touch", |b| {
        let mut cluster = route_cluster();
        let mut i = 0u64;
        b.iter(|| {
            if i == items {
                cluster.reset();
                i = 0;
            }
            let key = i * stride % items;
            i += 1;
            black_box(cluster.route_query(KeyId::new(black_box(key))))
        });
    });
    group.bench_function("pinned", |b| {
        let mut cluster = route_cluster();
        for key in 0..items {
            cluster.route_query(KeyId::new(key)).expect("live cluster");
        }
        let mut key = 0u64;
        b.iter(|| {
            key = (key + stride) % items;
            black_box(cluster.route_query(KeyId::new(black_box(key))))
        });
    });
    group.bench_function("pinned_after_reshard", |b| {
        let mut cluster = route_cluster_on(PartitionerKind::MultiProbe);
        let touch_all = |cluster: &mut Cluster| {
            for key in 0..items {
                cluster.route_query(KeyId::new(key)).expect("live cluster");
            }
        };
        touch_all(&mut cluster);
        cluster.reshard(&joined).expect("valid topology");
        touch_all(&mut cluster);
        let mut key = 0u64;
        b.iter(|| {
            key = (key + stride) % items;
            black_box(cluster.route_query(KeyId::new(black_box(key))))
        });
    });
    group.finish();

    if smoke() {
        let mean = c
            .results()
            .iter()
            .find(|r| r.id.ends_with("replica_group/multi-probe"))
            .map(|r| r.mean_ns)
            .expect("bench ran");
        let lookups_per_sec = 1e9 / mean;
        assert!(
            lookups_per_sec >= SMOKE_FLOOR_LOOKUPS_PER_SEC,
            "multi-probe replica_group: {lookups_per_sec:.0} lookups/s is below \
             the {SMOKE_FLOOR_LOOKUPS_PER_SEC} floor"
        );
        println!(
            "smoke gate: multi-probe sustains {lookups_per_sec:.0} lookups/s \
             (floor {SMOKE_FLOOR_LOOKUPS_PER_SEC})"
        );
    }

    c.write_baseline(
        std::env::var_os("SCP_BENCH_BASELINE"),
        "BENCH_partition.json",
    )
    .expect("baseline path is writable");
}

criterion_group!(lookup_benches, bench_partition_lookup);
criterion_main!(lookup_benches);

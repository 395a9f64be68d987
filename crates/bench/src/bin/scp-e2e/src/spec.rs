//! The names every later performance claim must use: end-to-end and
//! per-layer metrics with unit, direction and regression bound. A unit
//! test holds this table and `BENCHMARK.json` to each other.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Better {
    Higher,
    Lower,
}

impl Better {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MetricSpec {
    pub(crate) name: &'static str,
    pub(crate) unit: &'static str,
    pub(crate) better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before it is a regression (`None` for per-layer metrics).
    pub(crate) bound: Option<f64>,
    /// What it measures and, for a layer metric, which end-to-end metric
    /// it should move on which workload.
    pub(crate) what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

/// Absolute rise of `failed / attempted` that `--compare` tolerates.
pub(crate) const FAILED_FRAC_BOUND: f64 = 0.001;

/// What a user of the system sees. Every workload reports all of them.
pub(crate) const END_TO_END: [MetricSpec; 6] = [
    e2e(
        "ops_per_s",
        "1/s",
        Better::Higher,
        0.25,
        "ops / wall time of the workload's entry call, median over timed iterations",
    ),
    e2e(
        "cpu_ns_per_op",
        "ns",
        Better::Lower,
        0.25,
        "process user+system CPU over all timed iterations / total ops (spinning workers included)",
    ),
    e2e(
        "served_frac",
        "ratio",
        Better::Higher,
        0.001,
        "ops answered by the cache or processed by a shard / ops attempted; for sim_*, Ok runs / runs",
    ),
    e2e(
        "attack_gain",
        "ratio",
        Better::Lower,
        0.2,
        "the paper's metric: max node load over the even share (ServeReport::gain / LoadReport::gain)",
    ),
    e2e(
        "setup_s",
        "s",
        Better::Lower,
        0.25,
        "median wall time to build the configuration from the seed and run the entry call on a one-query quota",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Better::Lower,
        0.15,
        "VmHWM of the workload's process",
    ),
];

/// What single layers do, from the traced run (`--trace 1`). A layer
/// that is not on a workload's path reports 0 there.
pub(crate) const PER_LAYER: [MetricSpec; 39] = [
    layer(
        "workload.keygen_ns",
        "ns",
        Better::Lower,
        "per QueryStream::next_key; moves ops_per_s and cpu_ns_per_op on serve_hit, little on serve_miss",
    ),
    layer(
        "workload.sample_ns",
        "ns",
        Better::Lower,
        "per key of PatternSampler::sample_batch; moves ops_per_s on serve_elastic, serve_defended, sim_query (Zipf)",
    ),
    layer(
        "workload.permute_ns",
        "ns",
        Better::Lower,
        "per KeyMapping::apply; moves ops_per_s on sim_query and on serve_* when the stream memo misses",
    ),
    layer(
        "workload.keys",
        "count",
        Better::Higher,
        "keys drawn per iteration",
    ),
    layer(
        "cache.request_ns",
        "ns",
        Better::Lower,
        "per Cache::request; moves ops_per_s on serve_hit, serve_defended, sim_query; none on serve_miss, sim_sweep",
    ),
    layer(
        "cache.hit_frac",
        "ratio",
        Better::Higher,
        "hits / requests; moves attack_gain and the share of queries reaching every later layer",
    ),
    layer(
        "cache.rejections",
        "count",
        Better::Lower,
        "admission-filter rejections (W-TinyLFU); serve_defended and sim_query only",
    ),
    layer(
        "cache.sketch_resets",
        "count",
        Better::Lower,
        "frequency-sketch halvings; serve_defended only",
    ),
    layer(
        "cluster.replica_group_ns",
        "ns",
        Better::Lower,
        "per Cluster::replica_group; moves ops_per_s on serve_miss and serve_elastic (multi-probe); none on serve_hit",
    ),
    layer(
        "cluster.select_ns",
        "ns",
        Better::Lower,
        "per Cluster::route_prefetched; moves ops_per_s and peak_rss_mb (per-key pins) on serve_miss; none on serve_hit",
    ),
    layer(
        "cluster.route_query_ns",
        "ns",
        Better::Lower,
        "per Cluster::route_query (the sim path); moves ops_per_s on sim_query",
    ),
    layer(
        "cluster.rebuild_ns",
        "ns",
        Better::Lower,
        "per Cluster::reshard at a membership event; moves ops_per_s on serve_elastic only",
    ),
    layer(
        "cluster.lookups",
        "count",
        Better::Lower,
        "replica-group lookups per iteration (the cache misses)",
    ),
    layer(
        "cluster.unserved",
        "count",
        Better::Lower,
        "queries whose whole replica group was down; moves served_frac",
    ),
    layer(
        "pow.solve_ns",
        "ns",
        Better::Lower,
        "per solve_from (client side); moves ops_per_s on serve_defended only",
    ),
    layer(
        "pow.verify_ns",
        "ns",
        Better::Lower,
        "per PowVerifier::verify (server side); moves ops_per_s on serve_defended only",
    ),
    layer(
        "pow.attempts_per_accept",
        "ratio",
        Better::Lower,
        "hash attempts / accepted proofs, expect about 2^difficulty",
    ),
    layer(
        "pow.rejected",
        "count",
        Better::Lower,
        "proofs the shield rejected; moves served_frac on serve_defended",
    ),
    layer(
        "engine.capacity_ns",
        "ns",
        Better::Lower,
        "per TokenBucket::try_take plus the batch push; moves ops_per_s on serve_miss and serve_elastic",
    ),
    layer(
        "engine.shed_capacity",
        "count",
        Better::Lower,
        "queries shed by token buckets; moves served_frac",
    ),
    layer(
        "engine.batches",
        "count",
        Better::Lower,
        "shard batches consumed per iteration",
    ),
    layer(
        "engine.migrated",
        "count",
        Better::Lower,
        "in-flight queries displaced at an epoch boundary; moves served_frac on serve_elastic",
    ),
    layer(
        "engine.reshards",
        "count",
        Better::Lower,
        "topology epochs applied mid-run (4 on serve_elastic, else 0)",
    ),
    layer(
        "engine.unattributed_ns",
        "ns",
        Better::Lower,
        "untraced engine ns/op minus the ops-weighted stage costs: window rolls, counters, inline worker",
    ),
    layer(
        "rings.intake_handoff_ns",
        "ns",
        Better::Lower,
        "buffer+send+drain+recycle of one 64-request batch on one thread; moves ops_per_s on serve_threaded only",
    ),
    layer(
        "rings.spsc_handoff_ns",
        "ns",
        Better::Lower,
        "try_push+try_pop_many of one batch on one thread; moves ops_per_s on serve_threaded only",
    ),
    layer(
        "rings.intake_batches",
        "count",
        Better::Lower,
        "batches the admission sweep pulled off intake rings per iteration",
    ),
    layer(
        "rings.recycle_frac",
        "ratio",
        Better::Higher,
        "intake buffers recycled / intake batches (1 is the zero-allocation steady state)",
    ),
    layer(
        "rings.queue_depth_p95",
        "count",
        Better::Lower,
        "95th-percentile shard queue depth in batches, max over shards (the report keeps no p99)",
    ),
    layer(
        "rings.shed_backpressure",
        "count",
        Better::Lower,
        "queries shed because a shard queue stayed full; moves served_frac on serve_threaded",
    ),
    layer(
        "loadgen.overhead_cpu_ns",
        "ns",
        Better::Lower,
        "serve_threaded cpu_ns_per_op minus deterministic replay of the same traffic, same process",
    ),
    layer(
        "loadgen.speedup",
        "ratio",
        Better::Higher,
        "serve_threaded ops_per_s / deterministic replay ops_per_s of the same traffic (base: replay)",
    ),
    layer(
        "sim.sweep_new_ns",
        "ns",
        Better::Lower,
        "per RunSweep::new; moves ops_per_s and setup_s on sim_sweep",
    ),
    layer(
        "sim.sweep_walk_ns",
        "ns",
        Better::Lower,
        "per grid point of RunSweep::evaluate; moves ops_per_s on sim_sweep",
    ),
    layer(
        "sim.rate_point_ns",
        "ns",
        Better::Lower,
        "per run_rate_simulation on two spot points of the same grid (the other implementation of the walk)",
    ),
    layer(
        "sim.query_ns",
        "ns",
        Better::Lower,
        "per simulated query of run_query_simulation; moves ops_per_s on sim_query",
    ),
    layer(
        "json.roundtrip_ns",
        "ns",
        Better::Lower,
        "ServeReport::to_json().to_string() plus parse; moves nothing today",
    ),
    layer(
        "trace.coverage",
        "ratio",
        Better::Higher,
        "sum of stage time / untraced engine time, per op",
    ),
    layer(
        "trace.overhead_frac",
        "ratio",
        Better::Lower,
        "traced walk time over the same walk with spans off, minus one",
    ),
];

/// The end-to-end spec of `name`.
pub(crate) fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Prints every workload and metric with unit, direction and bound.
pub(crate) fn print_list() {
    println!("workloads:");
    for w in crate::fixtures::Workload::ALL {
        println!("  {:<16} {}", w.name(), w.why());
    }
    println!("end-to-end metrics (name unit better bound):");
    for m in &END_TO_END {
        println!(
            "  {:<26} {:<6} {:<7} {:<6} {}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound.unwrap_or(0.0),
            m.what
        );
    }
    println!("per-layer metrics (name unit better):");
    for m in &PER_LAYER {
        println!(
            "  {:<26} {:<6} {:<7} {}",
            m.name,
            m.unit,
            m.better.name(),
            m.what
        );
    }
}

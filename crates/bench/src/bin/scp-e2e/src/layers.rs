//! The traced run (`--trace 1`): per-layer metrics from the staged
//! walks, the engines' own counters, and single-thread timings of the
//! pieces a walk cannot reach.
//!
//! End-to-end metrics are never taken here. A traced run alternates
//! three passes: the engine untraced (the reference the ledger must
//! reconcile to), the staged walk with spans on, and the same walk with
//! spans off; the difference between the last two is the tracing
//! overhead.

use crate::fixtures::Workload;
use crate::procstat;
use crate::stats::median;
use crate::trace::{block_self_ns, Recorder, Span, BLOCK};
use crate::walk::{self, QUERY_STAGES, SERVE_STAGES};
use crate::workloads::{self, Prepared, Raw};
use scp_json::Json;
use scp_serve::batch_ring::intake_channel;
use scp_serve::{run_deterministic, spsc, Request, ServeConfig, ServeReport};
use scp_sim::rate_engine::run_rate_simulation;
use scp_sim::sweep::RunSweep;
use scp_sim::{LoadReport, SimConfig};
use scp_workload::permute::KeyMapping;
use scp_workload::rng::mix;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Fewest rounds (engine, traced walk, untraced walk) of a traced run.
const MIN_ROUNDS: usize = 3;
/// Share of the run's seconds after which no new round starts.
const ROUNDS_SHARE: f64 = 0.9;
/// Requests per hand-off batch in the ring timings (the engine's
/// default `submit_batch` and `batch_size`).
const HANDOFF_BATCH: usize = 64;
/// Hand-offs timed per ring measurement.
const HANDOFF_ROUNDS: u64 = 200_000;
/// Blocks sampled for the sampler and permutation timings.
const KEY_BLOCKS: usize = 64;
/// Report round trips timed for `json.roundtrip_ns`.
const JSON_ROUNDS: u64 = 200;

/// The result of one traced run.
pub(crate) struct Layers {
    /// Every per-layer metric by name (0 where the layer is idle).
    pub(crate) values: BTreeMap<&'static str, f64>,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) violations: Vec<String>,
    /// Spans of the last traced walk, for `trace-<workload>.json`.
    pub(crate) spans: Vec<Span>,
    /// Self time of the walk's block spans per op: glue between stages
    /// that belongs to no layer.
    pub(crate) glue_ns_per_op: f64,
}

impl Layers {
    fn new() -> Self {
        Self {
            values: crate::spec::PER_LAYER
                .iter()
                .map(|m| (m.name, 0.0))
                .collect(),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            spans: Vec::new(),
            glue_ns_per_op: 0.0,
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        match self.values.get_mut(name) {
            Some(slot) => *slot = value,
            None => self
                .violations
                .push(format!("`{name}` is not a per-layer metric")),
        }
    }
}

/// Times of the three kinds of pass, and per-stage costs of the traced
/// ones.
struct Passes {
    engine_secs: Vec<f64>,
    traced_secs: Vec<f64>,
    plain_secs: Vec<f64>,
    /// Per stage: ns/op of each traced pass.
    stage_ns: BTreeMap<&'static str, Vec<f64>>,
    /// Per stage: work units of one pass.
    stage_ops: BTreeMap<&'static str, u64>,
    spans: Vec<Span>,
}

impl Passes {
    fn stage_cost(&self, name: &str) -> f64 {
        self.stage_ns
            .get(name)
            .and_then(|v| median(v))
            .unwrap_or(0.0)
    }

    /// Stage costs weighted by their work, in ns over one whole pass.
    fn attributed_ns(&self, stages: &[&str]) -> f64 {
        stages
            .iter()
            .map(|s| self.stage_cost(s) * self.stage_ops.get(s).copied().unwrap_or(0) as f64)
            .sum()
    }
}

/// Runs rounds of engine untraced, walk with spans on, walk with spans
/// off, inside `seconds`. Each closure returns the violations it found.
fn run_passes(
    seconds: f64,
    mut engine: impl FnMut() -> Result<Vec<String>, String>,
    mut walk: impl FnMut(&mut Recorder) -> Result<Vec<String>, String>,
    violations: &mut Vec<String>,
) -> Result<Passes, String> {
    let clock = Instant::now();
    let mut passes = Passes {
        engine_secs: Vec::new(),
        traced_secs: Vec::new(),
        plain_secs: Vec::new(),
        stage_ns: BTreeMap::new(),
        stage_ops: BTreeMap::new(),
        spans: Vec::new(),
    };
    // One untimed engine run first, as the end-to-end run warms up.
    violations.extend(engine()?);
    // Each round takes the engine, the traced walk and the untraced walk
    // back to back, so host interference that lasts seconds hits all
    // three alike and cancels in their differences.
    while passes.engine_secs.len() < MIN_ROUNDS
        || clock.elapsed().as_secs_f64() < seconds * ROUNDS_SHARE
    {
        let start = Instant::now();
        let found = engine()?;
        passes.engine_secs.push(start.elapsed().as_secs_f64());
        violations.extend(found);

        // The walk that runs second finds its code and data warm, so the
        // two walks swap places every round.
        let traced_first = passes.engine_secs.len() % 2 == 1;
        for traced in [traced_first, !traced_first] {
            let mut rec = Recorder::new(traced);
            let start = Instant::now();
            let found = walk(&mut rec)?;
            let secs = start.elapsed().as_secs_f64();
            violations.extend(found);
            if !traced {
                passes.plain_secs.push(secs);
                continue;
            }
            passes.traced_secs.push(secs);
            for (name, total) in rec.totals() {
                passes
                    .stage_ns
                    .entry(name)
                    .or_default()
                    .push(total.ns_per_op());
                passes.stage_ops.insert(name, total.ops);
            }
            passes.spans = rec.into_spans();
        }
    }
    Ok(passes)
}

/// Sets the ledger's closing lines: coverage, the unattributed
/// remainder per op, and the tracing overhead.
fn close_ledger(out: &mut Layers, passes: &Passes, stages: &[&str], ops: u64) {
    let engine_ns = median(&passes.engine_secs).unwrap_or(0.0) * 1e9;
    let attributed = passes.attributed_ns(stages);
    if engine_ns > 0.0 {
        out.set("trace.coverage", attributed / engine_ns);
    }
    out.set(
        "engine.unattributed_ns",
        (engine_ns - attributed) / ops.max(1) as f64,
    );
    out.glue_ns_per_op = block_self_ns(&passes.spans) as f64 / ops.max(1) as f64;
    let (traced, plain) = (median(&passes.traced_secs), median(&passes.plain_secs));
    if let (Some(traced), Some(plain)) = (traced, plain) {
        if plain > 0.0 {
            out.set("trace.overhead_frac", traced / plain - 1.0);
        }
    }
}

fn prefixed(label: &str, found: Vec<String>) -> Vec<String> {
    found.into_iter().map(|v| format!("{label}: {v}")).collect()
}

/// Per-key cost of the pattern sampler and of the rank permutation,
/// measured on a sampler of their own (inside the engines both are part
/// of key generation).
fn time_key_pieces(sim: &SimConfig, out: &mut Layers) -> Result<(), String> {
    let mapping =
        KeyMapping::scattered(sim.items, mix(&[sim.seed, 3])).map_err(|e| e.to_string())?;
    let mut sampler = sim
        .pattern
        .sampler(mix(&[sim.seed, 4]))
        .map_err(|e| e.to_string())?;
    let mut ranks = vec![0u64; BLOCK];
    let (mut sample_ns, mut permute_ns) = (Vec::new(), Vec::new());
    for _ in 0..KEY_BLOCKS {
        let start = Instant::now();
        sampler.sample_batch(&mut ranks);
        sample_ns.push(start.elapsed().as_nanos() as f64 / BLOCK as f64);
        let start = Instant::now();
        let folded = ranks
            .iter()
            .fold(0u64, |acc, &rank| acc ^ mapping.apply(rank));
        permute_ns.push(start.elapsed().as_nanos() as f64 / BLOCK as f64);
        black_box(folded);
    }
    out.set("workload.sample_ns", median(&sample_ns).unwrap_or(0.0));
    out.set("workload.permute_ns", median(&permute_ns).unwrap_or(0.0));
    Ok(())
}

/// `ServeReport` → JSON text → parsed back, per round trip.
fn time_json(report: &ServeReport, out: &mut Layers) {
    let start = Instant::now();
    for _ in 0..JSON_ROUNDS {
        let text = black_box(report).to_json().to_string();
        if Json::parse(&text).is_err() {
            out.violations
                .push("ServeReport JSON did not parse back".to_owned());
            return;
        }
    }
    out.set(
        "json.roundtrip_ns",
        start.elapsed().as_nanos() as f64 / JSON_ROUNDS as f64,
    );
}

/// Single-thread hand-off cost of the two rings, per 64-request batch
/// (filling the batch included).
fn time_rings(out: &mut Layers) {
    let request = |key: u64| Request {
        key,
        client: 0,
        pow: None,
    };
    let (mut tx, mut rx) = intake_channel::<Request>(16);
    let mut drained: Vec<Vec<Request>> = Vec::with_capacity(1);
    let start = Instant::now();
    let mut lost = 0u64;
    for round in 0..HANDOFF_ROUNDS {
        let mut batch = tx.buffer(HANDOFF_BATCH);
        batch.extend((0..HANDOFF_BATCH as u64).map(|i| request(round + i)));
        lost += u64::from(tx.send(batch).is_err());
        rx.drain(1, &mut |b| drained.push(b));
        if let Some(buf) = drained.pop() {
            black_box(buf.len());
            rx.recycle(buf);
        }
    }
    out.set(
        "rings.intake_handoff_ns",
        start.elapsed().as_nanos() as f64 / HANDOFF_ROUNDS as f64,
    );

    let (mut push, mut pop) = spsc::channel::<Vec<Request>>(HANDOFF_BATCH);
    let mut spare: Vec<Request> = Vec::with_capacity(HANDOFF_BATCH);
    let start = Instant::now();
    for round in 0..HANDOFF_ROUNDS {
        let mut batch = std::mem::take(&mut spare);
        batch.extend((0..HANDOFF_BATCH as u64).map(|i| request(round + i)));
        lost += u64::from(push.try_push(batch).is_err());
        pop.try_pop_many(1, &mut |mut b: Vec<Request>| {
            black_box(b.len());
            b.clear();
            spare = b;
        });
    }
    out.set(
        "rings.spsc_handoff_ns",
        start.elapsed().as_nanos() as f64 / HANDOFF_ROUNDS as f64,
    );
    if lost > 0 {
        out.violations
            .push(format!("{lost} single-thread ring hand-offs were refused"));
    }
}

/// Counters every serve workload reads off its engine report.
fn set_serve_counters(out: &mut Layers, cfg: &ServeConfig, report: &ServeReport) {
    let routed: u64 = report.shards.iter().map(|s| s.routed).sum();
    let asked = report.submitted - report.pow_rejected;
    out.set("workload.keys", report.submitted as f64);
    out.set(
        "cache.hit_frac",
        report.cache_hits as f64 / asked.max(1) as f64,
    );
    out.set("cache.rejections", report.cache_rejections as f64);
    out.set("cache.sketch_resets", report.sketch_resets as f64);
    out.set("cluster.lookups", (routed + report.unserved) as f64);
    out.set("cluster.unserved", report.unserved as f64);
    out.set("pow.rejected", report.pow_rejected as f64);
    if cfg.pow.is_some() {
        out.set(
            "pow.attempts_per_accept",
            report.pow_attempts as f64 / asked.max(1) as f64,
        );
    }
    out.set("engine.shed_capacity", report.shed_capacity() as f64);
    out.set(
        "engine.batches",
        report.shards.iter().map(|s| s.batches).sum::<u64>() as f64,
    );
    out.set("engine.migrated", report.migrated as f64);
    out.set("engine.reshards", report.reshards as f64);
    out.set("rings.shed_backpressure", report.shed_backpressure() as f64);
}

fn serve_report(raw: Raw) -> Result<ServeReport, String> {
    match raw {
        Raw::Serve(report) => Ok(*report),
        _ => Err("serve workload returned no serve report".to_owned()),
    }
}

/// A deterministic serve workload: engine reference, staged walk, and
/// the equality of their counts.
fn trace_serve(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: &mut Layers,
) -> Result<(), String> {
    let prepared = workloads::prepare_full(workload, seed)?;
    let Prepared::Serve { cfg, .. } = &prepared else {
        return Err("not a serve workload".to_owned());
    };
    let reference = serve_report(workloads::execute(&prepared)?)?;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut violations = Vec::new();
    let passes = run_passes(
        seconds,
        || {
            let raw = black_box(workloads::execute(black_box(&prepared))?);
            let outcome = workloads::check(workload, &prepared, &raw);
            attempted += outcome.attempted;
            failed += outcome.failed;
            Ok(prefixed("engine", outcome.violations))
        },
        |rec| {
            let counts = walk::serve_walk(black_box(cfg), rec)?;
            Ok(prefixed("walk", counts.mismatches(&reference)))
        },
        &mut violations,
    )?;
    out.violations.append(&mut violations);
    out.attempted = attempted;
    out.failed = failed;

    set_serve_counters(out, cfg, &reference);
    for (stage, metric) in [
        ("keygen", "workload.keygen_ns"),
        ("pow_solve", "pow.solve_ns"),
        ("pow_verify", "pow.verify_ns"),
        ("cache", "cache.request_ns"),
        ("replica_group", "cluster.replica_group_ns"),
        ("select", "cluster.select_ns"),
        ("capacity", "engine.capacity_ns"),
        ("rebuild", "cluster.rebuild_ns"),
    ] {
        out.set(metric, passes.stage_cost(stage));
    }
    close_ledger(out, &passes, &SERVE_STAGES, cfg.total_queries);
    time_key_pieces(&cfg.sim, out)?;
    time_json(&reference, out);
    out.spans = passes.spans;
    Ok(())
}

/// The threaded engine gets no walk (the benchmark spawns no threads):
/// its layer numbers are the report's ring counters, the single-thread
/// hand-off timings, and its cost against deterministic replay of the
/// same traffic in this process.
fn trace_threaded(seed: u64, seconds: f64, out: &mut Layers) -> Result<(), String> {
    let workload = Workload::ServeThreaded;
    let prepared = workloads::prepare_full(workload, seed)?;
    let Prepared::Serve { cfg, .. } = &prepared else {
        return Err("not a serve workload".to_owned());
    };
    let clock = Instant::now();
    let (mut threaded_rate, mut replay_rate) = (Vec::new(), Vec::new());
    let (mut threaded_cpu, mut replay_cpu) = (0.0f64, 0.0f64);
    let mut last: Option<ServeReport> = None;
    while threaded_rate.len() < MIN_ROUNDS || clock.elapsed().as_secs_f64() < seconds * ROUNDS_SHARE
    {
        let (cpu, start) = (procstat::cpu_seconds()?, Instant::now());
        let raw = black_box(workloads::execute(black_box(&prepared))?);
        let secs = start.elapsed().as_secs_f64();
        threaded_cpu += procstat::cpu_seconds()? - cpu;
        threaded_rate.push(cfg.total_queries as f64 / secs.max(1e-12));
        let outcome = workloads::check(workload, &prepared, &raw);
        out.attempted += outcome.attempted;
        out.failed += outcome.failed;
        out.violations
            .extend(prefixed("engine", outcome.violations));
        last = Some(serve_report(raw)?);

        let (cpu, start) = (procstat::cpu_seconds()?, Instant::now());
        let replay = black_box(run_deterministic(black_box(cfg)).map_err(|e| e.to_string())?);
        let secs = start.elapsed().as_secs_f64();
        replay_cpu += procstat::cpu_seconds()? - cpu;
        replay_rate.push(cfg.total_queries as f64 / secs.max(1e-12));
        if !replay.is_conserved() {
            out.violations
                .push("replay: conservation law broken".to_owned());
        }
    }
    let report = last.ok_or("threaded engine never ran")?;
    set_serve_counters(out, cfg, &report);
    out.set("rings.intake_batches", report.intake_batches as f64);
    out.set(
        "rings.recycle_frac",
        report.intake_recycled as f64 / report.intake_batches.max(1) as f64,
    );
    out.set(
        "rings.queue_depth_p95",
        report
            .shards
            .iter()
            .map(|s| s.queue_depth.p95)
            .max()
            .unwrap_or(0) as f64,
    );
    let runs = threaded_rate.len() as f64;
    let per_op = |cpu: f64| cpu * 1e9 / (runs * cfg.total_queries as f64);
    out.set(
        "loadgen.overhead_cpu_ns",
        per_op(threaded_cpu) - per_op(replay_cpu),
    );
    if let (Some(threaded), Some(replay)) = (median(&threaded_rate), median(&replay_rate)) {
        if replay > 0.0 {
            out.set("loadgen.speedup", threaded / replay);
        }
    }
    time_rings(out);
    time_key_pieces(&cfg.sim, out)?;
    time_json(&report, out);
    Ok(())
}

fn load_reports_differ(a: &LoadReport, b: &LoadReport) -> bool {
    a.gain().value().to_bits() != b.gain().value().to_bits()
        || a.cache_load.to_bits() != b.cache_load.to_bits()
}

/// The planner's grids: spans around `RunSweep::new` and each
/// `evaluate`, plus the per-point rate engine on two spot points — the
/// other implementation of the same walk, which must agree bit for bit.
fn trace_sweep(seed: u64, seconds: f64, out: &mut Layers) -> Result<(), String> {
    let workload = Workload::SimSweep;
    let prepared = workloads::prepare_full(workload, seed)?;
    let Prepared::Sweep { runs, walks } = &prepared else {
        return Err("not the sweep workload".to_owned());
    };
    let reference = match workloads::execute(&prepared)? {
        Raw::Sweep(reports) => reports,
        _ => return Err("sweep returned no sweep reports".to_owned()),
    };
    let (mut attempted, mut points) = (0u64, 0u64);
    let mut violations = Vec::new();
    let passes = run_passes(
        seconds,
        || {
            let raw = black_box(workloads::execute(black_box(&prepared))?);
            let outcome = workloads::check(workload, &prepared, &raw);
            attempted += outcome.attempted;
            points = outcome.ops;
            Ok(prefixed("engine", outcome.violations))
        },
        |rec| {
            let mut found = Vec::new();
            for (cfg, want_run) in runs.iter().zip(&reference) {
                rec.begin_block();
                let mut sweep = rec
                    .stage("sweep_new", || (RunSweep::new(cfg, cfg.items), 1))
                    .map_err(|e| e.to_string())?;
                for ((cache, grid), want) in walks.iter().zip(want_run) {
                    let got = rec
                        .stage("sweep_walk", || {
                            (sweep.evaluate(*cache, grid), grid.len() as u64)
                        })
                        .map_err(|e| e.to_string())?;
                    if got.len() != want.len()
                        || got.iter().zip(want).any(|(a, b)| load_reports_differ(a, b))
                    {
                        found.push(format!("walk: c={cache} differs from the first evaluation"));
                    }
                }
                rec.end_block();
            }
            Ok(found)
        },
        &mut violations,
    )?;
    out.violations.append(&mut violations);
    out.attempted = attempted;
    out.set("sim.sweep_new_ns", passes.stage_cost("sweep_new"));
    out.set("sim.sweep_walk_ns", passes.stage_cost("sweep_walk"));
    close_ledger(out, &passes, &["sweep_new", "sweep_walk"], points);
    // The sweep has no serving engine; its remainder is loop glue.
    out.set("engine.unattributed_ns", 0.0);

    // Two spot points of the first run's first grid through the rate
    // engine.
    let (Some(cfg), Some((cache, grid)), Some(want)) = (
        runs.first(),
        walks.first(),
        reference.first().and_then(|run| run.first()),
    ) else {
        return Err("sweep has no first walk".to_owned());
    };
    let mut spot_ns = Vec::new();
    for index in [grid.len() / 3, 2 * grid.len() / 3] {
        let (Some(&x), Some(expected)) = (grid.get(index), want.get(index)) else {
            continue;
        };
        let mut point = cfg
            .to_builder()
            .cache_capacity(*cache)
            .attack_x(x)
            .build()
            .map_err(|e| e.to_string())?;
        point.seed = cfg.seed;
        let start = Instant::now();
        let report = black_box(run_rate_simulation(black_box(&point)).map_err(|e| e.to_string())?);
        spot_ns.push(start.elapsed().as_nanos() as f64);
        if load_reports_differ(&report, expected) {
            out.violations
                .push(format!("rate engine and sweep disagree at c={cache} x={x}"));
        }
    }
    out.set("sim.rate_point_ns", median(&spot_ns).unwrap_or(0.0));
    out.spans = passes.spans;
    Ok(())
}

/// The sampling engine: a staged walk per policy whose loads must equal
/// the engine's bit for bit.
fn trace_query(seed: u64, seconds: f64, out: &mut Layers) -> Result<(), String> {
    let workload = Workload::SimQuery;
    let prepared = workloads::prepare_full(workload, seed)?;
    let Prepared::Query { policies, queries } = &prepared else {
        return Err("not the query workload".to_owned());
    };
    let reference = match workloads::execute(&prepared)? {
        Raw::Query(reports) => reports,
        _ => return Err("query engine returned no load reports".to_owned()),
    };
    let ops = queries * policies.len() as u64;
    let mut attempted = 0u64;
    let (mut hits, mut lookups, mut rejections) = (0u64, 0u64, 0u64);
    let mut violations = Vec::new();
    let passes = run_passes(
        seconds,
        || {
            let raw = black_box(workloads::execute(black_box(&prepared))?);
            let outcome = workloads::check(workload, &prepared, &raw);
            attempted += outcome.attempted;
            Ok(prefixed("engine", outcome.violations))
        },
        |rec| {
            let mut found = Vec::new();
            (hits, lookups, rejections) = (0, 0, 0);
            for (cfg, want) in policies.iter().zip(&reference) {
                let counts = walk::query_walk(black_box(cfg), *queries, rec)?;
                hits += counts.hits;
                lookups += counts.lookups;
                rejections += counts.rejections;
                found.extend(prefixed(cfg.cache_kind.name(), counts.mismatches(want)));
            }
            Ok(found)
        },
        &mut violations,
    )?;
    out.violations.append(&mut violations);
    out.attempted = attempted;
    out.set("workload.keys", ops as f64);
    out.set("workload.sample_ns", passes.stage_cost("sample"));
    out.set("workload.permute_ns", passes.stage_cost("permute"));
    out.set("cache.request_ns", passes.stage_cost("cache"));
    out.set("cache.hit_frac", hits as f64 / ops.max(1) as f64);
    out.set("cache.rejections", rejections as f64);
    out.set("cluster.route_query_ns", passes.stage_cost("route_query"));
    out.set("cluster.lookups", lookups as f64);
    out.set(
        "cluster.unserved",
        reference.iter().map(|r| r.unserved).sum::<f64>(),
    );
    out.set(
        "sim.query_ns",
        median(&passes.engine_secs).unwrap_or(0.0) * 1e9 / ops.max(1) as f64,
    );
    close_ledger(out, &passes, &QUERY_STAGES, ops);
    out.spans = passes.spans;
    Ok(())
}

/// Runs `workload` traced for about `seconds`.
pub(crate) fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Result<Layers, String> {
    let mut out = Layers::new();
    match workload {
        Workload::ServeThreaded => trace_threaded(seed, seconds, &mut out)?,
        Workload::SimSweep => trace_sweep(seed, seconds, &mut out)?,
        Workload::SimQuery => trace_query(seed, seconds, &mut out)?,
        _ => trace_serve(workload, seed, seconds, &mut out)?,
    }
    if out.attempted == 0 {
        out.violations
            .push("the traced run attempted no operation".to_owned());
    }
    Ok(out)
}

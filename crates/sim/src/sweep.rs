//! Incremental `(x, c)` grid evaluation over one random partition.
//!
//! Every headline artifact of the paper interrogates the *same* random
//! partition at many grid points: Figure 3 sweeps the attack size `x` at a
//! fixed cache size, Figure 5 and the critical-size bisection sweep the
//! cache size `c` with two candidate plays per size, and the ablations
//! sweep both. The per-point engine ([`crate::rate_engine`]) re-hashes
//! every rank's replica group and re-accumulates the full load vector per
//! point; this module computes each rank's routed node **once per run**
//! and then walks the grid by adding single-rank contributions to an
//! integer count vector, so each additional grid point costs amortized
//! `O(Δx·d + n)` instead of `O(x·(hash + select))`.
//!
//! # Bit-identity to the per-point engine
//!
//! For an equal-rate pattern ([`AccessPattern::UniformSubset`] or
//! [`AccessPattern::Uniform`]) the per-point engine adds the **same**
//! `f64` into any given accumulator every time it touches it:
//!
//! * per-rank rate: `rate = R * (1.0 / x as f64)` — identical for every
//!   rank of the pattern;
//! * sticky selectors (`least-loaded`): `loads[pin] += rate`;
//! * memoryless selectors (`random`, `round-robin`,
//!   `per-query-least-loaded`): `share = rate / d as f64` and
//!   `loads[member] += share` for each of the `d` live members;
//! * cache: `cache_load += rate` once per cached rank, in rank order.
//!
//! A float accumulator fed the same addend `a` is a pure function of the
//! addend count: define the *repeated-sum table*
//! `t[0] = 0.0, t[k] = t[k-1] + a` (left-associated, in IEEE-754 `f64`).
//! Then the engine's final `loads[i]` is exactly `t[counts[i]]`, where
//! `counts[i]` is how many times node `i` was chosen. `t` is strictly
//! increasing in `k` as long as `fl(t[k] + a) > t[k]`, which holds
//! whenever `k` stays below `~2^52` — always true here since counts are
//! bounded by the key-space size. Strict monotonicity means
//! `argmin(loads)` with first-wins tie-breaking equals `argmin(counts)`
//! with the same tie-breaking, so the sticky selector's pin decisions can
//! be replayed on integer counts, and the full load vector of any prefix
//! can be reconstructed bit-for-bit from the counts via `t`. The
//! equivalence suite (`tests/sweep_equivalence.rs`) asserts `LoadReport`
//! equality with `assert_eq!`, i.e. exact `f64` equality, across
//! selectors, partitioners, seeds and grid boundaries.
//!
//! Pin decisions depend only on the counts, never on `x`, so routing
//! ranks `c, c+1, c+2, ...` once reproduces — at each prefix end — the
//! exact state the per-point engine reaches for the pattern whose support
//! is that prefix. Each grid `x` is a snapshot of the walk.
//!
//! # Building the plan
//!
//! [`RunSweep::new`] builds the plan a batch of 256 ranks at a time: one
//! [`KeyMapping::apply_batch`] maps the batch's ranks to keys, and one
//! [`Partitioner::append_replica_groups`] call appends their groups to
//! the flat buffer, so the partitioner is dispatched once per batch, not
//! once per rank. The hash partitioner's batch kernel absorbs the seed
//! once and each key once, hashes the `d` attempts of a key
//! independently, and falls back to the sequential attempt loop only for
//! a key whose first `d` attempts collide. The plan is still
//! bit-identical to the per-point engine: the batch form returns each
//! key's group exactly as `replica_group` returns it, member for member
//! (a property test in `scp-cluster` checks this for every partitioner),
//! and the batch maps each rank to the key `apply` gives it. At d = 3
//! the walk then reads each group as a fixed-length array.
//!
//! [`KeyMapping::apply_batch`]: scp_workload::permute::KeyMapping::apply_batch
//! [`Partitioner::append_replica_groups`]: scp_cluster::Partitioner::append_replica_groups
//!
//! # Scope
//!
//! The sweep models a fully-alive cluster (no failed nodes) and the
//! rate-propagation cache model (`perfect`/`none`). Non-equal-rate
//! patterns (Zipf, head-tail, explicit PMFs) violate the same-addend
//! argument and are rejected at construction; consumers keep those rows
//! on the per-point engine.
//!
//! # Memory
//!
//! A [`RunSweep`] stores one `u32` node index per (rank, replica):
//! `x_max * d * 4` bytes — 12 MB for the paper's full scale
//! (`m = 10^6`, `d = 3`). Holding all runs of a repetition batch alive at
//! once (as the critical-size search does) costs `runs` times that.

use crate::config::{CacheKind, SelectorKind, SimConfig};
use crate::error::SimError;
use crate::front_end::{RankedKeys, RANK_BATCH};
use crate::journal::RunJournal;
use crate::metrics::LoadReport;
use crate::runner::{
    repeat_with_stopping_multi, resolve_threads, timed, GainAggregate, JournaledRun, StopRule,
};
use crate::Result;
use scp_cluster::load::LoadSnapshot;
use scp_cluster::NodeId;
use scp_workload::AccessPattern;

/// One run's precomputed routing structure: every rank's replica group,
/// fetched once, plus scratch buffers reused across grid points.
///
/// Build once per run (one partition + key mapping), then call
/// [`RunSweep::evaluate`] for as many `(c, x)` grid points as needed.
#[derive(Debug, Clone)]
pub struct RunSweep {
    replication: usize,
    offered: f64,
    x_max: u64,
    /// Whether the selector pins each rank to one node (sticky
    /// least-loaded) or splits its rate evenly over the group.
    sticky: bool,
    /// Flattened `x_max * d` node ids: rank `r`'s group occupies
    /// `groups[r*d .. (r+1)*d]`, in partition order.
    groups: Vec<NodeId>,
    /// Scratch: per-node addend counts for the current walk.
    counts: Vec<u32>,
    /// Scratch: reconstructed per-node loads.
    loads: Vec<f64>,
    /// Scratch: the repeated-sum table `t[k]`.
    table: Vec<f64>,
}

impl RunSweep {
    /// Precomputes the routing structure for one run: builds the
    /// configured partitioner and key mapping from `cfg.seed` (the same
    /// derivations as the per-point engine) and reads the replica groups
    /// of ranks `0..x_max` straight from the partitioner (every node is
    /// alive, so each group is its live group). Ranks are mapped and
    /// their groups fetched 256 at a time, through one
    /// [`KeyMapping::apply_batch`] and one
    /// [`Partitioner::append_replica_groups`] call per batch; both equal
    /// their per-rank forms exactly, so the plan is the one a per-rank
    /// `apply` + `replica_group` loop builds (module docs).
    ///
    /// # Errors
    ///
    /// Returns an error if the config is invalid, the pattern is not
    /// equal-rate, `x_max` is outside `[1, items]`, or the partitioner
    /// returns groups of other than `cfg.replication` members.
    ///
    /// [`KeyMapping::apply_batch`]: scp_workload::permute::KeyMapping::apply_batch
    /// [`Partitioner::append_replica_groups`]: scp_cluster::Partitioner::append_replica_groups
    pub fn new(cfg: &SimConfig, x_max: u64) -> Result<Self> {
        cfg.validate()?;
        if !matches!(
            cfg.pattern,
            AccessPattern::UniformSubset { .. } | AccessPattern::Uniform { .. }
        ) {
            return Err(SimError::InvalidConfig {
                field: "pattern",
                reason: format!(
                    "sweep engine models the equal-rate x-subset attack family; \
                     pattern `{}` is not equal-rate — use the per-point engine",
                    cfg.pattern.describe()
                ),
            });
        }
        if x_max == 0 || x_max > cfg.items {
            return Err(SimError::InvalidConfig {
                field: "x_max",
                reason: format!("x_max {x_max} outside [1, {}]", cfg.items),
            });
        }
        let sticky = match cfg.selector {
            SelectorKind::LeastLoaded => true,
            SelectorKind::Random | SelectorKind::RoundRobin | SelectorKind::PerQueryLeastLoaded => {
                false
            }
        };
        let partitioner = cfg.build_partitioner()?;
        let mapping = cfg.key_mapping()?;
        let d = cfg.replication;
        // Map ranks and fetch their groups a batch at a time, straight
        // into the flat buffer: a `Vec<ReplicaGroup>` in between would
        // alone be several MB per run at paper scale.
        let want = x_max as usize * d;
        let mut groups = Vec::with_capacity(want);
        let mut ranked = RankedKeys::new(&mapping, x_max, RANK_BATCH);
        while let Some(keys) = ranked.next_batch() {
            partitioner.append_replica_groups(keys, &mut groups);
        }
        if groups.len() != want {
            return Err(SimError::InvalidConfig {
                field: "replication",
                reason: format!(
                    "partitioner returned {} members for {x_max} keys, want {d} per key",
                    groups.len()
                ),
            });
        }
        Ok(Self {
            replication: d,
            offered: cfg.rate,
            x_max,
            sticky,
            groups,
            counts: vec![0; cfg.nodes],
            loads: Vec::with_capacity(cfg.nodes),
            table: Vec::new(),
        })
    }

    /// The largest attack size this sweep can evaluate.
    pub fn x_max(&self) -> u64 {
        self.x_max
    }

    /// Evaluates the whole `x` grid at one cache size in a single walk,
    /// returning one [`LoadReport`] per grid point — each bit-identical
    /// to `run_rate_simulation` of the corresponding `(c, x)` config
    /// (see the module docs for the summation-order argument).
    ///
    /// `cache_capacity` is the *effective* capacity, as the rate engine
    /// resolves it (`perfect` → `c`, `none` → 0). Grid points with
    /// `x <= cache_capacity` report a fully-cached, idle back end.
    ///
    /// # Errors
    ///
    /// Returns an error if `x_values` is empty, not strictly ascending,
    /// or reaches outside `[1, x_max]`.
    pub fn evaluate(&mut self, cache_capacity: usize, x_values: &[u64]) -> Result<Vec<LoadReport>> {
        let (offered, sticky, d) = (self.offered, self.sticky, self.replication);
        self.walk(cache_capacity, x_values, move |x| {
            // Per-rank probability and rate, spelled exactly as
            // `RankProbs::get` computes them for the equal-rate patterns.
            let rate = offered * (1.0 / x as f64);
            // The engine adds `rate` once per cached rank, left to right.
            let cached = x.min(cache_capacity as u64);
            let mut cache_load = 0.0;
            for _ in 0..cached {
                cache_load += rate;
            }
            let addend = if sticky { rate } else { rate / d as f64 };
            PointLoads { addend, cache_load }
        })
    }

    /// Evaluates the `x` grid under *online* sketch-driven admission at
    /// hit efficiency `efficiency` (`η ∈ [0, 1]`).
    ///
    /// The oracle model of [`RunSweep::evaluate`] pins the `c` most
    /// popular ranks and routes none of their traffic. An online cache
    /// cannot pre-pin anything against an equal-rate `x`-subset: it holds
    /// about `min(c, x)` of the `x` keys at any instant, and admission
    /// churn spreads the hits uniformly over them, so *every* key reaches
    /// the backend with the residual rate
    /// `(R/x) · (1 − η·min(c, x)/x)`. `η` captures how much of that ideal
    /// hit mass the sketch actually realizes: `η → 1` once frequency
    /// estimates converge on a stationary workload, `η → 0` when the
    /// attacker rotates its key set faster than the sketch's halving
    /// window adapts. `efficiency = 0` (or `cache_capacity = 0`) is
    /// bit-identical to `evaluate(0, x_values)`.
    ///
    /// # Errors
    ///
    /// Returns an error if `efficiency` is outside `[0, 1]` or the grid
    /// violates the [`RunSweep::evaluate`] contract.
    pub fn evaluate_online(
        &mut self,
        cache_capacity: usize,
        efficiency: f64,
        x_values: &[u64],
    ) -> Result<Vec<LoadReport>> {
        if !efficiency.is_finite() || !(0.0..=1.0).contains(&efficiency) {
            return Err(SimError::InvalidConfig {
                field: "efficiency",
                reason: format!("hit efficiency must lie in [0, 1], got {efficiency}"),
            });
        }
        let (offered, sticky, d) = (self.offered, self.sticky, self.replication);
        // Route from rank 0: online admission caches a *fraction* of
        // every rank's rate instead of the oracle's whole-rank prefix.
        self.walk(0, x_values, move |x| {
            let rate = offered * (1.0 / x as f64);
            let hit = efficiency * ((cache_capacity as u64).min(x) as f64 / x as f64);
            let residual = rate * (1.0 - hit);
            let addend = if sticky {
                residual
            } else {
                residual / d as f64
            };
            PointLoads {
                addend,
                cache_load: offered * hit,
            }
        })
    }

    /// Shared grid walk: validates the grid, routes ranks
    /// `skip_ranks..x` incrementally, and reconstructs one report per
    /// point from the integer counts using the per-point load shape
    /// supplied by `loads_at`.
    fn walk(
        &mut self,
        skip_ranks: usize,
        x_values: &[u64],
        loads_at: impl Fn(u64) -> PointLoads,
    ) -> Result<Vec<LoadReport>> {
        let (first, last) = match (x_values.first(), x_values.last()) {
            (Some(&first), Some(&last)) => (first, last),
            _ => {
                return Err(SimError::InvalidConfig {
                    field: "x_values",
                    reason: "empty grid".to_owned(),
                })
            }
        };
        if !x_values.windows(2).all(|w| matches!(w, [a, b] if a < b)) {
            return Err(SimError::InvalidConfig {
                field: "x_values",
                reason: "grid must be strictly ascending".to_owned(),
            });
        }
        if first == 0 || last > self.x_max {
            return Err(SimError::InvalidConfig {
                field: "x_values",
                reason: format!("grid reaches outside [1, {}]", self.x_max),
            });
        }

        self.counts.fill(0);
        // Split the borrows: `groups` is read across the whole walk while
        // the scratch buffers are updated per point.
        let Self {
            replication,
            offered,
            sticky,
            groups,
            counts,
            loads,
            table,
            ..
        } = self;
        let (d, offered, sticky) = (*replication, *offered, *sticky);
        let mut max_count: u32 = 0;
        let mut next_rank = skip_ranks as u64;
        let mut out = Vec::with_capacity(x_values.len());
        for &x in x_values {
            // Route ranks `next_rank..x` — exactly the backend-visible
            // ranks the per-point engine routes for pattern support `x`,
            // in the same order, continuing from the previous grid point.
            let end = x.max(next_rank);
            let ranks = groups
                .get(next_rank as usize * d..end as usize * d)
                .unwrap_or_default();
            max_count = max_count.max(route(ranks, d, sticky, counts));
            next_rank = end;
            out.push(report_at(
                counts,
                table,
                loads,
                offered,
                loads_at(x),
                max_count,
            ));
        }
        Ok(out)
    }
}

/// Adds the routed ranks' groups (`groups`, `d` members each, in rank
/// order) to `counts`, and returns the largest count it wrote. At the
/// paper's d = 3 each group is read as a fixed-length array, so the
/// member loop unrolls; the runtime-length loop measured slower per grid
/// point (EXPERIMENTS.md, the batch routing plan). Other lengths take the
/// same loop with a runtime length.
fn route(groups: &[NodeId], d: usize, sticky: bool, counts: &mut [u32]) -> u32 {
    if d == 3 {
        let groups = groups
            .as_chunks::<3>()
            .0
            .iter()
            .map(|group| group.as_slice());
        route_each(groups, sticky, counts)
    } else {
        route_each(groups.chunks_exact(d), sticky, counts)
    }
}

#[inline(always)]
fn route_each<'a>(
    groups: impl Iterator<Item = &'a [NodeId]>,
    sticky: bool,
    counts: &mut [u32],
) -> u32 {
    let mut max_count = 0;
    if sticky {
        for group in groups {
            // argmin over counts with first-wins ties replays
            // `argmin_load` exactly: loads are strictly increasing in
            // the count (module docs).
            let mut best = usize::MAX;
            let mut best_count = u32::MAX;
            for node in group {
                let count = counts.get(node.index()).copied().unwrap_or(u32::MAX);
                if count < best_count {
                    best = node.index();
                    best_count = count;
                }
            }
            if let Some(slot) = counts.get_mut(best) {
                *slot = best_count + 1;
                max_count = max_count.max(*slot);
            }
        }
    } else {
        for node in groups.flatten() {
            if let Some(slot) = counts.get_mut(node.index()) {
                *slot += 1;
                max_count = max_count.max(*slot);
            }
        }
    }
    max_count
}

/// One grid point's load shape: the repeated addend each chosen node
/// receives per routed rank, and the total load the cache absorbs.
#[derive(Clone, Copy)]
struct PointLoads {
    addend: f64,
    cache_load: f64,
}

/// Reconstructs the per-point engine's exact `LoadReport` for the current
/// walk prefix (= pattern support `x` at cache `c`). A free function so
/// the caller can keep its replica-group iterator borrowed across points.
fn report_at(
    counts: &[u32],
    table: &mut Vec<f64>,
    loads: &mut Vec<f64>,
    offered: f64,
    point: PointLoads,
    max_count: u32,
) -> LoadReport {
    // Backend loads from the repeated-sum table (module docs).
    table.clear();
    table.push(0.0);
    let mut acc = 0.0;
    for _ in 0..max_count {
        acc += point.addend;
        table.push(acc);
    }
    loads.clear();
    loads.extend(
        counts
            .iter()
            .map(|&count| table.get(count as usize).copied().unwrap_or(0.0)),
    );

    LoadReport {
        snapshot: LoadSnapshot::new(loads.clone()),
        cache_load: point.cache_load,
        offered,
        unserved: 0.0,
        cache_stats: None,
    }
}

/// Evaluates the same `(c, x)` grid against many per-run sweeps in
/// parallel, returning per-run results in run order.
///
/// Runs are chunked over scoped threads writing disjoint output slots, so
/// results are independent of the worker count (`threads = 0` uses all
/// cores). This is what makes a critical-size bisection probe cheap: the
/// expensive [`RunSweep`]s are built once and interrogated per probe.
#[expect(
    clippy::disallowed_methods,
    reason = "the audited sweep fan-out: threads write disjoint output slots"
)]
pub fn evaluate_many(
    sweeps: &mut [RunSweep],
    threads: usize,
    cache_capacity: usize,
    x_values: &[u64],
) -> Vec<Result<Vec<LoadReport>>> {
    let runs = sweeps.len();
    if runs == 0 {
        return Vec::new();
    }
    let workers = resolve_threads(threads).min(runs);
    if workers <= 1 {
        return sweeps
            .iter_mut()
            .map(|s| s.evaluate(cache_capacity, x_values))
            .collect();
    }
    let chunk = runs.div_ceil(workers);
    let mut out: Vec<Option<Result<Vec<LoadReport>>>> = (0..runs).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (sweep_chunk, out_chunk) in sweeps.chunks_mut(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (sweep, slot) in sweep_chunk.iter_mut().zip(out_chunk.iter_mut()) {
                    *slot = Some(sweep.evaluate(cache_capacity, x_values));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Err(SimError::InvalidConfig {
                    field: "threads",
                    reason: "internal: sweep slot left unevaluated".to_owned(),
                })
            })
        })
        .collect()
}

/// One `(cache, x)` grid point of a journaled sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    /// Front-end cache capacity `c`.
    pub cache: usize,
    /// Attack size `x` (number of keys queried at equal rate).
    pub x: u64,
}

/// The journaled outcome of one grid point of [`repeat_sweep_journaled`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    /// The grid point this outcome belongs to.
    pub point: SweepPoint,
    /// Reports, gain aggregate and journal for this point — the same
    /// shape `repeat_rate_simulation_journaled` returns.
    pub journaled: JournaledRun,
}

/// Resolves the *effective* front-end capacity for a nominal cache size
/// under `base.effective_cache_kind()`, exactly as the rate engine does:
/// `perfect` serves the top `c` ranks, `none` bypasses the cache
/// entirely.
///
/// # Errors
///
/// Rejects stateful cache kinds — including `perfect` demoted to
/// W-TinyLFU by online admission — which the steady-state oracle walk
/// cannot model (use [`RunSweep::evaluate_online`] or the rate
/// engine's online path instead).
pub fn effective_capacity(base: &SimConfig, cache: usize) -> Result<usize> {
    match base.effective_cache_kind() {
        CacheKind::Perfect => Ok(cache),
        CacheKind::None => Ok(0),
        other => Err(SimError::InvalidConfig {
            field: "cache_kind",
            reason: format!(
                "sweep engine models steady state and supports only \
                 perfect/none caching, got {}; use the query engine",
                other.name()
            ),
        }),
    }
}

/// `(effective capacity, ascending x grid)` per consecutive-cache group.
type PointGroups = Vec<(usize, Vec<u64>)>;

/// Groups consecutive equal-cache points and resolves effective
/// capacities, enforcing the grid contract.
fn group_points(base: &SimConfig, points: &[SweepPoint]) -> Result<PointGroups> {
    if points.is_empty() {
        return Err(SimError::InvalidConfig {
            field: "points",
            reason: "empty sweep grid".to_owned(),
        });
    }
    let mut groups: PointGroups = Vec::new();
    let mut last_cache: Option<usize> = None;
    for point in points {
        let effective = effective_capacity(base, point.cache)?;
        match groups.last_mut() {
            Some((_, xs)) if last_cache == Some(point.cache) => {
                if xs.last().is_some_and(|&prev| prev >= point.x) {
                    return Err(SimError::InvalidConfig {
                        field: "points",
                        reason: format!(
                            "x grid must be strictly ascending within a cache group \
                             (cache {}, x {})",
                            point.cache, point.x
                        ),
                    });
                }
                xs.push(point.x);
            }
            _ => {
                groups.push((effective, vec![point.x]));
                last_cache = Some(point.cache);
            }
        }
    }
    Ok(groups)
}

/// Repeats a whole `(cache, x)` grid under a [`StopRule`], evaluating
/// every point against the **same** per-run partitions, and journals each
/// point exactly like `repeat_rate_simulation_journaled` would.
///
/// Consecutive points with equal `cache` share one incremental walk; the
/// `x` values within such a group must be strictly ascending. Run `i`
/// uses `base.for_run(i)` — the identical seed derivation as the
/// per-point path — so every journal record's seed replays its run
/// bit-for-bit through `run_rate_simulation`. With an adaptive rule the
/// batch stops once *every* point's gain CI is tight enough (a joint
/// criterion, since all points share the runs); the stop point remains
/// thread-count invariant.
///
/// Note on journal `duration_secs`: a sweep evaluates all grid points per
/// run in one pass, so each record carries the wall-clock duration of the
/// *whole per-run sweep*, not of one point.
///
/// # Errors
///
/// Propagates simulation errors (first failing run wins) and rejects
/// malformed grids or non-`perfect`/`none` cache kinds.
pub fn repeat_sweep_journaled(
    base: &SimConfig,
    points: &[SweepPoint],
    rule: &StopRule,
    threads: usize,
) -> Result<Vec<SweepRun>> {
    let groups = group_points(base, points)?;
    let Some(x_max) = points.iter().map(|p| p.x).max() else {
        // Unreachable: group_points already rejected an empty grid.
        return Ok(Vec::new());
    };

    let outcome = repeat_with_stopping_multi(
        rule,
        threads,
        |i| {
            timed(|| -> Result<Vec<LoadReport>> {
                let cfg_run = base.for_run(i as u64);
                let mut sweep = RunSweep::new(&cfg_run, x_max)?;
                let mut reports = Vec::with_capacity(points.len());
                for (cache, xs) in &groups {
                    reports.append(&mut sweep.evaluate(*cache, xs)?);
                }
                Ok(reports)
            })
        },
        // Errors contribute zero gains to the stop statistic; they abort
        // the whole repetition below, so the values never reach callers.
        |(reports, _)| match reports {
            Ok(reports) => reports.iter().map(|r| r.gain().value()).collect(),
            Err(_) => vec![0.0; points.len()],
        },
    );

    let mut durations = Vec::with_capacity(outcome.results.len());
    let mut per_run: Vec<Vec<LoadReport>> = Vec::with_capacity(outcome.results.len());
    for (reports, duration) in outcome.results {
        per_run.push(reports?);
        durations.push(duration);
    }

    let mut out = Vec::with_capacity(points.len());
    for (index, point) in points.iter().enumerate() {
        let reports: Vec<LoadReport> = per_run
            .iter()
            .filter_map(|run| run.get(index).cloned())
            .collect();
        let cfg_point = base
            .to_builder()
            .cache_capacity(point.cache)
            .attack_x(point.x)
            .build()?;
        let aggregate = GainAggregate::from_reports(&reports);
        let journal = RunJournal::new(
            &cfg_point,
            rule,
            &reports,
            &durations,
            outcome.stopped_early,
            outcome
                .ci_half_widths
                .get(index)
                .copied()
                .unwrap_or(f64::INFINITY),
        );
        out.push(SweepRun {
            point: *point,
            journaled: JournaledRun {
                reports,
                aggregate,
                journal,
            },
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::rate_engine::run_rate_simulation;

    fn base(selector: SelectorKind) -> SimConfig {
        SimConfig::builder()
            .nodes(40)
            .items(2_000)
            .rate(1e4)
            .cache_capacity(10)
            .selector(selector)
            .seed(99)
            .build()
            .unwrap()
    }

    fn per_point(base: &SimConfig, c: usize, x: u64) -> LoadReport {
        let cfg = base
            .to_builder()
            .cache_capacity(c)
            .attack_x(x)
            .build()
            .unwrap();
        run_rate_simulation(&cfg).unwrap()
    }

    #[test]
    fn sweep_matches_engine_bit_for_bit_sticky() {
        let cfg = base(SelectorKind::LeastLoaded);
        let mut sweep = RunSweep::new(&cfg, 2_000).unwrap();
        let grid = [11, 12, 40, 500, 2_000];
        let reports = sweep.evaluate(10, &grid).unwrap();
        for (&x, report) in grid.iter().zip(&reports) {
            assert_eq!(report, &per_point(&cfg, 10, x), "x={x}");
        }
    }

    #[test]
    fn sweep_matches_engine_bit_for_bit_even_split() {
        let cfg = base(SelectorKind::Random);
        let mut sweep = RunSweep::new(&cfg, 2_000).unwrap();
        let grid = [1, 3, 64, 1_999];
        let reports = sweep.evaluate(0, &grid).unwrap();
        for (&x, report) in grid.iter().zip(&reports) {
            assert_eq!(report, &per_point(&cfg, 0, x), "x={x}");
        }
    }

    #[test]
    fn fully_cached_points_report_idle_backend() {
        let cfg = base(SelectorKind::LeastLoaded);
        let mut sweep = RunSweep::new(&cfg, 100).unwrap();
        let reports = sweep.evaluate(50, &[10, 50, 51]).unwrap();
        for (report, &x) in reports.iter().zip(&[10u64, 50, 51]) {
            assert_eq!(report, &per_point(&cfg, 50, x), "x={x}");
        }
        assert_eq!(reports[0].snapshot.total(), 0.0);
        assert_eq!(reports[0].gain().value(), 0.0);
        assert!(reports[2].snapshot.total() > 0.0);
    }

    #[test]
    fn evaluate_resets_between_calls() {
        let cfg = base(SelectorKind::LeastLoaded);
        let mut sweep = RunSweep::new(&cfg, 500).unwrap();
        let first = sweep.evaluate(10, &[11, 500]).unwrap();
        let again = sweep.evaluate(10, &[11, 500]).unwrap();
        assert_eq!(first, again, "scratch state leaked across evaluate calls");
        // A different cache size against the same structure still matches.
        let other = sweep.evaluate(0, &[500]).unwrap();
        assert_eq!(other[0], per_point(&cfg, 0, 500));
    }

    #[test]
    fn rejects_bad_grids_and_patterns() {
        let cfg = base(SelectorKind::LeastLoaded);
        let mut sweep = RunSweep::new(&cfg, 100).unwrap();
        assert!(sweep.evaluate(10, &[]).is_err());
        assert!(sweep.evaluate(10, &[5, 5]).is_err());
        assert!(sweep.evaluate(10, &[20, 10]).is_err());
        assert!(sweep.evaluate(10, &[0, 10]).is_err());
        assert!(sweep.evaluate(10, &[101]).is_err());
        assert!(RunSweep::new(&cfg, 0).is_err());
        assert!(RunSweep::new(&cfg, 2_001).is_err());

        let zipf = cfg
            .to_builder()
            .pattern(scp_workload::AccessPattern::zipf(1.1, 2_000).unwrap())
            .build()
            .unwrap();
        assert!(matches!(
            RunSweep::new(&zipf, 100),
            Err(SimError::InvalidConfig {
                field: "pattern",
                ..
            })
        ));
    }

    #[test]
    fn uniform_full_space_pattern_is_accepted() {
        let cfg = base(SelectorKind::LeastLoaded)
            .to_builder()
            .pattern(scp_workload::AccessPattern::uniform(2_000).unwrap())
            .build()
            .unwrap();
        let mut sweep = RunSweep::new(&cfg, 2_000).unwrap();
        // x = m reproduces the Uniform pattern itself bit-for-bit.
        let report = sweep.evaluate(10, &[2_000]).unwrap().remove(0);
        assert_eq!(report, run_rate_simulation(&cfg).unwrap());
    }

    #[test]
    fn online_with_zero_efficiency_matches_uncached_oracle() {
        let cfg = base(SelectorKind::LeastLoaded);
        let mut sweep = RunSweep::new(&cfg, 2_000).unwrap();
        let grid = [11, 40, 500, 2_000];
        let oracle = sweep.evaluate(0, &grid).unwrap();
        let online = sweep.evaluate_online(10, 0.0, &grid).unwrap();
        assert_eq!(oracle, online, "η = 0 must degenerate to no caching");
        let no_cache = sweep.evaluate_online(0, 1.0, &grid).unwrap();
        assert_eq!(oracle, no_cache, "c = 0 must degenerate to no caching");
    }

    #[test]
    fn online_gain_improves_monotonically_with_efficiency() {
        let cfg = base(SelectorKind::LeastLoaded);
        let mut sweep = RunSweep::new(&cfg, 2_000).unwrap();
        let grid = [40, 500];
        let mut last_max = f64::INFINITY;
        for eta in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let reports = sweep.evaluate_online(10, eta, &grid).unwrap();
            let max = reports[0].max_load();
            assert!(
                max <= last_max + 1e-12,
                "η={eta}: max load {max} above {last_max}"
            );
            last_max = max;
            // Conservation: cache + backend must still carry R exactly.
            for r in &reports {
                assert!(r.is_conserved(1e-9), "η={eta}");
            }
        }
    }

    #[test]
    fn online_rejects_bad_efficiency() {
        let cfg = base(SelectorKind::LeastLoaded);
        let mut sweep = RunSweep::new(&cfg, 100).unwrap();
        assert!(sweep.evaluate_online(10, -0.1, &[50]).is_err());
        assert!(sweep.evaluate_online(10, 1.1, &[50]).is_err());
        assert!(sweep.evaluate_online(10, f64::NAN, &[50]).is_err());
        assert!(sweep.evaluate_online(10, 0.5, &[50]).is_ok());
    }

    #[test]
    fn online_spreads_residual_over_every_attacked_key() {
        // x = c + 1: the oracle concentrates R/x on the one uncached key,
        // while the online model leaves each of the x keys a thin
        // residual — so its max load must be far below the oracle's.
        let cfg = base(SelectorKind::LeastLoaded);
        let mut sweep = RunSweep::new(&cfg, 2_000).unwrap();
        let oracle = sweep.evaluate(10, &[11]).unwrap();
        let online = sweep.evaluate_online(10, 1.0, &[11]).unwrap();
        assert!(
            online[0].max_load() < oracle[0].max_load() / 2.0,
            "online {} vs oracle {}",
            online[0].max_load(),
            oracle[0].max_load()
        );
    }

    #[test]
    fn evaluate_many_is_worker_count_invariant() {
        let cfg = base(SelectorKind::LeastLoaded);
        let build = |threads: usize| {
            let mut sweeps: Vec<RunSweep> = (0..6)
                .map(|i| RunSweep::new(&cfg.for_run(i), 2_000).unwrap())
                .collect();
            evaluate_many(&mut sweeps, threads, 10, &[11, 2_000])
                .into_iter()
                .map(|r| r.unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(build(1), build(8));
    }

    #[test]
    fn journaled_sweep_matches_per_point_journaled_runs() {
        use crate::runner::repeat_rate_simulation;
        let cfg = base(SelectorKind::LeastLoaded);
        let points = [
            SweepPoint { cache: 10, x: 11 },
            SweepPoint {
                cache: 10,
                x: 2_000,
            },
            SweepPoint { cache: 40, x: 41 },
        ];
        let swept = repeat_sweep_journaled(&cfg, &points, &StopRule::fixed(4), 0).unwrap();
        assert_eq!(swept.len(), 3);
        for run in &swept {
            let point_cfg = cfg
                .to_builder()
                .cache_capacity(run.point.cache)
                .attack_x(run.point.x)
                .build()
                .unwrap();
            let (reports, agg) = repeat_rate_simulation(&point_cfg, 4, 0).unwrap();
            assert_eq!(run.journaled.reports, reports);
            assert_eq!(run.journaled.aggregate.max_gain(), agg.max_gain());
            assert_eq!(run.journaled.journal.len(), 4);
            // Journal seeds replay exactly (the seed policy is shared).
            for rec in &run.journaled.journal.records {
                assert_eq!(rec.seed, point_cfg.for_run(rec.run as u64).seed);
            }
        }
    }

    #[test]
    fn journaled_sweep_is_thread_count_invariant() {
        let cfg = base(SelectorKind::LeastLoaded);
        let points = [
            SweepPoint { cache: 10, x: 11 },
            SweepPoint { cache: 10, x: 200 },
        ];
        let rule = StopRule::adaptive(3, 16, 0.4);
        let a = repeat_sweep_journaled(&cfg, &points, &rule, 1).unwrap();
        let b = repeat_sweep_journaled(&cfg, &points, &rule, 8).unwrap();
        assert_eq!(a.len(), b.len());
        for (left, right) in a.iter().zip(&b) {
            assert_eq!(left.point, right.point);
            assert_eq!(
                left.journaled.reports, right.journaled.reports,
                "stop point or results depended on threads"
            );
            assert_eq!(left.journaled.aggregate, right.journaled.aggregate);
            // Journals match except the (inherently wall-clock) durations.
            for (lr, rr) in left
                .journaled
                .journal
                .records
                .iter()
                .zip(&right.journaled.journal.records)
            {
                assert_eq!((lr.run, lr.seed, lr.gain), (rr.run, rr.seed, rr.gain));
            }
            assert_eq!(
                left.journaled.journal.stopping,
                right.journaled.journal.stopping
            );
        }
    }

    #[test]
    fn grouping_contract_is_enforced() {
        let cfg = base(SelectorKind::LeastLoaded);
        // Descending x within one cache group.
        let bad = [
            SweepPoint { cache: 10, x: 50 },
            SweepPoint { cache: 10, x: 11 },
        ];
        assert!(repeat_sweep_journaled(&cfg, &bad, &StopRule::fixed(2), 0).is_err());
        assert!(repeat_sweep_journaled(&cfg, &[], &StopRule::fixed(2), 0).is_err());
        let lru = cfg.to_builder().cache_kind(CacheKind::Lru).build().unwrap();
        assert!(matches!(
            repeat_sweep_journaled(
                &lru,
                &[SweepPoint { cache: 10, x: 11 }],
                &StopRule::fixed(2),
                0
            ),
            Err(SimError::InvalidConfig {
                field: "cache_kind",
                ..
            })
        ));
    }

    #[test]
    fn none_cache_resolves_to_zero_capacity() {
        let none = base(SelectorKind::LeastLoaded)
            .to_builder()
            .cache_kind(CacheKind::None)
            .build()
            .unwrap();
        let swept = repeat_sweep_journaled(
            &none,
            &[SweepPoint { cache: 10, x: 40 }],
            &StopRule::fixed(2),
            0,
        )
        .unwrap();
        // The cache is bypassed entirely, like the per-point engine does.
        for report in &swept[0].journaled.reports {
            assert_eq!(report.cache_load, 0.0);
        }
    }
}

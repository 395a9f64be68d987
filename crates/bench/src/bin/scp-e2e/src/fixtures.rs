//! The benchmark's own fixtures: one configuration per workload, built
//! from the run seed and nothing else. The product receives only the
//! generated config (`--seed` becomes `SimConfig.seed`).
//!
//! Shapes are fixed here, not imported from `scp_bench`, so a later
//! change to the repository's bench helpers cannot move the baseline.

use scp_core::bounds::{critical_cache_size, KParam};
use scp_serve::{MembershipChange, MembershipEvent, PowShield, ServeConfig};
use scp_sim::config::{CacheKind, PartitionerKind, SelectorKind};
use scp_sim::{AdmissionKind, SimConfig};
use scp_workload::AccessPattern;

/// Key-space size `m` of every workload.
pub(crate) const ITEMS: u64 = 100_000;
/// Offered logical rate `R` (queries/second of logical time).
pub(crate) const RATE: f64 = 1e5;
/// Front-end cache size of the serve workloads.
pub(crate) const SERVE_CACHE: usize = 64;
/// Per-shard capacity headroom `h` in `r_i = h·R/n`.
pub(crate) const HEADROOM: f64 = 1.5;
/// Headroom of the elastic workload. Multi-probe placement on 64 nodes
/// is uneven enough that at 1.5 about one seed in thirty sheds a few
/// dozen queries; the harness requires workloads on which no operation
/// fails, so the buckets get room while `try_take` still runs per query.
pub(crate) const ELASTIC_HEADROOM: f64 = 3.0;
/// Zipf exponent of the skewed workloads.
pub(crate) const ZIPF_ALPHA: f64 = 0.99;
/// Node count of the sweep workload (the paper's Section IV scale).
pub(crate) const SWEEP_NODES: usize = 1000;
/// Seeds evaluated per sweep iteration.
pub(crate) const SWEEP_SEEDS: u64 = 10;
/// Grid points per `(seed, c)` walk.
pub(crate) const SWEEP_GRID_POINTS: usize = 15;
/// The under-provisioned cache size whose best-response gain the sweep
/// workload reports.
pub(crate) const SWEEP_SMALL_CACHE: usize = 200;
/// Evicting policies the query-engine workload runs, in order.
pub(crate) const SIM_QUERY_POLICIES: [CacheKind; 3] =
    [CacheKind::Lru, CacheKind::TinyLfu, CacheKind::Arc];

/// The seven workloads, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    ServeHit,
    ServeMiss,
    ServeThreaded,
    ServeElastic,
    ServeDefended,
    SimSweep,
    SimQuery,
}

impl Workload {
    pub(crate) const ALL: [Workload; 7] = [
        Workload::ServeHit,
        Workload::ServeMiss,
        Workload::ServeThreaded,
        Workload::ServeElastic,
        Workload::ServeDefended,
        Workload::SimSweep,
        Workload::SimQuery,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::ServeHit => "serve_hit",
            Workload::ServeMiss => "serve_miss",
            Workload::ServeThreaded => "serve_threaded",
            Workload::ServeElastic => "serve_elastic",
            Workload::ServeDefended => "serve_defended",
            Workload::SimSweep => "sim_sweep",
            Workload::SimQuery => "sim_query",
        }
    }

    pub(crate) fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers it loads and which it
    /// bypasses (one line, copied into `BENCHMARK.json`).
    pub(crate) fn why(self) -> &'static str {
        match self {
            Workload::ServeHit => {
                "x=c+1 attack, ~98.5% cache hits: key generation and the cache probe are the work, routing is bypassed"
            }
            Workload::ServeMiss => {
                "uniform over all m keys, ~0% hits: replica_group, selection, token buckets and batching are the work, the cache is bypassed"
            }
            Workload::ServeThreaded => {
                "serve_miss traffic through intake rings, admission thread and SPSC fan-out: threaded vs deterministic at equal shards"
            }
            Workload::ServeElastic => {
                "Zipf on 64 multi-probe nodes with join/crash/recover/leave mid-run: elastic lookup reads beside reshard writes"
            }
            Workload::ServeDefended => {
                "Zipf through online W-TinyLFU admission and the PoW shield: the c<c* defence stack, a mutating cache plus solve/verify"
            }
            Workload::SimSweep => {
                "planner grids: RunSweep build plus (x,c) walks at n=1000, no cache policy and no rings"
            }
            Workload::SimQuery => {
                "sampling engine with LRU, TinyLFU and ARC at n=100: the cache layer written on every simulated request"
            }
        }
    }

    /// Queries one entry call is given at full size (`total_queries` of a
    /// serve run, queries per policy of `sim_query`; `sim_sweep` takes
    /// none — its size is the grid). Sized for roughly 0.15–0.35 s per
    /// iteration on a 2-vCPU sandbox, so a run takes its median over
    /// dozens of iterations.
    pub(crate) fn quota(self) -> u64 {
        match self {
            Workload::ServeHit => 8_000_000,
            Workload::ServeMiss | Workload::ServeThreaded => 1_000_000,
            Workload::ServeElastic => 500_000,
            Workload::ServeDefended => 250_000,
            Workload::SimSweep => 0,
            Workload::SimQuery => 250_000,
        }
    }

    /// Whether repeated iterations must reproduce the same digest. The
    /// threaded engine's admission order is fixed by its single client,
    /// but backpressure sheds depend on scheduling, so it is exempt.
    pub(crate) fn deterministic(self) -> bool {
        !matches!(self, Workload::ServeThreaded)
    }
}

/// What could go wrong while building a fixture, rendered for the user.
pub(crate) type FixtureResult<T> = Result<T, String>;

fn shape(nodes: usize, seed: u64) -> scp_sim::SimConfigBuilder {
    SimConfig::builder()
        .nodes(nodes)
        .replication(3)
        .items(ITEMS)
        .rate(RATE)
        .cache_capacity(SERVE_CACHE)
        .partitioner(PartitionerKind::Hash)
        .selector(SelectorKind::LeastLoaded)
        .seed(seed)
}

fn zipf() -> FixtureResult<AccessPattern> {
    AccessPattern::zipf(ZIPF_ALPHA, ITEMS).map_err(|e| e.to_string())
}

/// The serve configuration of a `serve_*` workload for `queries`
/// submitted queries (`None` for the `sim_*` workloads).
pub(crate) fn serve_config(
    workload: Workload,
    seed: u64,
    queries: u64,
) -> FixtureResult<Option<ServeConfig>> {
    let sim = match workload {
        // The builder's default pattern is the paper's x = c + 1 attack.
        Workload::ServeHit => shape(8, seed),
        Workload::ServeMiss | Workload::ServeThreaded => {
            shape(4, seed).pattern(AccessPattern::uniform(ITEMS).map_err(|e| e.to_string())?)
        }
        Workload::ServeElastic => shape(64, seed)
            .partitioner(PartitionerKind::MultiProbe)
            .pattern(zipf()?),
        Workload::ServeDefended => shape(8, seed)
            .admission(AdmissionKind::Online)
            .pattern(zipf()?),
        Workload::SimSweep | Workload::SimQuery => return Ok(None),
    };
    let mut cfg = ServeConfig::new(sim.build().map_err(|e| e.to_string())?);
    cfg.capacity_headroom = HEADROOM;
    cfg.total_queries = queries;
    match workload {
        Workload::ServeThreaded => {
            cfg.clients = 1;
            cfg.client_window = 1024;
            cfg.submit_batch = 64;
        }
        Workload::ServeElastic => {
            cfg.capacity_headroom = ELASTIC_HEADROOM;
            let at = |tenths: u64| queries.saturating_mul(tenths) / 10;
            cfg.membership = vec![
                MembershipEvent {
                    at_query: at(2),
                    change: MembershipChange::Join(64),
                },
                MembershipEvent {
                    at_query: at(4),
                    change: MembershipChange::Crash(3),
                },
                MembershipEvent {
                    at_query: at(6),
                    change: MembershipChange::Recover(3),
                },
                MembershipEvent {
                    at_query: at(8),
                    change: MembershipChange::Leave(64),
                },
            ];
        }
        Workload::ServeDefended => {
            // Replay capacity above the 100k queries of one nonce window,
            // so the fail-closed replay cache rejects no legitimate proof.
            cfg.pow = Some(PowShield {
                difficulty: 4,
                window_secs: 1.0,
                replay_capacity: 1 << 17,
            });
        }
        _ => {}
    }
    Ok(Some(cfg))
}

/// Base configuration of the sweep workload for one of its seeds: the
/// paper's equal-rate attack family on `n = 1000` nodes.
pub(crate) fn sweep_config(seed: u64, run: u64) -> FixtureResult<SimConfig> {
    let base = SimConfig::builder()
        .nodes(SWEEP_NODES)
        .replication(3)
        .items(ITEMS)
        .rate(RATE)
        .cache_capacity(SWEEP_SMALL_CACHE)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    Ok(base.for_run(run))
}

/// The three cache sizes the sweep walks: two under-provisioned ones and
/// the paper-fitted critical size `c*`.
pub(crate) fn sweep_caches() -> [usize; 3] {
    let critical = critical_cache_size(SWEEP_NODES, 3, &KParam::paper_fitted());
    [SWEEP_SMALL_CACHE, 600, critical]
}

/// Figure-3-shaped geometric grid from `c + 1` to `m`, strictly
/// ascending (duplicates from rounding are dropped).
pub(crate) fn log_grid(cache: usize, points: usize) -> Vec<u64> {
    let lo = cache as u64 + 1;
    let (flo, fhi) = (lo as f64, ITEMS as f64);
    let steps = points.saturating_sub(1).max(1) as f64;
    let mut out: Vec<u64> = Vec::with_capacity(points);
    for i in 0..points {
        let raw = if i + 1 == points {
            ITEMS
        } else {
            (flo * (fhi / flo).powf(i as f64 / steps)).round() as u64
        };
        let x = raw.clamp(lo, ITEMS);
        if out.last().is_none_or(|&prev| x > prev) {
            out.push(x);
        }
    }
    out
}

/// Configuration of the query-engine workload for one cache policy.
pub(crate) fn sim_query_config(seed: u64, kind: CacheKind) -> FixtureResult<SimConfig> {
    SimConfig::builder()
        .nodes(100)
        .replication(3)
        .items(ITEMS)
        .rate(RATE)
        .cache_kind(kind)
        .cache_capacity(1000)
        .pattern(zipf()?)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())
}

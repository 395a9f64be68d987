//! The end-to-end run of one workload: set-up samples, warm-up, timed
//! iterations, output checks on every iteration, and the digest.
//!
//! The product is reached only through its public entry points
//! (`run_deterministic`, `run_threaded`, `RunSweep`,
//! `run_query_simulation`); tracing is off here.

use crate::fixtures::{self, Workload};
use crate::procstat;
use crate::stats::{Digest, Summary};
use scp_serve::{run_deterministic, run_threaded, ServeConfig, ServeReport};
use scp_sim::query_engine::run_query_simulation;
use scp_sim::sweep::RunSweep;
use scp_sim::{LoadReport, SimConfig};
use scp_workload::rng::mix;
use std::hint::black_box;
use std::time::Instant;

/// Untimed iterations before measuring, so caches, the allocator and the
/// branch predictors are warm.
pub(crate) const WARMUP_ITERS: usize = 2;
/// Fewest timed iterations a run reports quartiles over.
const MIN_TIMED_ITERS: usize = 15;
/// Fewest one-query set-up calls behind `setup_s`.
const MIN_SETUP_CALLS: usize = 31;
/// Set-up calls continue past the minimum until this much time is
/// sampled, so a microsecond-scale set-up is a median of hundreds.
const SETUP_SAMPLE_SECS: f64 = 0.4;
/// Most set-up calls in one run.
const MAX_SETUP_CALLS: usize = 2001;

/// Everything a workload needs, generated from the seed before timing.
pub(crate) enum Prepared {
    Serve {
        cfg: ServeConfig,
        threaded: bool,
    },
    Sweep {
        runs: Vec<SimConfig>,
        /// `(effective cache size, ascending x grid)` per walk.
        walks: Vec<(usize, Vec<u64>)>,
    },
    Query {
        policies: Vec<SimConfig>,
        queries: u64,
    },
}

/// What the product returned, before any check.
pub(crate) enum Raw {
    Serve(Box<ServeReport>),
    /// Reports in `run → walk → grid point` order.
    Sweep(Vec<Vec<Vec<LoadReport>>>),
    Query(Vec<LoadReport>),
}

/// Builds the workload's inputs for `queries` ops per serve run
/// (ignored by `sim_sweep`; per policy for `sim_query`).
pub(crate) fn prepare(workload: Workload, seed: u64, queries: u64) -> Result<Prepared, String> {
    if let Some(cfg) = fixtures::serve_config(workload, seed, queries)? {
        return Ok(Prepared::Serve {
            cfg,
            threaded: workload == Workload::ServeThreaded,
        });
    }
    if workload == Workload::SimSweep {
        let runs = (0..fixtures::SWEEP_SEEDS)
            .map(|run| fixtures::sweep_config(seed, run))
            .collect::<Result<Vec<_>, _>>()?;
        let walks = fixtures::sweep_caches()
            .into_iter()
            .map(|c| (c, fixtures::log_grid(c, fixtures::SWEEP_GRID_POINTS)))
            .collect();
        return Ok(Prepared::Sweep { runs, walks });
    }
    let policies = fixtures::SIM_QUERY_POLICIES
        .into_iter()
        .map(|kind| fixtures::sim_query_config(seed, kind))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Prepared::Query { policies, queries })
}

/// The workload's inputs at its full per-iteration size.
pub(crate) fn prepare_full(workload: Workload, seed: u64) -> Result<Prepared, String> {
    prepare(workload, seed, workload.quota())
}

/// One call of the workload's entry function(s): the timed region.
pub(crate) fn execute(prepared: &Prepared) -> Result<Raw, String> {
    match prepared {
        Prepared::Serve { cfg, threaded } => {
            let report = if *threaded {
                run_threaded(cfg)
            } else {
                run_deterministic(cfg)
            };
            report
                .map(|r| Raw::Serve(Box::new(r)))
                .map_err(|e| e.to_string())
        }
        Prepared::Sweep { runs, walks } => {
            let mut out = Vec::with_capacity(runs.len());
            for cfg in runs {
                let mut sweep = RunSweep::new(cfg, cfg.items).map_err(|e| e.to_string())?;
                let mut per_walk = Vec::with_capacity(walks.len());
                for (cache, grid) in walks {
                    per_walk.push(sweep.evaluate(*cache, grid).map_err(|e| e.to_string())?);
                }
                out.push(per_walk);
            }
            Ok(Raw::Sweep(out))
        }
        Prepared::Query { policies, queries } => policies
            .iter()
            .map(|cfg| run_query_simulation(cfg, *queries).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()
            .map(Raw::Query),
    }
}

/// The checked, reduced result of one iteration.
#[derive(Debug, Clone)]
pub(crate) struct Outcome {
    /// Ops the iteration performed (the `ops_per_s` numerator).
    pub(crate) ops: u64,
    pub(crate) attempted: u64,
    /// Ops answered by the cache or processed by a shard.
    pub(crate) served: u64,
    /// Ops refused or lost: unserved, shed, legitimate proofs rejected,
    /// quota never submitted.
    pub(crate) failed: u64,
    pub(crate) gain: f64,
    pub(crate) digest: Digest,
    /// Failed output checks, empty when the iteration is correct.
    pub(crate) violations: Vec<String>,
}

fn require(violations: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        violations.push(what());
    }
}

/// Folds the exact integer outputs of a serve run.
fn serve_digest(report: &ServeReport) -> Digest {
    let mut d = Digest::new();
    d.all([
        report.submitted,
        report.cache_hits,
        report.unserved,
        report.pow_rejected,
        report.pow_attempts,
        report.legit.submitted,
        report.legit.hits,
        report.legit.pow_rejected,
        report.attack.submitted,
        report.attack.hits,
        report.attack.pow_rejected,
        report.cache_rejections,
        report.sketch_resets,
        report.quota_unclaimed,
        report.migrated,
        report.reshards,
        report.epoch,
    ]);
    for shard in &report.shards {
        d.all([
            shard.routed,
            shard.processed,
            shard.shed_capacity,
            shard.shed_backpressure,
        ]);
    }
    d
}

fn check_serve(workload: Workload, cfg: &ServeConfig, report: &ServeReport) -> Outcome {
    let mut violations = Vec::new();
    let v = &mut violations;
    require(v, report.is_conserved(), || {
        "conservation law broken".to_owned()
    });
    require(v, report.is_drained(), || {
        "a shard did not drain".to_owned()
    });
    require(
        v,
        report.submitted + report.quota_unclaimed == cfg.total_queries,
        || {
            format!(
                "submitted {} + unclaimed {} != quota {}",
                report.submitted, report.quota_unclaimed, cfg.total_queries
            )
        },
    );
    let want_reshards = cfg.membership.len() as u64;
    require(v, report.reshards == want_reshards, || {
        format!("reshards {} != {want_reshards}", report.reshards)
    });
    // Only requests buffered toward a shard (fewer than one batch each)
    // can be displaced at an epoch boundary.
    let displaced_cap = want_reshards * (report.shards.len() * cfg.batch_size) as u64;
    require(v, report.migrated <= displaced_cap, || {
        format!(
            "migrated {} exceeds in-flight bound {displaced_cap}",
            report.migrated
        )
    });
    if workload == Workload::ServeDefended {
        require(v, report.legit.pow_rejected == 0, || {
            format!("{} legitimate proofs rejected", report.legit.pow_rejected)
        });
        require(v, report.pow_attempts >= report.submitted, || {
            "fewer hash attempts than queries".to_owned()
        });
    }
    let gain = report.gain();
    require(v, gain.is_finite() && gain >= 0.0, || {
        format!("gain {gain} is not a finite non-negative number")
    });
    let failed =
        report.unserved + report.shed() + report.legit.pow_rejected + report.quota_unclaimed;
    Outcome {
        ops: cfg.total_queries,
        attempted: cfg.total_queries,
        served: report.served(),
        failed,
        gain,
        digest: serve_digest(report),
        violations,
    }
}

fn fold_load_report(d: &mut Digest, report: &LoadReport) {
    d.f64(report.gain().value());
    d.f64(report.cache_load);
    d.f64(report.unserved);
}

fn check_load_report(violations: &mut Vec<String>, label: &str, report: &LoadReport) {
    let gain = report.gain().value();
    require(violations, gain.is_finite() && gain >= 0.0, || {
        format!("{label}: gain {gain} is not a finite non-negative number")
    });
    require(violations, report.is_conserved(1e-9), || {
        format!("{label}: load not conserved")
    });
}

/// `attack_gain` of the sweep: the adversary's best response at the
/// first (under-provisioned) cache size — the maximum over the grid of
/// the seed-mean gain.
fn sweep_gain(reports: &[Vec<Vec<LoadReport>>]) -> f64 {
    let points = reports
        .first()
        .and_then(|run| run.first())
        .map_or(0, Vec::len);
    let mut best = 0.0f64;
    for point in 0..points {
        let gains: Vec<f64> = reports
            .iter()
            .filter_map(|run| run.first()?.get(point))
            .map(|r| r.gain().value())
            .collect();
        if !gains.is_empty() {
            best = best.max(gains.iter().sum::<f64>() / gains.len() as f64);
        }
    }
    best
}

/// Checks one iteration's outputs and reduces them to counts, the gain
/// and the digest.
pub(crate) fn check(workload: Workload, prepared: &Prepared, raw: &Raw) -> Outcome {
    match (prepared, raw) {
        (Prepared::Serve { cfg, .. }, Raw::Serve(report)) => check_serve(workload, cfg, report),
        (Prepared::Sweep { .. }, Raw::Sweep(reports)) => {
            let mut violations = Vec::new();
            let mut digest = Digest::new();
            let mut ops = 0u64;
            for (run, per_walk) in reports.iter().enumerate() {
                for (walk, points) in per_walk.iter().enumerate() {
                    for report in points {
                        ops += 1;
                        fold_load_report(&mut digest, report);
                        check_load_report(
                            &mut violations,
                            &format!("run {run} walk {walk}"),
                            report,
                        );
                    }
                }
            }
            Outcome {
                ops,
                attempted: ops,
                served: ops,
                failed: 0,
                gain: sweep_gain(reports),
                digest,
                violations,
            }
        }
        (Prepared::Query { queries, .. }, Raw::Query(reports)) => {
            let mut violations = Vec::new();
            let mut digest = Digest::new();
            let mut gain = 0.0f64;
            for (i, report) in reports.iter().enumerate() {
                fold_load_report(&mut digest, report);
                digest.all(report.snapshot.loads().iter().map(|l| l.to_bits()));
                check_load_report(&mut violations, &format!("policy {i}"), report);
                gain = gain.max(report.gain().value());
            }
            let ops = queries * reports.len() as u64;
            Outcome {
                ops,
                attempted: ops,
                served: ops,
                failed: 0,
                gain,
                digest,
                violations,
            }
        }
        _ => Outcome {
            ops: 0,
            attempted: 0,
            served: 0,
            failed: 0,
            gain: 0.0,
            digest: Digest::new(),
            violations: vec!["output kind does not match the workload".to_owned()],
        },
    }
}

/// One timed call plus its checked outcome.
fn timed_iteration(workload: Workload, prepared: &Prepared) -> Result<(f64, Outcome), String> {
    let start = Instant::now();
    let raw = black_box(execute(black_box(prepared))?);
    let secs = start.elapsed().as_secs_f64();
    Ok((secs, check(workload, prepared, &raw)))
}

/// One set-up: build the workload's configuration from the seed, then
/// run the entry function on a one-query quota. Building the
/// configuration is the only product code the timed iterations do not
/// repeat, so it is where work moved out of them would hide.
fn set_up_once(workload: Workload, seed: u64) -> Result<(), String> {
    let tiny = black_box(prepare(workload, black_box(seed), 1)?);
    match &tiny {
        // The sweep's set-up is its routing-plan build.
        Prepared::Sweep { runs, .. } => {
            let cfg = runs.first().ok_or("sweep has no runs")?;
            black_box(RunSweep::new(cfg, cfg.items).map_err(|e| e.to_string())?);
        }
        // Starting and joining the pipeline's threads is scheduler
        // latency, not product work: identical processes read 105 or
        // 205 us depending on what else the host runs, which no bound can
        // gate. The threaded workload's set-up is therefore taken through
        // deterministic replay of the same configuration; thread start-up
        // stays inside every timed iteration.
        Prepared::Serve {
            cfg,
            threaded: true,
        } => {
            black_box(run_deterministic(cfg).map_err(|e| e.to_string())?);
        }
        other => {
            black_box(execute(other)?);
        }
    }
    Ok(())
}

/// Wall time of [`set_up_once`] over seeds derived from `seed`, sampled
/// until both the minimum call count and the sampling budget are met.
fn setup_samples(workload: Workload, seed: u64) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(MIN_SETUP_CALLS);
    let budget = Instant::now();
    while samples.len() < MIN_SETUP_CALLS
        || (budget.elapsed().as_secs_f64() < SETUP_SAMPLE_SECS && samples.len() < MAX_SETUP_CALLS)
    {
        // Each call sets up for another seed derived from the run's: the
        // 64 Feistel walks that seed the oracle cache cost 7–10 us
        // depending on the seed, and the median over derived seeds reads
        // the same whichever seed the run was given.
        let derived = mix(&[seed, samples.len() as u64]);
        let start = Instant::now();
        set_up_once(workload, derived)?;
        samples.push(start.elapsed().as_secs_f64());
    }
    Ok(samples)
}

/// The end-to-end result of one workload run.
#[derive(Debug, Clone)]
pub(crate) struct EndToEnd {
    pub(crate) ops_per_s: Summary,
    /// The median is total CPU over total ops (10 ms ticks resolve it to
    /// well under 1 %); quartiles and range are of the coarser
    /// per-iteration readings, so `--compare` can see when CPU cost was
    /// as unsteady as the clock.
    pub(crate) cpu_ns_per_op: Summary,
    pub(crate) served_frac: f64,
    pub(crate) attack_gain: Summary,
    pub(crate) setup_s: Summary,
    pub(crate) peak_rss_mb: f64,
    pub(crate) iter_secs: Vec<f64>,
    pub(crate) ops_per_iter: u64,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) digest: Digest,
    pub(crate) violations: Vec<String>,
}

impl EndToEnd {
    /// `(metric name, summary)` in `spec::END_TO_END` order.
    pub(crate) fn metrics(&self) -> [(&'static str, Summary); 6] {
        [
            ("ops_per_s", self.ops_per_s),
            ("cpu_ns_per_op", self.cpu_ns_per_op),
            ("served_frac", Summary::single(self.served_frac)),
            ("attack_gain", self.attack_gain),
            ("setup_s", self.setup_s),
            ("peak_rss_mb", Summary::single(self.peak_rss_mb)),
        ]
    }
}

/// Runs `workload` with tracing off: set-up samples, warm-up, then timed
/// iterations for `seconds` (at least [`MIN_TIMED_ITERS`]).
pub(crate) fn run_end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<EndToEnd, String> {
    let setup = setup_samples(workload, seed)?;
    let prepared = prepare_full(workload, seed)?;
    let mut violations: Vec<String> = Vec::new();
    let mut first_digest: Option<Digest> = None;
    let mut note = |outcome: &Outcome, label: &str, violations: &mut Vec<String>| {
        for v in &outcome.violations {
            violations.push(format!("{label}: {v}"));
        }
        let first = *first_digest.get_or_insert(outcome.digest);
        if workload.deterministic() && first != outcome.digest {
            violations.push(format!(
                "{label}: digest {} differs from the first iteration's {}",
                outcome.digest.hex(),
                first.hex()
            ));
        }
    };
    for i in 0..WARMUP_ITERS {
        let (_, outcome) = timed_iteration(workload, &prepared)?;
        note(&outcome, &format!("warm-up {i}"), &mut violations);
    }

    let mut iter_secs = Vec::new();
    let mut rates = Vec::new();
    let mut gains = Vec::new();
    let mut cpu_per_op = Vec::new();
    let (mut ops, mut attempted, mut served, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let mut last_digest = Digest::new();
    let cpu_before = procstat::cpu_seconds()?;
    let mut cpu_mark = cpu_before;
    let clock = Instant::now();
    while iter_secs.len() < MIN_TIMED_ITERS || clock.elapsed().as_secs_f64() < seconds {
        let (secs, outcome) = timed_iteration(workload, &prepared)?;
        let cpu_now = procstat::cpu_seconds()?;
        cpu_per_op.push((cpu_now - cpu_mark) * 1e9 / outcome.ops.max(1) as f64);
        cpu_mark = cpu_now;
        note(
            &outcome,
            &format!("iteration {}", iter_secs.len()),
            &mut violations,
        );
        iter_secs.push(secs);
        rates.push(outcome.ops as f64 / secs.max(1e-12));
        gains.push(outcome.gain);
        ops += outcome.ops;
        attempted += outcome.attempted;
        served += outcome.served;
        failed += outcome.failed;
        last_digest = outcome.digest;
    }
    let mut cpu_ns_per_op = Summary::of(&cpu_per_op).ok_or("no CPU samples")?;
    cpu_ns_per_op.median = (cpu_mark - cpu_before) * 1e9 / ops.max(1) as f64;

    let summarize = |samples: &[f64], what: &str| {
        Summary::of(samples).ok_or_else(|| format!("no finite {what} samples"))
    };
    Ok(EndToEnd {
        ops_per_s: summarize(&rates, "ops_per_s")?,
        cpu_ns_per_op,
        served_frac: served as f64 / attempted.max(1) as f64,
        attack_gain: summarize(&gains, "attack_gain")?,
        setup_s: summarize(&setup, "setup_s")?,
        peak_rss_mb: procstat::peak_rss_mb()?,
        ops_per_iter: ops / iter_secs.len().max(1) as u64,
        iter_secs,
        attempted,
        failed,
        digest: first_digest.unwrap_or(last_digest),
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The serve and sim entry points are exercised at toy quotas: the
    // checks, the failure accounting and the digest must hold there too.
    #[test]
    fn every_workload_passes_its_checks_at_a_small_quota() {
        for workload in Workload::ALL {
            let prepared = prepare(workload, 11, 20_000).unwrap();
            let (secs, a) = timed_iteration(workload, &prepared).unwrap();
            assert!(secs > 0.0);
            assert!(a.violations.is_empty(), "{workload:?}: {:?}", a.violations);
            assert_eq!(a.failed, 0, "{workload:?} must not fail operations");
            assert!(a.served <= a.attempted && a.attempted > 0);
            assert!(a.gain > 0.0, "{workload:?} gain must never be 0");
            if workload.deterministic() {
                let (_, b) = timed_iteration(workload, &prepared).unwrap();
                assert_eq!(a.digest, b.digest, "{workload:?} must replay exactly");
            }
        }
    }

    #[test]
    fn another_seed_changes_the_digest() {
        let digest = |seed| {
            let prepared = prepare(Workload::ServeMiss, seed, 20_000).unwrap();
            timed_iteration(Workload::ServeMiss, &prepared)
                .unwrap()
                .1
                .digest
        };
        assert_ne!(digest(1), digest(2));
    }

    #[test]
    fn elastic_applies_all_four_epochs_and_bounds_displacement() {
        let prepared = prepare(Workload::ServeElastic, 5, 50_000).unwrap();
        let Raw::Serve(report) = execute(&prepared).unwrap() else {
            panic!("serve workload must return a serve report");
        };
        assert_eq!(report.reshards, 4);
        let outcome = check(
            Workload::ServeElastic,
            &prepared,
            &Raw::Serve(report.clone()),
        );
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert_eq!(outcome.attempted - outcome.served, report.migrated);
    }

    #[test]
    fn a_broken_report_is_caught() {
        let prepared = prepare(Workload::ServeMiss, 5, 10_000).unwrap();
        let Raw::Serve(mut report) = execute(&prepared).unwrap() else {
            panic!("serve workload must return a serve report");
        };
        report.cache_hits += 1;
        let outcome = check(Workload::ServeMiss, &prepared, &Raw::Serve(report));
        assert!(outcome
            .violations
            .iter()
            .any(|v| v.contains("conservation")));
    }
}

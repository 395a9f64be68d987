//! Parallel repetition of independent simulation runs.
//!
//! The paper repeats each simulation 200 times over fresh random
//! partitions and reports the max of the maximum loads. [`repeat`] runs a
//! closure for run indices `0..runs` across threads (each run derives its
//! own seed via [`crate::config::SimConfig::for_run`], so results are
//! independent of thread scheduling) and returns results in run order.
//!
//! # Concurrency model
//!
//! Runs are pre-split into **striped disjoint slots**: worker `w` of `W`
//! owns run indices `w, w + W, w + 2W, ...` and writes each result through
//! a `&mut` reference distributed before the threads spawn. No lock is
//! taken anywhere on the hot path, and the borrow checker proves the
//! slots disjoint. A panicking run is caught per-run and re-raised on the
//! coordinating thread with the run index attached, so a failure inside
//! run 173 of 200 says so instead of dying as a context-free worker panic.
//!
//! # Adaptive stopping
//!
//! [`repeat_with_stopping`] grows the number of runs until the 95%
//! confidence interval of a per-run statistic is tight enough (see
//! [`StopRule`]). The stop point is a **pure function of the per-run
//! values in run order** — never of thread scheduling — so adaptive
//! results are bit-identical across `threads = 1` and `threads = 8`.

use crate::config::SimConfig;
use crate::journal::RunJournal;
use crate::metrics::LoadReport;
use crate::rate_engine::run_rate_simulation;
use crate::stats::{RunningStats, Summary};
use crate::Result;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Chooses a worker count: explicit `threads`, or available parallelism.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Renders a caught panic payload as text for re-raising with context.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `f` and returns its result together with the elapsed wall-clock
/// seconds.
///
/// Timing lives here (and not at call sites) because wall-clock reads are
/// confined to this module by the repo's determinism lint: results must
/// never depend on time, only observability records may.
#[expect(
    clippy::disallowed_methods,
    reason = "the runner measures wall time for journal metadata explicitly"
)]
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // DETERMINISM: the measured seconds are observability metadata
    // (progress display, journal duration fields); `f`'s value is
    // returned untouched and never depends on the clock.
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// Runs `job(run_index)` for `0..runs`, in parallel, returning results in
/// run order. `threads = 0` uses all available cores.
///
/// # Panics
///
/// If `job` panics for some run, the panic is re-raised on the calling
/// thread as `"simulation run {i} panicked: {message}"` (the lowest such
/// run index wins when several fail, so the report is deterministic).
#[expect(
    clippy::disallowed_methods,
    reason = "the audited run fan-out: threads write disjoint, pre-distributed slots"
)]
pub fn repeat<T, F>(runs: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if runs == 0 {
        return Vec::new();
    }
    let workers = resolve_threads(threads).min(runs);
    if workers <= 1 {
        return (0..runs).map(job).collect();
    }

    let mut slots: Vec<Option<T>> = (0..runs).map(|_| None).collect();
    // Pre-split the result vector into striped disjoint slot sets: worker
    // `w` owns runs `w, w + workers, ...`. Each `&mut` is handed out
    // before any thread spawns, so no synchronization is needed to write.
    let mut stripes: Vec<Vec<(usize, &mut Option<T>)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, slot) in slots.iter_mut().enumerate() {
        if let Some(stripe) = stripes.get_mut(i % workers) {
            stripe.push((i, slot));
        }
    }

    let job = &job;
    let first_panic: Option<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = stripes
            .into_iter()
            .map(|stripe| {
                scope.spawn(move || -> std::result::Result<(), (usize, String)> {
                    for (i, slot) in stripe {
                        match catch_unwind(AssertUnwindSafe(|| job(i))) {
                            Ok(out) => *slot = Some(out),
                            Err(payload) => return Err((i, panic_message(payload.as_ref()))),
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        let mut first: Option<(usize, String)> = None;
        for handle in handles {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err((i, msg))) => {
                    if first.as_ref().is_none_or(|(j, _)| i < *j) {
                        first = Some((i, msg));
                    }
                }
                // The worker body catches job panics; anything else
                // escaping is a harness bug — re-raise it verbatim.
                Err(payload) => resume_unwind(payload),
            }
        }
        first
    });
    if let Some((i, msg)) = first_panic {
        // Re-raise with context. The original panic already printed via the
        // hook inside the worker; a String payload keeps the
        // `should_panic(expected = ...)` substring contract intact.
        resume_unwind(Box::new(format!("simulation run {i} panicked: {msg}")));
    }
    let results: Vec<T> = slots.into_iter().flatten().collect();
    assert_eq!(results.len(), runs, "every surviving run produces a result");
    results
}

/// When to stop repeating a simulation.
///
/// The rule is evaluated over **run-order prefixes** of the per-run
/// statistic: the stop point is the smallest `k >= min_runs` whose prefix
/// `0..k` has a 95% CI half-width at most `ci_target`, capped at
/// `max_runs`. Because the prefix values themselves are independent of
/// thread count (seeds derive from run indices), the stop point is too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopRule {
    /// Never stop before this many runs (floor for the CI to be meaningful).
    pub min_runs: usize,
    /// Hard ceiling on the number of runs.
    pub max_runs: usize,
    /// Target 95% CI half-width of the per-run statistic's mean.
    /// `<= 0` disables adaptive stopping: exactly `max_runs` execute.
    pub ci_target: f64,
}

impl StopRule {
    /// A fixed-run rule: exactly `runs` repetitions, no early stopping.
    pub fn fixed(runs: usize) -> Self {
        Self {
            min_runs: runs,
            max_runs: runs,
            ci_target: 0.0,
        }
    }

    /// An adaptive rule stopping once the CI half-width reaches
    /// `ci_target`, with hard `[min_runs, max_runs]` limits.
    ///
    /// # Panics
    ///
    /// Panics if `min_runs > max_runs` or `min_runs == 0`.
    pub fn adaptive(min_runs: usize, max_runs: usize, ci_target: f64) -> Self {
        assert!(min_runs > 0, "min_runs must be positive");
        assert!(
            min_runs <= max_runs,
            "min_runs {min_runs} exceeds max_runs {max_runs}"
        );
        Self {
            min_runs,
            max_runs,
            ci_target,
        }
    }

    /// Whether early stopping can ever trigger under this rule.
    pub fn is_adaptive(&self) -> bool {
        self.ci_target > 0.0 && self.min_runs < self.max_runs
    }

    /// The deterministic stop point for per-run metric rows in run
    /// order: the smallest `k` in `[min_runs, len]` where *every*
    /// component's prefix CI half-width is at most `ci_target`, or `None`
    /// if no prefix qualifies (or the rule is not adaptive). A pure
    /// function of the rows, so sweeps stay thread-count invariant.
    fn stop_point_multi(&self, rows: &[Vec<f64>]) -> Option<usize> {
        if !self.is_adaptive() {
            return None;
        }
        let width = rows.first().map(Vec::len)?;
        let mut stats: Vec<RunningStats> = (0..width).map(|_| RunningStats::new()).collect();
        for (i, row) in rows.iter().enumerate() {
            debug_assert_eq!(row.len(), width, "ragged metric rows");
            for (s, &v) in stats.iter_mut().zip(row) {
                s.push(v);
            }
            let k = i + 1;
            if k >= self.min_runs && stats.iter().all(|s| s.ci95_half_width() <= self.ci_target) {
                return Some(k);
            }
        }
        None
    }
}

/// Per-component CI95 half-widths over metric rows (one row per run).
fn component_ci_half_widths(rows: &[Vec<f64>]) -> Vec<f64> {
    let width = rows.first().map(Vec::len).unwrap_or(0);
    let mut stats: Vec<RunningStats> = (0..width).map(|_| RunningStats::new()).collect();
    for row in rows {
        for (s, &v) in stats.iter_mut().zip(row) {
            s.push(v);
        }
    }
    stats.iter().map(RunningStats::ci95_half_width).collect()
}

/// Outcome of an adaptive repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome<T> {
    /// Results for runs `0..stop`, in run order.
    pub results: Vec<T>,
    /// The per-run statistic for the kept runs, in run order.
    pub metrics: Vec<f64>,
    /// Whether the CI criterion stopped the loop before `max_runs`.
    pub stopped_early: bool,
    /// CI95 half-width of the kept metrics.
    pub ci_half_width: f64,
}

/// Repeats `job` under a [`StopRule`], extracting a scalar statistic per
/// run with `metric`: the width-1 case of
/// [`repeat_with_stopping_multi`], with the same stop points.
pub fn repeat_with_stopping<T, F, M>(
    rule: &StopRule,
    threads: usize,
    job: F,
    metric: M,
) -> AdaptiveOutcome<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    M: Fn(&T) -> f64,
{
    let out = repeat_with_stopping_multi(rule, threads, job, |result| vec![metric(result)]);
    AdaptiveOutcome {
        results: out.results,
        metrics: out.metrics.into_iter().flatten().collect(),
        stopped_early: out.stopped_early,
        ci_half_width: out.ci_half_widths.first().copied().unwrap_or(0.0),
    }
}

/// Outcome of an adaptive repetition with a vector-valued per-run
/// statistic (e.g. one gain per grid point of a sweep).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiAdaptiveOutcome<T> {
    /// Results for runs `0..stop`, in run order.
    pub results: Vec<T>,
    /// One metric row per kept run, in run order.
    pub metrics: Vec<Vec<f64>>,
    /// Whether the CI criterion stopped the loop before `max_runs`.
    pub stopped_early: bool,
    /// CI95 half-width of each metric component over the kept runs.
    pub ci_half_widths: Vec<f64>,
}

/// Repeats `job` under a [`StopRule`] with a **vector-valued** per-run
/// statistic: the batch stops at the smallest prefix where *every*
/// component's CI half-width reaches `ci_target`.
///
/// Runs are computed in batches sized to the worker count, but the stop
/// point is decided purely by prefix-scanning the metric rows in run
/// order — overshoot beyond the stop point is computed and discarded,
/// never returned — so results are thread-count invariant. A fixed rule
/// (or `ci_target <= 0`) executes exactly `max_runs` and keeps them all.
/// All metric rows must have the same length.
pub fn repeat_with_stopping_multi<T, F, M>(
    rule: &StopRule,
    threads: usize,
    job: F,
    metric: M,
) -> MultiAdaptiveOutcome<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    M: Fn(&T) -> Vec<f64>,
{
    if !rule.is_adaptive() {
        let results = repeat(rule.max_runs, threads, &job);
        let metrics: Vec<Vec<f64>> = results.iter().map(&metric).collect();
        return MultiAdaptiveOutcome {
            ci_half_widths: component_ci_half_widths(&metrics),
            results,
            metrics,
            stopped_early: false,
        };
    }

    let workers = resolve_threads(threads).min(rule.max_runs).max(1);
    let mut results: Vec<T> = Vec::with_capacity(rule.min_runs);
    let mut metrics: Vec<Vec<f64>> = Vec::with_capacity(rule.min_runs);
    loop {
        // First batch jumps straight to the CI floor; later batches grow
        // by whole worker widths to keep every core busy. Overshoot past
        // the stop point is discarded below, so batching never changes
        // the returned prefix.
        let lo = results.len();
        let target = if lo == 0 {
            rule.min_runs.min(rule.max_runs)
        } else {
            (lo + workers).min(rule.max_runs)
        };
        let mut batch = repeat(target - lo, threads, |i| job(lo + i));
        metrics.extend(batch.iter().map(&metric));
        results.append(&mut batch);

        if let Some(stop) = rule.stop_point_multi(&metrics) {
            results.truncate(stop);
            metrics.truncate(stop);
            break;
        }
        if results.len() >= rule.max_runs {
            break;
        }
    }
    MultiAdaptiveOutcome {
        stopped_early: results.len() < rule.max_runs,
        ci_half_widths: component_ci_half_widths(&metrics),
        results,
        metrics,
    }
}

/// Aggregate of the attack gain across repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct GainAggregate {
    /// Per-run gains, in run order.
    pub gains: Vec<f64>,
    /// Distribution summary of the gains.
    pub summary: Summary,
}

impl GainAggregate {
    /// Builds the aggregate from per-run reports.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty.
    pub fn from_reports(reports: &[LoadReport]) -> Self {
        assert!(!reports.is_empty(), "need at least one report");
        let gains: Vec<f64> = reports.iter().map(|r| r.gain().value()).collect();
        let summary = Summary::of(&gains);
        Self { gains, summary }
    }

    /// The paper's headline statistic: the max over runs of the
    /// (per-run maximum) normalized load.
    pub fn max_gain(&self) -> f64 {
        self.summary.max
    }

    /// Mean gain across runs.
    pub fn mean_gain(&self) -> f64 {
        self.summary.mean
    }
}

/// A repetition batch with its observability record.
#[derive(Debug, Clone, PartialEq)]
pub struct JournaledRun {
    /// Per-run reports, in run order.
    pub reports: Vec<LoadReport>,
    /// Gain aggregate over the kept runs.
    pub aggregate: GainAggregate,
    /// Structured per-run records plus stopping metadata.
    pub journal: RunJournal,
}

/// Repeats the rate engine under a [`StopRule`], recording one
/// [`crate::journal::RunRecord`] per repetition (run index, derived seed,
/// wall-clock duration, load shape, gain) into a [`RunJournal`].
///
/// # Errors
///
/// Returns the first simulation error encountered, if any.
pub fn repeat_rate_simulation_journaled(
    cfg: &SimConfig,
    rule: &StopRule,
    threads: usize,
) -> Result<JournaledRun> {
    let outcome = repeat_with_stopping(
        rule,
        threads,
        |i| timed(|| run_rate_simulation(&cfg.for_run(i as u64))),
        // Errors contribute a zero gain to the stop statistic; they abort
        // the whole repetition below, so the value never reaches callers.
        |(report, _)| report.as_ref().map_or(0.0, |r| r.gain().value()),
    );
    let mut reports = Vec::with_capacity(outcome.results.len());
    let mut durations = Vec::with_capacity(outcome.results.len());
    for (report, duration) in outcome.results {
        reports.push(report?);
        durations.push(duration);
    }
    let aggregate = GainAggregate::from_reports(&reports);
    let journal = RunJournal::new(
        cfg,
        rule,
        &reports,
        &durations,
        outcome.stopped_early,
        outcome.ci_half_width,
    );
    Ok(JournaledRun {
        reports,
        aggregate,
        journal,
    })
}

/// Convenience: repeats the rate engine `runs` times with derived seeds
/// and aggregates the gains.
///
/// # Errors
///
/// Returns the first simulation error encountered, if any.
pub fn repeat_rate_simulation(
    cfg: &SimConfig,
    runs: usize,
    threads: usize,
) -> Result<(Vec<LoadReport>, GainAggregate)> {
    let out = repeat_rate_simulation_journaled(cfg, &StopRule::fixed(runs), threads)?;
    Ok((out.reports, out.aggregate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdmissionKind, CacheKind, PartitionerKind, SelectorKind};
    use scp_workload::AccessPattern;

    fn config() -> SimConfig {
        SimConfig {
            nodes: 50,
            replication: 3,
            cache_kind: CacheKind::Perfect,
            admission: AdmissionKind::Oracle,
            cache_capacity: 10,
            items: 2000,
            rate: 1e4,
            pattern: AccessPattern::uniform_subset(11, 2000).unwrap(),
            partitioner: PartitionerKind::Hash,
            selector: SelectorKind::LeastLoaded,
            seed: 11,
        }
    }

    #[test]
    fn repeat_preserves_run_order() {
        let out = repeat(20, 4, |i| i * 2);
        assert_eq!(out, (0..20).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn repeat_zero_runs_is_empty() {
        let out: Vec<u32> = repeat(0, 4, |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn repeat_single_thread_path() {
        let out = repeat(5, 1, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn repeat_more_workers_than_runs() {
        let out = repeat(3, 16, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "simulation run 7 panicked: boom at 7")]
    fn repeat_propagates_panics_with_run_index() {
        let _ = repeat(12, 4, |i| {
            if i == 7 {
                panic!("boom at {i}");
            }
            i
        });
    }

    #[test]
    fn repeat_reports_lowest_panicking_run() {
        // Runs 3 and 9 both panic; the re-raised message must
        // deterministically name run 3 regardless of scheduling.
        let caught = std::panic::catch_unwind(|| {
            let _ = repeat(12, 4, |i| {
                if i == 3 || i == 9 {
                    panic!("boom");
                }
                i
            });
        })
        .expect_err("must panic");
        let msg = caught
            .downcast_ref::<String>()
            .expect("panic carries a String");
        assert!(msg.contains("run 3"), "got: {msg}");
    }

    #[test]
    fn parallel_equals_serial() {
        let cfg = config();
        let (serial, _) = repeat_rate_simulation(&cfg, 8, 1).unwrap();
        let (parallel, _) = repeat_rate_simulation(&cfg, 8, 4).unwrap();
        assert_eq!(serial, parallel, "thread scheduling must not leak in");
    }

    #[test]
    fn runs_differ_across_seeds() {
        let (reports, _) = repeat_rate_simulation(&config(), 4, 0).unwrap();
        let distinct: std::collections::HashSet<String> = reports
            .iter()
            .map(|r| format!("{:?}", r.snapshot.loads()))
            .collect();
        assert!(
            distinct.len() > 1,
            "repetitions should see fresh partitions"
        );
    }

    #[test]
    fn aggregate_statistics() {
        let (reports, agg) = repeat_rate_simulation(&config(), 16, 0).unwrap();
        assert_eq!(agg.gains.len(), 16);
        assert!(agg.max_gain() >= agg.mean_gain());
        let manual_max = reports
            .iter()
            .map(|r| r.gain().value())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((agg.max_gain() - manual_max).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one report")]
    fn aggregate_rejects_empty() {
        let _ = GainAggregate::from_reports(&[]);
    }

    #[test]
    fn fixed_rule_is_not_adaptive() {
        let rule = StopRule::fixed(10);
        assert!(!rule.is_adaptive());
        assert_eq!(rule.min_runs, 10);
        assert_eq!(rule.max_runs, 10);
    }

    #[test]
    #[should_panic(expected = "min_runs")]
    fn adaptive_rule_rejects_inverted_limits() {
        let _ = StopRule::adaptive(10, 5, 0.1);
    }

    #[test]
    fn stop_point_is_prefix_deterministic() {
        let rule = StopRule::adaptive(3, 100, 0.5);
        // Identical values: CI hits zero as soon as min_runs is reached.
        let flat = vec![vec![1.0]; 50];
        assert_eq!(rule.stop_point_multi(&flat), Some(3));
        // Wildly varying values never satisfy a tight CI.
        let noisy: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![if i % 2 == 0 { 0.0 } else { 100.0 }])
            .collect();
        let loose = StopRule::adaptive(3, 100, 1e-9);
        assert_eq!(loose.stop_point_multi(&noisy), None);
    }

    #[test]
    fn adaptive_stops_early_on_low_variance() {
        let rule = StopRule::adaptive(4, 64, 0.25);
        let out = repeat_with_stopping(&rule, 2, |i| i as f64 * 0.0 + 1.0, |&v| v);
        assert!(out.stopped_early);
        assert_eq!(out.results.len(), 4, "flat metric stops at min_runs");
        assert!(out.ci_half_width <= 0.25);
    }

    #[test]
    fn adaptive_runs_to_cap_on_high_variance() {
        let rule = StopRule::adaptive(4, 16, 1e-12);
        let out = repeat_with_stopping(&rule, 4, |i| (i % 7) as f64, |&v| v);
        assert!(!out.stopped_early);
        assert_eq!(out.results.len(), 16);
    }

    #[test]
    fn adaptive_is_thread_count_invariant() {
        let cfg = config();
        let rule = StopRule::adaptive(4, 32, 0.05);
        let a = repeat_rate_simulation_journaled(&cfg, &rule, 1).unwrap();
        let b = repeat_rate_simulation_journaled(&cfg, &rule, 8).unwrap();
        assert_eq!(a.reports, b.reports, "stop point depended on threads");
        assert_eq!(a.aggregate, b.aggregate);
        assert_eq!(a.journal.records.len(), b.journal.records.len());
    }

    #[test]
    fn zero_ci_target_degenerates_to_fixed() {
        let cfg = config();
        let adaptive_off = StopRule {
            min_runs: 2,
            max_runs: 12,
            ci_target: 0.0,
        };
        let a = repeat_rate_simulation_journaled(&cfg, &adaptive_off, 0).unwrap();
        let (fixed, _) = repeat_rate_simulation(&cfg, 12, 0).unwrap();
        assert_eq!(a.reports, fixed);
        assert!(!a.journal.stopping.stopped_early);
    }

    #[test]
    fn journal_records_match_reports() {
        let cfg = config();
        let out = repeat_rate_simulation_journaled(&cfg, &StopRule::fixed(6), 0).unwrap();
        assert_eq!(out.journal.records.len(), 6);
        for (i, rec) in out.journal.records.iter().enumerate() {
            assert_eq!(rec.run, i);
            assert_eq!(rec.seed, cfg.for_run(i as u64).seed);
            assert!((rec.gain - out.reports[i].gain().value()).abs() < 1e-12);
            assert!((rec.max_load - out.reports[i].max_load()).abs() < 1e-12);
            assert!(rec.duration_secs >= 0.0);
        }
    }
}

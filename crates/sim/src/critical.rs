//! Empirical critical-cache-size search.
//!
//! Figure 5 locates the cache size where the best achievable attack gain
//! crosses 1.0. The best-response gain is monotone non-increasing in the
//! cache size, so a bisection over `c` finds the empirical critical point
//! with `O(log range)` gain evaluations.
//!
//! The search builds its per-run [`RunSweep`] structures **once** — one
//! partition + key mapping per run, seeded exactly like the per-point
//! path — and every bisection probe is then an incremental grid walk over
//! those held sweeps instead of a fresh `runs`-repetition simulation.
//! Probe gains are bit-identical to the old per-point path: reports match
//! `run_rate_simulation` exactly (see [`crate::sweep`]), and the
//! best-response fold (`f64::max`) is order-independent.

use crate::config::SimConfig;
use crate::error::SimError;
use crate::runner::repeat;
use crate::sweep::{effective_capacity, evaluate_many, RunSweep};
use crate::Result;
use scp_core::bounds::KParam;

/// One probed candidate cache size in a critical-size search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchProbe {
    /// The cache size that was evaluated.
    pub cache_size: usize,
    /// The best-response gain measured there.
    pub gain: f64,
}

/// Result of a bisection for the empirical critical cache size.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPoint {
    /// Smallest probed cache size with gain `<= threshold`.
    pub cache_size: usize,
    /// The gain measured at that size.
    pub gain_at: f64,
    /// Number of gain evaluations spent.
    pub evaluations: usize,
    /// Every candidate `c` the search evaluated, in probe order — the
    /// search's own observability record, so a surprising critical point
    /// can be audited without re-running the bisection.
    pub trace: Vec<SearchProbe>,
}

impl CriticalPoint {
    /// The search trace as a JSON array of `{cache_size, gain}` objects.
    pub fn trace_json(&self) -> scp_json::Json {
        use scp_json::Json;
        Json::arr(self.trace.iter().map(|p| {
            Json::obj([
                ("cache_size", Json::Num(p.cache_size as f64)),
                ("gain", Json::Num(p.gain)),
            ])
        }))
    }
}

/// Generic bisection: finds the smallest `c` in `[lo, hi]` where the
/// monotone non-increasing `gain(c)` drops to `threshold` or below.
///
/// # Errors
///
/// Propagates errors from `gain`; returns an error if even `gain(hi)`
/// stays above the threshold or the range is empty.
pub fn bisect_threshold<F>(
    mut gain: F,
    lo: usize,
    hi: usize,
    threshold: f64,
) -> Result<CriticalPoint>
where
    F: FnMut(usize) -> Result<f64>,
{
    if lo > hi {
        return Err(SimError::InvalidConfig {
            field: "range",
            reason: format!("empty search range [{lo}, {hi}]"),
        });
    }
    let mut trace: Vec<SearchProbe> = Vec::new();
    let mut probe = |c: usize, trace: &mut Vec<SearchProbe>| -> Result<f64> {
        let g = gain(c)?;
        trace.push(SearchProbe {
            cache_size: c,
            gain: g,
        });
        Ok(g)
    };
    let g_hi = probe(hi, &mut trace)?;
    if g_hi > threshold {
        return Err(SimError::InvalidConfig {
            field: "hi",
            reason: format!("gain {g_hi} at upper bound {hi} still above {threshold}"),
        });
    }
    let mut best = (hi, g_hi);
    let g_lo = probe(lo, &mut trace)?;
    if g_lo <= threshold {
        return Ok(CriticalPoint {
            cache_size: lo,
            gain_at: g_lo,
            evaluations: trace.len(),
            trace,
        });
    }
    let (mut lo, mut hi) = (lo, hi);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let g = probe(mid, &mut trace)?;
        if g <= threshold {
            best = (mid, g);
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(CriticalPoint {
        cache_size: best.0,
        gain_at: best.1,
        evaluations: trace.len(),
        trace,
    })
}

/// Builds one [`RunSweep`] per run (seeded `base.for_run(i)`, the same
/// derivation the per-point repetition path uses), striped over threads.
fn build_sweeps(base: &SimConfig, runs: usize, threads: usize) -> Result<Vec<RunSweep>> {
    repeat(runs, threads, |i| {
        RunSweep::new(&base.for_run(i as u64), base.items)
    })
    .into_iter()
    .collect()
}

/// The best-response probe against held per-run sweeps: the max over the
/// candidate plays (`x = c + 1` if it fits, and `x = m`) of the
/// max-over-runs simulated gain.
fn probe_gain(sweeps: &mut [RunSweep], base: &SimConfig, c: usize, threads: usize) -> Result<f64> {
    let effective = effective_capacity(base, c)?;
    let mut xs = Vec::with_capacity(2);
    if (c as u64) + 1 < base.items {
        xs.push(c as u64 + 1);
    }
    xs.push(base.items);
    let mut best = 0.0f64;
    for run in evaluate_many(sweeps, threads, effective, &xs) {
        for report in run? {
            best = best.max(report.gain().value());
        }
    }
    Ok(best)
}

/// The adversary's best-response gain at cache size `c`: the max over the
/// two candidate plays (`x = c + 1` and `x = m`) of the max-over-runs
/// simulated gain.
///
/// Builds fresh per-run sweeps on every call; a bisection should use
/// [`find_critical_cache_size`], which holds the sweeps across probes.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn best_response_gain(base: &SimConfig, c: usize, runs: usize, threads: usize) -> Result<f64> {
    let mut sweeps = build_sweeps(base, runs, threads)?;
    probe_gain(&mut sweeps, base, c, threads)
}

/// Locates the empirical critical cache size for a configuration by
/// bisection of the best-response gain, searching `c` in
/// `[0, theory_hint * 4]` where `theory_hint` is the theoretical `c*`.
///
/// The per-run partitions are built once up front; every probe of the
/// bisection is an incremental sweep over them (see the module docs).
///
/// # Errors
///
/// Propagates simulation errors; fails if the search window is too small.
pub fn find_critical_cache_size(
    base: &SimConfig,
    runs: usize,
    threads: usize,
) -> Result<CriticalPoint> {
    let theory =
        scp_core::bounds::critical_cache_size(base.nodes, base.replication, &KParam::theory());
    let hi = theory
        .saturating_mul(4)
        .min(base.items as usize)
        .max(base.nodes);
    let mut sweeps = build_sweeps(base, runs, threads)?;
    bisect_threshold(|c| probe_gain(&mut sweeps, base, c, threads), 0, hi, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdmissionKind, CacheKind, PartitionerKind, SelectorKind};
    use crate::runner::repeat_rate_simulation;
    use scp_workload::AccessPattern;

    fn base(n: usize) -> SimConfig {
        SimConfig {
            nodes: n,
            replication: 3,
            cache_kind: CacheKind::Perfect,
            admission: AdmissionKind::Oracle,
            cache_capacity: 0, // varied by the search
            items: 50_000,
            rate: 1e4,
            pattern: AccessPattern::uniform_subset(1, 50_000).unwrap(),
            partitioner: PartitionerKind::Hash,
            selector: SelectorKind::LeastLoaded,
            seed: 3,
        }
    }

    #[test]
    fn bisect_finds_known_threshold() {
        // gain(c) = 10 - c crosses 1.0 at c = 9.
        let cp = bisect_threshold(|c| Ok(10.0 - c as f64), 0, 100, 1.0).unwrap();
        assert_eq!(cp.cache_size, 9);
        assert!(cp.evaluations < 12, "O(log) evaluations expected");
    }

    #[test]
    fn bisect_trace_records_every_probe() {
        let cp = bisect_threshold(|c| Ok(10.0 - c as f64), 0, 100, 1.0).unwrap();
        assert_eq!(cp.trace.len(), cp.evaluations);
        for probe in &cp.trace {
            assert!((probe.gain - (10.0 - probe.cache_size as f64)).abs() < 1e-12);
        }
        // The winning probe appears in the trace.
        assert!(cp
            .trace
            .iter()
            .any(|p| p.cache_size == cp.cache_size && (p.gain - cp.gain_at).abs() < 1e-12));
        // And the trace serializes.
        let json = cp.trace_json().to_string();
        let back = scp_json::Json::parse(&json).unwrap();
        assert_eq!(back.as_array().unwrap().len(), cp.evaluations);
    }

    #[test]
    fn bisect_handles_always_safe() {
        let cp = bisect_threshold(|_| Ok(0.5), 0, 100, 1.0).unwrap();
        assert_eq!(cp.cache_size, 0);
    }

    #[test]
    fn bisect_rejects_never_safe() {
        assert!(bisect_threshold(|_| Ok(2.0), 0, 100, 1.0).is_err());
        assert!(bisect_threshold(|_| Ok(0.0), 5, 4, 1.0).is_err());
    }

    #[test]
    fn best_response_prefers_small_x_when_cache_small() {
        // c far below c*: x = c+1 dominates querying everything.
        let base = base(100);
        let small_x_gain = {
            let mut cfg = base.clone();
            cfg.cache_capacity = 10;
            cfg.pattern = AccessPattern::uniform_subset(11, base.items).unwrap();
            let (_, agg) = repeat_rate_simulation(&cfg, 4, 0).unwrap();
            agg.max_gain()
        };
        let best = best_response_gain(&base, 10, 4, 0).unwrap();
        assert!(best >= small_x_gain - 1e-9);
        assert!(best > 1.0);
    }

    #[test]
    fn empirical_critical_point_is_near_theory() {
        // Small cluster so the test stays fast: n=100, d=3.
        // Theory (k' = 0): c* = 100 * lnln(100)/ln(3) + 1 ~ 122.
        let cp = find_critical_cache_size(&base(100), 6, 0).unwrap();
        assert!(
            cp.cache_size >= 20 && cp.cache_size <= 250,
            "empirical critical point {} wildly off theory ~122",
            cp.cache_size
        );
        assert!(cp.gain_at <= 1.0);
    }
}

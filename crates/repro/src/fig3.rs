//! Figure 3: normalized max workload vs. number of queried keys.
//!
//! Paper setup: 1000 back-end nodes, replication 3, 1e6 stored keys,
//! clients at 1e5 qps; for each `x > c` the adversary queries `x` keys at
//! equal rates; 200 repetitions; the plot shows the max over runs of the
//! maximum normalized node load together with the Eq. (10) bound at
//! `k = 1.2`. Panel (a) uses `c = 200` (below the critical size), panel
//! (b) `c = 2000` (above it).

use crate::output::{fmt_f, JournalBook, Table};
use crate::{Opts, Result};
use scp_core::bounds::{attack_gain_bound, KParam};
use scp_sim::config::SimConfig;
use scp_sim::runner::StopRule;
use scp_sim::sweep::{repeat_sweep_journaled, SweepPoint};

/// Configuration of an x-sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Config {
    /// The system under attack: `n`, `d`, `m`, `R`, the cache size `c`
    /// and the substrate flags.
    pub base: SimConfig,
    /// Repetitions per point.
    pub rule: StopRule,
    /// Worker threads (0 = all).
    pub threads: usize,
    /// Sweep points (all must exceed the cache size).
    pub x_values: Vec<u64>,
    /// Bound constant for the reference curve.
    pub k: KParam,
}

impl Fig3Config {
    /// The paper's configuration for the given cache size (`--fast`
    /// shrinks the cluster and key space by 10x).
    ///
    /// # Errors
    ///
    /// Rejects an invalid base system.
    pub fn paper(cache: usize, opts: &Opts) -> Result<Self> {
        let (nodes, items, cache) = if opts.fast {
            (100, 100_000, cache / 10)
        } else {
            (1000, 1_000_000, cache)
        };
        Ok(Self {
            base: opts
                .sim()
                .nodes(nodes)
                .items(items)
                .cache_capacity(cache)
                .build()?,
            rule: opts.stop_rule(200),
            threads: opts.threads,
            // 60 log-spaced points: with the incremental sweep engine an
            // additional grid point costs amortized O(Δx), so the curve
            // can afford to be dense (the per-point engine priced grids
            // at O(x) per point, which kept this at 15).
            x_values: log_spaced(cache as u64 + 1, items, 60),
            k: KParam::paper_fitted(),
        })
    }
}

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// Number of queried keys.
    pub x: u64,
    /// Max over runs of the normalized max load (the paper's statistic).
    pub sim_max_gain: f64,
    /// Mean over runs.
    pub sim_mean_gain: f64,
    /// The Eq. (10) bound with the configured (fitted) `k`.
    pub bound: f64,
    /// The Eq. (10) bound with the theoretical `k = ln ln n / ln d`.
    pub bound_theory: f64,
}

/// Log-spaced integer grid from `lo` to `hi` inclusive (deduplicated).
pub fn log_spaced(lo: u64, hi: u64, points: usize) -> Vec<u64> {
    assert!(lo >= 1 && hi >= lo && points >= 2);
    let (flo, fhi) = (lo as f64, hi as f64);
    let mut out: Vec<u64> = (0..points)
        .map(|i| match i {
            0 => lo,
            i if i == points - 1 => hi,
            i => {
                let t = i as f64 / (points - 1) as f64;
                (flo * (fhi / flo).powf(t)).round() as u64
            }
        })
        .collect();
    out.dedup();
    out
}

/// Runs the sweep, collecting one [`RunJournal`](scp_sim::journal::RunJournal)
/// per sweep point into `book` (labeled `x=<value>`).
///
/// All `x` grid points are evaluated against the *same* per-run
/// partitions in one incremental sweep pass ([`repeat_sweep_journaled`]);
/// with an adaptive rule the stop decision is joint across the grid.
///
/// # Errors
///
/// Propagates simulation errors. The sweep engine models the steady-state
/// oracle only, so a base with a policy other than `perfect`/`none` or
/// with online admission fails here.
pub fn run_journaled(cfg: &Fig3Config, book: &mut JournalBook) -> Result<Vec<Fig3Row>> {
    let first = cfg
        .x_values
        .first()
        .ok_or_else(|| scp_sim::SimError::InvalidConfig {
            field: "x_values",
            reason: "empty sweep grid".to_owned(),
        })?;
    let base = cfg.base.to_builder().attack_x(*first).build()?;
    let points: Vec<SweepPoint> = cfg
        .x_values
        .iter()
        .map(|&x| SweepPoint {
            cache: base.cache_capacity,
            x,
        })
        .collect();
    let swept = repeat_sweep_journaled(&base, &points, &cfg.rule, cfg.threads)?;
    let mut rows = Vec::with_capacity(cfg.x_values.len());
    for run in swept {
        let x = run.point.x;
        book.push(format!("x={x}"), run.journaled.journal);
        let params = base.to_builder().attack_x(x).build()?.system_params()?;
        rows.push(Fig3Row {
            x,
            sim_max_gain: run.journaled.aggregate.max_gain(),
            sim_mean_gain: run.journaled.aggregate.mean_gain(),
            bound: attack_gain_bound(&params, x, &cfg.k).value(),
            bound_theory: attack_gain_bound(&params, x, &KParam::theory()).value(),
        });
    }
    Ok(rows)
}

/// Renders the sweep as a table.
pub fn table(cfg: &Fig3Config, rows: &[Fig3Row]) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 3 (cache={}): normalized max load vs x (n={}, d={}, m={}, {} runs)",
            cfg.base.cache_capacity,
            cfg.base.nodes,
            cfg.base.replication,
            cfg.base.items,
            cfg.rule.max_runs
        ),
        &[
            "x",
            "sim_max_gain",
            "sim_mean_gain",
            "bound_k1.2",
            "bound_theory",
            "effective",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.x.to_string(),
            fmt_f(r.sim_max_gain),
            fmt_f(r.sim_mean_gain),
            fmt_f(r.bound),
            fmt_f(r.bound_theory),
            (r.sim_max_gain > 1.0).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use scp_sim::config::AdmissionKind;

    fn tiny(cache: usize) -> Fig3Config {
        Fig3Config {
            base: SimConfig::builder()
                .nodes(50)
                .items(20_000)
                .rate(1e4)
                .cache_capacity(cache)
                .seed(1)
                .build()
                .unwrap(),
            rule: StopRule::fixed(8),
            threads: 0,
            x_values: log_spaced(cache as u64 + 1, 20_000, 6),
            k: KParam::paper_fitted(),
        }
    }

    fn run(cfg: &Fig3Config) -> Vec<Fig3Row> {
        run_journaled(cfg, &mut JournalBook::new()).unwrap()
    }

    #[test]
    fn log_spaced_grid_properties() {
        let g = log_spaced(201, 1_000_000, 15);
        assert_eq!(*g.first().unwrap(), 201);
        assert_eq!(*g.last().unwrap(), 1_000_000);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        assert!(g.len() <= 15);
    }

    #[test]
    fn small_cache_panel_shape() {
        // c far below c* (1.2*50+1 = 61): decreasing gains, effective at
        // x = c+1.
        let rows = run(&tiny(20));
        assert!(rows[0].sim_max_gain > 1.0, "x=c+1 must be effective");
        let last = rows.last().unwrap();
        assert!(
            rows[0].sim_max_gain > last.sim_max_gain,
            "gain should fall with x"
        );
    }

    #[test]
    fn large_cache_panel_shape() {
        // c above c*: gain below 1 everywhere, increasing toward x=m.
        let rows = run(&tiny(100));
        for r in &rows {
            assert!(r.sim_max_gain <= 1.05, "x={} gain {}", r.x, r.sim_max_gain);
        }
        assert!(rows.last().unwrap().sim_max_gain >= rows[0].sim_max_gain * 0.9);
    }

    #[test]
    fn theory_bound_dominates_mean_gain() {
        // Eq. (10) bounds the *expected* max load; the fitted k = 1.2 is
        // the paper's visual fit, the theoretical k must dominate the
        // mean across runs (the max-over-runs can poke slightly above).
        for cache in [20usize, 100] {
            for r in run(&tiny(cache)) {
                assert!(
                    r.bound_theory >= r.sim_mean_gain - 0.1,
                    "theory bound {} below mean {} at x={} (c={cache})",
                    r.bound_theory,
                    r.sim_mean_gain,
                    r.x
                );
                assert!(r.bound_theory >= r.bound * 0.8, "sanity: theory vs fitted");
            }
        }
    }

    #[test]
    fn table_has_row_per_point() {
        let cfg = tiny(20);
        let rows = run(&cfg);
        let t = table(&cfg, &rows);
        assert_eq!(t.len(), rows.len());
    }

    #[test]
    fn journal_has_one_entry_per_point_and_record_per_run() {
        let cfg = tiny(20);
        let mut book = JournalBook::new();
        let rows = run_journaled(&cfg, &mut book).unwrap();
        assert_eq!(book.len(), rows.len());
        for j in book.journals() {
            assert_eq!(j.len(), cfg.rule.max_runs);
            assert!(!j.stopping.stopped_early);
        }
        let labels: Vec<&str> = book.labels().collect();
        assert_eq!(labels[0], format!("x={}", cfg.x_values[0]));
    }

    #[test]
    fn adaptive_stopping_caps_at_fixed_runs() {
        // A generous CI target lets most points stop early; every journal
        // must still hold at least the floor and at most the ceiling.
        let mut cfg = tiny(20);
        cfg.rule = Opts {
            runs: 16,
            ci_target: 0.5,
            ..Opts::default()
        }
        .stop_rule(200);
        let mut book = JournalBook::new();
        run_journaled(&cfg, &mut book).unwrap();
        let (floor, ceiling) = (cfg.rule.min_runs, cfg.rule.max_runs);
        assert_eq!(ceiling, 16);
        for j in book.journals() {
            assert!(
                j.len() >= floor && j.len() <= ceiling,
                "{} runs kept",
                j.len()
            );
            assert_eq!(j.stopping.stopped_early, j.len() < ceiling);
        }
        assert!(
            book.journals().any(|j| j.stopping.stopped_early),
            "a 0.5 CI target should trigger early stops somewhere"
        );
    }

    #[test]
    fn paper_config_respects_fast_flag() {
        let fast = Fig3Config::paper(
            200,
            &Opts {
                fast: true,
                ..Opts::default()
            },
        )
        .unwrap();
        assert_eq!(fast.base.nodes, 100);
        assert_eq!(fast.base.cache_capacity, 20);
        let full = Fig3Config::paper(200, &Opts::default()).unwrap();
        assert_eq!(full.base.nodes, 1000);
        assert_eq!(full.rule.max_runs, 200);
    }

    #[test]
    fn online_admission_reaches_the_sweep_engine() {
        // `--admission online` must not fall back to oracle rows: the
        // sweep engine cannot model the learned cache and says so.
        let opts = Opts {
            fast: true,
            runs: 2,
            admission: AdmissionKind::Online,
            ..Opts::default()
        };
        let cfg = Fig3Config::paper(200, &opts).unwrap();
        let err = run_journaled(&cfg, &mut JournalBook::new()).unwrap_err();
        assert!(err.to_string().contains("cache_kind"), "{err}");
    }
}

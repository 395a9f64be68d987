//! Figure 5: the best achievable attack vs. cache size.
//!
//! Panel (a): for each cache size `c`, the best normalized max workload an
//! adversary can reach (max over the two candidate plays `x = c + 1` and
//! `x = m`), with the critical point where it crosses 1.0 and the paper's
//! bound `c* = n·k + 1`. Panel (b): the number of keys the best adversary
//! queries — `c + 1` below the critical point, the whole key space above.

use crate::output::{fmt_f, JournalBook, Table};
use crate::{Opts, Result};
use scp_core::bounds::{critical_cache_size, KParam};
use scp_sim::config::SimConfig;
use scp_sim::runner::StopRule;
use scp_sim::sweep::{repeat_sweep_journaled, SweepPoint};

/// Configuration of the cache-size sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Config {
    /// The system: `n`, `d`, `m`, `R` and the substrate flags (its cache
    /// size is replaced by each of `cache_sizes`).
    pub base: SimConfig,
    /// Repetitions per point.
    pub rule: StopRule,
    /// Worker threads (0 = all).
    pub threads: usize,
    /// Cache sizes to sweep.
    pub cache_sizes: Vec<usize>,
    /// Bound constant for the reference `c*`.
    pub k: KParam,
}

impl Fig5Config {
    /// The paper's configuration (`--fast` shrinks everything 10x).
    ///
    /// # Errors
    ///
    /// Rejects an invalid base system.
    pub fn paper(opts: &Opts) -> Result<Self> {
        let (nodes, items, cache_sizes) = if opts.fast {
            (
                100,
                100_000,
                vec![10, 20, 40, 60, 80, 100, 120, 140, 180, 250, 400, 1000],
            )
        } else {
            (
                1000,
                1_000_000,
                vec![
                    50, 100, 200, 400, 600, 800, 1000, 1100, 1200, 1300, 1400, 1600, 2000, 3000,
                    5000, 10_000,
                ],
            )
        };
        Ok(Self {
            base: opts.sim().nodes(nodes).items(items).build()?,
            rule: opts.stop_rule(20),
            threads: opts.threads,
            cache_sizes,
            k: KParam::paper_fitted(),
        })
    }
}

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Cache size.
    pub cache: usize,
    /// Max-over-runs gain when the adversary queries `x = c + 1` keys.
    pub gain_small_x: f64,
    /// Max-over-runs gain when the adversary queries the whole key space.
    pub gain_all_keys: f64,
    /// The better of the two (panel a).
    pub best_gain: f64,
    /// The corresponding subset size (panel b).
    pub best_x: u64,
}

/// The sweep result plus derived critical points.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Outcome {
    /// Sweep rows in cache-size order.
    pub rows: Vec<Fig5Row>,
    /// Empirical critical cache size: first swept size with best gain
    /// `<= 1` (linear interpolation against the previous point).
    pub empirical_critical: Option<f64>,
    /// The paper's bound `c* = n·k + 1`.
    pub bound_critical: usize,
}

/// Runs the sweep, collecting one journal per `(c, x)` candidate play
/// into `book` (labeled `c=<size>/x=<keys>`).
///
/// Every candidate play of every cache size is evaluated against the
/// *same* per-run partitions in one incremental sweep pass
/// ([`repeat_sweep_journaled`]); with an adaptive rule the stop decision
/// is joint across the whole grid.
///
/// # Errors
///
/// Propagates simulation errors. The sweep engine models the steady-state
/// oracle only, so a base with a policy other than `perfect`/`none` or
/// with online admission fails here.
pub fn run_journaled(cfg: &Fig5Config, book: &mut JournalBook) -> Result<Fig5Outcome> {
    let items = cfg.base.items;
    let bound_critical = critical_cache_size(cfg.base.nodes, cfg.base.replication, &cfg.k);
    let Some(&first) = cfg.cache_sizes.first() else {
        return Ok(Fig5Outcome {
            rows: Vec::new(),
            empirical_critical: None,
            bound_critical,
        });
    };
    let base = cfg
        .base
        .to_builder()
        .cache_capacity(first)
        .attack_x(items)
        .build()?;
    // Per cache size: the `x = c + 1` play when it is a distinct subset,
    // then the whole-key-space play.
    let mut points = Vec::with_capacity(2 * cfg.cache_sizes.len());
    for &c in &cfg.cache_sizes {
        if (c as u64) + 1 < items {
            points.push(SweepPoint {
                cache: c,
                x: c as u64 + 1,
            });
        }
        points.push(SweepPoint { cache: c, x: items });
    }
    let swept = repeat_sweep_journaled(&base, &points, &cfg.rule, cfg.threads)?;

    let mut plays = swept.into_iter();
    let mut next_play = || {
        plays
            .next()
            .ok_or_else(|| scp_sim::SimError::InvalidConfig {
                field: "points",
                reason: "internal: fewer sweep plays than candidate points".to_owned(),
            })
    };
    let mut rows = Vec::with_capacity(cfg.cache_sizes.len());
    for &c in &cfg.cache_sizes {
        let small_run = if (c as u64) + 1 < items {
            Some(next_play()?)
        } else {
            None
        };
        let all_run = next_play()?;
        let gain_all_keys = all_run.journaled.aggregate.max_gain();
        let gain_small_x = match &small_run {
            Some(run) => run.journaled.aggregate.max_gain(),
            // `x = c + 1` saturates to the whole key space: same play.
            None if (c as u64) < items => gain_all_keys,
            None => 0.0,
        };
        if let Some(run) = small_run {
            book.push(format!("c={c}/x={}", run.point.x), run.journaled.journal);
        }
        book.push(format!("c={c}/x={items}"), all_run.journaled.journal);
        let (best_gain, best_x) = if gain_small_x >= gain_all_keys {
            (gain_small_x, c as u64 + 1)
        } else {
            (gain_all_keys, items)
        };
        rows.push(Fig5Row {
            cache: c,
            gain_small_x,
            gain_all_keys,
            best_gain,
            best_x,
        });
    }

    let empirical_critical = find_crossing(&rows);
    Ok(Fig5Outcome {
        rows,
        empirical_critical,
        bound_critical,
    })
}

fn find_crossing(rows: &[Fig5Row]) -> Option<f64> {
    let first = rows.first()?;
    if first.best_gain <= 1.0 {
        return Some(first.cache as f64);
    }
    let (a, b) = rows
        .iter()
        .zip(rows.iter().skip(1))
        .find(|(_, b)| b.best_gain <= 1.0)?;
    // Linear interpolation of the gain-1.0 crossing between the two sizes.
    let span = b.best_gain - a.best_gain;
    if span.abs() < 1e-12 {
        return Some(b.cache as f64);
    }
    let t = (1.0 - a.best_gain) / span;
    Some(a.cache as f64 + t * (b.cache as f64 - a.cache as f64))
}

/// Renders panel (a): best gain vs. cache size.
pub fn table_panel_a(cfg: &Fig5Config, outcome: &Fig5Outcome) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 5(a): best achievable normalized max load vs cache size \
             (n={}, d={}, m={}, {} runs; empirical critical ~ {}, bound c* = {})",
            cfg.base.nodes,
            cfg.base.replication,
            cfg.base.items,
            cfg.rule.max_runs,
            outcome
                .empirical_critical
                .map(|c| format!("{c:.0}"))
                .unwrap_or_else(|| "none".to_owned()),
            outcome.bound_critical
        ),
        &[
            "cache",
            "gain_x_eq_c+1",
            "gain_x_eq_m",
            "best_gain",
            "effective",
        ],
    );
    for r in &outcome.rows {
        t.push_row(vec![
            r.cache.to_string(),
            fmt_f(r.gain_small_x),
            fmt_f(r.gain_all_keys),
            fmt_f(r.best_gain),
            (r.best_gain > 1.0).to_string(),
        ]);
    }
    t
}

/// Renders panel (b): the adversary's chosen subset size vs. cache size.
pub fn table_panel_b(cfg: &Fig5Config, outcome: &Fig5Outcome) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 5(b): keys queried by the best adversary vs cache size \
             (n={}, d={}, m={})",
            cfg.base.nodes, cfg.base.replication, cfg.base.items
        ),
        &["cache", "best_x"],
    );
    for r in &outcome.rows {
        t.push_row(vec![r.cache.to_string(), r.best_x.to_string()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig5Config {
        Fig5Config {
            base: SimConfig::builder()
                .nodes(50)
                .items(20_000)
                .rate(1e4)
                .seed(4)
                .build()
                .unwrap(),
            rule: StopRule::fixed(6),
            threads: 0,
            // Theory c* (k=1.2) = 61.
            cache_sizes: vec![10, 30, 50, 70, 90, 120, 200],
            k: KParam::paper_fitted(),
        }
    }

    fn run(cfg: &Fig5Config) -> Fig5Outcome {
        run_journaled(cfg, &mut JournalBook::new()).unwrap()
    }

    #[test]
    fn best_gain_decreases_with_cache_size() {
        let out = run(&tiny());
        let gains: Vec<f64> = out.rows.iter().map(|r| r.best_gain).collect();
        // Allow small local noise but require overall monotone decline.
        assert!(gains.first().unwrap() > gains.last().unwrap());
        assert!(gains[0] > 1.0, "tiny cache must be attackable");
        assert!(*gains.last().unwrap() < 1.0, "large cache must be safe");
    }

    #[test]
    fn adversary_switches_from_small_x_to_whole_space() {
        let out = run(&tiny());
        let first = &out.rows[0];
        let last = out.rows.last().unwrap();
        assert_eq!(first.best_x, first.cache as u64 + 1);
        assert_eq!(last.best_x, 20_000);
    }

    #[test]
    fn empirical_critical_is_near_bound() {
        let out = run(&tiny());
        let empirical = out.empirical_critical.expect("sweep crosses 1.0");
        let bound = out.bound_critical as f64; // 61
        assert!(
            empirical <= bound * 2.0 && empirical >= bound * 0.2,
            "empirical {empirical} vs bound {bound}"
        );
    }

    #[test]
    fn find_crossing_interpolates() {
        let rows = vec![
            Fig5Row {
                cache: 100,
                gain_small_x: 3.0,
                gain_all_keys: 0.9,
                best_gain: 3.0,
                best_x: 101,
            },
            Fig5Row {
                cache: 200,
                gain_small_x: 0.5,
                gain_all_keys: 0.9,
                best_gain: 0.9,
                best_x: 1000,
            },
        ];
        let c = find_crossing(&rows).unwrap();
        assert!(c > 100.0 && c < 200.0);
        assert!((c - (100.0 + 100.0 * (2.0 / 2.1))).abs() < 1e-9);
    }

    #[test]
    fn find_crossing_edge_cases() {
        assert_eq!(find_crossing(&[]), None);
        let all_high = vec![Fig5Row {
            cache: 10,
            gain_small_x: 2.0,
            gain_all_keys: 1.5,
            best_gain: 2.0,
            best_x: 11,
        }];
        assert_eq!(find_crossing(&all_high), None);
        let all_low = vec![Fig5Row {
            cache: 10,
            gain_small_x: 0.2,
            gain_all_keys: 0.5,
            best_gain: 0.5,
            best_x: 11,
        }];
        assert_eq!(find_crossing(&all_low), Some(10.0));
    }

    #[test]
    fn journal_records_both_candidate_plays() {
        let cfg = tiny();
        let mut book = JournalBook::new();
        let out = run_journaled(&cfg, &mut book).unwrap();
        // Two plays per swept size (every tiny() size is below items).
        assert_eq!(book.len(), 2 * out.rows.len());
        let labels: Vec<&str> = book.labels().collect();
        assert!(labels.contains(&"c=10/x=11"));
        assert!(labels.contains(&"c=10/x=20000"));
        for j in book.journals() {
            assert_eq!(j.len(), cfg.rule.max_runs);
        }
    }

    #[test]
    fn tables_render() {
        let cfg = tiny();
        let out = run(&cfg);
        assert_eq!(table_panel_a(&cfg, &out).len(), out.rows.len());
        assert_eq!(table_panel_b(&cfg, &out).len(), out.rows.len());
    }

    #[test]
    fn online_admission_reaches_the_sweep_engine() {
        // `--admission online` must not fall back to oracle rows.
        let opts = Opts {
            fast: true,
            runs: 2,
            admission: scp_sim::config::AdmissionKind::Online,
            ..Opts::default()
        };
        let cfg = Fig5Config::paper(&opts).unwrap();
        let err = run_journaled(&cfg, &mut JournalBook::new()).unwrap_err();
        assert!(err.to_string().contains("cache_kind"), "{err}");
    }
}

//! Ablations A1–A8 from DESIGN.md: the design choices behind the headline
//! result, each isolated and measured.
//!
//! Every ablation starts from [`Opts::sim`] and overrides only the axis
//! it studies: A1 sweeps the selector, A2 the partitioner, A3 the
//! replication factor and A4 the cache kind. Every other flag reaches
//! the engine, which applies it or fails the group with its own error.

use crate::opts::Opts;
use crate::output::{fmt_f, GroupOutput, JournalBook, Table};
use crate::Result;
use scp_cluster::rebalance::{rebalance, RebalanceConfig};
use scp_cluster::Cluster;
use scp_core::adversary::{AdversaryStrategy, ReplicatedClusterAdversary, SmallCacheAdversary};
use scp_core::bounds::{attack_gain_bound, critical_cache_size, KParam};
use scp_core::params::SystemParams;
use scp_sim::assignments::collect_assignments;
use scp_sim::config::{CacheKind, PartitionerKind, SelectorKind, SimConfig};
use scp_sim::cost::{run_weighted_query_simulation, CostModel};
use scp_sim::metrics::LoadReport;
use scp_sim::multi_frontend::{run_multi_frontend_simulation, FrontendRouting};
use scp_sim::query_engine::run_query_simulation;
use scp_sim::rate_engine::{run_rate_simulation, run_rate_simulation_with};
use scp_sim::runner::{repeat, repeat_rate_simulation_journaled, GainAggregate};
use scp_sim::sweep::{repeat_sweep_journaled, SweepPoint};
use scp_workload::permute::KeyMapping;
use scp_workload::AccessPattern;

/// The flags' base system at `n` nodes, `m` items and cache size `c`.
fn sim(opts: &Opts, nodes: usize, items: u64, cache: usize) -> Result<SimConfig> {
    opts.sim()
        .nodes(nodes)
        .items(items)
        .cache_capacity(cache)
        .build()
}

/// The shared base of A1–A3: the paper's system at `c = 200`.
fn base_sim(opts: &Opts) -> Result<SimConfig> {
    if opts.fast {
        sim(opts, 100, 100_000, 20)
    } else {
        sim(opts, 1000, 1_000_000, 200)
    }
}

/// A1 — replica-selection policies under the optimal attack.
///
/// Sticky least-loaded realizes the paper's balls-into-bins model; the
/// memoryless rules spread each key over its whole group, diluting the
/// hotspot by `d`. One journal per selector is pushed into `book`.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn selection(opts: &Opts, book: &mut JournalBook) -> Result<Table> {
    let rule = opts.stop_rule(30);
    let mut t = Table::new(
        "Ablation A1: replica selection under the x = c+1 attack",
        &["selector", "max_gain", "mean_gain"],
    );
    for kind in SelectorKind::ALL {
        let mut sim = base_sim(opts)?;
        sim.selector = kind;
        let out = repeat_rate_simulation_journaled(&sim, &rule, opts.threads)?;
        book.push(format!("a1/selector={}", kind.name()), out.journal);
        t.push_row(vec![
            kind.name().to_string(),
            fmt_f(out.aggregate.max_gain()),
            fmt_f(out.aggregate.mean_gain()),
        ]);
    }
    Ok(t)
}

/// A2 — partitioning schemes, including the attack the randomized ones
/// prevent: contiguous-key floods against a range partitioner. One
/// journal per scattered-key scheme is pushed into `book`.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn partitioning(opts: &Opts, book: &mut JournalBook) -> Result<Table> {
    let rule = opts.stop_rule(30);
    let mut t = Table::new(
        "Ablation A2: partitioning schemes (adversarial load, max gain)",
        &["partitioner", "keys", "max_gain"],
    );
    // Attack sized to one node's key range so range partitioning has a
    // meaningful contiguous target.
    let base = base_sim(opts)?;
    let x = (base.items / base.nodes as u64).max(base.cache_capacity as u64 + 1);
    for kind in PartitionerKind::ALL {
        let mut sim = base.clone();
        sim.partitioner = kind;
        sim.pattern = AccessPattern::uniform_subset(x, sim.items)?;
        let out = repeat_rate_simulation_journaled(&sim, &rule, opts.threads)?;
        book.push(format!("a2/partitioner={}", kind.name()), out.journal);
        t.push_row(vec![
            format!("{} (scattered keys)", kind.name()),
            x.to_string(),
            fmt_f(out.aggregate.max_gain()),
        ]);
    }
    // The contiguous-key flood: only meaningful against `range`. This
    // path drives the engine through a custom cluster, so it bypasses
    // the journaled repeater.
    let mut sim = base.clone();
    sim.partitioner = PartitionerKind::Range;
    sim.pattern = AccessPattern::uniform_subset(x, sim.items)?;
    let reports = repeat(rule.max_runs, opts.threads, |i| {
        let cfg = sim.for_run(i as u64);
        let mut cluster = Cluster::new(cfg.build_partitioner()?, cfg.build_selector());
        run_rate_simulation_with(
            &cfg,
            &mut cluster,
            cfg.cache_capacity,
            &KeyMapping::Identity,
        )
    });
    let mut ok = Vec::with_capacity(reports.len());
    for r in reports {
        ok.push(r?);
    }
    let agg = GainAggregate::from_reports(&ok);
    t.push_row(vec![
        "range (contiguous keys)".to_string(),
        x.to_string(),
        fmt_f(agg.max_gain()),
    ]);
    Ok(t)
}

/// A3 — replication-factor sweep.
///
/// Three views per `d`: the per-`d` optimal adversary's plan and measured
/// gain (the Fan et al. interior optimum at `d = 1`, the paper's case
/// analysis for `d >= 2`); the measured gain of a *wide* attack
/// (`x = 50·n` keys), where the `d`-choice allocation gap actually bites;
/// and the theoretical critical cache size, which is where replication
/// pays off (at `x = c + 1` the gain `n/(c+1)` is `d`-independent by
/// construction — replication changes the *threshold*, not that point).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn replication(opts: &Opts, book: &mut JournalBook) -> Result<Table> {
    let rule = opts.stop_rule(30);
    let base = base_sim(opts)?;
    let mut t = Table::new(
        "Ablation A3: replication factor vs the per-d optimal adversary",
        &[
            "d",
            "adversary",
            "x_opt",
            "gain_at_x_opt",
            "gain_wide_x",
            "bound_est",
            "c_star_theory",
        ],
    );
    let wide_x = (50 * base.nodes as u64).min(base.items);
    for d in 1..=6usize {
        let params = SystemParams::new(base.nodes, d, base.cache_capacity, base.items, base.rate)?;
        let (name, plan) = if d == 1 {
            let adv = SmallCacheAdversary::new();
            (adv.name(), adv.plan(&params)?)
        } else {
            let adv = ReplicatedClusterAdversary::new();
            (adv.name(), adv.plan(&params)?)
        };
        let mut sim = base.clone();
        sim.replication = d;
        sim.pattern = plan.pattern.clone();
        sim.seed = base.seed ^ (d as u64);
        // Both plays (the per-d optimum and the wide attack) are
        // equal-rate subsets, so one incremental sweep over shared
        // per-run partitions evaluates them together.
        let mut xs = vec![plan.x, wide_x];
        xs.sort_unstable();
        xs.dedup();
        let points: Vec<SweepPoint> = xs
            .iter()
            .map(|&x| SweepPoint {
                cache: sim.cache_capacity,
                x,
            })
            .collect();
        let swept = repeat_sweep_journaled(&sim, &points, &rule, opts.threads)?;
        let run_at = |x: u64| {
            swept
                .iter()
                .find(|r| r.point.x == x)
                .ok_or_else(|| scp_sim::SimError::InvalidConfig {
                    field: "points",
                    reason: "internal: play missing from sweep grid".to_owned(),
                })
        };
        let opt_run = run_at(plan.x)?;
        let wide_run = run_at(wide_x)?;
        book.push(
            format!("a3/d={d}/optimal"),
            opt_run.journaled.journal.clone(),
        );
        book.push(format!("a3/d={d}/wide"), wide_run.journaled.journal.clone());
        let agg = opt_run.journaled.aggregate.clone();
        let wide_agg = wide_run.journaled.aggregate.clone();
        // Note: for d = 1 this is Fan's asymptotic heavy-load estimate of
        // the expected max (not a strict bound in the sparse regime the
        // optimum lands in); for d >= 2 it is Eq. (10).
        let bound = if d == 1 {
            plan.predicted_gain.value()
        } else {
            attack_gain_bound(&params, plan.x, &KParam::paper_fitted()).value()
        };
        let c_star = critical_cache_size(base.nodes, d, &KParam::theory());
        t.push_row(vec![
            d.to_string(),
            name.to_string(),
            plan.x.to_string(),
            fmt_f(agg.max_gain()),
            fmt_f(wide_agg.max_gain()),
            fmt_f(bound),
            if c_star == usize::MAX {
                "unbounded".to_string()
            } else {
                c_star.to_string()
            },
        ]);
    }
    Ok(t)
}

/// A4 — real cache policies vs. the perfect oracle, under Zipf and under
/// the adversarial pattern (query-sampling engine).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn cache_policies(opts: &Opts) -> Result<Table> {
    let (nodes, items, cache, queries) = if opts.fast {
        (50, 20_000, 100, 100_000u64)
    } else {
        (100, 100_000, 500, 1_000_000u64)
    };
    let mut t = Table::new(
        format!("Ablation A4: cache policies (n={nodes}, c={cache}, m={items}, {queries} queries)"),
        &["policy", "zipf_hit", "zipf_gain", "adv_hit", "adv_gain"],
    );
    let base = sim(opts, nodes, items, cache)?;
    let zipf = AccessPattern::zipf(1.01, items)?;
    let adversarial = AccessPattern::uniform_subset(cache as u64 + 1, items)?;
    for kind in CacheKind::ALL {
        if kind == CacheKind::None {
            continue; // the no-cache row carries no policy signal here
        }
        let mut row = vec![kind.name().to_string()];
        for pattern in [&zipf, &adversarial] {
            let sim = base
                .to_builder()
                .cache_kind(kind)
                .pattern(pattern.clone())
                .seed(base.seed ^ 0xAB4)
                .build()?;
            let report = run_query_simulation(&sim, queries)?;
            let hit = report.cache_stats.map(|s| s.hit_rate()).unwrap_or_default();
            row.push(fmt_f(hit));
            row.push(fmt_f(report.gain().value()));
        }
        // Reorder: zipf_hit, zipf_gain, adv_hit, adv_gain already in order.
        t.push_row(row);
    }
    Ok(t)
}

/// A5 — multiple front-end caches: by-client routing behaves like one
/// cache of `c`, by-key routing like one cache of `f·c`.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn multi_frontend(opts: &Opts) -> Result<Table> {
    let (nodes, items, cache, queries) = if opts.fast {
        (50, 20_000, 50, 100_000u64)
    } else {
        (200, 200_000, 200, 500_000u64)
    };
    // An attack sized against the *aggregate* by-key capacity with 4
    // front ends, so the routing mode decides whether it is absorbed.
    let frontends = 4usize;
    let x = (frontends * cache) as u64 + 1;
    let base = sim(opts, nodes, items, cache)?;
    let cfg = base
        .to_builder()
        .attack_x(x)
        .seed(base.seed ^ 0xA5)
        .build()?;
    let mut t = Table::new(
        format!(
            "Ablation A5: {frontends} front-end caches of {cache} entries vs x = {x} attack              (n={nodes}, m={items})"
        ),
        &["routing", "hit_fraction", "gain", "resident_keys"],
    );
    for routing in [FrontendRouting::ByClient, FrontendRouting::ByKey] {
        let r = run_multi_frontend_simulation(&cfg, frontends, routing, queries)?;
        t.push_row(vec![
            routing.name().to_string(),
            fmt_f(r.load.cache_fraction()),
            fmt_f(r.load.gain().value()),
            r.total_resident.to_string(),
        ]);
    }
    // Single front end with the same per-box budget, for reference.
    let single = run_multi_frontend_simulation(&cfg, 1, FrontendRouting::ByClient, queries)?;
    t.push_row(vec![
        "single".to_string(),
        fmt_f(single.load.cache_fraction()),
        fmt_f(single.load.gain().value()),
        single.total_resident.to_string(),
    ]);
    Ok(t)
}

/// A6 — operation costs: the provable read-flood protection does not
/// extend to cache-bypassing write floods.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn cost_model(opts: &Opts) -> Result<Table> {
    let (nodes, items, cache, queries) = if opts.fast {
        (50, 20_000, 60, 100_000u64)
    } else {
        (200, 200_000, 300, 500_000u64)
    };
    // Cache provisioned above c* so the pure-read attack is ineffective.
    let base = sim(opts, nodes, items, cache)?;
    let cfg = base.to_builder().seed(base.seed ^ 0xA6).build()?;
    let mut t = Table::new(
        format!(
            "Ablation A6: read/write cost mixes under the x = c+1 attack              (n={nodes}, c={cache} >= c*, m={items})"
        ),
        &["mix", "backend_fraction", "gain"],
    );
    let mixes: [(&str, CostModel); 4] = [
        ("reads only", CostModel::uniform()),
        (
            "10% writes (1x cost)",
            CostModel::read_write(1.0, 1.0, 0.1)?,
        ),
        (
            "10% writes (5x cost)",
            CostModel::read_write(1.0, 5.0, 0.1)?,
        ),
        (
            "50% writes (5x cost)",
            CostModel::read_write(1.0, 5.0, 0.5)?,
        ),
    ];
    for (label, model) in mixes {
        let r = run_weighted_query_simulation(&cfg, queries, &model)?;
        t.push_row(vec![
            label.to_string(),
            fmt_f(r.backend_fraction()),
            fmt_f(r.gain().value()),
        ]);
    }
    Ok(t)
}

/// A7 — organic-workload sensitivity: how much cache does a Zipf workload
/// need, as a function of its skew?
///
/// # Errors
///
/// Propagates simulation errors.
pub fn zipf_sensitivity(opts: &Opts, book: &mut JournalBook) -> Result<Table> {
    let rule = opts.stop_rule(10);
    let (nodes, items, cache) = if opts.fast {
        (50, 20_000, 50)
    } else {
        (1000, 1_000_000, 100)
    };
    let mut t = Table::new(
        format!("Ablation A7: Zipf skew vs load (n={nodes}, c={cache}, m={items})"),
        &["alpha", "cache_fraction", "max_gain"],
    );
    let base = sim(opts, nodes, items, cache)?;
    for alpha in [0.6, 0.8, 0.9, 1.01, 1.2, 1.5] {
        let cfg = base
            .to_builder()
            .pattern(AccessPattern::zipf(alpha, items)?)
            .seed(base.seed ^ 0xA7)
            .build()?;
        let out = repeat_rate_simulation_journaled(&cfg, &rule, opts.threads)?;
        book.push(format!("a7/alpha={alpha}"), out.journal);
        t.push_row(vec![
            format!("{alpha}"),
            fmt_f(out.reports.first().map_or(0.0, LoadReport::cache_fraction)),
            fmt_f(out.aggregate.max_gain()),
        ]);
    }
    Ok(t)
}

/// A8 — rebalancing vs. caching: migrating keys chases imbalance at a
/// recurring bandwidth cost and is powerless against the optimal attack
/// (one white-hot key cannot be split); a provisioned cache absorbs both
/// workloads for free at query time.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn rebalance_vs_cache(opts: &Opts) -> Result<Table> {
    let (nodes, items) = if opts.fast {
        (100usize, 100_000u64)
    } else {
        (1000, 1_000_000)
    };
    let base = sim(opts, nodes, items, 0)?;
    let c_star = critical_cache_size(nodes, base.replication, &KParam::paper_fitted());
    let mk = |cache: usize, pattern: &AccessPattern| {
        base.to_builder()
            .cache_capacity(cache)
            .pattern(pattern.clone())
            .seed(base.seed ^ 0xA8)
            .build()
    };
    let mut t = Table::new(
        format!("Ablation A8: rebalancing vs caching (n={nodes}, m={items}, c* = {c_star})"),
        &["defense", "workload", "gain", "migrations"],
    );
    let workloads = [
        ("zipf(1.01)", AccessPattern::zipf(1.01, items)?),
        (
            "optimal attack",
            AccessPattern::uniform_subset(c_star as u64 + 1, items)?,
        ),
        (
            "wide attack",
            AccessPattern::uniform_subset((50 * nodes as u64).min(items), items)?,
        ),
    ];
    for (wl_name, pattern) in &workloads {
        // Defense 1: no cache, greedy in-group rebalancing (tight target
        // so it chases even the balls-into-bins gap).
        let uncached = mk(0, pattern)?;
        let assignments = collect_assignments(&uncached, 0)?;
        let rb_cfg = RebalanceConfig {
            target_ratio: 1.001,
            ..RebalanceConfig::default()
        };
        let outcome = rebalance(&assignments, nodes, &rb_cfg);
        t.push_row(vec![
            "rebalance (no cache)".to_string(),
            wl_name.to_string(),
            fmt_f(outcome.after.normalized_max(1e5)),
            outcome.migrations.len().to_string(),
        ]);
        // Defense 2: provisioned cache, no rebalancing.
        let cached = mk(c_star, pattern)?;
        let report = run_rate_simulation(&cached)?;
        t.push_row(vec![
            format!("cache (c = {c_star})"),
            wl_name.to_string(),
            fmt_f(report.gain().value()),
            "0".to_string(),
        ]);
    }
    Ok(t)
}

/// Runs all ablations as the tables `ablation_a1` … `ablation_a8`, each
/// its study's outcome, so one failing study leaves the others' tables
/// standing; collects the journals of the repetition-based ones (A1, A2,
/// A3, A7; the others are single-run query sims).
pub fn run_all_journaled(opts: &Opts) -> GroupOutput {
    let mut book = JournalBook::new();
    let tables = [
        selection(opts, &mut book),
        partitioning(opts, &mut book),
        replication(opts, &mut book),
        cache_policies(opts),
        multi_frontend(opts),
        cost_model(opts),
        zipf_sensitivity(opts, &mut book),
        rebalance_vs_cache(opts),
    ];
    let named = (1..)
        .zip(tables)
        .map(|(i, t)| (format!("ablation_a{i}"), t));
    (named.collect(), book)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_opts() -> Opts {
        Opts {
            fast: true,
            runs: 4,
            ..Opts::default()
        }
    }

    #[test]
    fn selection_table_shows_sticky_hotspot() {
        let mut book = JournalBook::new();
        let t = selection(&fast_opts(), &mut book).unwrap();
        assert_eq!(t.len(), 4);
        // One journal per selector, one record per repetition.
        assert_eq!(book.len(), 4);
        assert!(book.journals().all(|j| j.len() == 4));
        let rendered = t.render();
        assert!(rendered.contains("least-loaded"));
        assert!(rendered.contains("random"));
    }

    #[test]
    fn partitioning_contiguous_attack_dominates() {
        let t = partitioning(&fast_opts(), &mut JournalBook::new()).unwrap();
        // One scattered-keys row per scheme plus the contiguous flood.
        assert_eq!(t.len(), PartitionerKind::ALL.len() + 1);
        let csv = t.to_csv();
        // Parse the gains: the contiguous-range row must be the largest.
        let mut gains: Vec<(String, f64)> = csv
            .lines()
            .skip(1)
            .map(|l| {
                let cols: Vec<&str> = l.split(',').collect();
                (
                    cols[0].trim_matches('"').to_string(),
                    cols[2].parse().unwrap(),
                )
            })
            .collect();
        gains.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        assert!(
            gains[0].0.contains("contiguous"),
            "contiguous range attack should top the table: {gains:?}"
        );
    }

    #[test]
    fn replication_sweep_shows_d_one_worst() {
        let t = replication(&fast_opts(), &mut JournalBook::new()).unwrap();
        assert_eq!(t.len(), 6);
        let csv = t.to_csv();
        let col = |idx: usize| -> Vec<f64> {
            csv.lines()
                .skip(1)
                .map(|l| l.split(',').nth(idx).unwrap().parse().unwrap_or(f64::NAN))
                .collect()
        };
        let opt_gains = col(3);
        // d=1 with the Fan adversary should be at least as bad as d>=3.
        assert!(
            opt_gains[0] >= opt_gains[2] * 0.8,
            "d=1 gain {} vs d=3 gain {}",
            opt_gains[0],
            opt_gains[2]
        );
        // The wide attack is where d-choice shines: monotone improvement.
        let wide = col(4);
        assert!(
            wide[0] > wide[2] && wide[2] >= wide[5] * 0.9,
            "wide-attack gains should fall with d: {wide:?}"
        );
    }

    #[test]
    fn multi_frontend_by_key_beats_by_client() {
        let t = multi_frontend(&fast_opts()).unwrap();
        assert_eq!(t.len(), 3);
        let csv = t.to_csv();
        let hit = |row: usize| -> f64 {
            csv.lines()
                .nth(row + 1)
                .unwrap()
                .split(',')
                .nth(1)
                .unwrap()
                .parse()
                .unwrap()
        };
        let by_client = hit(0);
        let by_key = hit(1);
        let single = hit(2);
        assert!(
            by_key > by_client + 0.2,
            "by-key {by_key} vs by-client {by_client}"
        );
        assert!(
            (by_client - single).abs() < 0.05,
            "by-client should equal single"
        );
    }

    #[test]
    fn cost_model_write_floods_pierce_the_cache() {
        let t = cost_model(&fast_opts()).unwrap();
        assert_eq!(t.len(), 4);
        let csv = t.to_csv();
        let backend = |row: usize| -> f64 {
            csv.lines()
                .nth(row + 1)
                .unwrap()
                .rsplit(',')
                .nth(1)
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(backend(0) < 0.05, "read flood must be absorbed");
        assert!(backend(3) > 0.5, "write-heavy flood must pierce");
    }

    #[test]
    fn zipf_sensitivity_more_skew_more_offload() {
        let t = zipf_sensitivity(&fast_opts(), &mut JournalBook::new()).unwrap();
        assert_eq!(t.len(), 6);
        let csv = t.to_csv();
        let fractions: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(
            fractions.windows(2).all(|w| w[0] <= w[1] + 1e-9),
            "cache fraction should grow with skew: {fractions:?}"
        );
    }

    #[test]
    fn rebalance_cannot_defend_hot_keys_but_cache_can() {
        let t = rebalance_vs_cache(&fast_opts()).unwrap();
        assert_eq!(t.len(), 6);
        let csv = t.to_csv();
        let rows: Vec<Vec<String>> = csv
            .lines()
            .skip(1)
            .map(|l| {
                l.split(',')
                    .map(|c| c.trim_matches('"').to_string())
                    .collect()
            })
            .collect();
        // Rows: [rb zipf, cache zipf, rb optimal, cache optimal, rb wide, cache wide].
        let gain = |i: usize| rows[i][2].parse::<f64>().unwrap();
        let moves = |i: usize| rows[i][3].parse::<u64>().unwrap();
        // Against single hot keys (zipf head / optimal attack) the
        // rebalancer is powerless: the hot node already holds only the
        // hot key, so no in-group move lowers the max.
        assert!(gain(0) > 2.0, "zipf head must stay hot: {}", gain(0));
        assert!(
            gain(2) > 1.2,
            "optimal attack must beat migration: {}",
            gain(2)
        );
        // The wide attack is the one case migration can polish.
        assert!(moves(4) > 0, "wide attack should trigger migrations");
        assert!(gain(4) < 1.1, "post-rebalance wide gain: {}", gain(4));
        // The provisioned cache holds everywhere.
        for i in [1usize, 3, 5] {
            assert!(gain(i) <= 1.0, "cache row {i} breached: {}", gain(i));
        }
    }

    #[test]
    fn cache_policy_table_includes_oracle_and_real_policies() {
        let t = cache_policies(&fast_opts()).unwrap();
        assert_eq!(t.len(), CacheKind::ALL.len() - 1);
        let rendered = t.render();
        assert!(rendered.contains("perfect"));
        assert!(rendered.contains("tinylfu"));
    }

    #[test]
    fn rebalance_vs_cache_follows_the_selector_flag() {
        // A8 overrides no substrate axis, so `--selector` reaches both
        // its rebalancer's assignments and its cached rate runs.
        let random = Opts {
            selector: SelectorKind::Random,
            ..fast_opts()
        };
        assert_ne!(
            rebalance_vs_cache(&fast_opts()).unwrap(),
            rebalance_vs_cache(&random).unwrap()
        );
    }
}

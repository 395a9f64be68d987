//! `--compare BASE.json NEW.json`: the way a change shows its before and
//! after. One row per workload × end-to-end metric, judged by the
//! metric's own bound and direction; every ratio is given with its base.

use crate::spec::{self, Better, MetricSpec};
use crate::stats::Summary;
use scp_json::Json;

/// How one metric moved between two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread exceeds the bound and the two sets of runs
    /// overlap, so neither "same" nor a direction can be claimed.
    Unresolved,
}

impl Verdict {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base` for a metric that may worsen by the
/// relative `bound` of the base median before it is a regression.
pub(crate) fn judge(better: Better, bound: f64, base: &Summary, new: &Summary) -> Verdict {
    let noisy = base.spread().max(new.spread()) > bound;
    let overlap = base.min <= new.max && new.min <= base.max;
    if noisy && overlap {
        return Verdict::Unresolved;
    }
    let scale = base.median.abs().max(f64::MIN_POSITIVE);
    let rise = (new.median - base.median) / scale;
    let worsening = match better {
        Better::Higher => -rise,
        Better::Lower => rise,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Judges a failure share against an absolute bound: it may rise by at
/// most `bound` (not a share of the base, which is usually 0).
pub(crate) fn judge_absolute(bound: f64, base: f64, new: f64) -> Verdict {
    if new - base > bound {
        Verdict::Worse
    } else if base - new > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn summary_from(json: &Json) -> Option<Summary> {
    let num = |key: &str| json.get(key).and_then(Json::as_f64);
    Some(Summary {
        median: num("median")?,
        q1: num("q1")?,
        q3: num("q3")?,
        min: num("min")?,
        max: num("max")?,
        n: json.get("n").and_then(Json::as_usize)?,
    })
}

fn failed_frac(workload: &Json) -> Option<f64> {
    let attempted = workload.get("attempted")?.as_f64()?;
    let failed = workload.get("failed")?.as_f64()?;
    (attempted > 0.0).then(|| failed / attempted)
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Row {
    pub(crate) workload: String,
    pub(crate) metric: String,
    pub(crate) verdict: Verdict,
    pub(crate) text: String,
}

fn metric_row(workload: &str, spec: &MetricSpec, base: &Summary, new: &Summary) -> Row {
    let bound = spec.bound.unwrap_or(0.0);
    let verdict = judge(spec.better, bound, base, new);
    let ratio = new.median / base.median;
    Row {
        workload: workload.to_owned(),
        metric: spec.name.to_owned(),
        verdict,
        text: format!(
            "{workload:<15} {:<14} {:<10} new {:.6e} / base {:.6e} {} = {ratio:.4} ({} better, bound {bound}, spread base {:.4} new {:.4}, n {} vs {})",
            spec.name,
            verdict.name(),
            new.median,
            base.median,
            spec.unit,
            spec.better.name(),
            base.spread(),
            new.spread(),
            base.n,
            new.n,
        ),
    }
}

/// Compares two result documents (the files `--out` writes). Returns
/// the rows in workload × metric order; a workload or metric missing
/// from either side is an error, not a silent skip.
pub(crate) fn compare(base: &Json, new: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in crate::fixtures::Workload::ALL {
        let name = workload.name();
        let side = |doc: &Json, which: &str| {
            doc.get("workloads")
                .and_then(|w| w.get(name))
                .cloned()
                .ok_or_else(|| format!("{which}: workload `{name}` missing"))
        };
        let (b, n) = (side(base, "base")?, side(new, "new")?);
        for spec in &spec::END_TO_END {
            let read = |doc: &Json, which: &str| {
                doc.get("end_to_end")
                    .and_then(|m| m.get(spec.name))
                    .and_then(summary_from)
                    .ok_or_else(|| format!("{which}: {name}.{} missing or malformed", spec.name))
            };
            rows.push(metric_row(
                name,
                spec,
                &read(&b, "base")?,
                &read(&n, "new")?,
            ));
        }
        let base_share =
            failed_frac(&b).ok_or_else(|| format!("base: {name} has no attempted/failed"))?;
        let new_share =
            failed_frac(&n).ok_or_else(|| format!("new: {name} has no attempted/failed"))?;
        let verdict = judge_absolute(spec::FAILED_FRAC_BOUND, base_share, new_share);
        rows.push(Row {
            workload: name.to_owned(),
            metric: "failed_frac".to_owned(),
            verdict,
            text: format!(
                "{name:<15} {:<14} {:<10} new {new_share:.6} - base {base_share:.6} = {:+.6} (lower better, absolute bound {})",
                "failed_frac",
                verdict.name(),
                new_share - base_share,
                spec::FAILED_FRAC_BOUND
            ),
        });
        let digest = |doc: &Json| doc.get("digest").and_then(Json::as_str).map(str::to_owned);
        let (db, dn) = (digest(&b), digest(&n));
        // The threaded engine's sheds depend on scheduling; its digest is
        // recorded but not held equal.
        let changed = workload.deterministic() && db != dn;
        rows.push(Row {
            workload: name.to_owned(),
            metric: "result_digest".to_owned(),
            verdict: if changed {
                Verdict::Worse
            } else {
                Verdict::Same
            },
            text: format!(
                "{name:<15} {:<14} {:<10} new {} base {}",
                "result_digest",
                if changed { "changed" } else { "same" },
                dn.as_deref().unwrap_or("-"),
                db.as_deref().unwrap_or("-")
            ),
        });
    }
    Ok(rows)
}

/// Whether the comparison must exit non-zero: any `worse` row (a digest
/// change is one).
pub(crate) fn regressed(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.995,
            q3: median * 1.005,
            min: median * 0.99,
            max: median * 1.01,
            n: 15,
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let base = tight(100.0);
        assert_eq!(
            judge(Better::Higher, 0.10, &base, &tight(105.0)),
            Verdict::Same
        );
        assert_eq!(
            judge(Better::Higher, 0.10, &base, &tight(85.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Higher, 0.10, &base, &tight(120.0)),
            Verdict::Better
        );
        assert_eq!(
            judge(Better::Lower, 0.10, &base, &tight(120.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Lower, 0.10, &base, &tight(85.0)),
            Verdict::Better
        );
        // Exactly on the bound is still "same".
        assert_eq!(
            judge(Better::Lower, 0.25, &tight(4.0), &tight(5.0)),
            Verdict::Same
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved() {
        let noisy = |median: f64| Summary {
            median,
            q1: median * 0.8,
            q3: median * 1.2,
            min: median * 0.6,
            max: median * 1.4,
            n: 15,
        };
        assert_eq!(
            judge(Better::Higher, 0.10, &noisy(100.0), &noisy(80.0)),
            Verdict::Unresolved
        );
        // Wide but disjoint: every new run beats every base run.
        assert_eq!(
            judge(Better::Higher, 0.10, &noisy(100.0), &noisy(300.0)),
            Verdict::Better
        );
        // Exact metrics (no spread) are never unresolved.
        assert_eq!(
            judge(
                Better::Lower,
                0.01,
                &Summary::single(1.0),
                &Summary::single(1.0)
            ),
            Verdict::Same
        );
    }

    #[test]
    fn failure_share_uses_an_absolute_bound() {
        assert_eq!(judge_absolute(0.001, 0.0, 0.0), Verdict::Same);
        assert_eq!(judge_absolute(0.001, 0.0, 0.0009), Verdict::Same);
        assert_eq!(judge_absolute(0.001, 0.0, 0.002), Verdict::Worse);
        assert_eq!(judge_absolute(0.001, 0.01, 0.002), Verdict::Better);
    }

    fn doc(ops: f64, failed: u64, digest: &str) -> Json {
        let mut workloads = std::collections::BTreeMap::new();
        for w in crate::fixtures::Workload::ALL {
            let mut metrics = std::collections::BTreeMap::new();
            for m in &spec::END_TO_END {
                // Only the timing carries run-to-run spread.
                let summary = if m.name == "ops_per_s" {
                    tight(ops)
                } else {
                    Summary::single(1.0)
                };
                metrics.insert(
                    m.name.to_owned(),
                    crate::report::summary_json(m.unit, &summary),
                );
            }
            workloads.insert(
                w.name().to_owned(),
                Json::obj([
                    ("attempted", Json::Num(1000.0)),
                    ("failed", Json::Num(failed as f64)),
                    ("digest", Json::Str(digest.to_owned())),
                    ("end_to_end", Json::Obj(metrics)),
                ]),
            );
        }
        Json::obj([("workloads", Json::Obj(workloads))])
    }

    #[test]
    fn identical_documents_do_not_regress() {
        let rows = compare(&doc(1e6, 0, "aa"), &doc(1e6, 0, "aa")).unwrap();
        assert_eq!(rows.len(), 7 * (spec::END_TO_END.len() + 2));
        assert!(!regressed(&rows));
        assert!(rows.iter().all(|r| r.verdict == Verdict::Same));
    }

    #[test]
    fn slowdown_failures_and_digest_changes_regress() {
        let base = doc(1e6, 0, "aa");
        let slow = compare(&base, &doc(5e5, 0, "aa")).unwrap();
        assert!(regressed(&slow));
        assert!(slow
            .iter()
            .any(|r| r.metric == "ops_per_s" && r.text.contains("= 0.5000")));
        assert!(regressed(&compare(&base, &doc(1e6, 5, "aa")).unwrap()));
        let digest = compare(&base, &doc(1e6, 0, "bb")).unwrap();
        assert!(regressed(&digest));
        // serve_threaded is exempt from digest equality.
        assert!(digest.iter().any(|r| r.workload == "serve_threaded"
            && r.metric == "result_digest"
            && r.verdict == Verdict::Same));
    }

    #[test]
    fn a_missing_workload_is_an_error() {
        let empty = Json::obj([("workloads", Json::Obj(std::collections::BTreeMap::new()))]);
        assert!(compare(&empty, &doc(1e6, 0, "aa")).is_err());
    }
}

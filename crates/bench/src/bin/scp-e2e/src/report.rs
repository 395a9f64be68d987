//! What a run prints: one line per metric with its unit, a `detail`
//! line the all-workloads mode collects, and the final result object.

use crate::spec::{self, MetricSpec};
use crate::stats::{percentile, Summary};
use crate::workloads::EndToEnd;
use scp_json::Json;
use std::collections::BTreeMap;

/// A measured metric as the result file stores it.
pub(crate) fn summary_json(unit: &str, s: &Summary) -> Json {
    Json::obj([
        ("unit", Json::Str(unit.to_owned())),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("n", Json::Num(s.n as f64)),
    ])
}

fn value_json(unit: &str, value: f64) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.to_owned())),
    ])
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric as `{value, unit}`.
pub(crate) fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricSpec, f64)],
) -> String {
    let metrics: BTreeMap<String, Json> = metrics
        .iter()
        .map(|(spec, value)| (spec.name.to_owned(), value_json(spec.unit, *value)))
        .collect();
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

/// Pairs each spec with its measured value, in spec order. A metric the
/// run did not produce is an error: the result must carry every name.
pub(crate) fn pair_metrics<'a>(
    specs: &'a [MetricSpec],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<(&'a MetricSpec, f64)>, String> {
    specs
        .iter()
        .map(|spec| {
            values
                .get(spec.name)
                .map(|v| (spec, *v))
                .ok_or_else(|| format!("metric `{}` was not measured", spec.name))
        })
        .collect()
}

/// Prints the end-to-end metrics by name with unit, median, quartiles
/// and sample count, and returns the `detail` object for the result
/// file.
pub(crate) fn print_end_to_end(workload: &str, seed: u64, e2e: &EndToEnd) -> Json {
    let n = e2e.iter_secs.len();
    println!(
        "workload {workload} seed {seed} trace 0: {n} timed iterations of {} ops after {} warm-up",
        e2e.ops_per_iter,
        crate::workloads::WARMUP_ITERS
    );
    // The highest percentile with at least ten samples beyond it.
    if n > 10 {
        let q = 1.0 - 10.0 / n as f64;
        if let (Some(mid), Some(tail)) = (
            percentile(&e2e.iter_secs, 0.5),
            percentile(&e2e.iter_secs, q),
        ) {
            println!(
                "  iteration time: p50 {mid:.6} s, p{:.0} {tail:.6} s (n {n})",
                q * 100.0
            );
        }
    }
    let mut metrics = BTreeMap::new();
    for (name, summary) in e2e.metrics() {
        let Some(spec) = spec::end_to_end(name) else {
            continue;
        };
        println!(
            "  {:<14} {:>16.6} {:<5} ({} better, bound {})  q1 {:.6} q3 {:.6} spread {:.4} n {}",
            spec.name,
            summary.median,
            spec.unit,
            spec.better.name(),
            spec.bound.unwrap_or(0.0),
            summary.q1,
            summary.q3,
            summary.spread(),
            summary.n
        );
        metrics.insert(name.to_owned(), summary_json(spec.unit, &summary));
    }
    println!(
        "  attempted {} failed {} result_digest {}",
        e2e.attempted,
        e2e.failed,
        e2e.digest.hex()
    );
    Json::obj([
        ("digest", Json::Str(e2e.digest.hex())),
        ("attempted", Json::Num(e2e.attempted as f64)),
        ("failed", Json::Num(e2e.failed as f64)),
        ("iterations", Json::Num(n as f64)),
        ("ops_per_iter", Json::Num(e2e.ops_per_iter as f64)),
        ("end_to_end", Json::Obj(metrics)),
    ])
}

/// Prints the per-layer metrics by name with unit and returns the
/// `detail` object for the result file.
pub(crate) fn print_per_layer(workload: &str, seed: u64, values: &[(&MetricSpec, f64)]) -> Json {
    println!("workload {workload} seed {seed} trace 1: per-layer metrics (0 = layer not on this workload's path)");
    let mut metrics = BTreeMap::new();
    for (spec, value) in values {
        println!(
            "  {:<26} {:>16.6} {:<5} ({} better)",
            spec.name,
            value,
            spec.unit,
            spec.better.name()
        );
        metrics.insert(spec.name.to_owned(), value_json(spec.unit, *value));
    }
    Json::obj([("per_layer", Json::Obj(metrics))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let specs = &spec::END_TO_END;
        let values: BTreeMap<&'static str, f64> = specs.iter().map(|m| (m.name, 1.25)).collect();
        let paired = pair_metrics(specs, &values).unwrap();
        let line = result_line(true, 10, 0, &paired);
        assert!(!line.contains('\n'));
        let json = Json::parse(&line).unwrap();
        let Json::Obj(map) = &json else {
            panic!("result is an object");
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            panic!("metrics is an object");
        };
        assert_eq!(metrics.len(), specs.len());
        let setup = json.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn a_missing_metric_is_an_error() {
        let values: BTreeMap<&'static str, f64> = BTreeMap::new();
        assert!(pair_metrics(&spec::PER_LAYER, &values).is_err());
    }

    #[test]
    fn attempted_is_at_least_one() {
        let line = result_line(false, 0, 0, &[]);
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(false));
    }
}

//! `scp-e2e`: one end-to-end and per-layer benchmark of the serving and
//! simulation paths.
//!
//! ```text
//! scp-e2e --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! scp-e2e [--seed N] [--seconds S] [--traced] [--out DIR]     every workload, one child process each
//! scp-e2e --compare BASE.json NEW.json
//! scp-e2e --list
//! ```
//!
//! A single-workload run prints every metric by name with its unit,
//! checks the outputs, and ends with one JSON object (`correct`,
//! `attempted`, `failed`, `metrics`). The exit code is non-zero when a
//! check fails or a comparison finds a regression. See `README.md`.

mod compare;
mod fixtures;
mod layers;
mod procstat;
mod report;
mod spec;
mod stats;
mod trace;
mod walk;
mod workloads;

use fixtures::Workload;
use scp_json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  scp-e2e --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
  scp-e2e [--seed N] [--seconds S] [--traced] [--out DIR]
  scp-e2e --compare BASE.json NEW.json
  scp-e2e --list";

/// Seconds one run measures when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;
/// Name of the result file the all-workloads mode writes under `--out`.
const RESULT_FILE: &str = "scp-e2e.json";

#[derive(Debug, Default, PartialEq)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    list: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        seed: 1,
        ..Options::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = Some(value("a workload name")?),
            "--seed" => {
                let text = value("a number")?;
                opts.seed = text
                    .parse()
                    .map_err(|_| format!("--seed: `{text}` is not an unsigned integer"))?;
            }
            "--seconds" => {
                let text = value("a number")?;
                let secs: f64 = text
                    .parse()
                    .map_err(|_| format!("--seconds: `{text}` is not a number"))?;
                if !secs.is_finite() || secs <= 0.0 || secs > 3600.0 {
                    return Err(format!("--seconds: {text} is outside (0, 3600]"));
                }
                opts.seconds = Some(secs);
            }
            "--trace" => {
                opts.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is not 0 or 1")),
                }
            }
            "--traced" => opts.trace = true,
            "--out" => opts.out = Some(PathBuf::from(value("a directory")?)),
            "--list" => opts.list = true,
            "--compare" => {
                let base = PathBuf::from(value("two files")?);
                let new = PathBuf::from(value("two files")?);
                opts.compare = Some((base, new));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn write_file(dir: &Path, name: &str, json: &Json) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, json.to_pretty_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn print_violations(violations: &[String]) {
    for v in violations {
        println!("  CHECK FAILED {v}");
    }
    if violations.is_empty() {
        println!("  checks ok");
    }
}

/// One workload in this process. Prints the metrics, a `detail` line
/// for the all-workloads mode, and the result object last.
fn run_single(workload: Workload, opts: &Options) -> Result<bool, String> {
    let seconds = opts.seconds.unwrap_or(DEFAULT_SECONDS);
    let (detail, line, correct) = if opts.trace {
        let layers = layers::run_traced(workload, opts.seed, seconds)?;
        let values = report::pair_metrics(&spec::PER_LAYER, &layers.values)?;
        let detail = report::print_per_layer(workload.name(), opts.seed, &values);
        println!(
            "  walk glue (block self time, in no layer) {:.3} ns/op",
            layers.glue_ns_per_op
        );
        print_violations(&layers.violations);
        if let Some(dir) = &opts.out {
            let spans = trace::spans_json(workload.name(), opts.seed, &layers.spans);
            let path = write_file(dir, &format!("trace-{}.json", workload.name()), &spans)?;
            println!(
                "  {} spans written to {}",
                layers.spans.len(),
                path.display()
            );
        }
        let correct = layers.violations.is_empty();
        let line = report::result_line(correct, layers.attempted, layers.failed, &values);
        (detail, line, correct)
    } else {
        let e2e = workloads::run_end_to_end(workload, opts.seed, seconds)?;
        let detail = report::print_end_to_end(workload.name(), opts.seed, &e2e);
        print_violations(&e2e.violations);
        let medians: BTreeMap<&'static str, f64> = e2e
            .metrics()
            .into_iter()
            .map(|(name, summary)| (name, summary.median))
            .collect();
        let values = report::pair_metrics(&spec::END_TO_END, &medians)?;
        let correct = e2e.violations.is_empty();
        let line = report::result_line(correct, e2e.attempted, e2e.failed, &values);
        (detail, line, correct)
    };
    println!("detail {detail}");
    println!("{line}");
    Ok(correct)
}

/// Runs `scp-e2e --workload …` as a child process (a re-exec of this
/// executable, so peak memory is per workload) and returns its `detail`
/// object, or `None` when the child failed.
fn run_child(workload: Workload, opts: &Options, trace: bool) -> Result<Option<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args([
            "--seconds",
            &opts.seconds.unwrap_or(DEFAULT_SECONDS).to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(dir) = &opts.out {
        cmd.arg("--out").arg(dir);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("starting {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("detail ") {
            Some(json) => detail = Json::parse(json).ok(),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    Ok(detail.filter(|_| output.status.success()))
}

/// Every workload, each in its own child process; writes the result
/// file when `--out` is given.
fn run_all(opts: &Options) -> Result<bool, String> {
    let mut workloads = BTreeMap::new();
    let mut all_ok = true;
    for workload in Workload::ALL {
        let mut merged: BTreeMap<String, Json> = BTreeMap::new();
        for trace in [false, true] {
            if trace && !opts.trace {
                continue;
            }
            match run_child(workload, opts, trace)? {
                Some(Json::Obj(detail)) => merged.extend(detail),
                _ => {
                    all_ok = false;
                    println!("  {} (trace {}) FAILED", workload.name(), u8::from(trace));
                }
            }
        }
        merged.insert("why".to_owned(), Json::Str(workload.why().to_owned()));
        workloads.insert(workload.name().to_owned(), Json::Obj(merged));
    }
    let doc = Json::obj([
        ("benchmark", Json::Str("scp-e2e".to_owned())),
        // This benchmark measures; it claims no gain.
        ("claim", Json::Null),
        ("seed", Json::Str(opts.seed.to_string())),
        (
            "seconds",
            Json::Num(opts.seconds.unwrap_or(DEFAULT_SECONDS)),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    if let Some(dir) = &opts.out {
        let path = write_file(dir, RESULT_FILE, &doc)?;
        println!("results written to {}", path.display());
    }
    Ok(all_ok)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_compare(base: &Path, new: &Path) -> Result<bool, String> {
    let rows = compare::compare(&read_json(base)?, &read_json(new)?)?;
    println!("base {} new {}", base.display(), new.display());
    for row in &rows {
        println!("{}", row.text);
    }
    let count = |v: compare::Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} better, {} same, {} worse, {} unresolved",
        count(compare::Verdict::Better),
        count(compare::Verdict::Same),
        count(compare::Verdict::Worse),
        count(compare::Verdict::Unresolved)
    );
    Ok(!compare::regressed(&rows))
}

fn run(opts: &Options) -> Result<bool, String> {
    if opts.list {
        spec::print_list();
        return Ok(true);
    }
    if let Some((base, new)) = &opts.compare {
        return run_compare(base, new);
    }
    match &opts.workload {
        Some(name) => {
            let workload = Workload::from_name(name)
                .ok_or_else(|| format!("unknown workload `{name}`; see --list"))?;
            run_single(workload, opts)
        }
        None => run_all(opts),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("scp-e2e: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("scp-e2e: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    #[test]
    fn the_harness_command_line_parses() {
        let opts = parse_args(&args(&[
            "--workload",
            "serve_miss",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(opts.workload.as_deref(), Some("serve_miss"));
        assert_eq!(
            (opts.seed, opts.seconds, opts.trace),
            (42, Some(10.0), true)
        );
        assert!(Workload::from_name("serve_miss").is_some());
        assert!(Workload::from_name("nope").is_none());
    }

    #[test]
    fn bad_arguments_are_rejected_with_a_reason() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "inf"],
            &["--trace", "2"],
            &["--compare", "only-one"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
        let opts = parse_args(&args(&["--compare", "a.json", "b.json"])).unwrap();
        assert_eq!(
            opts.compare,
            Some((PathBuf::from("a.json"), PathBuf::from("b.json")))
        );
        assert!(parse_args(&args(&["--list"])).unwrap().list);
    }

    /// `BENCHMARK.json` and the tables in `spec.rs` and `fixtures.rs`
    /// name the same workloads and metrics, each exactly once, within
    /// the harness's limits.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = read_json(Path::new(path)).unwrap();
        let Json::Obj(top) = &doc else {
            panic!("BENCHMARK.json is an object");
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let legal = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        let mut seen = std::collections::BTreeSet::new();

        let workloads = names("workloads");
        assert!((2..=8).contains(&workloads.len()));
        let in_code: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, in_code);
        for (entry, w) in doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(Workload::ALL)
        {
            let why = entry.get("why").and_then(Json::as_str).unwrap();
            assert_eq!(why, w.why());
            assert!(why.len() <= 200 && !why.contains('\n'));
        }

        for (key, specs, limit) in [
            ("end_to_end", &spec::END_TO_END[..], 16),
            ("per_layer", &spec::PER_LAYER[..], 128),
        ] {
            let listed = doc.get(key).and_then(Json::as_array).unwrap();
            assert!((1..=limit).contains(&listed.len()), "{key}");
            assert_eq!(names(key), specs.iter().map(|m| m.name).collect::<Vec<_>>());
            for (entry, m) in listed.iter().zip(specs) {
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
                assert!(m.unit.len() <= 16);
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(m.better.name())
                );
                assert_eq!(entry.get("bound").and_then(Json::as_f64), m.bound);
                assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
            }
        }
        for name in workloads
            .iter()
            .chain(&names("end_to_end"))
            .chain(&names("per_layer"))
        {
            assert!(legal(name), "`{name}` is not a legal name");
            assert!(seen.insert(name.clone()), "`{name}` is used twice");
        }
        let setup = spec::end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));

        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let paths = doc.get("paths").and_then(Json::as_array).unwrap();
        assert_eq!(
            paths,
            [Json::Str("crates/bench/src/bin/scp-e2e".to_owned())]
        );
    }
}

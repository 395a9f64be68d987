//! Minimal command-line options shared by all reproduction binaries.

use scp_sim::config::{AdmissionKind, CacheKind, PartitionerKind, SelectorKind, SimConfig};
use scp_sim::runner::StopRule;
use scp_sim::SimConfigBuilder;
use std::path::PathBuf;

/// Options common to every reproduction binary.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Repetitions per data point (0 = each experiment's default).
    pub runs: usize,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Output directory for CSV files.
    pub out: PathBuf,
    /// Shrink the experiment for a quick smoke run.
    pub fast: bool,
    /// Master seed.
    pub seed: u64,
    /// Directory for per-run journals (None = don't write journals).
    pub journal: Option<PathBuf>,
    /// Target 95% CI half-width on the per-run gain; `> 0` enables
    /// adaptive early stopping of the repetition loop.
    pub ci_target: f64,
    /// Front-end cache policy (ablation A4 sweeps policies and ignores
    /// this; `gap` fixes the perfect cache).
    pub cache: CacheKind,
    /// Oracle-informed vs online-learned cache admission.
    pub admission: AdmissionKind,
    /// Partitioning scheme mapping keys to replica groups.
    pub partitioner: PartitionerKind,
    /// Replica selection rule within a group.
    pub selector: SelectorKind,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            runs: 0,
            threads: 0,
            out: PathBuf::from("target/repro"),
            fast: false,
            seed: 20130708, // ICDCS'13 workshop date
            journal: None,
            ci_target: 0.0,
            cache: CacheKind::Perfect,
            admission: AdmissionKind::Oracle,
            partitioner: PartitionerKind::Hash,
            selector: SelectorKind::LeastLoaded,
        }
    }
}

impl Opts {
    /// Parses `--runs N --threads N --out DIR --fast --seed N
    /// --journal DIR --ci-target X --cache KIND --admission KIND
    /// --partitioner KIND --selector KIND` from an argument iterator
    /// (unknown flags abort with a usage message).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        Self::try_parse(args).unwrap_or_else(|msg| usage(&msg))
    }

    /// [`Opts::parse`] without the exit: a bad flag is `Err(message)`,
    /// `--help` is `Err("")`.
    fn try_parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--runs" => opts.runs = expect_parse(&mut it, "--runs")?,
                "--threads" => opts.threads = expect_parse(&mut it, "--threads")?,
                "--seed" => opts.seed = expect_parse(&mut it, "--seed")?,
                "--ci-target" => opts.ci_target = expect_parse(&mut it, "--ci-target")?,
                "--cache" => opts.cache = expect_kind(&mut it, "--cache")?,
                "--admission" => opts.admission = expect_kind(&mut it, "--admission")?,
                "--partitioner" => opts.partitioner = expect_kind(&mut it, "--partitioner")?,
                "--selector" => opts.selector = expect_kind(&mut it, "--selector")?,
                "--out" => opts.out = PathBuf::from(it.next().ok_or("--out needs a dir")?),
                "--journal" => {
                    opts.journal = Some(PathBuf::from(it.next().ok_or("--journal needs a dir")?))
                }
                "--fast" => opts.fast = true,
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(opts)
    }

    /// Parses from the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// The base of every experiment: the paper's Section IV system (see
    /// [`SimConfig::builder`]) under the `--cache`, `--admission`,
    /// `--partitioner`, `--selector` and `--seed` flags. This is the only
    /// place those five flags are read; a driver overrides only the axes
    /// its study sweeps or fixes, so every other flag reaches the engine,
    /// which applies it or fails the group with its own error.
    pub fn sim(&self) -> SimConfigBuilder {
        SimConfig::builder()
            .cache_kind(self.cache)
            .admission(self.admission)
            .partitioner(self.partitioner)
            .selector(self.selector)
            .seed(self.seed)
    }

    /// The stopping rule for a data point whose default repetition count
    /// is `default`.
    ///
    /// The count is `--runs` if set, else `--fast`'s tenth (at least 3),
    /// else `default`. A non-positive `--ci-target` runs exactly that
    /// many. A positive target turns the count into a ceiling and allows
    /// stopping as soon as the gain CI is tight enough, but never before
    /// a floor of `max(4, runs/5)` runs so the variance estimate is
    /// meaningful.
    pub fn stop_rule(&self, default: usize) -> StopRule {
        let runs = if self.runs > 0 {
            self.runs
        } else if self.fast {
            default.div_ceil(10).max(3)
        } else {
            default
        };
        if self.ci_target <= 0.0 || runs == 0 {
            StopRule::fixed(runs)
        } else {
            let min = runs.div_ceil(5).max(4).min(runs);
            StopRule::adaptive(min, runs, self.ci_target)
        }
    }
}

fn expect_parse<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    it.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a numeric value"))
}

/// Parses a kind-enum flag value, surfacing the enum's own error message
/// (which lists the valid names) on a bad spelling.
fn expect_kind<T>(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <bin> [--runs N] [--threads N] [--out DIR] [--seed N] [--fast]\n\
         \x20            [--journal DIR] [--ci-target X] [--cache KIND]\n\
         \x20            [--admission KIND] [--partitioner KIND] [--selector KIND]\n\
         \n\
         --runs N      repetitions per data point (default: per-experiment)\n\
         --threads N   worker threads (default: all cores)\n\
         --out DIR     CSV output directory (default: target/repro)\n\
         --seed N      master seed (default: 20130708)\n\
         --fast        shrunken smoke-test configuration\n\
         --journal DIR write per-run journals (JSON + CSV) under DIR\n\
         --ci-target X stop each data point early once the 95% CI\n\
         \x20             half-width of the gain drops below X\n\
         --cache KIND  front-end cache policy (default: perfect):\n\
         \x20             {}\n\
         --admission KIND    cache admission (default: oracle): {}\n\
         --partitioner KIND  key partitioning (default: hash):\n\
         \x20             {}\n\
         --selector KIND     replica selection (default: least-loaded):\n\
         \x20             {}",
        CacheKind::ALL.map(|k| k.name()).join("|"),
        AdmissionKind::ALL.map(|k| k.name()).join("|"),
        PartitionerKind::ALL.map(|k| k.name()).join("|"),
        SelectorKind::ALL.map(|k| k.name()).join("|"),
    );
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Opts {
        Opts::parse(args.iter().map(|s| s.to_string()))
    }

    fn try_parse(args: &[&str]) -> Result<Opts, String> {
        Opts::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert_eq!(o.runs, 0);
        assert_eq!(o.threads, 0);
        assert!(!o.fast);
        assert_eq!(o.out, PathBuf::from("target/repro"));
        assert_eq!(o.journal, None);
        assert_eq!(o.ci_target, 0.0);
        assert_eq!(o.cache, CacheKind::Perfect);
        assert_eq!(o.admission, AdmissionKind::Oracle);
        assert_eq!(o.partitioner, PartitionerKind::Hash);
        assert_eq!(o.selector, SelectorKind::LeastLoaded);
        // The default base is the builder's paper baseline verbatim.
        assert_eq!(o.sim().build(), SimConfig::builder().build());
    }

    #[test]
    fn parses_admission_and_shield_flags() {
        let o = parse(&["--admission", "online"]);
        assert_eq!(o.admission, AdmissionKind::Online);
        for kind in AdmissionKind::ALL {
            assert_eq!(parse(&["--admission", kind.name()]).admission, kind);
        }
        // The shield and rotation knobs belong to `scp-serve` and the
        // `gap` study's own grid; here they are unknown flags.
        for flag in ["--pow-difficulty", "--attack-rotate"] {
            assert_eq!(
                try_parse(&[flag, "8"]),
                Err(format!("unknown flag `{flag}`"))
            );
        }
        assert_eq!(try_parse(&["--help"]), Err(String::new()));
        assert!(try_parse(&["--runs", "many"]).is_err());
    }

    #[test]
    fn parses_substrate_kinds_by_name() {
        let o = parse(&[
            "--cache",
            "tinylfu",
            "--partitioner",
            "ring",
            "--selector",
            "round-robin",
        ]);
        assert_eq!(o.cache, CacheKind::TinyLfu);
        assert_eq!(o.partitioner, PartitionerKind::Ring);
        assert_eq!(o.selector, SelectorKind::RoundRobin);
    }

    #[test]
    fn every_kind_name_parses_through_the_flags() {
        for kind in CacheKind::ALL {
            assert_eq!(parse(&["--cache", kind.name()]).cache, kind);
        }
        for kind in PartitionerKind::ALL {
            assert_eq!(parse(&["--partitioner", kind.name()]).partitioner, kind);
        }
        for kind in SelectorKind::ALL {
            assert_eq!(parse(&["--selector", kind.name()]).selector, kind);
        }
    }

    #[test]
    fn parses_all_flags() {
        let o = parse(&[
            "--runs",
            "7",
            "--threads",
            "2",
            "--out",
            "/tmp/x",
            "--fast",
            "--seed",
            "9",
            "--journal",
            "/tmp/j",
            "--ci-target",
            "0.05",
            "--cache",
            "none",
            "--admission",
            "online",
            "--partitioner",
            "ring",
            "--selector",
            "random",
        ]);
        assert_eq!(o.runs, 7);
        assert_eq!(o.threads, 2);
        assert_eq!(o.out, PathBuf::from("/tmp/x"));
        assert!(o.fast);
        assert_eq!(o.seed, 9);
        assert_eq!(o.journal, Some(PathBuf::from("/tmp/j")));
        assert_eq!(o.ci_target, 0.05);
        // The five substrate flags all land in the base.
        let base = o.sim().build().unwrap();
        assert_eq!(base.cache_kind, CacheKind::None);
        assert_eq!(base.admission, AdmissionKind::Online);
        assert_eq!(base.partitioner, PartitionerKind::Ring);
        assert_eq!(base.selector, SelectorKind::Random);
        assert_eq!(base.seed, 9);
    }

    #[test]
    fn effective_runs_precedence() {
        let mut o = Opts::default();
        assert_eq!(o.stop_rule(200).max_runs, 200);
        o.fast = true;
        assert_eq!(o.stop_rule(200).max_runs, 20);
        assert_eq!(o.stop_rule(20).max_runs, 3);
        o.runs = 5;
        assert_eq!(o.stop_rule(200).max_runs, 5);
    }

    #[test]
    fn stop_rule_shapes() {
        let rule = |runs: usize, ci_target: f64| {
            Opts {
                runs,
                ci_target,
                ..Opts::default()
            }
            .stop_rule(200)
        };
        // No target: fixed at the effective count.
        assert_eq!(rule(200, 0.0), StopRule::fixed(200));
        assert!(!rule(200, 0.0).is_adaptive());
        // Positive target: adaptive with a floor of max(4, runs/5).
        let r = rule(200, 0.05);
        assert_eq!((r.min_runs, r.max_runs, r.ci_target), (40, 200, 0.05));
        assert!(r.is_adaptive());
        assert_eq!(rule(10, 0.05).min_runs, 4);
        // Tiny counts degenerate to fixed (floor == ceiling).
        assert!(!rule(3, 0.05).is_adaptive());
        assert_eq!(rule(3, 0.05).max_runs, 3);
    }

    #[test]
    fn opts_stop_rule_uses_effective_runs() {
        let o = Opts {
            ci_target: 0.1,
            ..Opts::default()
        };
        let r = o.stop_rule(200);
        assert_eq!((r.min_runs, r.max_runs), (40, 200));
        let fixed = Opts::default().stop_rule(200);
        assert_eq!(fixed, StopRule::fixed(200));
    }
}

//! A minimal, dependency-free benchmark harness with a Criterion-shaped
//! API.
//!
//! The `benches/*.rs` targets were written against the familiar
//! `benchmark_group` / `bench_function` / `Throughput` surface; this
//! module provides exactly that subset on top of `std::time::Instant`,
//! so the suite builds and runs with no external crates:
//!
//! * [`Bencher::iter`] auto-calibrates a batch size until one batch takes
//!   a few milliseconds, then records `sample_size` timed batches.
//! * Results print one line per benchmark (`mean ± stddev`, min, and
//!   elements/bytes per second when a [`Throughput`] is set) and stay
//!   queryable on the [`Criterion`] value for tests.
//!
//! Numbers from this harness are honest wall-clock measurements but lack
//! Criterion's outlier rejection and statistical machinery — treat them
//! as regression smoke signals, not publication-grade timings.

use std::time::{Duration, Instant};

/// Wall-clock time a single calibration or sample batch aims for. Long
/// iterations (entire simulation runs) exceed this on their first
/// iteration and are simply sampled one iteration at a time.
const TARGET_BATCH: Duration = Duration::from_millis(2);

/// How work per iteration is expressed in the throughput report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Iterations process this many logical elements.
    Elements(u64),
    /// Iterations process this many bytes.
    Bytes(u64),
}

/// Measurement state handed to the closure of
/// [`BenchmarkGroup::bench_function`].
#[derive(Debug, Default)]
pub struct Bencher {
    sample_size: usize,
    per_iter_ns: Vec<f64>,
}

impl Bencher {
    /// Times `routine`, recording per-iteration nanoseconds over
    /// `sample_size` batches (batch size auto-calibrated).
    #[expect(
        clippy::disallowed_methods,
        reason = "a bench harness: measured wall time is the deliverable"
    )]
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // DETERMINISM: a bench harness — measured wall time IS the
        // deliverable, not a result any journal replays.
        // Calibrate: double the batch until one batch is slow enough to
        // time reliably.
        let mut batch: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            if start.elapsed() >= TARGET_BATCH || batch >= 1 << 20 {
                break;
            }
            batch *= 2;
        }
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            self.per_iter_ns
                .push(start.elapsed().as_nanos() as f64 / batch as f64);
        }
    }
}

/// One finished benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Full identifier, `group/function`.
    pub id: String,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Sample standard deviation of the per-batch means.
    pub stddev_ns: f64,
    /// Fastest batch's nanoseconds per iteration.
    pub min_ns: f64,
    /// Work per iteration, if declared.
    pub throughput: Option<Throughput>,
}

impl BenchResult {
    /// The result as a JSON object (for committed `BENCH_*.json`
    /// baselines).
    pub fn to_json(&self) -> scp_json::Json {
        use scp_json::Json;
        let mut pairs = vec![
            ("id", Json::Str(self.id.clone())),
            ("mean_ns", Json::Num(self.mean_ns)),
            ("stddev_ns", Json::Num(self.stddev_ns)),
            ("min_ns", Json::Num(self.min_ns)),
        ];
        if let Some(t) = self.throughput {
            let (count, unit) = match t {
                Throughput::Elements(e) => (e as f64, "elements"),
                Throughput::Bytes(b) => (b as f64, "bytes"),
            };
            pairs.push(("work_per_iter", Json::Num(count)));
            pairs.push(("work_unit", Json::Str(unit.to_owned())));
            if self.mean_ns > 0.0 {
                pairs.push(("per_sec", Json::Num(count * 1e9 / self.mean_ns)));
            }
        }
        Json::obj(pairs)
    }

    fn from_samples(id: String, samples: &[f64], throughput: Option<Throughput>) -> Self {
        let n = samples.len().max(1) as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() < 2 {
            0.0
        } else {
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0)
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        Self {
            id,
            mean_ns: mean,
            stddev_ns: var.sqrt(),
            min_ns: if min.is_finite() { min } else { 0.0 },
            throughput,
        }
    }

    fn render(&self) -> String {
        let mut line = format!(
            "{:<48} {:>12}/iter (± {}, min {})",
            self.id,
            fmt_ns(self.mean_ns),
            fmt_ns(self.stddev_ns),
            fmt_ns(self.min_ns),
        );
        if let Some(t) = self.throughput {
            let (count, unit) = match t {
                Throughput::Elements(e) => (e as f64, "elem"),
                Throughput::Bytes(b) => (b as f64, "B"),
            };
            if self.mean_ns > 0.0 {
                let per_sec = count * 1e9 / self.mean_ns;
                line.push_str(&format!("  {}{unit}/s", fmt_scaled(per_sec)));
            }
        }
        line
    }
}

/// Formats nanoseconds with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Formats a rate with an adaptive SI prefix.
fn fmt_scaled(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2} G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2} M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2} K", v / 1e3)
    } else {
        format!("{v:.1} ")
    }
}

/// Top-level harness state: collects results across groups.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        BenchmarkGroup {
            criterion: self,
            name,
            sample_size: 10,
            throughput: None,
        }
    }

    /// All results recorded so far, in execution order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// All results as a JSON array, for committed `BENCH_*.json`
    /// baselines.
    pub fn results_json(&self) -> scp_json::Json {
        scp_json::Json::arr(self.results.iter().map(BenchResult::to_json))
    }

    /// Writes [`Self::results_json`] as a committed baseline if the bench
    /// target was asked to. `requested` is the value of
    /// `SCP_BENCH_BASELINE`, read by the target so this library stays
    /// environment-free: unset writes nothing, empty or `1` writes
    /// `file_name` at the repository root, anything else is the path.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the destination is not writable.
    pub fn write_baseline(
        &self,
        requested: Option<std::ffi::OsString>,
        file_name: &str,
    ) -> std::io::Result<()> {
        let Some(dest) = requested else {
            return Ok(());
        };
        let path = if dest.is_empty() || dest == "1" {
            format!("{}/../../{file_name}", env!("CARGO_MANIFEST_DIR"))
        } else {
            dest.to_string_lossy().into_owned()
        };
        std::fs::write(&path, self.results_json().to_string() + "\n")?;
        println!("wrote benchmark baseline to {path}");
        Ok(())
    }
}

/// A group of related benchmarks sharing a name prefix and settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed batches per benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Declares the work one iteration performs, enabling the
    /// throughput column. Applies to subsequently registered functions.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark: `f` receives a [`Bencher`] and must call
    /// [`Bencher::iter`].
    pub fn bench_function<S: Into<String>, F>(&mut self, id: S, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, id.into());
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            per_iter_ns: Vec::with_capacity(self.sample_size),
        };
        f(&mut bencher);
        let result = BenchResult::from_samples(id, &bencher.per_iter_ns, self.throughput);
        println!("{}", result.render());
        self.criterion.results.push(result);
        self
    }

    /// Ends the group (results are already recorded; kept for API
    /// compatibility).
    pub fn finish(self) {}
}

/// Bundles benchmark functions into a group runner, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::harness::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Generates `main` for a `harness = false` bench target, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::harness::Criterion::default();
            $( $group(&mut c); )+
            println!("\n{} benchmarks complete", c.results().len());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_one_result_per_call() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(3).throughput(Throughput::Elements(4));
            g.bench_function("cheap", |b| b.iter(|| 1 + 1));
            g.bench_function("alloc", |b| b.iter(|| vec![0u8; 64]));
            g.finish();
        }
        let results = c.results();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].id, "g/cheap");
        assert_eq!(results[1].id, "g/alloc");
        for r in results {
            assert!(r.mean_ns > 0.0, "{}: non-positive mean", r.id);
            assert!(r.min_ns <= r.mean_ns + 1e-9);
            assert_eq!(r.throughput, Some(Throughput::Elements(4)));
        }
    }

    #[test]
    fn slow_iterations_are_sampled_unbatched() {
        // An iteration longer than the calibration target must still be
        // measured (batch stays at 1), and the recorded mean reflects it.
        let mut c = Criterion::default();
        c.benchmark_group("slow")
            .sample_size(2)
            .bench_function("sleep", |b| {
                b.iter(|| std::thread::sleep(Duration::from_millis(3)))
            });
        let r = &c.results()[0];
        assert!(r.mean_ns >= 2.5e6, "mean {} ns too small", r.mean_ns);
    }

    #[test]
    fn formatting_uses_adaptive_units() {
        assert_eq!(fmt_ns(12.3), "12.3 ns");
        assert_eq!(fmt_ns(1234.0), "1.23 µs");
        assert_eq!(fmt_ns(12_345_678.0), "12.35 ms");
        assert_eq!(fmt_ns(2.5e9), "2.50 s");
        assert_eq!(fmt_scaled(1.5e7), "15.00 M");
        assert_eq!(fmt_scaled(950.0), "950.0 ");
    }

    #[test]
    fn group_macro_compiles_and_runs() {
        fn target(c: &mut Criterion) {
            c.benchmark_group("m")
                .sample_size(2)
                .bench_function("noop", |b| b.iter(|| ()));
        }
        crate::criterion_group!(demo_group, target);
        let mut c = Criterion::default();
        demo_group(&mut c);
        assert_eq!(c.results().len(), 1);
    }
}

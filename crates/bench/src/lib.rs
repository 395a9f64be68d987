//! Shared fixtures and the in-repo benchmark harness.
//!
//! Each `benches/*.rs` target either micro-benchmarks one substrate
//! (partitioners, cache policies, samplers) or macro-benchmarks the hot
//! path of one paper experiment (`fig3_engine`, `fig4_engine`,
//! `fig5_engine`) so `cargo bench` exercises every figure's pipeline.
//! Targets are driven by the dependency-free [`harness`] module, which
//! mirrors the Criterion API subset they use.
//!
//! Benchmark sizes are scaled down from the paper's full configuration
//! (1e6-key sweeps, 200 repetitions) to keep one sample in the tens of
//! milliseconds; the `repro` binaries run the full-size versions.

#![warn(missing_docs)]

pub mod harness;

use scp_sim::SimConfig;
use scp_workload::AccessPattern;

/// Scaled-down paper baseline shared by the engine benches: 1000 nodes,
/// d = 3, 100k keys, perfect cache.
#[expect(
    clippy::expect_used,
    reason = "fixture inputs are compile-time constants; an invalid baseline must abort the bench run loudly"
)]
pub fn bench_baseline(cache: usize, pattern: AccessPattern) -> SimConfig {
    SimConfig::builder()
        .cache_capacity(cache)
        .items(100_000)
        .pattern(pattern)
        .seed(0xBEAC4)
        .build()
        .expect("bench baseline is valid")
}

/// The adversarial `x = c + 1` pattern over the bench key space.
pub fn adversarial_pattern(cache: usize) -> AccessPattern {
    let m = 100_000u64;
    // Clamping into `1 <= x <= m` makes the constructor infallible for
    // any `cache`; the fallback is unreachable but keeps this total.
    let x = (cache as u64).saturating_add(1).clamp(1, m);
    AccessPattern::uniform_subset(x, m).unwrap_or(AccessPattern::UniformSubset { x: 1, m })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_valid() {
        let cfg = bench_baseline(200, adversarial_pattern(200));
        cfg.validate().unwrap();
    }
}

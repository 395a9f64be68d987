//! Cache-policy showdown: how close do real replacement policies come to
//! the paper's perfect-popularity oracle, under organic (Zipf) and
//! adversarial traffic?
//!
//! ```sh
//! cargo run --release --example cache_policy_showdown
//! ```

#![allow(clippy::restriction, clippy::disallowed_methods)]

use secure_cache_provision::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, m, cache, queries) = (100usize, 50_000u64, 250usize, 400_000u64);
    let patterns = [
        ("zipf(1.01)", AccessPattern::zipf(1.01, m)?),
        ("zipf(0.8)", AccessPattern::zipf(0.8, m)?),
        (
            "adversarial",
            AccessPattern::uniform_subset(cache as u64 + 1, m)?,
        ),
    ];

    println!("n={n}, m={m}, c={cache}, {queries} queries per cell\n");
    println!(
        "{:>10} | {:>22} | {:>22} | {:>22}",
        "policy", "zipf(1.01) hit/gain", "zipf(0.8) hit/gain", "adversarial hit/gain"
    );
    println!("{}", "-".repeat(88));
    for kind in [
        CacheKind::Perfect,
        CacheKind::Lfu,
        CacheKind::Arc,
        CacheKind::TinyLfu,
        CacheKind::Slru,
        CacheKind::Lru,
        CacheKind::Clock,
        CacheKind::Fifo,
    ] {
        let mut cells = Vec::new();
        for (_, pattern) in &patterns {
            let cfg = SimConfig::builder()
                .nodes(n)
                .cache_kind(kind)
                .cache_capacity(cache)
                .items(m)
                .pattern(pattern.clone())
                .seed(7)
                .build()?;
            let r = run_query_simulation(&cfg, queries)?;
            let hit = r.cache_stats.map(|s| s.hit_rate()).unwrap_or_default();
            cells.push(format!(
                "{:>9.1}% / {:>6.3}x",
                hit * 100.0,
                r.gain().value()
            ));
        }
        println!(
            "{:>10} | {:>22} | {:>22} | {:>22}",
            kind.name(),
            cells[0],
            cells[1],
            cells[2]
        );
    }

    println!(
        "\nReading: under Zipf, frequency-aware policies (LFU/TinyLFU) track the\n\
         oracle; under the adversarial equal-rate pattern no policy can beat the\n\
         c/x hit ceiling — only *sizing* the cache (c >= c*) defends the cluster."
    );
    Ok(())
}

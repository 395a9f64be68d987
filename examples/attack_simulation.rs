//! Attack vs. defense: sweep the cache size, let the adversary play its
//! best response at every step, and find where the attack dies — then
//! confirm with latency from the discrete-event engine.
//!
//! ```sh
//! cargo run --release --example attack_simulation
//! ```

#![allow(clippy::restriction, clippy::disallowed_methods)]

use secure_cache_provision::core::bounds::{critical_cache_size, KParam};
use secure_cache_provision::prelude::*;
use secure_cache_provision::sim::critical::best_response_gain;
use secure_cache_provision::sim::des::{run_des, DesConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, d, m) = (200usize, 3usize, 200_000u64);
    let base = SimConfig::builder()
        .nodes(n)
        .items(m)
        .pattern(AccessPattern::uniform(m)?) // replaced per step
        .seed(1337)
        .build()?;

    let c_star = critical_cache_size(n, d, &KParam::paper_fitted());
    println!("n={n}, d={d}, m={m}: paper bound says c* = {c_star}\n");
    println!("{:>8} {:>14} {:>10}", "cache", "best gain", "verdict");
    for cache in [0usize, 50, 100, 150, 200, 241, 300, 400, 800] {
        let gain = best_response_gain(&base, cache, 12, 0)?;
        println!(
            "{:>8} {:>14.3} {:>10}",
            cache,
            gain,
            if gain > 1.0 { "BREACHED" } else { "holds" }
        );
    }

    // Latency view: same attack against an M/M/1 farm with 25% head-room
    // over the even share.
    println!("\nLatency under the x = c+1 attack (service 625 qps/node):");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "cache", "p50 (ms)", "p99 (ms)", "saturated"
    );
    for cache in [50usize, 241, 800] {
        let mut sim = base.clone();
        sim.cache_capacity = cache;
        sim.pattern = AccessPattern::uniform_subset(cache as u64 + 1, m)?;
        let des = DesConfig {
            sim,
            duration: 5.0,
            service_rate: 625.0,
        };
        let r = run_des(&des)?;
        println!(
            "{:>8} {:>12.2} {:>12.2} {:>12}",
            cache,
            r.p50_latency * 1e3,
            r.p99_latency * 1e3,
            r.is_saturated()
        );
    }
    Ok(())
}

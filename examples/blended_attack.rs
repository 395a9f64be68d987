//! A stealthy attack ramping up inside organic traffic, watched by the
//! online detector.
//!
//! Interval by interval, an adversarial uniform-subset flood grows from
//! 0% to 80% of the traffic mix on top of a Zipf(1.01) base. The detector
//! consumes each interval's load report and raises the alarm once the
//! hotspot signature persists.
//!
//! ```sh
//! cargo run --release --example blended_attack
//! ```

#![allow(clippy::restriction, clippy::disallowed_methods)]

use secure_cache_provision::prelude::*;
use secure_cache_provision::sim::detector::{AttackDetector, DetectorConfig};
use secure_cache_provision::workload::mixture::MixturePattern;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, m, cache) = (200usize, 200_000u64, 60usize); // c below c* ~ 241
    let organic = AccessPattern::zipf(1.01, m)?;
    let flood = AccessPattern::uniform_subset(cache as u64 + 1, m)?;

    let mut detector = AttackDetector::new(DetectorConfig {
        gain_threshold: 1.5,
        ..DetectorConfig::default()
    });

    println!("interval  attack%   gain   hit%   strikes  status");
    println!("{}", "-".repeat(56));
    let mut alarm_interval = None;
    for interval in 0..12u64 {
        // Attack share ramps 0, 0, 10%, 20%, ... up to 80%.
        let attack_share = ((interval.saturating_sub(1)) as f64 / 10.0).min(0.8);
        let pattern = if attack_share == 0.0 {
            organic.clone()
        } else {
            MixturePattern::new(vec![
                (1.0 - attack_share, organic.clone()),
                (attack_share, flood.clone()),
            ])?
            .to_explicit()?
        };
        let cfg = SimConfig::builder()
            .nodes(n)
            .items(m)
            .cache_capacity(cache)
            .pattern(pattern)
            .seed(0x5EA1 ^ interval)
            .build()?;
        let report = run_rate_simulation(&cfg)?;
        let state = detector.observe(&report);
        if state.alarmed && alarm_interval.is_none() {
            alarm_interval = Some(interval);
        }
        println!(
            "{:>8}  {:>6.0}%  {:>5.2}  {:>5.1}  {:>7}  {}",
            interval,
            attack_share * 100.0,
            report.gain().value(),
            report.cache_fraction() * 100.0,
            state.strikes,
            if state.alarmed { "ALARM" } else { "ok" }
        );
    }

    match alarm_interval {
        Some(i) => println!("\nattack detected at interval {i} (ramp began at interval 2)"),
        None => println!("\nattack was never detected — raise the cache or lower thresholds"),
    }
    Ok(())
}

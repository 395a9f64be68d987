//! Quickstart: size a front-end cache, attack the cluster, watch the
//! provisioned cache shrug the attack off.
//!
//! Everything here comes in through the facade prelude; the simulation
//! configs start from the builder's paper baseline and override only
//! what this example changes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![allow(clippy::restriction, clippy::disallowed_methods)]

use secure_cache_provision::core::adversary::{AdversaryStrategy, ReplicatedClusterAdversary};
use secure_cache_provision::prelude::*;
use secure_cache_provision::workload::AccessPattern as Pattern;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mid-sized cluster: 500 back-end nodes, 3-way replication,
    // 1M items, clients at 100k qps — and a 100-entry front-end cache.
    let params = SystemParams::new(500, 3, 100, 1_000_000, 1e5)?;
    let provisioner = Provisioner::default();

    let report = provisioner.report(&params);
    println!(
        "cluster: n={} d={} m={}",
        report.nodes, report.replication, report.items
    );
    println!(
        "cache:   c={} (critical size c* = {})",
        report.cache_size, report.critical_cache_size
    );
    println!("verdict: protected = {}", report.is_protected);
    println!(
        "worst case: adversary queries {} keys for a predicted gain of {:.2}x\n",
        report.worst_case_x, report.worst_case_gain
    );

    // Let the paper's optimal adversary actually attack a simulated cluster.
    let adversary = ReplicatedClusterAdversary::new();
    let plan = adversary.plan(&params)?;
    let simulate = |cache: usize, pattern: Pattern| -> Result<f64, Box<dyn std::error::Error>> {
        let cfg = SimConfig::builder()
            .nodes(params.nodes())
            .replication(params.replication())
            .cache_capacity(cache)
            .items(params.items())
            .rate(params.rate())
            .pattern(pattern)
            .seed(2013)
            .build()?;
        Ok(run_rate_simulation(&cfg)?.gain().value())
    };

    let gain = simulate(params.cache_size(), plan.pattern.clone())?;
    println!(
        "under-provisioned cache: simulated gain {gain:.2}x (attack {})",
        if gain > 1.0 {
            "EFFECTIVE"
        } else {
            "ineffective"
        }
    );

    // Provision the recommended cache and re-run the same playbook.
    let safe = params.with_cache_size(report.critical_cache_size)?;
    let replanned = adversary.plan(&safe)?;
    let gain = simulate(safe.cache_size(), replanned.pattern.clone())?;
    println!(
        "provisioned cache (c = {}): adversary's best is {} keys, simulated gain {gain:.3}x (attack {})",
        safe.cache_size(),
        replanned.x,
        if gain > 1.0 { "EFFECTIVE" } else { "ineffective" }
    );

    Ok(())
}

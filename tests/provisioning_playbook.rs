//! The operator's playbook end-to-end: SLO-driven cache sizing and
//! replication planning, validated against the simulated cluster.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use secure_cache_provision::core::bounds::KParam;
use secure_cache_provision::prelude::*;
use secure_cache_provision::sim::runner::repeat_rate_simulation;

const NODES: usize = 100;
const ITEMS: u64 = 100_000;
const RATE: f64 = 1e5;

fn simulated_gain(cache: usize, x: u64, seed: u64) -> f64 {
    let cfg = SimConfig::builder()
        .nodes(NODES)
        .cache_capacity(cache)
        .items(ITEMS)
        .rate(RATE)
        .attack_x(x)
        .seed(seed)
        .build()
        .unwrap();
    let (_, agg) = repeat_rate_simulation(&cfg, 10, 0).unwrap();
    agg.max_gain()
}

#[test]
fn slo_sized_cache_meets_its_target_in_simulation() {
    // Operator accepts hotspots up to 3x the fair share; the provisioner
    // hands back a much smaller cache than c*, and the simulated optimal
    // attack indeed stays under 3x.
    let prov = Provisioner::with_k(KParam::theory());
    let c_star = prov.min_cache_size(NODES, 3);
    let c_slo = prov.cache_for_target_gain(NODES, 3, 3.0).unwrap();
    assert!(
        c_slo < c_star,
        "SLO cache {c_slo} should undercut c* {c_star}"
    );

    // Below c*, the adversary's best play is x = c + 1.
    let gain = simulated_gain(c_slo, c_slo as u64 + 1, 1);
    assert!(
        gain <= 3.0 + 1e-9,
        "SLO breached: gain {gain} with c = {c_slo}"
    );
    // The budget is not wildly conservative: half the cache misses it.
    let gain = simulated_gain(c_slo / 2, (c_slo / 2) as u64 + 1, 2);
    assert!(gain > 3.0, "half the SLO cache should breach, got {gain}");
}

#[test]
fn replication_planning_matches_simulation() {
    // Operator has a fixed cache budget; the provisioner names the
    // replication factor that makes it sufficient.
    let prov = Provisioner::with_k(KParam::theory());
    let budget = prov.min_cache_size(NODES, 4) + 10; // enough for d = 4
    let d = prov.min_replication(NODES, budget).expect("a d must exist");
    assert!(d <= 4);

    // Simulate at the recommended d: both candidate plays fail.
    let cfg = SimConfig::builder()
        .nodes(NODES)
        .replication(d)
        .cache_capacity(budget)
        .items(ITEMS)
        .rate(RATE)
        .attack_x(budget as u64 + 1)
        .seed(3)
        .build()
        .unwrap();
    let (_, small_x) = repeat_rate_simulation(&cfg, 10, 0).unwrap();
    let mut whole = cfg.clone();
    whole.pattern = AccessPattern::uniform_subset(ITEMS, ITEMS).unwrap();
    let (_, all_keys) = repeat_rate_simulation(&whole, 10, 0).unwrap();
    assert!(
        small_x.max_gain() <= 1.0 + 1e-9,
        "x=c+1 breached at recommended d={d}: {}",
        small_x.max_gain()
    );
    assert!(
        all_keys.max_gain() <= 1.02,
        "x=m breached at recommended d={d}: {}",
        all_keys.max_gain()
    );
}

#[test]
fn capacity_headroom_verdict_matches_des_saturation() {
    use secure_cache_provision::sim::des::{run_des, DesConfig};
    // The provisioner says what per-node rate survives the worst case;
    // give the M/M/1 farm less and it saturates, give it that much (plus
    // stochastic head-room) and it doesn't.
    let prov = Provisioner::default();
    let params = SystemParams::new(20, 3, 5, 1_000, 1e3).unwrap();
    let needed = prov.report(&params).required_node_capacity;

    let mk = |service_rate: f64| DesConfig {
        sim: SimConfig::builder()
            .nodes(20)
            .cache_capacity(5)
            .items(1_000)
            .rate(1e3)
            .seed(4)
            .build()
            .unwrap(),
        duration: 30.0,
        service_rate,
    };
    let starved = run_des(&mk(needed * 0.5)).unwrap();
    assert!(
        starved.is_saturated(),
        "half the needed capacity must choke"
    );
    let provisioned = run_des(&mk(needed * 1.5)).unwrap();
    assert!(
        !provisioned.is_saturated(),
        "1.5x the bound should ride out the attack: {provisioned:?}"
    );
}

//! Failure injection across the engines: replication keeps keys served,
//! sticky selectors re-pin, crash losses are accounted, and the detector
//! distinguishes attack hotspots from failure-induced imbalance.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use secure_cache_provision::cluster::{Cluster, NodeId};
use secure_cache_provision::prelude::*;
use secure_cache_provision::sim::des::{run_des_with_events, DesConfig, FailAction, NodeEvent};
use secure_cache_provision::sim::detector::{AttackDetector, DetectorConfig};
use secure_cache_provision::sim::rate_engine::run_rate_simulation_on;

fn config(n: usize, c: usize, x: u64, seed: u64) -> SimConfig {
    SimConfig::builder()
        .nodes(n)
        .cache_capacity(c)
        .items(50_000)
        .attack_x(x)
        .seed(seed)
        .build()
        .expect("test config is valid")
}

#[test]
fn replication_masks_failures_up_to_d_minus_one_per_group() {
    // With d = 3, any two failures cannot unserve a key (some replica of
    // every group survives when the two dead nodes are fixed).
    let cfg = config(60, 0, 5_000, 1);
    let mut cluster = Cluster::new(cfg.build_partitioner().unwrap(), cfg.build_selector());
    cluster.fail_node(NodeId::new(7)).unwrap();
    cluster.fail_node(NodeId::new(21)).unwrap();
    let report = run_rate_simulation_on(&cfg, &mut cluster, 0).unwrap();
    assert_eq!(report.unserved, 0.0, "two failures must never unserve");
    assert_eq!(report.snapshot.loads()[7], 0.0);
    assert_eq!(report.snapshot.loads()[21], 0.0);
    assert!(report.is_conserved(1e-9));
}

#[test]
fn mass_failure_eventually_unserves_whole_groups() {
    let cfg = config(30, 0, 5_000, 2);
    let mut cluster = Cluster::new(cfg.build_partitioner().unwrap(), cfg.build_selector());
    for i in 0..27u32 {
        cluster.fail_node(NodeId::new(i)).unwrap();
    }
    let report = run_rate_simulation_on(&cfg, &mut cluster, 0).unwrap();
    assert!(
        report.unserved > 0.0,
        "with 3 survivors most replica groups are fully dead"
    );
    assert!(report.is_conserved(1e-9));
}

#[test]
fn survivors_absorb_failed_nodes_load() {
    let cfg = config(50, 0, 10_000, 3);
    let healthy = run_rate_simulation(&cfg).unwrap();
    let mut cluster = Cluster::new(cfg.build_partitioner().unwrap(), cfg.build_selector());
    for i in 0..10u32 {
        cluster.fail_node(NodeId::new(i)).unwrap();
    }
    let degraded = run_rate_simulation_on(&cfg, &mut cluster, 0).unwrap();
    assert!(
        degraded.gain().value() > healthy.gain().value(),
        "failures must raise the survivors' max load: {} vs {}",
        degraded.gain().value(),
        healthy.gain().value()
    );
}

#[test]
fn des_timeline_crash_spike_then_recovery() {
    // Crash a third of the nodes at t=5 and bring them back at t=15.
    let cfg = DesConfig {
        sim: config(20, 0, 2_000, 4),
        duration: 25.0,
        service_rate: 2.0 * 1e5 / 20.0,
    };
    let mut events = Vec::new();
    for i in 0..6u32 {
        events.push(NodeEvent {
            at: 5.0,
            node: NodeId::new(i),
            action: FailAction::Fail,
        });
        events.push(NodeEvent {
            at: 15.0,
            node: NodeId::new(i),
            action: FailAction::Recover,
        });
    }
    let r = run_des_with_events(&cfg, &events).unwrap();
    assert!(r.load.is_conserved(1e-9));
    assert!(r.unfinished > 0, "the crash should strand queued work");
    // Recovered nodes served again: all 20 nodes carry load.
    assert!(r.load.snapshot.loads().iter().all(|&l| l > 0.0));
}

#[test]
fn detector_sees_failure_imbalance_differently_from_attack() {
    // A uniform workload with failures produces moderate gains (survivors
    // share evenly); the optimal attack produces an extreme hotspot. The
    // detector, tuned to hotspot signatures, fires on the attack but
    // tolerates the failure-degraded-but-balanced cluster.
    let mut det = AttackDetector::new(DetectorConfig::default());

    let failure_cfg = config(50, 0, 50_000, 5);
    let mut degraded = Cluster::new(
        failure_cfg.build_partitioner().unwrap(),
        failure_cfg.build_selector(),
    );
    for i in 0..5u32 {
        degraded.fail_node(NodeId::new(i)).unwrap();
    }
    for _ in 0..5 {
        let r = run_rate_simulation_on(&failure_cfg, &mut degraded, 0).unwrap();
        let s = det.observe(&r);
        assert!(!s.alarmed, "failure imbalance misread as attack: {s:?}");
    }

    det.reset();
    let attack_cfg = config(50, 25, 26, 6);
    for i in 0..5u64 {
        let mut cfg = attack_cfg.clone();
        cfg.seed ^= i;
        let r = run_rate_simulation(&cfg).unwrap();
        if det.observe(&r).alarmed {
            return; // detected
        }
    }
    panic!("optimal attack went undetected: {:?}", det.state());
}

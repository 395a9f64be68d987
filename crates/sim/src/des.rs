//! Discrete-event simulation: latency and saturation under attack.
//!
//! The paper closes Section III with a capacity argument: if every node's
//! sustainable rate `r_i` exceeds the max-load bound, the adversary cannot
//! saturate any node. This engine makes that concrete: Poisson client
//! arrivals at rate `R`, a front-end cache, and one exponential-service
//! queue per back-end node (an M/M/1 farm). Overloaded nodes show up as
//! diverging queues and latencies instead of a dry inequality.

use crate::config::SimConfig;
use crate::error::SimError;
use crate::front_end::{FrontEnd, Served};
use crate::metrics::LoadReport;
use crate::multi_frontend::FrontendRouting;
use crate::stats::{quantile, RunningStats};
use crate::Result;
use scp_cluster::NodeId;
use scp_workload::rng::{mix, next_exponential, Xoshiro256StarStar};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Configuration of a discrete-event run.
#[derive(Debug, Clone, PartialEq)]
pub struct DesConfig {
    /// The system + workload being simulated.
    pub sim: SimConfig,
    /// Simulated wall-clock duration in seconds (arrivals stop after
    /// this; in-flight work is drained).
    pub duration: f64,
    /// Per-node service rate `r_i` in queries/second (uniform).
    pub service_rate: f64,
}

impl DesConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid embedded sim config, non-positive
    /// duration or service rate.
    pub fn validate(&self) -> Result<()> {
        self.sim.validate()?;
        if !self.duration.is_finite() || self.duration <= 0.0 {
            return Err(SimError::InvalidConfig {
                field: "duration",
                reason: format!("must be finite and positive, got {}", self.duration),
            });
        }
        if !self.service_rate.is_finite() || self.service_rate <= 0.0 {
            return Err(SimError::InvalidConfig {
                field: "service_rate",
                reason: format!("must be finite and positive, got {}", self.service_rate),
            });
        }
        Ok(())
    }
}

/// What happens to a node at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// The node crashes: its queued work is lost and routing skips it.
    Fail,
    /// The node comes back empty and starts serving again.
    Recover,
}

/// A scheduled node failure or recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEvent {
    /// Simulated time in seconds.
    pub at: f64,
    /// The affected node.
    pub node: NodeId,
    /// Crash or recovery.
    pub action: FailAction,
}

/// Latency/saturation outcome of a discrete-event run.
#[derive(Debug, Clone, PartialEq)]
pub struct DesReport {
    /// Queries completed by back-end nodes.
    pub completed: u64,
    /// Queries served by the front-end cache (zero sojourn time).
    pub cache_hits: u64,
    /// Queries lost in node crashes (queued work of failed nodes).
    pub unfinished: u64,
    /// Mean back-end sojourn time (queueing + service) in seconds.
    pub mean_latency: f64,
    /// Median sojourn time.
    pub p50_latency: f64,
    /// 95th-percentile sojourn time.
    pub p95_latency: f64,
    /// 99th-percentile sojourn time.
    pub p99_latency: f64,
    /// Largest sojourn time observed.
    pub max_latency: f64,
    /// Largest queue depth observed on any node.
    pub max_queue_depth: usize,
    /// Highest per-node utilization (busy time / duration).
    pub max_utilization: f64,
    /// Back-end loads (completed queries per node) as a report.
    pub load: LoadReport,
}

impl DesReport {
    /// Whether some node was effectively saturated (utilization ~1 and a
    /// deep queue).
    pub fn is_saturated(&self) -> bool {
        self.max_utilization > 0.95 && self.max_queue_depth > 32
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    Arrival,
    /// Departure at a node, tagged with the node's crash epoch so
    /// departures scheduled before a crash are dropped as stale.
    Departure {
        node: u32,
        epoch: u32,
    },
    Admin(u32),
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: f64,
    kind: EventKind,
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.total_cmp(&other.time).then_with(|| {
            // Admin first, then departures, then arrivals at ties.
            fn order(kind: EventKind) -> (u8, u32) {
                match kind {
                    EventKind::Admin(i) => (0, i),
                    EventKind::Departure { node, .. } => (1, node),
                    EventKind::Arrival => (2, 0),
                }
            }
            order(self.kind).cmp(&order(other.kind))
        })
    }
}

/// One back-end node's M/M/1 queue.
#[derive(Debug, Default)]
struct Server {
    /// Admission times of the queued queries, head in service.
    queue: VecDeque<f64>,
    /// Total service time drawn.
    busy: f64,
    /// Crash count: departures tagged with an older epoch are stale.
    epoch: u32,
}

/// Runs one discrete-event simulation.
///
/// # Errors
///
/// Returns an error on invalid configuration.
pub fn run_des(cfg: &DesConfig) -> Result<DesReport> {
    run_des_with_events(cfg, &[])
}

/// Runs a discrete-event simulation with scheduled node crashes and
/// recoveries.
///
/// A crash drops the node's queued work (reported as `unfinished`) and
/// removes it from routing until a matching [`FailAction::Recover`].
///
/// # Errors
///
/// Returns an error on invalid configuration or an event referencing a
/// node outside the cluster.
pub fn run_des_with_events(cfg: &DesConfig, node_events: &[NodeEvent]) -> Result<DesReport> {
    cfg.validate()?;
    for e in node_events {
        if e.node.index() >= cfg.sim.nodes {
            return Err(SimError::InvalidConfig {
                field: "node_events",
                reason: format!("{} outside the {}-node cluster", e.node, cfg.sim.nodes),
            });
        }
        if !e.at.is_finite() || e.at < 0.0 {
            return Err(SimError::InvalidConfig {
                field: "node_events",
                reason: format!("event time {} must be finite and non-negative", e.at),
            });
        }
    }
    let sim = &cfg.sim;
    let mapping = sim.key_mapping()?;
    let mut front = FrontEnd::new(sim, &mapping, 1, FrontendRouting::ByClient)?;
    let mut stream = sim.query_stream(mapping)?;
    let mut arrival_rng = Xoshiro256StarStar::seed_from_u64(mix(&[sim.seed, 5]));
    let mut service_rng = Xoshiro256StarStar::seed_from_u64(mix(&[sim.seed, 6]));

    let mut servers: Vec<Server> = (0..sim.nodes).map(|_| Server::default()).collect();
    let mut events: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    for (i, e) in node_events.iter().enumerate() {
        events.push(Reverse(Event {
            time: e.at,
            kind: EventKind::Admin(u32::try_from(i).unwrap_or(u32::MAX)),
        }));
    }
    let mut lost = 0u64;

    // Seed the first arrival.
    let first = next_exponential(&mut arrival_rng, sim.rate);
    if first <= cfg.duration {
        events.push(Reverse(Event {
            time: first,
            kind: EventKind::Arrival,
        }));
    }

    let mut latencies: Vec<f64> = Vec::new();
    let mut cache_hits = 0u64;
    let mut max_queue_depth = 0usize;

    while let Some(Reverse(event)) = events.pop() {
        match event.kind {
            EventKind::Arrival => {
                let key = stream.next_key();
                // Schedule the next arrival (if within the horizon).
                let next = event.time + next_exponential(&mut arrival_rng, sim.rate);
                if next <= cfg.duration {
                    events.push(Reverse(Event {
                        time: next,
                        kind: EventKind::Arrival,
                    }));
                }
                let node = match front.step(key, 1.0) {
                    Served::Hit => {
                        cache_hits += 1;
                        continue;
                    }
                    // Whole group down: accounted as unserved.
                    Served::Unserved => continue,
                    Served::Routed(node) => node,
                };
                let Some(server) = servers.get_mut(node.index()) else {
                    continue;
                };
                server.queue.push_back(event.time);
                max_queue_depth = max_queue_depth.max(server.queue.len());
                if server.queue.len() == 1 {
                    let service = next_exponential(&mut service_rng, cfg.service_rate);
                    server.busy += service;
                    events.push(Reverse(Event {
                        time: event.time + service,
                        kind: EventKind::Departure {
                            node: node.value(),
                            epoch: server.epoch,
                        },
                    }));
                }
            }
            EventKind::Admin(idx) => {
                let Some(e) = node_events.get(idx as usize) else {
                    continue;
                };
                match e.action {
                    FailAction::Fail => {
                        let _ = front.cluster_mut().fail_node(e.node);
                        // Queued work dies with the node; bumping the
                        // epoch invalidates any in-flight departure.
                        if let Some(server) = servers.get_mut(e.node.index()) {
                            lost += server.queue.len() as u64;
                            server.queue.clear();
                            server.epoch += 1;
                        }
                    }
                    FailAction::Recover => {
                        let _ = front.cluster_mut().recover_node(e.node);
                    }
                }
            }
            EventKind::Departure { node, epoch } => {
                let Some(server) = servers.get_mut(node as usize) else {
                    continue;
                };
                if epoch != server.epoch {
                    continue; // scheduled before a crash: stale
                }
                let Some(admitted) = server.queue.pop_front() else {
                    continue; // unreachable: a departure is scheduled per queued query
                };
                latencies.push(event.time - admitted);
                if !server.queue.is_empty() {
                    let service = next_exponential(&mut service_rng, cfg.service_rate);
                    server.busy += service;
                    events.push(Reverse(Event {
                        time: event.time + service,
                        kind: EventKind::Departure { node, epoch },
                    }));
                }
            }
        }
    }

    let mut lat_stats = RunningStats::new();
    lat_stats.extend(latencies.iter().copied());
    let (p50, p95, p99) = if latencies.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        (
            quantile(&latencies, 0.5),
            quantile(&latencies, 0.95),
            quantile(&latencies, 0.99),
        )
    };
    let max_utilization = servers
        .iter()
        .map(|server| server.busy / cfg.duration)
        .fold(0.0, f64::max);

    let completed = latencies.len() as u64;
    // Node loads count queries at routing time, so they already include
    // work later lost in crashes: completed + lost = snapshot total. The
    // `unserved` channel carries only routing failures (whole group down);
    // crash losses are reported separately as `unfinished`.
    let mut load = front.report(cache_hits as f64, 0.0);
    load.offered = cache_hits as f64 + load.snapshot.total() + load.unserved;

    Ok(DesReport {
        completed,
        cache_hits,
        unfinished: lost,
        mean_latency: lat_stats.mean(),
        p50_latency: p50,
        p95_latency: p95,
        p99_latency: p99,
        max_latency: lat_stats.max(),
        max_queue_depth,
        max_utilization,
        load,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdmissionKind, CacheKind, PartitionerKind, SelectorKind};
    use scp_workload::AccessPattern;

    fn des_config(rate: f64, service_rate: f64, pattern: AccessPattern, c: usize) -> DesConfig {
        DesConfig {
            sim: SimConfig {
                nodes: 20,
                replication: 3,
                cache_kind: CacheKind::Perfect,
                admission: AdmissionKind::Oracle,
                cache_capacity: c,
                items: 1000,
                rate,
                pattern,
                partitioner: PartitionerKind::Hash,
                selector: SelectorKind::LeastLoaded,
                seed: 5,
            },
            duration: 20.0,
            service_rate,
        }
    }

    #[test]
    fn validates_inputs() {
        let mut cfg = des_config(100.0, 50.0, AccessPattern::uniform(1000).unwrap(), 0);
        cfg.duration = 0.0;
        assert!(run_des(&cfg).is_err());
        let mut cfg = des_config(100.0, 50.0, AccessPattern::uniform(1000).unwrap(), 0);
        cfg.service_rate = -1.0;
        assert!(run_des(&cfg).is_err());
    }

    #[test]
    fn underloaded_farm_has_low_latency_and_no_saturation() {
        // Offered 100 qps over 20 nodes = 5 qps/node; service 100 qps/node.
        let cfg = des_config(100.0, 100.0, AccessPattern::uniform(1000).unwrap(), 0);
        let r = run_des(&cfg).unwrap();
        assert!(r.completed > 1000, "should complete ~2000 queries");
        assert!(!r.is_saturated());
        assert!(r.max_utilization < 0.5, "rho ~= 0.05 expected");
        // M/M/1 at rho ~.05: sojourn ~ 1/(mu - lambda) ~ 10.5ms.
        assert!(r.mean_latency < 0.05, "latency {} too high", r.mean_latency);
        assert!(r.p99_latency >= r.p50_latency);
    }

    #[test]
    fn adversarial_hotspot_saturates_a_node() {
        // x = c+1 = 11 keys over 1000-key space; the single uncached key
        // carries ~R/11 = 91 qps into one node with service 40 qps.
        let pattern = AccessPattern::uniform_subset(11, 1000).unwrap();
        let cfg = des_config(1000.0, 40.0, pattern, 10);
        let r = run_des(&cfg).unwrap();
        assert!(r.is_saturated(), "hot node must saturate: {r:?}");
        assert!(r.max_utilization > 0.95);
        assert!(r.max_queue_depth > 100);
    }

    #[test]
    fn provisioned_cache_prevents_saturation_under_same_attack() {
        // Same attack but everything the adversary queries is cached.
        let pattern = AccessPattern::uniform_subset(11, 1000).unwrap();
        let cfg = des_config(1000.0, 40.0, pattern, 11);
        let r = run_des(&cfg).unwrap();
        assert_eq!(r.completed, 0, "all queries hit the cache");
        assert!(!r.is_saturated());
        assert!(r.cache_hits > 10_000);
    }

    #[test]
    fn conservation_of_queries() {
        let cfg = des_config(200.0, 100.0, AccessPattern::uniform(1000).unwrap(), 50);
        let r = run_des(&cfg).unwrap();
        assert!(r.load.is_conserved(1e-9));
        assert_eq!(
            r.load.offered as u64,
            r.cache_hits + r.completed + r.load.unserved as u64
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let cfg = des_config(150.0, 80.0, AccessPattern::zipf(1.01, 1000).unwrap(), 20);
        let a = run_des(&cfg).unwrap();
        let b = run_des(&cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn scheduled_crash_loses_queued_work_and_shifts_load() {
        // Uniform load; crash half the nodes mid-run.
        let cfg = des_config(800.0, 100.0, AccessPattern::uniform(1000).unwrap(), 0);
        let events: Vec<NodeEvent> = (0..10u32)
            .map(|i| NodeEvent {
                at: 10.0,
                node: NodeId::new(i),
                action: FailAction::Fail,
            })
            .collect();
        let with_failures = run_des_with_events(&cfg, &events).unwrap();
        let baseline = run_des(&cfg).unwrap();
        // Dead nodes stop completing; survivors pick up the slack.
        assert!(with_failures.load.is_conserved(1e-9));
        assert!(with_failures.unfinished > 0, "queued work should be lost");
        assert!(
            (with_failures.completed + with_failures.unfinished) as f64
                - with_failures.load.snapshot.total()
                < 1e-9,
            "completed + lost must equal routed work"
        );
        assert!(
            with_failures.max_utilization > baseline.max_utilization,
            "survivors should run hotter: {} vs {}",
            with_failures.max_utilization,
            baseline.max_utilization
        );
        assert!(
            with_failures.p95_latency >= baseline.p95_latency,
            "half the farm gone must not improve latency"
        );
    }

    #[test]
    fn crash_and_recovery_round_trip() {
        let cfg = des_config(400.0, 100.0, AccessPattern::uniform(1000).unwrap(), 0);
        let events = vec![
            NodeEvent {
                at: 5.0,
                node: NodeId::new(3),
                action: FailAction::Fail,
            },
            NodeEvent {
                at: 10.0,
                node: NodeId::new(3),
                action: FailAction::Recover,
            },
        ];
        let r = run_des_with_events(&cfg, &events).unwrap();
        assert!(r.load.is_conserved(1e-9));
        // Node 3 served before the crash and after recovery.
        assert!(r.load.snapshot.loads()[3] > 0.0);
        let baseline = run_des(&cfg).unwrap();
        assert!(
            r.load.snapshot.loads()[3] < baseline.load.snapshot.loads()[3],
            "a 5s outage must cost node 3 some completions"
        );
    }

    #[test]
    fn node_event_validation() {
        let cfg = des_config(100.0, 100.0, AccessPattern::uniform(1000).unwrap(), 0);
        let bad_node = [NodeEvent {
            at: 1.0,
            node: NodeId::new(99),
            action: FailAction::Fail,
        }];
        assert!(run_des_with_events(&cfg, &bad_node).is_err());
        let bad_time = [NodeEvent {
            at: -1.0,
            node: NodeId::new(0),
            action: FailAction::Fail,
        }];
        assert!(run_des_with_events(&cfg, &bad_time).is_err());
    }

    #[test]
    fn failure_run_is_deterministic() {
        let cfg = des_config(300.0, 80.0, AccessPattern::zipf(1.01, 1000).unwrap(), 10);
        let events = vec![NodeEvent {
            at: 7.0,
            node: NodeId::new(1),
            action: FailAction::Fail,
        }];
        let a = run_des_with_events(&cfg, &events).unwrap();
        let b = run_des_with_events(&cfg, &events).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn latency_grows_with_utilization() {
        let lo = run_des(&des_config(
            100.0,
            100.0,
            AccessPattern::uniform(1000).unwrap(),
            0,
        ))
        .unwrap();
        let hi = run_des(&des_config(
            1200.0,
            100.0,
            AccessPattern::uniform(1000).unwrap(),
            0,
        ))
        .unwrap();
        assert!(
            hi.mean_latency > lo.mean_latency,
            "rho 0.6 ({}) should beat rho 0.05 ({})",
            hi.mean_latency,
            lo.mean_latency
        );
    }
}

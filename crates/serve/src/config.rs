//! Serving-engine configuration and errors.

use crate::pow::PowShield;
use scp_cluster::{NodeId, Topology};
use scp_sim::{SimConfig, SimError};

/// Errors surfaced by the serving engine.
#[derive(Debug)]
pub enum ServeError {
    /// A serving parameter was outside its legal range.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// The underlying simulation substrate rejected the configuration.
    Sim(SimError),
    /// An engine thread died; the payload is the rendered panic message.
    WorkerPanic(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidConfig { field, reason } => {
                write!(f, "invalid serve config `{field}`: {reason}")
            }
            ServeError::Sim(e) => write!(f, "simulation substrate: {e}"),
            ServeError::WorkerPanic(msg) => write!(f, "engine worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SimError> for ServeError {
    fn from(value: SimError) -> Self {
        ServeError::Sim(value)
    }
}

impl From<scp_workload::WorkloadError> for ServeError {
    fn from(value: scp_workload::WorkloadError) -> Self {
        ServeError::Sim(SimError::from(value))
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;

/// One topology mutation the serving engine can apply mid-run.
///
/// `Join` and `Leave` change placement (keys move); `Crash` and
/// `Recover` only flip liveness (placement is untouched, routing skips
/// the dead node — the same semantics as the simulators' fail/recover).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipChange {
    /// A new node with this id joins the serving set.
    Join(u32),
    /// The node with this id leaves; its keys move to the survivors.
    Leave(u32),
    /// The node stops serving but keeps its placement.
    Crash(u32),
    /// A crashed node resumes serving.
    Recover(u32),
}

impl MembershipChange {
    /// Applies the change to a topology, bumping its epoch on success.
    pub fn apply(self, topology: &mut Topology) -> scp_cluster::Result<()> {
        match self {
            MembershipChange::Join(id) => topology.join(NodeId::new(id)),
            MembershipChange::Leave(id) => topology.leave(NodeId::new(id)),
            MembershipChange::Crash(id) => topology.crash(NodeId::new(id)),
            MembershipChange::Recover(id) => topology.recover(NodeId::new(id)),
        }
    }
}

impl std::fmt::Display for MembershipChange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MembershipChange::Join(id) => write!(f, "join:{id}"),
            MembershipChange::Leave(id) => write!(f, "leave:{id}"),
            MembershipChange::Crash(id) => write!(f, "crash:{id}"),
            MembershipChange::Recover(id) => write!(f, "recover:{id}"),
        }
    }
}

/// A scheduled membership change: fire `change` when the `at_query`-th
/// query is about to enter admission (logical-clock ticks, so the event
/// lands at the identical point of the arrival sequence in both engine
/// modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipEvent {
    /// Submitted-query count at which the change applies.
    pub at_query: u64,
    /// The topology mutation.
    pub change: MembershipChange,
}

impl std::fmt::Display for MembershipEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.at_query, self.change)
    }
}

impl std::str::FromStr for MembershipEvent {
    type Err = String;

    /// Parses `AT:ACTION:ID`, e.g. `50000:join:8` or `120000:leave:3`.
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        let mut parts = s.splitn(3, ':');
        let (at, action, id) = match (parts.next(), parts.next(), parts.next()) {
            (Some(a), Some(b), Some(c)) => (a, b, c),
            _ => return Err(format!("`{s}` is not AT:ACTION:ID (e.g. 50000:join:8)")),
        };
        let at_query: u64 = at
            .parse()
            .map_err(|_| format!("`{at}` is not a query count"))?;
        let id: u32 = id.parse().map_err(|_| format!("`{id}` is not a node id"))?;
        let change = match action {
            "join" => MembershipChange::Join(id),
            "leave" => MembershipChange::Leave(id),
            "crash" => MembershipChange::Crash(id),
            "recover" => MembershipChange::Recover(id),
            other => {
                return Err(format!(
                    "unknown action `{other}`; expected join|leave|crash|recover"
                ))
            }
        };
        Ok(MembershipEvent { at_query, change })
    }
}

/// Largest accepted `batch_size` and `submit_batch`, in requests. Both
/// become `Vec::with_capacity` before any traffic (one admission buffer
/// per shard slot, one submission buffer per client); every test, bench
/// and default uses at most 256, so the bound only keeps a mistyped
/// `--batch` / `--submit-batch` from becoming a terabyte allocation.
pub const MAX_BATCH: usize = 1 << 12;

/// Largest accepted `clients`: each client is an OS thread with its own
/// intake ring, stream and completion counter, allocated before any
/// traffic. Tests, benches and `scp-e2e` use at most 4.
pub const MAX_CLIENTS: usize = 1 << 8;

/// A complete description of one serving run.
///
/// The embedded [`SimConfig`] fixes the *system shape* — `sim.nodes` is
/// the shard count `S` (one backend worker per partition server), and the
/// cache/partitioner/selector/pattern/seed mean exactly what they mean in
/// the simulation engines, so a serving run and a [`rate
/// engine`](scp_sim::rate_engine) run of the same `SimConfig` describe
/// the same system. The remaining fields are live-path knobs: load
/// generation, batching, queueing, and capacity.
///
/// # Capacity model
///
/// When `capacity_headroom > 0` every shard gets the paper's Section III
/// provision `r_i = capacity_headroom · R / n` (queries/second of
/// *offered, logical* time — arrivals pace a logical clock at the
/// configured rate `R`, so shedding behavior is a deterministic function
/// of the arrival sequence, not of how fast the host machine drains it).
/// A shard driven past `r_i` sheds the excess instead of queueing it
/// without bound. `capacity_headroom <= 0` disables shedding.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// System shape; `sim.nodes` is the shard count `S`.
    pub sim: SimConfig,
    /// Closed-loop load-generator threads (threaded mode only).
    pub clients: usize,
    /// Max outstanding (unacknowledged) requests per client.
    pub client_window: usize,
    /// Keys a client submits per intake push.
    pub submit_batch: usize,
    /// Depth, in batches, of each client's lock-free intake ring (and of
    /// its buffer-recycling freelist). Small on purpose: the ring is a
    /// handoff lane, not a buffer — the closed-loop window is what bounds
    /// outstanding work.
    pub intake_depth: usize,
    /// Max requests the admission stage packs into one shard batch.
    pub batch_size: usize,
    /// Per-shard queue capacity, in batches.
    pub queue_capacity: usize,
    /// Capacity headroom factor for `r_i` (`<= 0` disables shedding).
    pub capacity_headroom: f64,
    /// Stop after this many submitted queries (`0` = no quota).
    pub total_queries: u64,
    /// Threaded-mode wall-clock budget in milliseconds (`0` = no budget;
    /// the quota must then be set).
    pub duration_ms: u64,
    /// Push retries before a full shard queue counts as backpressure
    /// shedding.
    pub push_retries: u32,
    /// Optional proof-of-work shield for the `c < c*` regime (see
    /// [`crate::pow`]); `None` disables it.
    pub pow: Option<PowShield>,
    /// The first `attack_clients` client indices model the attacker
    /// fleet: they never attach proof-of-work, so with the shield on
    /// their traffic is rejected at admission. `0` means every client is
    /// legitimate.
    pub attack_clients: usize,
    /// Length of the per-window gain-tracking window in logical seconds
    /// (`<= 0` disables per-window gain telemetry).
    pub gain_window_secs: f64,
    /// Scheduled topology changes, ordered by `at_query` (ties apply in
    /// list order). Empty means the membership is fixed for the run.
    pub membership: Vec<MembershipEvent>,
}

impl ServeConfig {
    /// A serving run of the given system shape with conservative
    /// live-path defaults: 4 clients with a 1024-request window,
    /// 64-request admission batches, 64-batch queues, no shedding, and a
    /// 200k-query quota.
    pub fn new(sim: SimConfig) -> Self {
        Self {
            sim,
            clients: 4,
            client_window: 1024,
            submit_batch: 64,
            intake_depth: 16,
            batch_size: 64,
            queue_capacity: 64,
            capacity_headroom: 0.0,
            total_queries: 200_000,
            duration_ms: 0,
            push_retries: 256,
            pow: None,
            attack_clients: 0,
            gain_window_secs: 1.0,
            membership: Vec::with_capacity(0),
        }
    }

    /// Copy with a derived seed for repetition `run` (delegates to
    /// [`SimConfig::for_run`], so serve journals replay exactly like
    /// simulation journals).
    pub fn for_run(&self, run: u64) -> Self {
        let mut cfg = self.clone();
        cfg.sim = self.sim.for_run(run);
        cfg
    }

    /// The per-shard capacity `r_i` in queries/second of logical time,
    /// or `None` when shedding is disabled.
    pub fn shard_capacity(&self) -> Option<f64> {
        if self.capacity_headroom > 0.0 && self.sim.nodes > 0 {
            Some(self.capacity_headroom * self.sim.rate / self.sim.nodes as f64)
        } else {
            None
        }
    }

    /// Replays the membership schedule from the initial dense topology,
    /// returning the final topology and the largest node-index bound any
    /// epoch reaches (the engine pre-sizes per-shard state to that
    /// bound, so a mid-run join never reallocates shard vectors).
    ///
    /// # Errors
    ///
    /// Returns an error if any event is inapplicable in sequence (e.g.
    /// leaving an unknown node) or would shrink the serving set below
    /// the replication factor.
    pub fn replay_topology(&self) -> Result<(Topology, usize)> {
        let mut topology =
            Topology::with_nodes(self.sim.nodes).map_err(|e| ServeError::InvalidConfig {
                field: "membership",
                reason: e.to_string(),
            })?;
        let mut max_bound = topology.index_bound();
        for (i, event) in self.membership.iter().enumerate() {
            event
                .change
                .apply(&mut topology)
                .map_err(|e| ServeError::InvalidConfig {
                    field: "membership",
                    reason: format!("event {i} ({event}): {e}"),
                })?;
            if topology.len() < self.sim.replication {
                return Err(ServeError::InvalidConfig {
                    field: "membership",
                    reason: format!(
                        "event {i} ({event}) leaves {} members, below replication {}",
                        topology.len(),
                        self.sim.replication
                    ),
                });
            }
            max_bound = max_bound.max(topology.index_bound());
        }
        Ok((topology, max_bound))
    }

    /// Validates the serving knobs and the embedded system shape.
    ///
    /// # Errors
    ///
    /// Returns an error on an invalid [`SimConfig`] or nonsensical
    /// live-path parameters (clients outside `1..=`[`MAX_CLIENTS`],
    /// batches outside `1..=`[`MAX_BATCH`], empty or oversized rings, or
    /// a run with neither a quota nor a duration).
    pub fn validate(&self) -> Result<()> {
        self.sim.validate().map_err(ServeError::from)?;
        if self.clients == 0 || self.clients > MAX_CLIENTS {
            return Err(ServeError::InvalidConfig {
                field: "clients",
                reason: format!(
                    "{} load-generator clients outside 1..={MAX_CLIENTS}",
                    self.clients
                ),
            });
        }
        if self.client_window == 0 {
            return Err(ServeError::InvalidConfig {
                field: "client_window",
                reason: "closed-loop window must be positive".to_owned(),
            });
        }
        // Batches and rings are allocated before any traffic: bound them
        // where the value enters, not where the allocation fails.
        for (field, requests) in [
            ("submit_batch", self.submit_batch),
            ("batch_size", self.batch_size),
        ] {
            if requests == 0 || requests > MAX_BATCH {
                return Err(ServeError::InvalidConfig {
                    field,
                    reason: format!("batch of {requests} requests outside 1..={MAX_BATCH}"),
                });
            }
        }
        for (field, slots) in [
            ("queue_capacity", self.queue_capacity),
            ("intake_depth", self.intake_depth),
        ] {
            if slots == 0 || slots > crate::spsc::MAX_CAPACITY {
                return Err(ServeError::InvalidConfig {
                    field,
                    reason: format!(
                        "ring of {slots} batches outside 1..={}",
                        crate::spsc::MAX_CAPACITY
                    ),
                });
            }
        }
        if self.total_queries == 0 && self.duration_ms == 0 {
            return Err(ServeError::InvalidConfig {
                field: "total_queries",
                reason: "set a query quota, a duration, or both".to_owned(),
            });
        }
        if !self.sim.rate.is_finite() || self.sim.rate <= 0.0 {
            return Err(ServeError::InvalidConfig {
                field: "rate",
                reason: format!(
                    "logical arrival rate must be positive, got {}",
                    self.sim.rate
                ),
            });
        }
        if self.membership.windows(2).any(|pair| match pair {
            [a, b] => a.at_query > b.at_query,
            _ => false,
        }) {
            return Err(ServeError::InvalidConfig {
                field: "membership",
                reason: "events must be ordered by at_query".to_owned(),
            });
        }
        self.replay_topology()?;
        if let Some(pow) = &self.pow {
            if pow.difficulty > 30 {
                return Err(ServeError::InvalidConfig {
                    field: "pow.difficulty",
                    reason: format!(
                        "difficulty {} would cost 2^{} hashes per honest query; cap is 30",
                        pow.difficulty, pow.difficulty
                    ),
                });
            }
            if !pow.window_secs.is_finite() || pow.window_secs <= 0.0 {
                return Err(ServeError::InvalidConfig {
                    field: "pow.window_secs",
                    reason: format!("nonce window must be positive, got {}", pow.window_secs),
                });
            }
            if pow.replay_capacity == 0 {
                return Err(ServeError::InvalidConfig {
                    field: "pow.replay_capacity",
                    reason: "the replay cache needs room for at least one digest".to_owned(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> SimConfig {
        SimConfig::builder()
            .nodes(8)
            .replication(3)
            .items(10_000)
            .cache_capacity(16)
            .seed(7)
            .build()
            .unwrap()
    }

    #[test]
    fn defaults_validate() {
        ServeConfig::new(shape()).validate().unwrap();
    }

    #[test]
    fn shard_capacity_follows_headroom() {
        let mut cfg = ServeConfig::new(shape());
        assert_eq!(cfg.shard_capacity(), None);
        cfg.capacity_headroom = 2.0;
        let r = cfg.shard_capacity().unwrap();
        assert!((r - 2.0 * cfg.sim.rate / 8.0).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_degenerate_knobs() {
        let mut cfg = ServeConfig::new(shape());
        cfg.clients = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ServeConfig::new(shape());
        cfg.batch_size = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ServeConfig::new(shape());
        cfg.queue_capacity = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ServeConfig::new(shape());
        cfg.intake_depth = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ServeConfig::new(shape());
        cfg.submit_batch = 0;
        assert!(cfg.validate().is_err());

        // The CLI values that used to abort in the allocator.
        let mut cfg = ServeConfig::new(shape());
        cfg.queue_capacity = 100_000_000_000;
        assert!(cfg.validate().is_err());
        cfg.queue_capacity = crate::spsc::MAX_CAPACITY;
        assert!(cfg.validate().is_ok());

        let mut cfg = ServeConfig::new(shape());
        cfg.intake_depth = 3_000_000_000;
        assert!(cfg.validate().is_err());

        // `--batch 100000000000` (both modes), `--submit-batch
        // 100000000000` (deterministic mode) and `--clients 1000000000`
        // (threaded mode); each bound itself is accepted.
        let rejected = |cfg: ServeConfig, field: &str| matches!(cfg.validate(), Err(ServeError::InvalidConfig { field: f, .. }) if f == field);
        let mut cfg = ServeConfig::new(shape());
        cfg.batch_size = 100_000_000_000;
        assert!(rejected(cfg.clone(), "batch_size"));
        cfg.batch_size = MAX_BATCH;
        assert!(cfg.validate().is_ok());

        let mut cfg = ServeConfig::new(shape());
        cfg.submit_batch = 100_000_000_000;
        assert!(rejected(cfg.clone(), "submit_batch"));
        cfg.submit_batch = MAX_BATCH;
        assert!(cfg.validate().is_ok());

        let mut cfg = ServeConfig::new(shape());
        cfg.clients = 1_000_000_000;
        assert!(rejected(cfg.clone(), "clients"));
        cfg.clients = MAX_CLIENTS;
        assert!(cfg.validate().is_ok());

        let mut cfg = ServeConfig::new(shape());
        cfg.total_queries = 0;
        cfg.duration_ms = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn for_run_derives_sim_seed() {
        let cfg = ServeConfig::new(shape());
        let a = cfg.for_run(0);
        let b = cfg.for_run(1);
        assert_ne!(a.sim.seed, b.sim.seed);
        assert_eq!(a.sim.seed, cfg.sim.for_run(0).seed);
        assert_eq!(a.batch_size, cfg.batch_size);
    }
}

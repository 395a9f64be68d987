//! # Secure Cache Provision
//!
//! A faithful, laptop-scale reproduction of *"Secure Cache Provision:
//! Provable DDOS Prevention for Randomly Partitioned Services with
//! Replication"* (Chu, Guan, Lui, Cai, Shi — IEEE ICDCS Workshops 2013),
//! including the Fan et al. (SoCC'11) no-replication baseline it extends.
//!
//! The headline result: a popularity-based front-end cache of
//! `c* = n·(ln ln n / ln d) + n·k' + 1` entries makes **every** adversarial
//! access pattern ineffective against a randomly partitioned cluster of `n`
//! nodes with replication factor `d` — independent of how many items the
//! service stores.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] (`scp-core`) — the paper's theory: bounds, attack gain,
//!   adversarial strategies, cache provisioning.
//! * [`cluster`] (`scp-cluster`) — partitioners, replica selection, node
//!   failures, capacities.
//! * [`cache`] (`scp-cache`) — perfect/LRU/LFU/FIFO/CLOCK/SLRU/TinyLFU/ARC
//!   front-end caches and the estimated (Space-Saving) oracle.
//! * [`workload`] (`scp-workload`) — access patterns, Zipf/alias samplers,
//!   query streams.
//! * [`sim`] (`scp-sim`) — rate-propagation, query-sampling and
//!   discrete-event engines plus the parallel experiment runner.
//! * [`serve`] (`scp-serve`) — the sharded live-serving engine: admission
//!   cache, batched fan-out over SPSC queues, backpressure and per-shard
//!   capacity shedding.
//! * [`json`] (`scp-json`) — the dependency-free JSON value used by every
//!   report and journal.
//!
//! Most programs only need the [`prelude`].
//!
//! # Quickstart
//!
//! Size a cache with the paper's theory, then measure the strongest
//! attack against a simulated cluster — all through the prelude:
//!
//! ```
//! use secure_cache_provision::prelude::*;
//!
//! // A 1000-node cluster with 3-way replication, 1M items, 100k qps,
//! // and a 200-entry front-end cache.
//! let params = SystemParams::new(1000, 3, 200, 1_000_000, 1e5)?;
//! let report = Provisioner::default().report(&params);
//! assert!(!report.is_protected); // c = 200 is below critical
//!
//! // Simulate the optimal x = c + 1 attack against that system. The
//! // builder defaults to the paper baseline; override what differs.
//! let cfg = SimConfig::builder()
//!     .nodes(params.nodes())
//!     .cache_capacity(params.cache_size())
//!     .attack_x(params.cache_size() as u64 + 1)
//!     .seed(2013)
//!     .build()?;
//! let gain = run_rate_simulation(&cfg)?.gain().value();
//! assert!(gain > 1.0, "under-provisioned: the attack is effective");
//!
//! // Provision the recommended size and the same attack collapses.
//! let safe = cfg
//!     .to_builder()
//!     .cache_capacity(report.critical_cache_size)
//!     .attack_x(report.critical_cache_size as u64 + 1)
//!     .build()?;
//! assert!(run_rate_simulation(&safe)?.gain().value() <= 1.05);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! To serve that system live instead of simulating it, hand the same
//! `SimConfig` to [`serve::ServeConfig`] and run
//! [`serve::run_threaded`] (or `scp-serve` from the command line).
//!
//! See `examples/` for end-to-end attack simulations and `crates/repro`
//! for the binaries that regenerate every figure of the paper.

#![warn(missing_docs)]

pub use scp_cache as cache;
pub use scp_cluster as cluster;
pub use scp_core as core;
pub use scp_json as json;
pub use scp_serve as serve;
pub use scp_sim as sim;
pub use scp_workload as workload;

/// The one-stop import for programs built on this workspace.
///
/// ```
/// use secure_cache_provision::prelude::*;
///
/// let cfg = SimConfig::builder().nodes(100).seed(7).build()?;
/// let report = run_rate_simulation(&cfg)?;
/// assert!(report.gain().value() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub mod prelude {
    pub use scp_core::params::SystemParams;
    pub use scp_core::provision::Provisioner;
    pub use scp_json::Json;
    pub use scp_serve::{
        repeat_serve_journaled, run_deterministic, run_threaded, ServeConfig, ServeReport,
    };
    pub use scp_sim::config::{AdmissionKind, CacheKind, PartitionerKind, SelectorKind};
    pub use scp_sim::query_engine::run_query_simulation;
    pub use scp_sim::rate_engine::run_rate_simulation;
    pub use scp_sim::runner::{repeat_rate_simulation_journaled, StopRule};
    pub use scp_sim::{LoadReport, SimConfig, SimConfigBuilder, SimError};
    pub use scp_workload::AccessPattern;
}

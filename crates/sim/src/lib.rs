//! Simulation engines and experiment infrastructure.
//!
//! The paper's system is one pipeline: a front-end cache absorbs the most
//! popular keys, every other key goes to its random `d`-replica group,
//! and a selector picks the serving node. Four pieces drive it to
//! reproduce and extend the Section IV validation:
//!
//! * **The front end** — [`front_end`]: `f` caches seeded with the top
//!   `c` keys they see in front of the cluster, stepped once per key of
//!   [`SimConfig::query_stream`] by [`query_engine`] (real cache policies
//!   such as LRU and TinyLFU, with multinomial sampling noise), [`cost`]
//!   (read/write cost mixes), [`multi_frontend`] (fleets of caches), the
//!   DES and `scp-serve`'s admission stage.
//! * **The rate loop** — [`rate_engine`] pushes each rank's exact rate
//!   `R·p` through the cache (the oracle's top-`c` cut, or measured
//!   online hit rates) and the partitioner and selector. The only
//!   randomness is the partition (and selector tie-breaking), exactly the
//!   random variable the paper's simulations measure. Fast: O(x) per run.
//!   [`assignments`] records where that loop put each key.
//! * **The sweep** — [`sweep`] evaluates whole `(x, c)` grids against one
//!   partition per run, bit-identical to the rate loop but an order of
//!   magnitude faster.
//! * **The DES** — [`des`] feeds Poisson arrivals through the front end
//!   into exponential service per node, for latency/saturation questions
//!   (the `r_i >= E[L_max]` capacity discussion closing Section III).
//!
//! [`runner`] executes independent repetitions in parallel with
//! deterministic per-run seeds and CI-driven adaptive stopping;
//! [`journal`] records one structured observability record per
//! repetition; [`critical`] locates empirical critical cache sizes by
//! bisection over per-run sweeps; [`stats`] aggregates.
//!
//! # Example
//!
//! ```
//! use scp_sim::config::{AdmissionKind, CacheKind, PartitionerKind, SelectorKind, SimConfig};
//! use scp_workload::AccessPattern;
//!
//! let cfg = SimConfig {
//!     nodes: 50,
//!     replication: 3,
//!     cache_kind: CacheKind::Perfect,
//!     admission: AdmissionKind::Oracle,
//!     cache_capacity: 10,
//!     items: 10_000,
//!     rate: 1e4,
//!     pattern: AccessPattern::uniform_subset(11, 10_000).unwrap(),
//!     partitioner: PartitionerKind::Hash,
//!     selector: SelectorKind::LeastLoaded,
//!     seed: 7,
//! };
//! let report = scp_sim::rate_engine::run_rate_simulation(&cfg)?;
//! assert!(report.gain().value() > 0.0);
//! # Ok::<(), scp_sim::SimError>(())
//! ```

#![warn(missing_docs)]

pub mod assignments;
pub mod config;
pub mod cost;
pub mod critical;
pub mod des;
pub mod detector;
pub mod error;
pub mod front_end;
pub mod journal;
pub mod metrics;
pub mod multi_frontend;
pub mod query_engine;
pub mod rate_engine;
pub mod runner;
pub mod stats;
pub mod sweep;

pub use config::{AdmissionKind, SimConfig, SimConfigBuilder};
pub use error::SimError;
pub use metrics::LoadReport;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;

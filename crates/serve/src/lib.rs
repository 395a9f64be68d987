//! `scp-serve`: a sharded live-serving engine for the Secure Cache
//! Provision system.
//!
//! The simulation crates answer "what load shape does an attack
//! produce?"; this crate answers "what does a *running service* built on
//! the paper's design actually do under that load?" — the same cache →
//! route step (admission steps [`scp_sim::front_end::FrontEnd`], the
//! query engine's front end), but as a long-running threaded pipeline
//! with real queues, batching, backpressure and per-shard capacity
//! enforcement:
//!
//! ```text
//!  clients ──▶ per-client SPSC batch rings ──▶ admission ──▶ SPSC queues ──▶ shard workers
//!         ◀── freelist rings (recycled bufs) ◀─┘   │    (one per backend node, run-to-completion)
//!                                                  ├ cache (c entries)
//!                                                  ├ route (partitioner + selector)
//!                                                  ├ shed if shard over r_i = h·R/n
//!                                                  └ batch up to `batch_size`
//! ```
//!
//! Two execution modes share every admission decision:
//!
//! * [`engine::run_deterministic`] — single-threaded, bit-reproducible,
//!   drawing the simulator's own query stream
//!   ([`scp_sim::SimConfig::query_stream`]) through the same front end,
//!   so with the shield, the token buckets and membership off it routes
//!   exactly what the query engine does. Its measured attack gain is
//!   also comparable with [`scp_sim::rate_engine`] within sampling noise.
//! * [`loadgen::run_threaded`] — closed-loop client threads, an
//!   admission thread and one worker per shard, for throughput and
//!   overload behavior on real hardware.
//!
//! Both produce a [`report::ServeReport`] with exact-integer
//! conservation (`submitted = hits + processed + shed + unserved`),
//! per-shard queue-depth percentiles, and a bridge into the simulator's
//! [`scp_sim::LoadReport`] so the paper's metrics apply unchanged.
//!
//! # Example
//!
//! ```
//! use scp_serve::{ServeConfig, run_deterministic};
//! use scp_sim::SimConfig;
//!
//! let sim = SimConfig::builder()
//!     .nodes(50)
//!     .items(10_000)
//!     .cache_capacity(10)
//!     .attack_x(11)
//!     .seed(7)
//!     .build()?;
//! let mut cfg = ServeConfig::new(sim);
//! cfg.total_queries = 20_000;
//! let report = run_deterministic(&cfg)?;
//! assert!(report.is_conserved());
//! assert!(report.gain() > 1.0);
//! # Ok::<(), scp_serve::ServeError>(())
//! ```

#![warn(missing_docs)]

pub mod backoff;
pub mod batch_ring;
pub mod clock;
pub mod config;
pub mod engine;
pub mod loadgen;
pub mod pad;
pub mod pow;
pub mod report;
pub mod spsc;

pub use config::{MembershipChange, MembershipEvent, Result, ServeConfig, ServeError};
pub use engine::{run_deterministic, LaneStats, Request, TokenBucket};
pub use loadgen::run_threaded;
pub use pow::{PowShield, PowVerdict, PowVerifier};
pub use report::{repeat_serve_journaled, DepthStats, JournaledServe, ServeReport, ShardReport};

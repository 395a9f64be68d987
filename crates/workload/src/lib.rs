//! Workload generation for the secure-cache-provision project.
//!
//! This crate provides everything needed to describe *who asks for what*:
//!
//! * [`Pmf`] — validated probability mass functions over key ranks.
//! * [`AccessPattern`] — compact descriptions of access distributions
//!   (uniform subsets, the paper's Eq. (4) head/tail shape, Zipf, explicit
//!   pmfs) that can be turned into per-rank rates or into samplers.
//! * Samplers built from scratch: [`alias::AliasSampler`] (Walker's method)
//!   and [`zipf::ZipfSampler`] (Hörmann rejection-inversion).
//! * [`permute::FeistelPermutation`] — a seeded bijection from popularity
//!   ranks to key identifiers so simulations never materialize huge tables.
//! * [`stream::QueryStream`] — deterministic, seeded query sequences for
//!   the sampling and discrete-event engines.
//! * [`fasthash::FastBuildHasher`] — the run-seeded hasher under every
//!   key-indexed table the cache, cluster and serving crates keep.
//!
//! Keys are plain `u64` identifiers at this layer; the cluster substrate
//! wraps them in stronger types.
//!
//! # Example
//!
//! ```
//! use scp_workload::{AccessPattern, stream::QueryStream};
//!
//! // An adversary querying 101 keys of a 1000-key service at equal rates.
//! let pattern = AccessPattern::uniform_subset(101, 1000).unwrap();
//! let mut stream = QueryStream::new(&pattern, 42).unwrap();
//! let q: Vec<u64> = (&mut stream).take(5).collect();
//! assert!(q.iter().all(|&k| k < 101));
//! ```

#![warn(missing_docs)]

pub mod alias;
pub mod error;
pub mod fasthash;
pub mod mixture;
pub mod pattern;
pub mod permute;
pub mod pmf;
pub mod rng;
pub mod stream;
pub mod zipf;

pub use error::WorkloadError;
pub use pattern::AccessPattern;
pub use pmf::Pmf;
pub use rng::Xoshiro256StarStar;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, WorkloadError>;

//! Reproduction harness: one module (and binary) per figure of the paper,
//! plus the ablations catalogued in `DESIGN.md`.
//!
//! | Binary | Paper artifact | Setup |
//! |---|---|---|
//! | `fig3a` | Figure 3(a) | n=1000, d=3, m=1e6, c=200, x-sweep, 200 runs |
//! | `fig3b` | Figure 3(b) | same with c=2000 |
//! | `fig4`  | Figure 4    | c=100, n-sweep, uniform / Zipf(1.01) / adversarial |
//! | `fig5`  | Figure 5(a)+(b) | c-sweep: best achievable gain + chosen x |
//! | `ablations` | DESIGN.md A1–A8 | selection, partitioning, replication, cache policies, front-end fleets, costs, skew, rebalancing |
//! | `gap` | oracle-vs-online admission gap + PoW shield (beyond the paper) | stationary margin, rotating attacker, difficulty curve |
//! | `reshard` | elastic membership (beyond the paper) | per-scheme join/leave disruption vs the `1/(n+1)` ideal; `c*` drift across topology epochs |
//! | `critical` | empirical `c*` by bisection (not in `repro-all`) | n=1000, d=3, m=1e6, x=m |
//! | `repro-all` | every group above but `critical` | |
//!
//! Every binary prints aligned tables and writes CSV files under
//! `target/repro/` (override with `--out DIR`). `--runs N` rescales the
//! repetition count, `--fast` picks a configuration that finishes in
//! seconds for smoke testing.
//!
//! # Flags and drivers
//!
//! Every driver starts from one base, [`Opts::sim`], the only code that
//! reads `--cache`, `--admission`, `--partitioner`, `--selector` and
//! `--seed`. A driver overrides only the axes its study sweeps or fixes;
//! every other flag reaches the engine, which applies it or fails the
//! group with its own error ("engine error"):
//!
//! | Flag | `fig3a`/`fig3b`/`fig5` | `fig4` | `ablations` | `gap` | `reshard` | `critical` |
//! |---|---|---|---|---|---|---|
//! | `--cache` | `perfect`/`none` applied; others engine error | `perfect`/`none` applied; others engine error | A4 sweeps it; `perfect`/`none` applied; others engine error | fixed by the study | engine error unless `perfect` | engine error unless `perfect` |
//! | `--admission` | `online`: engine error | applied | `online`: engine error (A3) | fixed by the study | `online`: engine error | `online`: engine error |
//! | `--partitioner` | applied | applied | A2 sweeps it; applied | applied | disruption sweeps it; drift applied | applied |
//! | `--selector` | applied | applied | A1 sweeps it; applied | applied | applied; memoryless ones: engine error unless `range` | applied; memoryless ones: engine error unless `range` |
//! | `--seed` | applied | applied | applied | applied | applied | applied |
//!
//! `--runs` and `--ci-target` set each repeated data point's
//! [`StopRule`](scp_sim::runner::StopRule). The single-run studies (`gap`,
//! A4–A6, A8) have no repetitions; the `c*` bisections (`reshard`,
//! `critical`) run the `--runs` ceiling as a fixed count.

#![warn(missing_docs)]

pub mod ablation;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod gap;
pub mod opts;
pub mod output;
pub mod reshard;

pub use opts::Opts;

/// Crate-wide result alias (re-uses the simulation error).
pub type Result<T> = std::result::Result<T, scp_sim::SimError>;

//! The only timing path in `scp-serve` allowed to read wall clocks.
//!
//! The serving engine is deliberately split-brained about time:
//!
//! * **Logical time** (arrivals / the offered rate `R`) drives everything
//!   that affects *results* — token-bucket shedding, capacity accounting,
//!   the deterministic mode. It is a pure function of the submission
//!   count and never touches a clock (see "Logical time" in
//!   [`crate::engine`]).
//! * **Wall time** is observability metadata only: run durations and
//!   measured throughput. Every wall-clock read in the crate goes through
//!   this module, which is the single `scp-serve` entry on the
//!   `scp-analyze` wall-clock whitelist — a read anywhere else fails the
//!   static-analysis gate.

use std::time::Instant;

/// A started wall-clock stopwatch for run-duration metadata.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    origin: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn started() -> Self {
        // DETERMINISM: wall time here is run-duration metadata only;
        // results are driven by logical time (see the module docs).
        Self {
            origin: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::started`].
    pub fn elapsed_secs(&self) -> f64 {
        // DETERMINISM: elapsed wall time feeds duration/throughput
        // metadata fields, never a result the journals replay.
        self.origin.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::started();
        let a = sw.elapsed_secs();
        let b = sw.elapsed_secs();
        assert!(a >= 0.0);
        assert!(b >= a);
    }

    #[test]
    fn stopwatch_measures_real_time() {
        let sw = Stopwatch::started();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(sw.elapsed_secs() >= 0.004);
    }
}

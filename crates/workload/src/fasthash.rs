//! The keyed hasher under every key-indexed table on the admission path.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 under a per-process
//! random key: strong against hash flooding, but ~15 ns per lookup on
//! the serving hot path, and seeded from ambient entropy (the analyzer's
//! `env-entropy` rule denies `RandomState`). [`FastHasher`] is a
//! splitmix64 finalizer chain instead — three multiplies per word, no
//! data-dependent branches — whose state starts from a seed carried by
//! [`FastBuildHasher`].
//!
//! # Why it is keyed
//!
//! The tables it sits under store what clients ask for: an online
//! cache's resident set, a selector's per-key pins, the proof-of-work
//! replay sets. Those keys are attacker-chosen. Under a fixed seed the
//! bucket function is public, and an attacker could precompute keys that
//! share a bucket and turn every O(1) probe into a chain walk. Each run
//! therefore keys its tables from its own seed:
//!
//! * caches built by `SimConfig::build_cache` — seed lane 9,
//!   `mix(&[seed, 9])`;
//! * the sticky selectors built by `SimConfig::build_selector` — the
//!   lane-2 seed the selector already derives. Their map holds only the
//!   keys outside the selector's dense domain (`items`, capped at
//!   2^24): keys below it sit in a page table indexed by the key itself,
//!   which has no bucket function to flood;
//! * the PoW verifier's replay sets — the verifier's secret.
//!
//! The seed changes table *layout* only. None of these tables is iterated
//! (the analyzer's `hash-iteration` rule denies that in the crates that
//! own them), so no counter, report or digest depends on it. The mixer is
//! not a PRF: keying raises the cost of a collision flood, it does not
//! prove one impossible. [`FastBuildHasher::default`] is seed 0, for
//! tables whose keys the experiment chose (tests, benches, bare
//! `new(capacity)` constructors).

use std::hash::{BuildHasher, Hasher};

/// `BuildHasher` for [`FastHasher`]: every hasher it builds starts from
/// the same seed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FastBuildHasher {
    seed: u64,
}

impl FastBuildHasher {
    /// A builder whose hashers start from `seed`.
    pub const fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl BuildHasher for FastBuildHasher {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher { state: self.seed }
    }
}

/// Seeded 64-bit mixing hasher (splitmix64 finalizer chain).
#[derive(Debug, Clone)]
pub struct FastHasher {
    state: u64,
}

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            if let Some(dst) = word.get_mut(..chunk.len()) {
                dst.copy_from_slice(chunk);
            }
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, value: u64) {
        // splitmix64 finalizer over the running state: full avalanche,
        // three multiplies, no data-dependent branches.
        let mut z = (self.state ^ value).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.state = z ^ (z >> 31);
    }

    fn write_u32(&mut self, value: u32) {
        self.write_u64(u64::from(value));
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(seed: u64, value: u64) -> u64 {
        FastBuildHasher::new(seed).hash_one(value)
    }

    #[test]
    fn hashes_are_deterministic_across_builders() {
        for key in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(hash_of(7, key), hash_of(7, key));
            assert_eq!(
                FastBuildHasher::default().hash_one(key),
                hash_of(0, key),
                "default is seed 0"
            );
        }
    }

    #[test]
    fn the_seed_keys_the_bucket_function() {
        // Two runs must not share a bucket function: keys that collide in
        // the low bits under one seed must scatter under another.
        let differing = (0u64..1024)
            .filter(|&k| hash_of(1, k) & 0x3FF != hash_of(2, k) & 0x3FF)
            .count();
        assert!(differing > 1000, "only {differing}/1024 buckets moved");
    }

    #[test]
    fn sequential_keys_scatter() {
        // Low bits decide the table bucket; sequential keys must not
        // collide there (the failure mode of identity-style hashes).
        for seed in [0u64, 0x5EED] {
            let mut low_bits: Vec<u64> = (0u64..1024).map(|k| hash_of(seed, k) & 0x3FF).collect();
            low_bits.sort_unstable();
            low_bits.dedup();
            assert!(
                low_bits.len() > 600,
                "seed {seed}: only {} distinct low-10-bit buckets out of 1024",
                low_bits.len()
            );
        }
    }

    #[test]
    fn byte_stream_matches_word_writes() {
        // `write` folds little-endian words, so hashing the bytes of a
        // u64 equals hashing the u64 — multi-field keys stay coherent.
        let build = FastBuildHasher::new(99);
        let mut a = build.build_hasher();
        a.write(&0xABCD_EF01_2345_6789u64.to_le_bytes());
        let mut b = build.build_hasher();
        b.write_u64(0xABCD_EF01_2345_6789);
        assert_eq!(a.finish(), b.finish());
    }
}

//! Deterministic random-number utilities.
//!
//! Simulation results in this project must be bit-for-bit reproducible from a
//! `u64` seed, independent of any external crate's implementation details.
//! We therefore ship our own small generator trait ([`Rng`]), a concrete
//! generator, [`Xoshiro256StarStar`] (Blackman & Vigna), seeded through
//! SplitMix64, and a set of helpers that draw uniform integers, floats and
//! exponentials from any [`Rng`].

/// The project-wide random-generator interface.
///
/// Implementors only need [`Rng::next_u64`]; the remaining methods are
/// derived from it. Keeping the trait in-repo (rather than depending on an
/// external `rand` version) guarantees that the byte streams backing every
/// published experiment never shift underneath us.
pub trait Rng {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (the high half of [`Rng::next_u64`], which
    /// are the strongest bits of xoshiro-family generators).
    fn next_u32(&mut self) -> u32 {
        // The shift leaves only the high 32 bits, so this always fits.
        u32::try_from(self.next_u64() >> 32).unwrap_or(u32::MAX)
    }

    /// Fills `dest` with random bytes, 8 at a time.
    #[expect(
        clippy::indexing_slicing,
        reason = "the remainder of chunks_exact_mut(8) is shorter than the 8 bytes drawn"
    )]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Used for seed expansion and as a cheap stateless mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds one word into a [`mix`] state.
#[inline(always)]
fn absorb(mut state: u64, w: u64) -> u64 {
    state ^= w.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

/// Mixes several words into one well-distributed `u64`.
///
/// This is the project-wide "hash of (seed, stream, index)" used to derive
/// independent sub-seeds for parallel runs.
#[inline]
pub fn mix(words: &[u64]) -> u64 {
    let mut state = 0x243F_6A88_85A3_08D3; // pi fractional bits
    for &w in words {
        state = absorb(state, w);
    }
    state
}

/// A [`mix`] whose leading words are absorbed once, for hashing many
/// word lists that differ only in their last word.
///
/// # Example
///
/// ```
/// use scp_workload::rng::{mix, MixPrefix};
///
/// let prefix = MixPrefix::new(&[1, 2, 3]);
/// assert_eq!(prefix.finish(4), mix(&[1, 2, 3, 4]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixPrefix(u64);

impl MixPrefix {
    /// Absorbs the leading words.
    #[inline]
    pub fn new(words: &[u64]) -> Self {
        Self(mix(words))
    }

    /// `mix` of the leading words followed by `last`.
    #[inline]
    pub fn finish(self, last: u64) -> u64 {
        absorb(self.0, last)
    }
}

/// xoshiro256** — a small, fast, high-quality PRNG.
///
/// Implements [`Rng`] so it can be used anywhere the project expects a
/// generator, with output that is stable forever.
///
/// # Example
///
/// ```
/// use scp_workload::rng::{Rng, Xoshiro256StarStar};
///
/// let mut a = Xoshiro256StarStar::seed_from_u64(7);
/// let mut b = Xoshiro256StarStar::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // The all-zero state is invalid; SplitMix64 cannot produce four
        // zero outputs in a row, but guard anyway.
        if s == [0, 0, 0, 0] {
            s = [0x1, 0, 0, 0];
        }
        Self { s }
    }

    #[inline]
    fn step(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }
}

impl Rng for Xoshiro256StarStar {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.step()
    }
}

/// Draws a uniform `f64` in `[0, 1)` using 53 random bits.
#[inline]
pub fn next_f64(rng: &mut dyn Rng) -> f64 {
    const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
    (rng.next_u64() >> 11) as f64 * SCALE
}

/// Draws a uniform integer in `[0, bound)` without modulo bias
/// (Lemire's widening-multiply rejection method).
///
/// # Panics
///
/// Panics if `bound == 0`.
#[inline]
pub fn next_below(rng: &mut dyn Rng, bound: u64) -> u64 {
    assert!(bound > 0, "bound must be positive");
    let mut x = rng.next_u64();
    let mut m = (x as u128) * (bound as u128);
    let mut low = m as u64;
    if low < bound {
        let threshold = bound.wrapping_neg() % bound;
        while low < threshold {
            x = rng.next_u64();
            m = (x as u128) * (bound as u128);
            low = m as u64;
        }
    }
    (m >> 64) as u64
}

/// Draws an exponential variate with the given rate (mean `1/rate`).
///
/// # Panics
///
/// Panics if `rate` is not strictly positive.
#[inline]
pub fn next_exponential(rng: &mut dyn Rng, rate: f64) -> f64 {
    assert!(rate > 0.0, "rate must be positive");
    // 1 - u lies in (0, 1], so ln never sees zero.
    -(1.0 - next_f64(rng)).ln() / rate
}

/// Fisher–Yates shuffles a slice in place.
pub fn shuffle<T>(rng: &mut dyn Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = next_below(rng, (i + 1) as u64) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42u64;
        let mut b = 42u64;
        assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        assert_eq!(a, b);
    }

    #[test]
    fn mix_varies_with_each_word() {
        let base = mix(&[1, 2, 3]);
        assert_ne!(base, mix(&[1, 2, 4]));
        assert_ne!(base, mix(&[0, 2, 3]));
        assert_ne!(base, mix(&[1, 2]));
    }

    #[test]
    fn mix_prefix_agrees_with_mix() {
        let words = [7, u64::MAX, 0, 0x243F_6A88_85A3_08D3, 42];
        for len in 0..words.len() {
            let (prefix, rest) = words.split_at(len);
            assert_eq!(MixPrefix::new(prefix).finish(rest[0]), mix(&words[..=len]));
        }
        for last in [0, 1, u64::MAX] {
            assert_eq!(MixPrefix::new(&[]).finish(last), mix(&[last]));
        }
    }

    #[test]
    fn xoshiro_reference_behaviour() {
        // Same seed => same stream; different seed => (almost surely) different.
        let mut a = Xoshiro256StarStar::seed_from_u64(12345);
        let mut b = Xoshiro256StarStar::seed_from_u64(12345);
        let mut c = Xoshiro256StarStar::seed_from_u64(54321);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn fill_bytes_matches_next_u64() {
        let mut a = Xoshiro256StarStar::seed_from_u64(9);
        let mut b = Xoshiro256StarStar::seed_from_u64(9);
        let mut buf = [0u8; 8];
        a.fill_bytes(&mut buf);
        assert_eq!(u64::from_le_bytes(buf), b.next_u64());
    }

    #[test]
    fn fill_bytes_handles_partial_chunks() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        // Not a real randomness test; just ensure the tail is written.
        assert!(buf[8..].iter().any(|&b| b != 0) || buf[..8].iter().any(|&b| b != 0));
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        for _ in 0..10_000 {
            let u = next_f64(&mut rng);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let bound = 10;
        let mut counts = [0usize; 10];
        let draws = 100_000;
        for _ in 0..draws {
            let v = next_below(&mut rng, bound) as usize;
            counts[v] += 1;
        }
        let expected = draws as f64 / bound as f64;
        for &cnt in &counts {
            let dev = (cnt as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bucket deviates {dev:.3} from uniform");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_rejects_zero_bound() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let _ = next_below(&mut rng, 0);
    }

    #[test]
    fn exponential_has_correct_mean() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let rate = 2.0;
        let draws = 200_000;
        let sum: f64 = (0..draws).map(|_| next_exponential(&mut rng, rate)).sum();
        let mean = sum / draws as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} should be near 0.5");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        shuffle(&mut rng, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }
}

//! Frequency sketches for TinyLFU admission.
//!
//! Every count-min row index and doorkeeper probe of a key derives from
//! one 64-bit base hash, `key_hash`: row `r` reads
//! `mix(&[h, r ^ 0xC0FF_EE00])` and the doorkeeper
//! `mix(&[h, 0xD00B_1EE7_0000_1111])`. `CountMinSketch::slots` and
//! `Doorkeeper::positions` turn `h` into the counters and bits a key
//! touches, and the `*_at` forms read and write those directly: W-TinyLFU
//! derives them once when a key enters the cache and keeps them with the
//! resident. The generic `estimate`/`increment`/`contains`/`insert`
//! forms hash the key and call the `*_at` ones.
//!
//! The base hash is std's default SipHash-1-3 under a fixed all-zero
//! key, and `mix` is public, so which counters a key touches is a
//! *public* function of the key: an attacker can search for keys that
//! share rows with a victim and pollute its estimate. Keying it would
//! move which keys collide, and so every TinyLFU figure and digest; that
//! sketch-pollution surface is left to ROADMAP item 3.

use scp_workload::rng::mix;
use std::hash::{Hash, Hasher};

/// Per-row domain tag: row `r` hashes with `r ^ ROW_TAG`.
const ROW_TAG: u64 = 0xC0FF_EE00;
/// Domain tag of the doorkeeper's probe hash.
const DOOR_TAG: u64 = 0xD00B_1EE7_0000_1111;

/// The seed-independent base hash every row index and doorkeeper probe
/// of `key` derives from (SipHash-1-3, fixed zero key).
pub(crate) fn key_hash<K: Hash>(key: &K) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

/// Word and bit offset of a key's counter in each count-min row.
pub(crate) type CounterSlots = [(usize, usize); CountMinSketch::DEPTH];

/// A key's three doorkeeper bit positions.
pub(crate) type DoorSlots = [usize; 3];

/// A count-min sketch with 4-bit saturating counters and periodic halving,
/// as used by W-TinyLFU's frequency filter.
///
/// Counters saturate at 15; [`CountMinSketch::increment`] returns the new
/// estimate. After `sample_size` increments every counter is halved (the
/// "reset" operation), keeping estimates fresh under drifting popularity.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    /// Packed 4-bit counters: `DEPTH` rows of `width` counters.
    table: Vec<u64>,
    width: usize, // counters per row, power of two
    increments: u64,
    sample_size: u64,
    resets: u64,
}

impl CountMinSketch {
    /// Depth (number of hash rows).
    pub const DEPTH: usize = 4;
    /// Counter ceiling (4-bit).
    pub const MAX_COUNT: u8 = 15;

    /// Creates a sketch sized for roughly `capacity` distinct hot items.
    ///
    /// Width is the next power of two at or above `8 * capacity` counters
    /// per row (min 64); the halving period is `10 * capacity` increments.
    pub fn for_capacity(capacity: usize) -> Self {
        let width = (8 * capacity.max(8)).next_power_of_two();
        let counters_per_word = 16; // 64 bits / 4 bits
        let words_per_row = width / counters_per_word;
        Self {
            table: vec![0u64; words_per_row * Self::DEPTH],
            width,
            increments: 0,
            sample_size: (10 * capacity.max(1)) as u64,
            resets: 0,
        }
    }

    /// Word and bit offset of each row's counter for base hash `h`.
    pub(crate) fn slots(&self, h: u64) -> CounterSlots {
        let words_per_row = self.width / 16;
        let mut slots = [(0, 0); Self::DEPTH];
        for (row, slot) in slots.iter_mut().enumerate() {
            let index = (mix(&[h, row as u64 ^ ROW_TAG]) as usize) & (self.width - 1);
            *slot = (row * words_per_row + index / 16, (index % 16) * 4);
        }
        slots
    }

    /// Estimated frequency of the key whose counters are `slots` (minimum
    /// over rows).
    pub(crate) fn estimate_at(&self, slots: &CounterSlots) -> u8 {
        slots
            .iter()
            .map(|&(word, shift)| {
                // The 0xF mask makes the lane fit u8; saturation is unreachable.
                self.table.get(word).map_or(0, |w| {
                    u8::try_from((w >> shift) & 0xF).unwrap_or(Self::MAX_COUNT)
                })
            })
            .min()
            .unwrap_or(0)
    }

    /// Estimated frequency of `key` (minimum over rows).
    pub fn estimate<K: Hash>(&self, key: &K) -> u8 {
        self.estimate_at(&self.slots(key_hash(key)))
    }

    /// Records one occurrence; returns the updated estimate. Triggers a
    /// halving reset when the sample period elapses.
    pub fn increment<K: Hash>(&mut self, key: &K) -> u8 {
        let slots = self.slots(key_hash(key));
        self.increment_at(&slots)
    }

    /// [`CountMinSketch::increment`] for the key whose counters are
    /// `slots`: the estimate it returns is read, after any halving, from
    /// the slots it just bumped.
    pub(crate) fn increment_at(&mut self, slots: &CounterSlots) -> u8 {
        for &(word, shift) in slots {
            if let Some(w) = self.table.get_mut(word) {
                if (*w >> shift) & 0xF < u64::from(Self::MAX_COUNT) {
                    *w += 1 << shift;
                }
            }
        }
        self.note_sample();
        self.estimate_at(slots)
    }

    /// Advances the sample period without touching any counter.
    ///
    /// W-TinyLFU's doorkeeper absorbs the *first* occurrence of every key,
    /// so those accesses never reach [`CountMinSketch::increment`]. They
    /// still belong to the sample window — otherwise an all-distinct
    /// stream would never trigger a halving reset and the doorkeeper
    /// would saturate. Callers that absorb an access should tick the
    /// window with this method.
    pub fn observe_sample(&mut self) {
        self.note_sample();
    }

    fn note_sample(&mut self) {
        self.increments += 1;
        if self.increments >= self.sample_size {
            self.halve();
        }
    }

    fn halve(&mut self) {
        for word in &mut self.table {
            // Halve each 4-bit lane: shift right then mask out bits that
            // crossed lane boundaries.
            *word = (*word >> 1) & 0x7777_7777_7777_7777;
        }
        self.increments /= 2;
        self.resets += 1;
    }

    /// Number of halving resets performed (for tests/telemetry).
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Clears all counters and telemetry: the sketch is indistinguishable
    /// from a freshly built one, including the reset count a reused cache
    /// exports to journals.
    pub fn clear(&mut self) {
        self.table.fill(0);
        self.increments = 0;
        self.resets = 0;
    }
}

/// A small Bloom-filter "doorkeeper": absorbs the first occurrence of each
/// key so one-hit wonders never reach the main sketch.
#[derive(Debug, Clone)]
pub struct Doorkeeper {
    bits: Vec<u64>,
    mask: usize,
}

impl Doorkeeper {
    /// Creates a doorkeeper sized for roughly `capacity` distinct items.
    pub fn for_capacity(capacity: usize) -> Self {
        let bits = (8 * capacity.max(8)).next_power_of_two();
        Self {
            bits: vec![0u64; bits / 64],
            mask: bits - 1,
        }
    }

    /// The bits probed for the key whose [`key_hash`] is `h`.
    pub(crate) fn positions(&self, h: u64) -> DoorSlots {
        // Kirsch–Mitzenmacher double hashing: probe i is h1 + i·h2 with an
        // odd step so probes stay distinct modulo the power-of-two filter
        // size. Each probe draws on all 64 hash bits; deriving them from
        // overlapping bit ranges of one hash correlates the probes as soon
        // as the mask exceeds the range offset (capacity ≳ 262k).
        let h = mix(&[h, DOOR_TAG]);
        let h1 = h as usize;
        let h2 = ((h >> 32) | 1) as usize;
        [
            h1 & self.mask,
            h1.wrapping_add(h2) & self.mask,
            h1.wrapping_add(h2.wrapping_mul(2)) & self.mask,
        ]
    }

    /// Whether the key has (probably) been seen since the last reset.
    pub fn contains<K: Hash>(&self, key: &K) -> bool {
        self.contains_at(&self.positions(key_hash(key)))
    }

    /// [`Doorkeeper::contains`] for the key whose bits are `positions`.
    pub(crate) fn contains_at(&self, positions: &DoorSlots) -> bool {
        positions.iter().all(|&p| {
            self.bits
                .get(p / 64)
                .is_some_and(|word| word >> (p % 64) & 1 == 1)
        })
    }

    /// Marks the key as seen; returns whether it was already present.
    pub fn insert<K: Hash>(&mut self, key: &K) -> bool {
        let positions = self.positions(key_hash(key));
        self.insert_at(&positions)
    }

    /// [`Doorkeeper::insert`] for the key whose bits are `positions`.
    pub(crate) fn insert_at(&mut self, positions: &DoorSlots) -> bool {
        let mut present = true;
        for &p in positions {
            if let Some(word) = self.bits.get_mut(p / 64) {
                if *word >> (p % 64) & 1 == 0 {
                    present = false;
                    *word |= 1 << (p % 64);
                }
            }
        }
        present
    }

    /// Clears the filter.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_tracks_increments() {
        let mut s = CountMinSketch::for_capacity(100);
        assert_eq!(s.estimate(&42u64), 0);
        for i in 1..=10u8 {
            assert_eq!(s.increment(&42u64), i);
        }
        assert_eq!(s.estimate(&42u64), 10);
    }

    #[test]
    fn counters_saturate_at_fifteen() {
        let mut s = CountMinSketch::for_capacity(100);
        for _ in 0..100 {
            s.increment(&7u64);
        }
        assert_eq!(s.estimate(&7u64), CountMinSketch::MAX_COUNT);
    }

    #[test]
    fn estimates_never_undercount() {
        let mut s = CountMinSketch::for_capacity(64);
        let mut truth = std::collections::HashMap::new();
        for k in 0..200u64 {
            let times = (k % 5) + 1;
            for _ in 0..times {
                s.increment(&k);
            }
            truth.insert(k, times.min(15) as u8);
        }
        // No halving occurred (600 increments < 640 sample)?
        // Increment count: sum(1..=5)*40 = 600 < 640, safe.
        for (k, &t) in &truth {
            assert!(s.estimate(k) >= t, "undercount for {k}");
        }
    }

    #[test]
    fn halving_halves() {
        let mut s = CountMinSketch::for_capacity(1); // sample size 10
        for _ in 0..9 {
            s.increment(&1u64);
        }
        assert_eq!(s.estimate(&1u64), 9);
        s.increment(&1u64); // 10th increment triggers halving of 10
        assert_eq!(s.resets(), 1);
        assert_eq!(s.estimate(&1u64), 5);
    }

    #[test]
    fn clear_zeroes() {
        let mut s = CountMinSketch::for_capacity(10);
        s.increment(&1u64);
        s.clear();
        assert_eq!(s.estimate(&1u64), 0);
    }

    #[test]
    fn clear_zeroes_reset_telemetry() {
        // A reused sketch must not report halvings from its previous life.
        let mut s = CountMinSketch::for_capacity(1); // sample size 10
        for _ in 0..10 {
            s.increment(&1u64);
        }
        assert_eq!(s.resets(), 1);
        s.clear();
        assert_eq!(s.resets(), 0, "clear() must zero the reset counter");
        assert_eq!(s.estimate(&1u64), 0);
    }

    #[test]
    fn observe_sample_advances_the_halving_window() {
        let mut s = CountMinSketch::for_capacity(1); // sample size 10
        s.increment(&1u64);
        for _ in 0..9 {
            s.observe_sample();
        }
        assert_eq!(
            s.resets(),
            1,
            "absorbed accesses must still trigger halving"
        );
    }

    #[test]
    fn doorkeeper_remembers_and_clears() {
        let mut d = Doorkeeper::for_capacity(100);
        assert!(!d.contains(&5u64));
        assert!(!d.insert(&5u64));
        assert!(d.contains(&5u64));
        assert!(d.insert(&5u64));
        d.clear();
        assert!(!d.contains(&5u64));
    }

    #[test]
    fn doorkeeper_false_positive_rate_is_low() {
        let mut d = Doorkeeper::for_capacity(1000);
        for k in 0..1000u64 {
            d.insert(&k);
        }
        let fp = (10_000..20_000u64).filter(|k| d.contains(k)).count();
        assert!(fp < 800, "false positive rate too high: {fp}/10000");
    }

    #[test]
    fn doorkeeper_false_positive_rate_is_low_at_production_scale() {
        // capacity 300k → 2^22 bits, so the mask is 22 bits wide. With the
        // old overlapping-bit-range probes (h, h>>21, h>>42) the first two
        // probes shared 1 correlated bit per key and the effective number
        // of independent probes dropped, inflating the FP rate well past
        // the k=3 Bloom bound. Independent double-hashed probes keep it at
        // the theoretical ~(1-e^{-kn/m})^k ≈ 0.72%; allow 3x slack.
        let mut d = Doorkeeper::for_capacity(300_000);
        for k in 0..300_000u64 {
            d.insert(&k);
        }
        let fp = (1_000_000..1_010_000u64).filter(|k| d.contains(k)).count();
        assert!(
            fp < 220,
            "large-capacity false positive rate too high: {fp}/10000"
        );
    }

    /// Row indices (not slots) of base hash `h`, recovered from the slots.
    fn row_indices(s: &CountMinSketch, h: u64) -> [usize; CountMinSketch::DEPTH] {
        let words_per_row = s.width / 16;
        s.slots(h)
            .map(|(word, shift)| (word % words_per_row) * 16 + shift / 4)
    }

    #[test]
    fn single_hash_reproduces_the_per_row_formula() {
        // Golden vectors computed by the retired per-row formula,
        // `mix(&[SipHash(key), row ^ 0xC0FF_EE00]) & (width - 1)` and the
        // doorkeeper's `mix(&[SipHash(key), 0xD00B_1EE7_0000_1111])`
        // probes, at capacity 2^16 (19-bit indices). Every TinyLFU figure
        // and digest depends on these staying put.
        let s = CountMinSketch::for_capacity(1 << 16);
        let d = Doorkeeper::for_capacity(1 << 16);
        let u64_keys: [(u64, [usize; 4], [usize; 3]); 5] = [
            (0, [289803, 175213, 500702, 54354], [501177, 335728, 170279]),
            (1, [291274, 49401, 309169, 93956], [152511, 331162, 509813]),
            (
                42,
                [459239, 354014, 151695, 65756],
                [174202, 517529, 336568],
            ),
            (
                0xDEAD_BEEF,
                [470872, 60666, 73243, 317651],
                [221493, 26052, 354899],
            ),
            (
                u64::MAX,
                [521819, 265472, 186249, 50107],
                [311809, 496806, 157515],
            ),
        ];
        for (key, rows, door) in u64_keys {
            let h = key_hash(&key);
            assert_eq!(row_indices(&s, h), rows, "rows of u64 {key:#x}");
            assert_eq!(d.positions(h), door, "doorkeeper probes of u64 {key:#x}");
        }
        let key_ids: [(u64, [usize; 4], [usize; 3]); 3] = [
            (7, [88142, 360035, 456019, 417560], [42903, 92326, 141749]),
            (
                1 << 40,
                [79246, 382833, 286742, 101338],
                [93215, 359804, 102105],
            ),
            (
                99_999,
                [93694, 487176, 496518, 420520],
                [119045, 174614, 230183],
            ),
        ];
        for (raw, rows, door) in key_ids {
            let h = key_hash(&scp_cluster::ids::KeyId::new(raw));
            assert_eq!(row_indices(&s, h), rows, "rows of KeyId {raw:#x}");
            assert_eq!(d.positions(h), door, "doorkeeper probes of KeyId {raw:#x}");
        }
    }

    #[test]
    fn prop_increment_returns_the_following_estimate() {
        // Seeded 500-case sweep: the estimate `increment` reads from the
        // slots it just bumped equals a fresh `estimate`, on every access
        // and in particular on the ones that trigger a halving (the old
        // code re-derived all indices after the halving).
        use scp_workload::rng::{next_below, Xoshiro256StarStar};
        let mut gen = Xoshiro256StarStar::seed_from_u64(0x5EE7C4);
        let mut halving_accesses = 0u64;
        for case in 0..500 {
            let capacity = 1 + next_below(&mut gen, 8) as usize;
            let keys = 1 + next_below(&mut gen, 40);
            let len = 1 + next_below(&mut gen, 300);
            let mut s = CountMinSketch::for_capacity(capacity);
            for _ in 0..len {
                let key = next_below(&mut gen, keys);
                let resets = s.resets();
                let got = s.increment(&key);
                assert_eq!(got, s.estimate(&key), "case {case}: key {key}");
                if s.resets() != resets {
                    halving_accesses += 1;
                }
            }
        }
        assert!(
            halving_accesses > 500,
            "only {halving_accesses} halving accesses were checked"
        );
    }
}

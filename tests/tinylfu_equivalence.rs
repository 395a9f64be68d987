//! Golden digests of W-TinyLFU's decision stream.
//!
//! 500 seeded cases drive a [`TinyLfuCache`] through Zipf, uniform and
//! rotating-subset streams at capacities {0, 1, 2, 3, 5, 8, 64, 1000},
//! window fractions {0, 0.01, 0.2, 1} and several `with_hasher` seeds,
//! with one `clear()` in the middle of every stream. Each case folds
//! into an FNV-1a digest every outcome, every `CacheStats` counter,
//! `sketch_resets`, `len`, periodic `admission_frequency` probes and the
//! final `contains` over the whole key domain.
//!
//! The digests were recorded while W-TinyLFU was still an `LruCore`
//! window in front of an `SlruCache` main region. Any change to which
//! key is admitted, demoted, rejected or evicted, or to any counter,
//! moves one of them; so does any change to the sketch's hashing.

use secure_cache_provision::cache::tinylfu::TinyLfuCache;
use secure_cache_provision::cache::Cache;
use secure_cache_provision::workload::fasthash::FastBuildHasher;
use secure_cache_provision::workload::rng::mix;
use secure_cache_provision::workload::AccessPattern;

const CASES: u64 = 500;
const CAPACITIES: [usize; 8] = [0, 1, 2, 3, 5, 8, 64, 1000];
const FRACTIONS: [f64; 4] = [0.0, 0.01, 0.2, 1.0];
/// Steps between two folds of the counters and frequency probes.
const PROBE_EVERY: usize = 61;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Folds every counter the cache exports.
    fn counters(&mut self, cache: &TinyLfuCache<u64>) {
        let stats = cache.stats();
        for w in [
            stats.hits(),
            stats.misses(),
            stats.insertions(),
            stats.evictions(),
            stats.rejections(),
            Cache::sketch_resets(cache),
            cache.len() as u64,
        ] {
            self.word(w);
        }
    }
}

/// How a case builds its cache.
#[derive(Debug, Clone, Copy)]
enum Build {
    Fraction(f64),
    Hasher(u64),
    Default,
}

impl Build {
    fn of(case: u64) -> Self {
        match (case / 8) % 6 {
            v @ 0..=3 => Build::Fraction(FRACTIONS[v as usize]),
            4 => Build::Hasher(mix(&[0x7F1E_A5ED, case])),
            _ => Build::Default,
        }
    }

    fn cache(self, capacity: usize) -> TinyLfuCache<u64> {
        match self {
            Build::Fraction(f) => TinyLfuCache::with_window_fraction(capacity, f),
            Build::Hasher(seed) => TinyLfuCache::with_hasher(capacity, FastBuildHasher::new(seed)),
            Build::Default => TinyLfuCache::new(capacity),
        }
    }
}

/// One case's stream and key domain.
fn pattern(case: u64, capacity: usize, seed: u64) -> AccessPattern {
    let m = 4 * capacity as u64 + 16 + seed % 64;
    match (case / 48) % 3 {
        0 => {
            let alpha = 0.8 + 0.1 * (case % 7) as f64;
            AccessPattern::zipf(alpha, m).expect("valid zipf")
        }
        1 => AccessPattern::uniform(m).expect("valid uniform"),
        _ => {
            let x = (2 * capacity as u64 + 3).min(m);
            AccessPattern::rotating_subset(x, m, x.div_ceil(2)).expect("valid rotation")
        }
    }
}

/// Runs one case and returns its digest.
fn run_case(case: u64) -> u64 {
    let seed = mix(&[0x71F0_CA5E, case]);
    let capacity = CAPACITIES[(case % 8) as usize];
    let build = Build::of(case);
    let pattern = pattern(case, capacity, seed);
    let m = pattern.key_space();
    let mut sampler = pattern.sampler(seed).expect("pattern samples");
    let mut cache = build.cache(capacity);
    // Long enough for several sketch halvings (every 10·c accesses).
    let steps = 1_500 + 24 * capacity;
    let clear_at = steps / 3 + (seed % 200) as usize;

    let mut d = Digest::new();
    for step in 0..steps {
        if step == clear_at {
            cache.clear();
            d.counters(&cache);
        }
        let key = sampler.sample();
        let hit = cache.request(key).is_hit();
        d.word(u64::from(hit));
        assert!(
            cache.len() <= capacity,
            "case {case} ({build:?}, c {capacity}): len {} at step {step}",
            cache.len()
        );
        if step % PROBE_EVERY == 0 {
            d.counters(&cache);
            for probe in [key, 0, m - 1, mix(&[seed, step as u64]) % m] {
                d.word(u64::from(cache.admission_frequency(&probe)));
            }
        }
    }
    d.counters(&cache);
    for key in 0..m {
        d.word(u64::from(cache.contains(&key)));
    }
    let stats = cache.stats();
    assert_eq!(stats.lookups(), steps as u64, "case {case}");
    d.0
}

/// The cases folded per capacity, in `CAPACITIES` order.
fn digests() -> [String; 8] {
    let mut per_capacity = [0xCBF2_9CE4_8422_2325u64; 8];
    for case in 0..CASES {
        let slot = &mut per_capacity[(case % 8) as usize];
        let mut d = Digest(*slot);
        d.word(run_case(case));
        *slot = d.0;
    }
    per_capacity.map(|h| format!("{h:016x}"))
}

#[test]
fn golden_decision_stream_for_every_capacity_and_window() {
    let want = [
        "a030602bb1e97680",
        "199fa2e4ee545e6c",
        "46e3f0be6de7124e",
        "af1b48dc51f58d24",
        "b9ba167c7b96fe6c",
        "6f0cae3364d16c11",
        "6955f485b4dce986",
        "3ecc22dd1fc167f3",
    ];
    let got = digests();
    for ((capacity, got), want) in CAPACITIES.iter().zip(&got).zip(want) {
        assert_eq!(got, want, "decision-stream digest at capacity {capacity}");
    }
}

//! Golden digests of the list policies' decision streams: W-TinyLFU,
//! LRU, SLRU and ARC.
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
//! window in front of an `SlruCache` main region, then re-recorded once
//! a won duel counted its probation victim as an eviction and the
//! capacity-1 drop counted as a rejection (folding the old, uncounted
//! values reproduces the old digests, so only those counters moved).
//! Any change to which key is admitted, demoted, rejected or evicted, or
//! to any counter, moves one of them; so does any change to the sketch's
//! hashing.
//!
//! The same cases drive [`LruCache`], [`SlruCache`] and [`ArcCache`]
//! (hasher seeds and, for SLRU, the protected fractions above). Each
//! policy's digest folds every outcome, `len`, every `CacheStats` counter
//! except SLRU's `evictions`, ARC's `recency_target`/`t1_len`/`t2_len`,
//! SLRU's `probation_len`/`protected_len` and the final `contains` over the
//! whole key domain. They were recorded at commit `ac5934a`, while the
//! three policies still sat on `LruCore` over `LinkedSlab` (one key map
//! per list). SLRU's `evictions` is left out because that layout dropped
//! a full probation segment's LRU entry without counting it.

#![allow(clippy::restriction, clippy::disallowed_methods)]

mod golden;

use golden::Digest;
use secure_cache_provision::cache::arc::ArcCache;
use secure_cache_provision::cache::lru::LruCache;
use secure_cache_provision::cache::slru::SlruCache;
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

impl Digest {
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

    /// The hasher a `with_hasher` build is keyed by (seed 0 otherwise).
    fn hasher(self) -> FastBuildHasher {
        match self {
            Build::Hasher(seed) => FastBuildHasher::new(seed),
            _ => FastBuildHasher::default(),
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
    per_capacity.map(|h| Digest(h).hex())
}

#[test]
fn golden_decision_stream_for_every_capacity_and_window() {
    let want = [
        "a030602bb1e97680",
        "613caa3e06a38498",
        "7316d0eeb2b36eea",
        "9fcb751ec902e9b7",
        "c4e74b0f64a151ae",
        "55afc35bc993d46d",
        "b364eaeb416ecf27",
        "9302f3b4c1fb1090",
    ];
    let got = digests();
    for ((capacity, got), want) in CAPACITIES.iter().zip(&got).zip(want) {
        assert_eq!(got, want, "decision-stream digest at capacity {capacity}");
    }
}

/// LRU, SLRU or ARC with the state each exports beyond [`Cache`].
enum ListPolicy {
    Lru(LruCache<u64>),
    Slru(SlruCache<u64>),
    Arc(ArcCache<u64>),
}

impl ListPolicy {
    const NAMES: [&'static str; 3] = ["lru", "slru", "arc"];

    fn build(policy: usize, build: Build, capacity: usize) -> Self {
        match (policy, build) {
            (0, _) => Self::Lru(LruCache::with_hasher(capacity, build.hasher())),
            (1, Build::Fraction(f)) => Self::Slru(SlruCache::with_protected_fraction(capacity, f)),
            (1, _) => Self::Slru(SlruCache::with_hasher(capacity, build.hasher())),
            _ => Self::Arc(ArcCache::with_hasher(capacity, build.hasher())),
        }
    }

    fn cache(&mut self) -> &mut dyn Cache<u64> {
        match self {
            Self::Lru(c) => c,
            Self::Slru(c) => c,
            Self::Arc(c) => c,
        }
    }

    /// Folds `len`, the counters and the policy's own lengths.
    fn fold(&mut self, d: &mut Digest) {
        let stats = *self.cache().stats();
        for w in [
            stats.hits(),
            stats.misses(),
            stats.insertions(),
            stats.rejections(),
            self.cache().len() as u64,
        ] {
            d.word(w);
        }
        let extra = match self {
            Self::Lru(_) => vec![stats.evictions()],
            Self::Slru(c) => vec![c.probation_len() as u64, c.protected_len() as u64],
            Self::Arc(c) => vec![
                stats.evictions(),
                c.recency_target() as u64,
                c.t1_len() as u64,
                c.t2_len() as u64,
            ],
        };
        for w in extra {
            d.word(w);
        }
    }
}

/// Runs one case through list policy `policy` and returns its digest.
fn run_list_case(policy: usize, case: u64) -> u64 {
    let seed = mix(&[0x71F0_CA5E, case]);
    let capacity = CAPACITIES[(case % 8) as usize];
    let pattern = pattern(case, capacity, seed);
    let m = pattern.key_space();
    let mut sampler = pattern.sampler(seed).expect("pattern samples");
    let mut policy = ListPolicy::build(policy, Build::of(case), capacity);
    let steps = 1_500 + 24 * capacity;
    let clear_at = steps / 3 + (seed % 200) as usize;

    let mut d = Digest::new();
    for step in 0..steps {
        if step == clear_at {
            policy.cache().clear();
            policy.fold(&mut d);
        }
        let hit = policy.cache().request(sampler.sample()).is_hit();
        d.word(u64::from(hit));
        if step % PROBE_EVERY == 0 {
            policy.fold(&mut d);
        }
    }
    policy.fold(&mut d);
    let cache = policy.cache();
    for key in 0..m {
        d.word(u64::from(cache.contains(&key)));
    }
    d.0
}

#[test]
fn golden_decision_streams_of_lru_slru_and_arc() {
    let want = ["b1ac76e6f9e6c19c", "d37d1fce5704da5a", "d513493eeb8c705a"];
    let got = [0, 1, 2].map(|policy| {
        let mut d = Digest::new();
        for case in 0..CASES {
            d.word(run_list_case(policy, case));
        }
        d.hex()
    });
    for ((name, got), want) in ListPolicy::NAMES.iter().zip(&got).zip(want) {
        assert_eq!(got, want, "{name} decision-stream digest");
    }
}

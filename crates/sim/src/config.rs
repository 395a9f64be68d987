//! Experiment configuration and substrate factories.

use crate::error::SimError;
use crate::Result;
use scp_cache::{
    arc::ArcCache, clock::ClockCache, estimated::EstimatedOracleCache, fifo::FifoCache,
    lfu::LfuCache, lru::LruCache, nocache::NoCache, perfect::PerfectCache, slru::SlruCache,
    tinylfu::TinyLfuCache, Cache,
};
use scp_cluster::partition::{Partitioner, PartitionerSpec};
use scp_cluster::select::{
    LeastLoadedSelector, PerQueryLeastLoaded, RandomSelector, ReplicaSelector, RoundRobinSelector,
};
use scp_cluster::Cluster;
use scp_core::params::SystemParams;
use scp_workload::fasthash::FastBuildHasher;
use scp_workload::permute::KeyMapping;
use scp_workload::rng::mix;
use scp_workload::stream::QueryStream;
use scp_workload::AccessPattern;

/// Builds the `Display`/`FromStr` pair for a kind enum so that the
/// textual form always round-trips with [`name()`] (parsing is
/// case-insensitive; rendering uses the canonical lower-case name).
macro_rules! kind_text {
    ($ty:ident, $field:literal) => {
        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.name())
            }
        }

        impl std::str::FromStr for $ty {
            type Err = SimError;

            fn from_str(s: &str) -> Result<Self> {
                $ty::ALL
                    .iter()
                    .find(|k| k.name().eq_ignore_ascii_case(s.trim()))
                    .copied()
                    .ok_or_else(|| SimError::InvalidConfig {
                        field: $field,
                        reason: format!(
                            "unknown {} `{s}`; valid: {}",
                            $field,
                            $ty::ALL.map(|k| k.name()).join(", ")
                        ),
                    })
            }
        }
    };
}

// The partitioner kind lives with the partitioners themselves (its
// `Display`/`FromStr` belong next to `PartitionerSpec`); re-exported
// here so `scp_sim::config::PartitionerKind` call sites keep compiling.
pub use scp_cluster::partition::PartitionerKind;

/// Which rule picks the serving replica within a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectorKind {
    /// Uniform random member per query.
    Random,
    /// Per-key round-robin.
    RoundRobin,
    /// Sticky least-loaded (the balls-into-bins d-choice model).
    LeastLoaded,
    /// Memoryless least-loaded per query.
    PerQueryLeastLoaded,
}

impl SelectorKind {
    /// All kinds, for ablation sweeps.
    pub const ALL: [SelectorKind; 4] = [
        SelectorKind::Random,
        SelectorKind::RoundRobin,
        SelectorKind::LeastLoaded,
        SelectorKind::PerQueryLeastLoaded,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SelectorKind::Random => "random",
            SelectorKind::RoundRobin => "round-robin",
            SelectorKind::LeastLoaded => "least-loaded",
            SelectorKind::PerQueryLeastLoaded => "per-query-least-loaded",
        }
    }
}

kind_text!(SelectorKind, "selector");

/// Which front-end cache policy filters queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheKind {
    /// The paper's popularity oracle.
    Perfect,
    /// Least recently used.
    Lru,
    /// Least frequently used.
    Lfu,
    /// First in, first out.
    Fifo,
    /// CLOCK second-chance.
    Clock,
    /// Segmented LRU.
    Slru,
    /// W-TinyLFU.
    TinyLfu,
    /// Adaptive Replacement Cache.
    Arc,
    /// Space-Saving-driven online approximation of the perfect oracle.
    EstimatedOracle,
    /// No cache at all.
    None,
}

impl CacheKind {
    /// All kinds, for ablation sweeps.
    pub const ALL: [CacheKind; 10] = [
        CacheKind::Perfect,
        CacheKind::Lru,
        CacheKind::Lfu,
        CacheKind::Fifo,
        CacheKind::Clock,
        CacheKind::Slru,
        CacheKind::TinyLfu,
        CacheKind::Arc,
        CacheKind::EstimatedOracle,
        CacheKind::None,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CacheKind::Perfect => "perfect",
            CacheKind::Lru => "lru",
            CacheKind::Lfu => "lfu",
            CacheKind::Fifo => "fifo",
            CacheKind::Clock => "clock",
            CacheKind::Slru => "slru",
            CacheKind::TinyLfu => "tinylfu",
            CacheKind::Arc => "arc",
            CacheKind::EstimatedOracle => "estimated-oracle",
            CacheKind::None => "none",
        }
    }
}

kind_text!(CacheKind, "cache_kind");

/// Where the provisioned cache's notion of popularity comes from.
///
/// The paper's provisioning theorems assume the cache holds the true
/// `c` most popular keys — an oracle. A deployable system has to learn
/// popularity online from the query stream instead; this knob selects
/// between the two so the oracle-vs-online *gain gap* can be measured
/// on otherwise identical configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdmissionKind {
    /// Use the configured `cache_kind` verbatim (the paper's
    /// [`CacheKind::Perfect`] oracle by default).
    Oracle,
    /// Online sketch-driven admission: a [`CacheKind::Perfect`] cache is
    /// replaced by [`CacheKind::TinyLfu`]; every other policy already
    /// learns online and is kept as-is.
    Online,
}

impl AdmissionKind {
    /// All kinds, for ablation sweeps.
    pub const ALL: [AdmissionKind; 2] = [AdmissionKind::Oracle, AdmissionKind::Online];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            AdmissionKind::Oracle => "oracle",
            AdmissionKind::Online => "online",
        }
    }
}

kind_text!(AdmissionKind, "admission");

/// A complete description of one simulated system + workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of back-end nodes `n`.
    pub nodes: usize,
    /// Replication factor `d`.
    pub replication: usize,
    /// Front-end cache policy.
    pub cache_kind: CacheKind,
    /// Whether the cache is oracle-informed or learns popularity online.
    pub admission: AdmissionKind,
    /// Front-end cache capacity `c`.
    pub cache_capacity: usize,
    /// Key-space size `m`.
    pub items: u64,
    /// Aggregate client rate `R` in queries/second.
    pub rate: f64,
    /// The access distribution over popularity ranks.
    pub pattern: AccessPattern,
    /// Partitioning scheme.
    pub partitioner: PartitionerKind,
    /// Replica selection rule.
    pub selector: SelectorKind,
    /// Master seed; every random object derives from it deterministically.
    pub seed: u64,
}

/// Deferred access-pattern choice of a [`SimConfigBuilder`].
///
/// The pattern depends on `items` (and, for the default attack, on the
/// cache size), so the builder resolves it at [`SimConfigBuilder::build`]
/// time instead of forcing callers to order their setter calls.
#[derive(Debug, Clone, PartialEq)]
enum PatternSpec {
    /// The paper's optimal attack `x = c + 1` over the final key space.
    AttackHead,
    /// A uniform attack on exactly `x` keys of the final key space.
    AttackX(u64),
    /// A fully specified pattern, used verbatim.
    Explicit(AccessPattern),
}

/// Step-by-step construction of a [`SimConfig`], starting from the
/// paper's Section IV baseline.
///
/// Every field defaults to [`SimConfig::paper_baseline`] (1000 nodes,
/// `d = 3`, 1M keys, 100k qps, hash partitioning, least-loaded selection,
/// perfect cache, the repro suite's master seed) and the access pattern
/// defaults to the optimal `x = c + 1` attack, so the shortest possible
/// call already describes the paper's headline experiment:
///
/// ```
/// use scp_sim::SimConfig;
///
/// let cfg = SimConfig::builder().cache_capacity(200).build()?;
/// assert_eq!(cfg.nodes, 1000);
/// assert_eq!(cfg.pattern.support_bound(), 201); // x = c + 1
/// # Ok::<(), scp_sim::SimError>(())
/// ```
///
/// [`build`](SimConfigBuilder::build) validates the assembled
/// configuration, so an invalid `(n, d, c, m, R)` tuple or a pattern/key
/// space mismatch is unrepresentable at the call site.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfigBuilder {
    nodes: usize,
    replication: usize,
    cache_kind: CacheKind,
    admission: AdmissionKind,
    cache_capacity: usize,
    items: u64,
    rate: f64,
    pattern: PatternSpec,
    partitioner: PartitionerKind,
    selector: SelectorKind,
    seed: u64,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        Self {
            nodes: 1000,
            replication: 3,
            cache_kind: CacheKind::Perfect,
            admission: AdmissionKind::Oracle,
            cache_capacity: 0,
            items: 1_000_000,
            rate: 1e5,
            pattern: PatternSpec::AttackHead,
            partitioner: PartitionerKind::Hash,
            selector: SelectorKind::LeastLoaded,
            seed: 20130708, // ICDCS'13 workshop date, the repro master seed
        }
    }
}

impl SimConfigBuilder {
    /// Sets the number of back-end nodes `n`.
    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    /// Sets the replication factor `d`.
    pub fn replication(mut self, d: usize) -> Self {
        self.replication = d;
        self
    }

    /// Sets the front-end cache policy.
    pub fn cache_kind(mut self, kind: CacheKind) -> Self {
        self.cache_kind = kind;
        self
    }

    /// Sets oracle-informed vs online-learned cache admission.
    pub fn admission(mut self, kind: AdmissionKind) -> Self {
        self.admission = kind;
        self
    }

    /// Sets the front-end cache capacity `c`.
    pub fn cache_capacity(mut self, c: usize) -> Self {
        self.cache_capacity = c;
        self
    }

    /// Sets the key-space size `m`.
    pub fn items(mut self, m: u64) -> Self {
        self.items = m;
        self
    }

    /// Sets the aggregate client rate `R` in queries/second.
    pub fn rate(mut self, r: f64) -> Self {
        self.rate = r;
        self
    }

    /// Uses an explicit access pattern (its key space must equal `items`).
    pub fn pattern(mut self, pattern: AccessPattern) -> Self {
        self.pattern = PatternSpec::Explicit(pattern);
        self
    }

    /// Uses the uniform attack on exactly `x` keys of the key space —
    /// the pattern is built against the final `items` at [`build`] time.
    ///
    /// [`build`]: SimConfigBuilder::build
    pub fn attack_x(mut self, x: u64) -> Self {
        self.pattern = PatternSpec::AttackX(x);
        self
    }

    /// Sets the partitioning scheme.
    pub fn partitioner(mut self, kind: PartitionerKind) -> Self {
        self.partitioner = kind;
        self
    }

    /// Sets the replica selection rule.
    pub fn selector(mut self, kind: SelectorKind) -> Self {
        self.selector = kind;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Resolves the pattern, assembles the [`SimConfig`] and validates it.
    ///
    /// # Errors
    ///
    /// Returns an error if the assembled configuration is invalid (bad
    /// `(n, d, c, m, R)` tuple, oversized cache, pattern/key-space
    /// mismatch, or an attack on more keys than the service stores).
    pub fn build(self) -> Result<SimConfig> {
        let pattern = match self.pattern {
            PatternSpec::AttackHead => AccessPattern::uniform_subset(
                (self.cache_capacity as u64 + 1).min(self.items),
                self.items,
            )
            .map_err(SimError::from)?,
            PatternSpec::AttackX(x) => {
                AccessPattern::uniform_subset(x, self.items).map_err(SimError::from)?
            }
            PatternSpec::Explicit(p) => p,
        };
        let cfg = SimConfig {
            nodes: self.nodes,
            replication: self.replication,
            cache_kind: self.cache_kind,
            admission: self.admission,
            cache_capacity: self.cache_capacity,
            items: self.items,
            rate: self.rate,
            pattern,
            partitioner: self.partitioner,
            selector: self.selector,
            seed: self.seed,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

impl SimConfig {
    /// Starts a builder at the paper's Section IV baseline (see
    /// [`SimConfigBuilder`]).
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// A builder pre-loaded with this configuration, for derived
    /// variants: `cfg.to_builder().seed(43).build()?`.
    pub fn to_builder(&self) -> SimConfigBuilder {
        SimConfigBuilder {
            nodes: self.nodes,
            replication: self.replication,
            cache_kind: self.cache_kind,
            admission: self.admission,
            cache_capacity: self.cache_capacity,
            items: self.items,
            rate: self.rate,
            pattern: PatternSpec::Explicit(self.pattern.clone()),
            partitioner: self.partitioner,
            selector: self.selector,
            seed: self.seed,
        }
    }

    /// The paper's Section IV baseline: 1000 nodes, d = 3, 1M keys,
    /// 100k qps, hash partitioning, least-loaded selection, perfect cache.
    pub fn paper_baseline(cache_capacity: usize, pattern: AccessPattern, seed: u64) -> Self {
        Self {
            nodes: 1000,
            replication: 3,
            cache_kind: CacheKind::Perfect,
            admission: AdmissionKind::Oracle,
            cache_capacity,
            items: 1_000_000,
            rate: 1e5,
            pattern,
            partitioner: PartitionerKind::Hash,
            selector: SelectorKind::LeastLoaded,
            seed,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns an error if the `(n, d, c, m, R)` tuple is invalid or the
    /// pattern's key space differs from `items`.
    pub fn validate(&self) -> Result<()> {
        SystemParams::new(
            self.nodes,
            self.replication,
            self.cache_capacity.min(self.items as usize),
            self.items,
            self.rate,
        )?;
        if self.cache_capacity as u64 > self.items {
            return Err(SimError::InvalidConfig {
                field: "cache_capacity",
                reason: format!(
                    "cache of {} exceeds {} stored items",
                    self.cache_capacity, self.items
                ),
            });
        }
        if self.pattern.key_space() != self.items {
            return Err(SimError::InvalidConfig {
                field: "pattern",
                reason: format!(
                    "pattern key space {} != items {}",
                    self.pattern.key_space(),
                    self.items
                ),
            });
        }
        Ok(())
    }

    /// The theory-side view of this configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the tuple is invalid.
    pub fn system_params(&self) -> Result<SystemParams> {
        Ok(SystemParams::new(
            self.nodes,
            self.replication,
            self.cache_capacity,
            self.items,
            self.rate,
        )?)
    }

    /// A JSON description of the configuration, suitable as the header of
    /// a run journal.
    ///
    /// The seed is written as a decimal string so full 64-bit seeds
    /// survive the `f64` number model; the pattern is described
    /// free-form rather than fully serialized.
    pub fn describe_json(&self) -> scp_json::Json {
        use scp_json::Json;
        Json::obj([
            ("nodes", Json::Num(self.nodes as f64)),
            ("replication", Json::Num(self.replication as f64)),
            ("cache_kind", Json::Str(self.cache_kind.name().to_owned())),
            ("admission", Json::Str(self.admission.name().to_owned())),
            (
                "effective_cache_kind",
                Json::Str(self.effective_cache_kind().name().to_owned()),
            ),
            ("cache_capacity", Json::Num(self.cache_capacity as f64)),
            ("items", Json::Num(self.items as f64)),
            ("rate", Json::Num(self.rate)),
            ("pattern", Json::Str(self.pattern.describe())),
            ("partitioner", Json::Str(self.partitioner.name().to_owned())),
            ("selector", Json::Str(self.selector.name().to_owned())),
            ("seed", Json::Str(self.seed.to_string())),
        ])
    }

    /// Copy with a derived seed for repetition `run` (stable mixing).
    pub fn for_run(&self, run: u64) -> Self {
        let mut cfg = self.clone();
        cfg.seed = mix(&[self.seed, 0x5EED_0FF5_E7F0_0D01, run]);
        cfg
    }

    /// Builds the configured partitioner.
    ///
    /// # Errors
    ///
    /// Returns an error if the substrate rejects the parameters.
    pub fn build_partitioner(&self) -> Result<Box<dyn Partitioner>> {
        Ok(self.partitioner_spec().build()?)
    }

    /// The [`PartitionerSpec`] this configuration resolves to — the one
    /// construction surface shared by the sweep engine, the rate engine
    /// and `scp-serve`. The placement seed is derived from the master
    /// seed exactly as `build_partitioner` always has, so specs stay
    /// bit-identical with historical runs.
    pub fn partitioner_spec(&self) -> PartitionerSpec {
        PartitionerSpec::new(self.partitioner)
            .nodes(self.nodes)
            .replication(self.replication)
            .seed(mix(&[self.seed, 1]))
            .items(self.items)
    }

    /// Builds the configured replica selector (seed lane 2: the random
    /// selector's stream, and the key of the sticky selectors' per-key
    /// maps). The sticky selectors index keys below `items` (capped at
    /// [`DENSE_KEY_CAP`](scp_cluster::select::DENSE_KEY_CAP)) in a page
    /// table and hash only the keys above it.
    pub fn build_selector(&self) -> Box<dyn ReplicaSelector> {
        let seed = mix(&[self.seed, 2]);
        let hasher = FastBuildHasher::new(seed);
        match self.selector {
            SelectorKind::Random => Box::new(RandomSelector::new(seed)),
            SelectorKind::RoundRobin => Box::new(RoundRobinSelector::for_items(self.items, hasher)),
            SelectorKind::LeastLoaded => {
                Box::new(LeastLoadedSelector::for_items(self.items, hasher))
            }
            SelectorKind::PerQueryLeastLoaded => Box::new(PerQueryLeastLoaded::new()),
        }
    }

    /// The configured cluster: [`SimConfig::build_partitioner`] behind
    /// [`SimConfig::build_selector`], every node alive.
    pub(crate) fn build_cluster(&self) -> Result<Cluster> {
        Ok(Cluster::new(
            self.build_partitioner()?,
            self.build_selector(),
        ))
    }

    /// The rank→key scatter every engine draws keys through (seed lane 3,
    /// next to the partitioner's lane 1 and the selector's lane 2), so
    /// the simulators and `scp-serve` see the same key space.
    ///
    /// # Errors
    ///
    /// Returns an error if `items` is zero.
    pub fn key_mapping(&self) -> Result<KeyMapping> {
        Ok(KeyMapping::scattered(self.items, mix(&[self.seed, 3]))?)
    }

    /// The key stream of every per-query engine, `scp-serve`'s replay
    /// included: ranks drawn on seed lane 4, scattered by `mapping` (this
    /// config's [`SimConfig::key_mapping`]; see [`QueryStream`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern cannot build a sampler.
    pub fn query_stream(&self, mapping: KeyMapping) -> Result<QueryStream> {
        let seed = mix(&[self.seed, 4]);
        Ok(QueryStream::with_mapping(&self.pattern, seed, mapping)?)
    }

    /// The cache policy actually instantiated once the admission knob is
    /// applied: [`AdmissionKind::Online`] swaps the
    /// [`CacheKind::Perfect`] oracle for [`CacheKind::TinyLfu`]; every
    /// other combination is the configured policy verbatim.
    pub fn effective_cache_kind(&self) -> CacheKind {
        match (self.admission, self.cache_kind) {
            (AdmissionKind::Online, CacheKind::Perfect) => CacheKind::TinyLfu,
            (_, kind) => kind,
        }
    }

    /// Builds the configured cache over `u64` key ids, honoring the
    /// admission knob (see [`SimConfig::effective_cache_kind`]).
    ///
    /// `ranked_keys` supplies the true popularity order for
    /// [`CacheKind::Perfect`]; other policies ignore it. Every policy's
    /// key tables are keyed from seed lane 9 (see
    /// [`scp_workload::fasthash`]); the seed changes their layout, never
    /// an outcome.
    pub fn build_cache<I: IntoIterator<Item = u64>>(&self, ranked_keys: I) -> Box<dyn Cache<u64>> {
        let c = self.cache_capacity;
        let hasher = FastBuildHasher::new(mix(&[self.seed, 9]));
        match self.effective_cache_kind() {
            CacheKind::Perfect => Box::new(PerfectCache::with_hasher(c, ranked_keys, hasher)),
            CacheKind::Lru => Box::new(LruCache::with_hasher(c, hasher)),
            CacheKind::Lfu => Box::new(LfuCache::with_hasher(c, hasher)),
            CacheKind::Fifo => Box::new(FifoCache::with_hasher(c, hasher)),
            CacheKind::Clock => Box::new(ClockCache::with_hasher(c, hasher)),
            CacheKind::Slru => Box::new(SlruCache::with_hasher(c, hasher)),
            CacheKind::TinyLfu => Box::new(TinyLfuCache::with_hasher(c, hasher)),
            CacheKind::Arc => Box::new(ArcCache::with_hasher(c, hasher)),
            CacheKind::EstimatedOracle => Box::new(EstimatedOracleCache::with_hasher(c, hasher)),
            CacheKind::None => Box::new(NoCache::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config() -> SimConfig {
        SimConfig {
            nodes: 10,
            replication: 3,
            cache_kind: CacheKind::Perfect,
            admission: AdmissionKind::Oracle,
            cache_capacity: 5,
            items: 100,
            rate: 1e3,
            pattern: AccessPattern::uniform_subset(6, 100).unwrap(),
            partitioner: PartitionerKind::Hash,
            selector: SelectorKind::LeastLoaded,
            seed: 1,
        }
    }

    #[test]
    fn valid_config_passes() {
        base_config().validate().unwrap();
        base_config().system_params().unwrap();
    }

    #[test]
    fn validation_catches_mismatched_pattern() {
        let mut cfg = base_config();
        cfg.pattern = AccessPattern::uniform_subset(6, 999).unwrap();
        assert!(matches!(
            cfg.validate(),
            Err(SimError::InvalidConfig {
                field: "pattern",
                ..
            })
        ));
    }

    #[test]
    fn validation_catches_oversized_cache() {
        let mut cfg = base_config();
        cfg.cache_capacity = 101;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_cluster_shape() {
        let mut cfg = base_config();
        cfg.replication = 11;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn for_run_derives_distinct_deterministic_seeds() {
        let cfg = base_config();
        let a = cfg.for_run(0);
        let b = cfg.for_run(1);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.seed, cfg.for_run(0).seed);
        assert_ne!(a.seed, cfg.seed);
    }

    #[test]
    fn all_partitioners_build() {
        for kind in PartitionerKind::ALL {
            let mut cfg = base_config();
            cfg.partitioner = kind;
            let p = cfg.build_partitioner().unwrap();
            assert_eq!(p.node_count(), 10);
            assert_eq!(p.replication_factor(), 3);
        }
    }

    #[test]
    fn all_selectors_build() {
        for kind in SelectorKind::ALL {
            let mut cfg = base_config();
            cfg.selector = kind;
            let _ = cfg.build_selector();
        }
    }

    #[test]
    fn all_caches_build_with_correct_capacity() {
        for kind in CacheKind::ALL {
            let mut cfg = base_config();
            cfg.cache_kind = kind;
            let cache = cfg.build_cache(0..5);
            if kind == CacheKind::None {
                assert_eq!(cache.capacity(), 0);
            } else {
                assert_eq!(cache.capacity(), 5, "{}", kind.name());
            }
        }
    }

    #[test]
    fn cache_outcomes_do_not_depend_on_the_hasher_seed() {
        // `build_cache` keys every policy's tables from seed lane 9, so
        // two configs that differ only in `seed` build each policy under
        // two different hashers. One replayed stream must then give the
        // same outcome sequence, stats and sketch resets: the hasher
        // moves table layout, never a decision.
        use scp_cache::CacheOutcome;
        let items = 2_000u64;
        let capacity = 64usize;
        let mapping = KeyMapping::scattered(items, 3).unwrap();
        let ranked: Vec<u64> = (0..capacity as u64).map(|r| mapping.apply(r)).collect();
        for pattern in [
            AccessPattern::zipf(1.1, items).unwrap(),
            AccessPattern::rotating_subset(150, items, 500).unwrap(),
        ] {
            let mut sampler = pattern.sampler(11).unwrap();
            let keys: Vec<u64> = (0..20_000)
                .map(|_| mapping.apply(sampler.sample()))
                .collect();
            for kind in CacheKind::ALL {
                let replay = |seed: u64| {
                    let cfg = SimConfig::builder()
                        .nodes(10)
                        .items(items)
                        .cache_capacity(capacity)
                        .cache_kind(kind)
                        .pattern(pattern.clone())
                        .seed(seed)
                        .build()
                        .unwrap();
                    let mut cache = cfg.build_cache(ranked.iter().copied());
                    let outcomes: Vec<CacheOutcome> =
                        keys.iter().map(|&k| cache.request(k)).collect();
                    (outcomes, *cache.stats(), cache.sketch_resets())
                };
                let (a, b) = (replay(1), replay(2));
                assert!(a == b, "{kind} under {}", pattern.describe());
                if kind == CacheKind::TinyLfu {
                    assert!(a.2 > 0, "the stream must age the sketch");
                }
            }
        }
    }

    #[test]
    fn paper_baseline_matches_section_four() {
        let cfg = SimConfig::paper_baseline(
            200,
            AccessPattern::uniform_subset(201, 1_000_000).unwrap(),
            9,
        );
        cfg.validate().unwrap();
        assert_eq!(cfg.nodes, 1000);
        assert_eq!(cfg.replication, 3);
        assert_eq!(cfg.items, 1_000_000);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(PartitionerKind::Hash.name(), "hash");
        assert_eq!(PartitionerKind::MultiProbe.name(), "multi-probe");
        assert_eq!(SelectorKind::LeastLoaded.name(), "least-loaded");
        assert_eq!(CacheKind::TinyLfu.name(), "tinylfu");
    }

    #[test]
    fn admission_kind_text_round_trips_every_variant() {
        for kind in AdmissionKind::ALL {
            assert_eq!(kind.to_string(), kind.name());
            assert_eq!(kind.name().parse::<AdmissionKind>().unwrap(), kind);
        }
        assert!("psychic".parse::<AdmissionKind>().is_err());
    }

    #[test]
    fn online_admission_swaps_the_oracle_for_tinylfu() {
        let mut cfg = base_config();
        assert_eq!(cfg.effective_cache_kind(), CacheKind::Perfect);
        cfg.admission = AdmissionKind::Online;
        assert_eq!(cfg.effective_cache_kind(), CacheKind::TinyLfu);
        assert_eq!(cfg.build_cache(0..5).name(), "tinylfu");
        // Non-oracle policies are untouched by the knob.
        cfg.cache_kind = CacheKind::Lru;
        assert_eq!(cfg.effective_cache_kind(), CacheKind::Lru);
    }

    #[test]
    fn cache_kind_text_round_trips_every_variant() {
        for kind in CacheKind::ALL {
            assert_eq!(kind.to_string(), kind.name());
            assert_eq!(kind.name().parse::<CacheKind>().unwrap(), kind);
        }
    }

    #[test]
    fn partitioner_kind_text_round_trips_every_variant() {
        for kind in PartitionerKind::ALL {
            assert_eq!(kind.to_string(), kind.name());
            assert_eq!(kind.name().parse::<PartitionerKind>().unwrap(), kind);
        }
    }

    #[test]
    fn selector_kind_text_round_trips_every_variant() {
        for kind in SelectorKind::ALL {
            assert_eq!(kind.to_string(), kind.name());
            assert_eq!(kind.name().parse::<SelectorKind>().unwrap(), kind);
        }
    }

    #[test]
    fn kind_parsing_is_case_insensitive_and_rejects_junk() {
        assert_eq!("TinyLFU".parse::<CacheKind>().unwrap(), CacheKind::TinyLfu);
        assert_eq!(
            " Least-Loaded ".parse::<SelectorKind>().unwrap(),
            SelectorKind::LeastLoaded
        );
        let err = "quantum".parse::<PartitionerKind>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("quantum"), "{msg}");
        assert!(msg.contains("rendezvous"), "lists valid names: {msg}");
    }

    #[test]
    fn builder_defaults_match_paper_baseline() {
        let built = SimConfig::builder().cache_capacity(200).build().unwrap();
        let baseline = SimConfig::paper_baseline(
            200,
            AccessPattern::uniform_subset(201, 1_000_000).unwrap(),
            20130708,
        );
        assert_eq!(built, baseline);
    }

    #[test]
    fn builder_sets_every_field() {
        let pattern = AccessPattern::zipf(1.1, 5000).unwrap();
        let cfg = SimConfig::builder()
            .nodes(20)
            .replication(2)
            .cache_kind(CacheKind::Lru)
            .cache_capacity(7)
            .items(5000)
            .rate(123.0)
            .pattern(pattern.clone())
            .partitioner(PartitionerKind::Ring)
            .selector(SelectorKind::Random)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(cfg.nodes, 20);
        assert_eq!(cfg.replication, 2);
        assert_eq!(cfg.cache_kind, CacheKind::Lru);
        assert_eq!(cfg.cache_capacity, 7);
        assert_eq!(cfg.items, 5000);
        assert_eq!(cfg.rate, 123.0);
        assert_eq!(cfg.pattern, pattern);
        assert_eq!(cfg.partitioner, PartitionerKind::Ring);
        assert_eq!(cfg.selector, SelectorKind::Random);
        assert_eq!(cfg.seed, 99);
    }

    #[test]
    fn builder_attack_x_resolves_against_final_items() {
        // attack_x before items: the pattern is still built over the
        // final key space, so setter order cannot corrupt the config.
        let cfg = SimConfig::builder()
            .nodes(50)
            .attack_x(11)
            .items(2000)
            .cache_capacity(10)
            .build()
            .unwrap();
        assert_eq!(cfg.pattern.support_bound(), 11);
        assert_eq!(cfg.pattern.key_space(), 2000);
    }

    #[test]
    fn builder_rejects_invalid_configs_at_build() {
        // Oversized cache.
        assert!(SimConfig::builder()
            .nodes(10)
            .items(100)
            .cache_capacity(101)
            .build()
            .is_err());
        // Replication above the node count.
        assert!(SimConfig::builder()
            .nodes(5)
            .replication(6)
            .items(100)
            .build()
            .is_err());
        // Mismatched explicit pattern.
        assert!(SimConfig::builder()
            .nodes(10)
            .items(100)
            .pattern(AccessPattern::uniform_subset(5, 999).unwrap())
            .build()
            .is_err());
    }

    #[test]
    fn to_builder_round_trips_and_derives() {
        let cfg = base_config();
        assert_eq!(cfg.to_builder().build().unwrap(), cfg);
        let derived = cfg.to_builder().seed(77).build().unwrap();
        assert_eq!(derived.seed, 77);
        assert_eq!(derived.pattern, cfg.pattern);
    }
}

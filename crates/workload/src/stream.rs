//! Seeded query streams.

use crate::error::WorkloadError;
use crate::pattern::{AccessPattern, PatternSampler};
use crate::permute::KeyMapping;
use crate::Result;

/// Ranks a stream remembers the key of: 64 KB of `u32` at most, and
/// 84 % of Zipf(0.99) draws at `m = 10^5`.
const HEAD_RANKS: u64 = 1 << 14;

/// An infinite, deterministic stream of key identifiers drawn from an
/// [`AccessPattern`].
///
/// The stream samples popularity *ranks* and pushes them through a
/// [`KeyMapping`], so callers observe realistic scattered key ids rather
/// than `0, 1, 2, ...`.
///
/// A stream uniform over its whole key space ([`AccessPattern::Uniform`],
/// or [`AccessPattern::UniformSubset`] with `x == m`) whose mapping is a
/// bijection on exactly that space (`mapping.domain() == Some(m)`) drops
/// the mapping when it is built and returns the sampled rank as the key:
/// a bijection maps a uniform rank to a uniform key, so the walk would buy
/// nothing in distribution. Such a stream's keys equal the mapped ranks in
/// distribution only, not draw for draw. A wider mapping, every other
/// pattern and [`QueryStream::new`] map each rank as described below.
///
/// Feistel mappings cycle-walk (several rounds per lookup), which
/// dominates the cost of drawing a key, so a Feistel stream keeps a
/// rank-indexed *head table*: one `u32` per rank below
/// `min(m, 2^14)`, holding `key + 1`, 0 while the rank is unmapped. A
/// head rank pays the walk once per stream and is a load after that; no
/// other rank ever touches the table, so the tail of a Zipf cannot evict
/// the head. The table grows on demand to the next power of two past the
/// highest rank drawn so far, so a short run allocates only what its
/// ranks need (128 entries for an `x = 65` attack), and nothing is
/// allocated before the first draw. Ranks at or above the cap, every
/// rank of an identity mapping and every rank of a domain of `u32::MAX`
/// keys or more (whose `key + 1` need not fit) go straight to `apply`,
/// where the permutation's own round table (see [`crate::permute`];
/// built once the instance has done a table's worth of work, 4 KB at
/// `m = 10^5`) turns each round into a load. The table is invisible in
/// the output: the mapping is a pure function, and a remembered key is
/// exactly what a computed `apply` returns.
///
/// # Example
///
/// ```
/// use scp_workload::{AccessPattern, stream::QueryStream};
///
/// let pattern = AccessPattern::zipf(1.01, 10_000).unwrap();
/// let keys: Vec<u64> = QueryStream::scattered(&pattern, 7)
///     .unwrap()
///     .take(3)
///     .collect();
/// assert_eq!(keys.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct QueryStream {
    sampler: PatternSampler,
    mapping: KeyMapping,
    /// `key + 1` of each head rank drawn so far, 0 for one not yet drawn.
    head: Vec<u32>,
    /// Ranks below this are head ranks; 0 when the stream keeps no table.
    head_ranks: u64,
}

impl QueryStream {
    /// A stream over `pattern`'s sampler and `mapping` with an empty head
    /// table, capped for the mapping's domain; a pattern uniform over
    /// exactly the mapping's domain drops the mapping (see
    /// [`QueryStream`]).
    fn from_parts(pattern: &AccessPattern, seed: u64, mapping: KeyMapping) -> Result<Self> {
        let full_uniform = match *pattern {
            AccessPattern::Uniform { m } => Some(m),
            AccessPattern::UniformSubset { x, m } if x == m => Some(m),
            _ => None,
        };
        let mapping = match full_uniform {
            Some(m) if mapping.domain() == Some(m) => KeyMapping::Identity,
            _ => mapping,
        };
        let head_ranks = match mapping.domain() {
            Some(m) if m < u64::from(u32::MAX) => m.min(HEAD_RANKS),
            _ => 0,
        };
        Ok(Self {
            sampler: pattern.sampler(seed)?,
            mapping,
            head: Vec::new(),
            head_ranks,
        })
    }

    /// Stream with rank == key id (contiguous keys).
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern cannot build a sampler.
    pub fn new(pattern: &AccessPattern, seed: u64) -> Result<Self> {
        Self::from_parts(pattern, seed, KeyMapping::Identity)
    }

    /// Stream whose ranks are scattered over the key space by a seeded
    /// Feistel permutation (derived from the same seed). A pattern
    /// uniform over its whole key space skips the permutation (see
    /// [`QueryStream`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern cannot build a sampler or the key
    /// space is empty.
    pub fn scattered(pattern: &AccessPattern, seed: u64) -> Result<Self> {
        let mapping = KeyMapping::scattered(pattern.key_space(), seed ^ 0xF00D_F00D)?;
        Self::from_parts(pattern, seed, mapping)
    }

    /// Stream with an explicit rank-to-key mapping.
    ///
    /// A pattern uniform over exactly the mapping's domain skips the
    /// mapping (see [`QueryStream`]): its keys are `mapping.apply` of the
    /// sampled ranks in distribution, not draw for draw.
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern cannot build a sampler, or if the
    /// mapping's domain is smaller than the pattern's key space (a sampled
    /// rank could fall outside it).
    pub fn with_mapping(pattern: &AccessPattern, seed: u64, mapping: KeyMapping) -> Result<Self> {
        if let Some(domain) = mapping.domain().filter(|&d| d < pattern.key_space()) {
            return Err(WorkloadError::InvalidParameter {
                name: "mapping",
                reason: format!(
                    "domain {domain} does not cover the pattern's {} keys",
                    pattern.key_space()
                ),
            });
        }
        Self::from_parts(pattern, seed, mapping)
    }

    /// Draws the next key id.
    pub fn next_key(&mut self) -> u64 {
        let rank = self.sampler.sample();
        if rank >= self.head_ranks {
            return self.mapping.apply(rank);
        }
        // A head rank is below 2^14, so it indexes any target.
        let slot = rank as usize;
        match self.head.get(slot) {
            Some(&code) if code != 0 => return u64::from(code) - 1,
            Some(_) => {}
            None => {
                let len = (rank + 1).next_power_of_two().min(self.head_ranks);
                self.head.resize(len as usize, 0);
            }
        }
        let key = self.mapping.apply(rank);
        if let (Some(entry), Ok(code)) = (self.head.get_mut(slot), u32::try_from(key + 1)) {
            *entry = code;
        }
        key
    }
}

impl Iterator for QueryStream {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        Some(self.next_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_keeps_ranks_as_keys() {
        let p = AccessPattern::uniform_subset(5, 1000).unwrap();
        let keys: Vec<u64> = QueryStream::new(&p, 1).unwrap().take(1000).collect();
        assert!(keys.iter().all(|&k| k < 5));
    }

    #[test]
    fn scattered_spreads_keys() {
        let p = AccessPattern::uniform_subset(5, 1_000_000).unwrap();
        let keys: Vec<u64> = QueryStream::scattered(&p, 1).unwrap().take(1000).collect();
        assert!(keys.iter().all(|&k| k < 1_000_000));
        // Only 5 distinct keys, but they should not all be tiny ids.
        assert!(keys.iter().any(|&k| k > 10_000));
        let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn head_table_matches_a_stream_without_one() {
        // The table must be invisible: every drawn key equals a direct
        // `mapping.apply(rank)` on a twin stream that keeps no table.
        let p = AccessPattern::zipf(1.01, 70_001).unwrap();
        let mut remembering = QueryStream::scattered(&p, 1234).unwrap();
        let mut twin = QueryStream::scattered(&p, 1234).unwrap();
        twin.head_ranks = 0;
        for i in 0..20_000 {
            assert_eq!(remembering.next_key(), twin.next_key(), "diverged at {i}");
        }
        assert!(twin.head.is_empty());
        assert_eq!(remembering.head.len() as u64, HEAD_RANKS);
    }

    #[test]
    fn head_table_grows_only_as_far_as_the_ranks_drawn() {
        // Nothing before the first draw; an x = 65 working set stops at
        // 128 entries; a domain below the cap bounds the table.
        let p = AccessPattern::uniform_subset(65, 100_000).unwrap();
        let mut s = QueryStream::scattered(&p, 9).unwrap();
        assert_eq!(s.head.capacity(), 0);
        for _ in 0..10_000 {
            s.next_key();
        }
        assert_eq!(s.head.len(), 128);
        let p = AccessPattern::uniform_subset(5_000, 5_001).unwrap();
        let mut s = QueryStream::scattered(&p, 9).unwrap();
        for _ in 0..100_000 {
            s.next_key();
        }
        assert_eq!(s.head.len(), 5_001);
        assert!(s.head[..5_000].iter().all(|&code| code != 0));
        assert_eq!(s.head[5_000], 0);
        // Identity streams, whole-domain uniform streams (they drop their
        // mapping) and domains past 32 bits keep no table.
        assert_eq!(QueryStream::new(&p, 9).unwrap().head_ranks, 0);
        let uniform = AccessPattern::uniform(5_000).unwrap();
        assert_eq!(QueryStream::scattered(&uniform, 9).unwrap().head_ranks, 0);
        let wide = KeyMapping::scattered(u64::from(u32::MAX), 9).unwrap();
        assert_eq!(
            QueryStream::with_mapping(&p, 9, wide).unwrap().head_ranks,
            0
        );
    }

    #[test]
    fn with_mapping_rejects_a_domain_smaller_than_the_key_space() {
        // Unchecked, `next_key` would panic on the first rank >= 10.
        let p = AccessPattern::uniform(1000).unwrap();
        let small = KeyMapping::scattered(10, 1).unwrap();
        let err = QueryStream::with_mapping(&p, 1, small).unwrap_err();
        assert!(
            matches!(
                err,
                WorkloadError::InvalidParameter {
                    name: "mapping",
                    ..
                }
            ),
            "{err:?}"
        );
        // Exactly covering, larger, and domain-free mappings are accepted
        // and every key stays inside the mapping's range.
        for m in [1000, 5000] {
            let mapping = KeyMapping::scattered(m, 1).unwrap();
            let mut s = QueryStream::with_mapping(&p, 1, mapping).unwrap();
            assert!((0..2000).all(|_| s.next_key() < m));
        }
        assert!(QueryStream::with_mapping(&p, 1, KeyMapping::Identity).is_ok());
    }

    #[test]
    fn streams_are_deterministic() {
        let p = AccessPattern::zipf(1.01, 10_000).unwrap();
        let a: Vec<u64> = QueryStream::scattered(&p, 42).unwrap().take(50).collect();
        let b: Vec<u64> = QueryStream::scattered(&p, 42).unwrap().take(50).collect();
        let c: Vec<u64> = QueryStream::scattered(&p, 43).unwrap().take(50).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}

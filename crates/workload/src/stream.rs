//! Seeded query streams.

use crate::error::WorkloadError;
use crate::pattern::{AccessPattern, PatternSampler};
use crate::permute::KeyMapping;
use crate::Result;

/// Slots in the rank→key memo (a power of two; direct-mapped).
const MEMO_SLOTS: u64 = 512;

/// An infinite, deterministic stream of key identifiers drawn from an
/// [`AccessPattern`].
///
/// The stream samples popularity *ranks* and pushes them through a
/// [`KeyMapping`], so callers observe realistic scattered key ids rather
/// than `0, 1, 2, ...`.
///
/// Feistel mappings cycle-walk (several rounds per lookup), which
/// dominates the cost of drawing a key, so a rank is translated through
/// two tiers. The stream keeps a small direct-mapped memo of recent
/// rank→key translations for the *head*: a working set of up to 512
/// ranks (an `x = c + 1` attack, the hot end of a Zipf) hits it almost
/// always, at a few nanoseconds. The *tail* misses it —
/// a uniform pattern over all `m` keys misses essentially every time —
/// and falls through to `apply`, where the permutation's own round table
/// (see [`crate::permute`]; built once the instance has done a table's
/// worth of work, 4 KB at `m = 10^5`) turns each round into a load.
/// Both tiers are invisible in the output — the mapping is a pure
/// function, a memo hit or a table read returns exactly what a computed
/// `apply` would.
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
    /// Direct-mapped `(rank + 1, key)` pairs; tag 0 means empty. `None`
    /// for identity mappings (nothing to amortize).
    memo: Option<Box<[(u64, u64)]>>,
}

/// A memo for `mapping`, or `None` when lookups are already free.
fn rank_memo(mapping: &KeyMapping) -> Option<Box<[(u64, u64)]>> {
    match mapping {
        KeyMapping::Identity => None,
        KeyMapping::Feistel(_) => Some(vec![(0, 0); MEMO_SLOTS as usize].into_boxed_slice()),
    }
}

impl QueryStream {
    /// Stream with rank == key id (contiguous keys).
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern cannot build a sampler.
    pub fn new(pattern: &AccessPattern, seed: u64) -> Result<Self> {
        Ok(Self {
            sampler: pattern.sampler(seed)?,
            mapping: KeyMapping::Identity,
            memo: None,
        })
    }

    /// Stream whose ranks are scattered over the key space by a seeded
    /// Feistel permutation (derived from the same seed).
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern cannot build a sampler or the key
    /// space is empty.
    pub fn scattered(pattern: &AccessPattern, seed: u64) -> Result<Self> {
        let mapping = KeyMapping::scattered(pattern.key_space(), seed ^ 0xF00D_F00D)?;
        Ok(Self {
            sampler: pattern.sampler(seed)?,
            memo: rank_memo(&mapping),
            mapping,
        })
    }

    /// Stream with an explicit rank-to-key mapping.
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
        Ok(Self {
            sampler: pattern.sampler(seed)?,
            memo: rank_memo(&mapping),
            mapping,
        })
    }

    /// Draws the next key id.
    pub fn next_key(&mut self) -> u64 {
        let rank = self.sampler.sample();
        let Some(memo) = &mut self.memo else {
            return self.mapping.apply(rank);
        };
        let tag = rank + 1;
        match memo.get_mut((rank & (MEMO_SLOTS - 1)) as usize) {
            Some(slot) if slot.0 == tag => slot.1,
            Some(slot) => {
                let key = self.mapping.apply(rank);
                *slot = (tag, key);
                key
            }
            None => self.mapping.apply(rank),
        }
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
    fn memoized_stream_matches_unmemoized_mapping() {
        // The memo must be invisible: every drawn key equals a direct
        // `mapping.apply(rank)` on a twin stream whose memo never hits
        // (reconstructed fresh per draw). Zipf over a non-power-of-two
        // domain exercises tag collisions in the direct-mapped table.
        let p = AccessPattern::zipf(1.01, 70_001).unwrap();
        let mut memoized = QueryStream::scattered(&p, 1234).unwrap();
        let mut twin = QueryStream::scattered(&p, 1234).unwrap();
        twin.memo = None;
        for i in 0..20_000 {
            assert_eq!(memoized.next_key(), twin.next_key(), "diverged at {i}");
        }
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

//! Seeded bijections from popularity ranks to key identifiers.
//!
//! Simulations reason about keys by popularity *rank* (rank 0 = most
//! queried), but the keys an adversary actually touches are an arbitrary
//! subset of the key space. A [`FeistelPermutation`] maps ranks to scattered
//! key ids without materializing an `m`-entry table. The mapping is a
//! 4-round Feistel network with cycle-walking to restrict the power-of-two
//! domain to exactly `[0, m)`.
//!
//! # Cost and memory
//!
//! A round function only ever sees one half of the value — `half_bits`
//! wide, 9 bits at `m = 10^5` — so all it can return is
//! `ROUNDS << half_bits` values, while one `apply` evaluates it
//! `ROUNDS` × (expected walk length, up to 4) times. An instance therefore
//! keeps a *round table* that pays for itself: it counts the passes it has
//! computed with `mix`, and once that work equals the work of filling the
//! table (`1 << half_bits` passes = `ROUNDS << half_bits` rounds) it fills
//! the whole table in one loop; from then on a pass is `ROUNDS` loads.
//! A short-lived instance (a one-query run, an oracle seeding 64 keys)
//! never reaches the break-even count and never allocates; a long-lived
//! one spends at most twice the compute-only cost before it arms. The
//! keys produced are identical either way — the table is filled by the
//! same round function it replaces.
//!
//! Memory is `2 * (ROUNDS << half_bits)` bytes once armed: 4 KB at
//! `m = 10^5`, 16 KB at `m = 10^6`, capped at 512 KB for `m = 2^32`.
//! Domains above `2^32` (`half_bits > 16`) never build a table and stay
//! O(1) memory.
//!
//! A single `apply` is one dependent chain: pass after pass of table
//! loads, ended by an unpredictable `v >= m` exit after 2.6 passes on
//! average at `m = 10^5` (up to ~27). Ranks are independent, so
//! [`FeistelPermutation::apply_batch`] walks a slice in chunks of
//! `BATCH_CHUNK` lanes: one pass over every lane, then passes over a
//! compacted index list of only the lanes still `>= m`. Each lane's
//! index is written unconditionally and the list length advances by the
//! comparison, so the compaction has no branch. Every rank walks exactly
//! its own length, and the chunk's table loads overlap: about a third of
//! `apply`'s time a rank at `m = 10^5` (`feistel_apply_batch` against
//! `feistel_apply` in `BENCH_samplers.json`). Walking the lanes in
//! lockstep is slower than `apply` (≈70 ns a rank measured), because
//! every lane waits for the chunk's longest walk, 6–7 passes against the
//! mean of 2.6.
//!
//! Until the table arms, `apply_batch` maps one rank at a time through
//! `apply`'s own walk, so the table arms before exactly the rank where a
//! run of `apply` calls would arm it. Above `2^32`, where no table is
//! built, the batch adds its passes to the same counter `apply` does.

use crate::error::WorkloadError;
use crate::rng::mix;
use crate::Result;
use std::cell::{Cell, OnceCell};
use std::fmt;

const ROUNDS: usize = 4;

/// Widest half for which round outputs fit the table's `u16` entries.
const TABLE_MAX_HALF_BITS: u32 = 16;

/// Lanes `apply_batch` walks together: enough independent walks to
/// hide the table's load latency, few enough that the lane list stays a
/// small stack array.
const BATCH_CHUNK: usize = 256;

/// A seeded bijection on `[0, m)`.
///
/// Equality compares the mapping (`m` and the round keys), not whether
/// the round table has been built yet; see the module docs for the
/// table's break-even rule and memory bound. The table lives behind
/// `Cell`s, so an instance is `Send` but not `Sync`: give each thread
/// its own clone.
///
/// # Example
///
/// ```
/// use scp_workload::permute::FeistelPermutation;
///
/// let perm = FeistelPermutation::new(1_000_000, 42).unwrap();
/// let key = perm.apply(0);
/// assert!(key < 1_000_000);
/// assert_eq!(perm.invert(key), 0);
/// ```
#[derive(Clone)]
pub struct FeistelPermutation {
    m: u64,
    half_bits: u32,
    half_mask: u64,
    round_keys: [u64; ROUNDS],
    /// Passes (`ROUNDS` rounds each) computed with `mix` so far.
    slow_passes: Cell<usize>,
    /// `table[r << half_bits | right] = round_fn(right, round_keys[r])`.
    table: OnceCell<Box<[u16]>>,
}

impl PartialEq for FeistelPermutation {
    fn eq(&self, other: &Self) -> bool {
        // half_bits and half_mask are functions of m.
        self.m == other.m && self.round_keys == other.round_keys
    }
}

impl Eq for FeistelPermutation {}

impl fmt::Debug for FeistelPermutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FeistelPermutation")
            .field("m", &self.m)
            .field("round_keys", &self.round_keys)
            .field("armed", &self.table.get().is_some())
            .finish()
    }
}

impl FeistelPermutation {
    /// Creates the permutation for a domain of `m` elements.
    ///
    /// # Errors
    ///
    /// Returns an error if `m == 0`.
    pub fn new(m: u64, seed: u64) -> Result<Self> {
        if m == 0 {
            return Err(WorkloadError::InvalidParameter {
                name: "m",
                reason: "domain must be non-empty".to_owned(),
            });
        }
        // Total bits must be even and cover m; each half gets half of them.
        let bits = 64 - (m - 1).max(1).leading_zeros();
        let half_bits = bits.div_ceil(2).max(1);
        let mut round_keys = [0u64; ROUNDS];
        for (r, key) in round_keys.iter_mut().enumerate() {
            *key = mix(&[seed, r as u64, m]);
        }
        Ok(Self {
            m,
            half_bits,
            half_mask: (1u64 << half_bits) - 1,
            round_keys,
            slow_passes: Cell::new(0),
            table: OnceCell::new(),
        })
    }

    /// Domain size.
    pub fn domain(&self) -> u64 {
        self.m
    }

    fn round_fn(&self, right: u64, round_key: u64) -> u64 {
        mix(&[right, round_key]) & self.half_mask
    }

    /// Round `r` of `right`: read from `table`, computed when the table
    /// is empty (not armed yet, or never for `m > 2^32`).
    #[inline]
    fn round(&self, table: &[u16], r: usize, round_key: u64, right: u64) -> u64 {
        match table.get((r << self.half_bits) | right as usize) {
            Some(&v) => u64::from(v),
            None => self.round_fn(right, round_key),
        }
    }

    /// The round table if it is built or has just become worth building,
    /// else an empty slice.
    fn round_table(&self) -> &[u16] {
        if let Some(table) = self.table.get() {
            return table;
        }
        if self.half_bits > TABLE_MAX_HALF_BITS || self.slow_passes.get() >> self.half_bits == 0 {
            return &[];
        }
        self.table.get_or_init(|| {
            let mut table = Vec::with_capacity(ROUNDS << self.half_bits);
            for &rk in &self.round_keys {
                // half_bits <= 16, so every masked output fits a u16.
                table.extend(
                    (0..=self.half_mask)
                        .map(|right| u16::try_from(self.round_fn(right, rk)).unwrap_or(u16::MAX)),
                );
            }
            table.into_boxed_slice()
        })
    }

    fn encrypt_once(&self, table: &[u16], value: u64) -> u64 {
        let mut left = (value >> self.half_bits) & self.half_mask;
        let mut right = value & self.half_mask;
        for (r, &rk) in self.round_keys.iter().enumerate() {
            let new_right = left ^ self.round(table, r, rk, right);
            left = right;
            right = new_right;
        }
        (left << self.half_bits) | right
    }

    fn decrypt_once(&self, table: &[u16], value: u64) -> u64 {
        let mut left = (value >> self.half_bits) & self.half_mask;
        let mut right = value & self.half_mask;
        for (r, &rk) in self.round_keys.iter().enumerate().rev() {
            let new_left = right ^ self.round(table, r, rk, left);
            right = left;
            left = new_left;
        }
        (left << self.half_bits) | right
    }

    /// Cycle-walk: the Feistel network permutes [0, 2^(2*half_bits));
    /// iterate `pass` until we land back inside [0, m). Terminates because
    /// the walk follows a cycle of a permutation that maps the super-domain
    /// onto itself and `start < m` is on that cycle.
    #[inline]
    fn walk(&self, start: u64, pass: impl Fn(&Self, &[u16], u64) -> u64) -> u64 {
        if self.m == 1 {
            return 0;
        }
        let table = self.round_table();
        let mut v = pass(self, table, start);
        let mut passes = 1usize;
        while v >= self.m {
            v = pass(self, table, v);
            passes += 1;
        }
        if table.is_empty() {
            self.slow_passes
                .set(self.slow_passes.get().saturating_add(passes));
        }
        v
    }

    /// Maps a rank in `[0, m)` to its key id in `[0, m)`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= m`.
    pub fn apply(&self, rank: u64) -> u64 {
        assert!(rank < self.m, "rank {rank} out of domain [0, {})", self.m);
        self.walk(rank, Self::encrypt_once)
    }

    /// Maps every rank of `ranks` to its key id in place: the same keys
    /// as [`apply`](Self::apply) on each rank in order, with the walks
    /// of independent ranks overlapped (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if any rank is `>= m`, before mapping any.
    pub fn apply_batch(&self, ranks: &mut [u64]) {
        for &rank in ranks.iter() {
            assert!(rank < self.m, "rank {rank} out of domain [0, {})", self.m);
        }
        if self.m == 1 {
            return;
        }
        // One rank at a time until the table arms, so it arms before
        // the same rank as under `apply`.
        let mut rest = ranks;
        while self.half_bits <= TABLE_MAX_HALF_BITS && self.table.get().is_none() {
            let Some((rank, tail)) = rest.split_first_mut() else {
                return;
            };
            *rank = self.walk(*rank, Self::encrypt_once);
            rest = tail;
        }
        let table = self.round_table();
        if table.is_empty() {
            // m > 2^32: every round is computed.
            let passes = walk_chunks(rest, self.m, |v| self.encrypt_once(table, v));
            self.slow_passes
                .set(self.slow_passes.get().saturating_add(passes));
        } else {
            let (half_bits, half_mask) = (self.half_bits, self.half_mask);
            walk_chunks(rest, self.m, |v| {
                encrypt_armed(table, half_bits, half_mask, v)
            });
        }
    }

    /// Inverse mapping: key id back to rank.
    ///
    /// # Panics
    ///
    /// Panics if `key >= m`.
    pub fn invert(&self, key: u64) -> u64 {
        assert!(key < self.m, "key {key} out of domain [0, {})", self.m);
        self.walk(key, Self::decrypt_once)
    }

    /// Whether the round table has been built.
    #[cfg(test)]
    fn is_armed(&self) -> bool {
        self.table.get().is_some()
    }
}

/// `encrypt_once` on an armed table, with every round one load. Small
/// enough to inline into the lane loops, and it takes the network's
/// shape by value so nothing is re-read from the permutation. The table
/// holds all `ROUNDS << half_bits` slots, so the `0` is never read.
#[inline]
fn encrypt_armed(table: &[u16], half_bits: u32, half_mask: u64, value: u64) -> u64 {
    let mut left = (value >> half_bits) & half_mask;
    let mut right = value & half_mask;
    for r in 0..ROUNDS {
        let f = table
            .get((r << half_bits) | right as usize)
            .map_or(0, |&f| u64::from(f));
        let new_right = left ^ f;
        left = right;
        right = new_right;
    }
    (left << half_bits) | right
}

/// Cycle-walks `values` in place, `BATCH_CHUNK` lanes at a time, until
/// every lane is below `m`, and returns the passes taken (the lane
/// compaction is described in the module docs).
fn walk_chunks(values: &mut [u64], m: u64, pass: impl Fn(u64) -> u64) -> usize {
    let mut passes = 0usize;
    let mut pending = [0usize; BATCH_CHUNK];
    for chunk in values.chunks_mut(BATCH_CHUNK) {
        let mut live = 0;
        for (lane, v) in chunk.iter_mut().enumerate() {
            *v = pass(*v);
            if let Some(slot) = pending.get_mut(live) {
                *slot = lane;
            }
            live += usize::from(*v >= m);
        }
        passes = passes.saturating_add(chunk.len());
        while live > 0 {
            passes = passes.saturating_add(live);
            let mut still = 0;
            for next in 0..live {
                let Some(&lane) = pending.get(next) else {
                    break;
                };
                let Some(v) = chunk.get_mut(lane) else {
                    break;
                };
                *v = pass(*v);
                if let Some(slot) = pending.get_mut(still) {
                    *slot = lane;
                }
                still += usize::from(*v >= m);
            }
            live = still;
        }
    }
    passes
}

/// The identity mapping, for experiments where rank == key id
/// (e.g. attacking a range partitioner with contiguous keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IdentityPermutation;

impl IdentityPermutation {
    /// Returns the input unchanged.
    pub fn apply(&self, rank: u64) -> u64 {
        rank
    }
}

/// Either a Feistel scatter or the identity; lets callers pick at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyMapping {
    /// Rank == key id.
    Identity,
    /// Ranks scattered across the key space.
    Feistel(FeistelPermutation),
}

impl KeyMapping {
    /// Builds a scattered mapping over `m` keys.
    ///
    /// # Errors
    ///
    /// Returns an error if `m == 0`.
    pub fn scattered(m: u64, seed: u64) -> Result<Self> {
        Ok(KeyMapping::Feistel(FeistelPermutation::new(m, seed)?))
    }

    /// Number of ranks the mapping accepts, `None` when it accepts any
    /// (`apply` panics on a rank at or above a `Some` domain).
    pub fn domain(&self) -> Option<u64> {
        match self {
            KeyMapping::Identity => None,
            KeyMapping::Feistel(p) => Some(p.domain()),
        }
    }

    /// Maps a rank to a key id.
    pub fn apply(&self, rank: u64) -> u64 {
        match self {
            KeyMapping::Identity => rank,
            KeyMapping::Feistel(p) => p.apply(rank),
        }
    }

    /// Maps every rank of `ranks` to its key id in place, equal to
    /// [`apply`](Self::apply) on each (the identity leaves them as they
    /// are).
    ///
    /// # Panics
    ///
    /// Panics if a Feistel mapping is given a rank at or above its
    /// domain.
    pub fn apply_batch(&self, ranks: &mut [u64]) {
        if let KeyMapping::Feistel(p) = self {
            p.apply_batch(ranks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{next_below, next_f64, Rng, Xoshiro256StarStar};
    use std::collections::HashSet;

    #[test]
    fn rejects_empty_domain() {
        assert!(FeistelPermutation::new(0, 1).is_err());
    }

    #[test]
    fn domain_one_is_identity() {
        let p = FeistelPermutation::new(1, 7).unwrap();
        assert_eq!(p.apply(0), 0);
        assert_eq!(p.invert(0), 0);
    }

    #[test]
    fn is_bijective_on_small_domains() {
        for m in [2u64, 3, 5, 16, 17, 100, 1000] {
            let p = FeistelPermutation::new(m, 99).unwrap();
            let image: HashSet<u64> = (0..m).map(|r| p.apply(r)).collect();
            assert_eq!(image.len() as u64, m, "not bijective for m={m}");
            assert!(image.iter().all(|&k| k < m));
        }
    }

    #[test]
    fn invert_is_inverse_of_apply() {
        let p = FeistelPermutation::new(12345, 5).unwrap();
        for rank in (0..12345).step_by(7) {
            assert_eq!(p.invert(p.apply(rank)), rank);
        }
    }

    #[test]
    fn different_seeds_give_different_mappings() {
        let a = FeistelPermutation::new(1000, 1).unwrap();
        let b = FeistelPermutation::new(1000, 2).unwrap();
        let same = (0..1000).filter(|&r| a.apply(r) == b.apply(r)).count();
        assert!(same < 50, "{same} fixed agreements is suspiciously many");
    }

    #[test]
    fn scatters_contiguous_ranks() {
        // The first 100 ranks of a large domain should not land in a tight
        // band of key ids; check the spread covers a good chunk of the range.
        let p = FeistelPermutation::new(1_000_000, 3).unwrap();
        let keys: Vec<u64> = (0..100).map(|r| p.apply(r)).collect();
        let min = *keys.iter().min().unwrap();
        let max = *keys.iter().max().unwrap();
        assert!(max - min > 500_000, "keys clustered in [{min}, {max}]");
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn apply_rejects_out_of_domain() {
        let p = FeistelPermutation::new(10, 1).unwrap();
        let _ = p.apply(10);
    }

    #[test]
    fn key_mapping_identity() {
        assert_eq!(KeyMapping::Identity.apply(42), 42);
        assert_eq!(KeyMapping::Identity.domain(), None);
    }

    #[test]
    fn key_mapping_scattered_is_in_domain() {
        let map = KeyMapping::scattered(500, 9).unwrap();
        assert_eq!(map.domain(), Some(500));
        for r in 0..500 {
            assert!(map.apply(r) < 500);
        }
    }

    /// The key space every engine and figure is built on. A kernel change
    /// that re-scatters keys must fail here, not as seven digest changes in
    /// the end-to-end benchmark.
    #[test]
    fn golden_key_vectors() {
        // (m, seed, first 8 keys, 4 (rank, key) pairs with the longest
        // cycle walks: 27/23/23/23 passes at m = 10^5, 5 each at 10^6).
        // `mix(&[1, 3])` is the mapping seed of `SimConfig.seed = 1`.
        type Case = (u64, u64, [u64; 8], [(u64, u64); 4]);
        let cases: [Case; 2] = [
            (
                100_000,
                mix(&[1, 3]),
                [38759, 4649, 34752, 14289, 83995, 9693, 20873, 97291],
                [(71713, 12249), (3610, 4948), (21978, 77330), (22773, 52745)],
            ),
            (
                1_000_000,
                42,
                [
                    601011, 231412, 587651, 754324, 611836, 109249, 295178, 61509,
                ],
                [
                    (161, 601305),
                    (94077, 978017),
                    (146227, 289171),
                    (208694, 600533),
                ],
            ),
        ];
        for (m, seed, first, heavy) in cases {
            let p = FeistelPermutation::new(m, seed).unwrap();
            let msg = "the rank->key scatter changed: every figure and result_digest moves with it";
            // Twice: computed (fresh instance), then again once armed.
            for pass in 0..2 {
                let got: Vec<u64> = (0..8).map(|r| p.apply(r)).collect();
                assert_eq!(got, first, "m={m} pass={pass}: {msg}");
                for (rank, key) in heavy {
                    assert_eq!(p.apply(rank), key, "m={m} rank={rank} pass={pass}: {msg}");
                    assert_eq!(p.invert(key), rank, "m={m} key={key} pass={pass}: {msg}");
                }
                (0..2048).for_each(|r| {
                    p.apply(r);
                });
                assert!(p.is_armed());
            }
        }
    }

    // The round table: arming point, equivalence across it, memory bound.

    /// Domains around every `half_bits` step the table cares about:
    /// the smallest networks, exact powers of four (no cycle-walking)
    /// and one past them (the longest walks).
    const ARMING_DOMAINS: [u64; 10] = [
        2,
        3,
        5,
        16,
        17,
        1000,
        65_536,
        65_537,
        100_000,
        (1 << 20) + 1,
    ];

    #[test]
    fn arms_exactly_at_the_break_even_count() {
        // m = 4^8: half_bits = 8 and every apply is exactly one pass, so
        // the 256th apply completes a table's worth of work and the 257th
        // call builds the table.
        let p = FeistelPermutation::new(65_536, 3).unwrap();
        for r in 0..256 {
            p.apply(r);
        }
        assert!(!p.is_armed());
        p.apply(256);
        assert!(p.is_armed());
        assert_eq!(p.table.get().map(|t| t.len()), Some(ROUNDS << 8));
    }

    #[test]
    fn a_one_query_run_never_builds_the_table() {
        // Engine set-up seeds an oracle cache with the 64 hottest keys;
        // that must stay below break-even (4 KB fill ≈ 6 µs would be half
        // of a serve engine's whole set-up).
        for seed in 0..32 {
            let p = FeistelPermutation::new(100_000, mix(&[seed, 3])).unwrap();
            for r in 0..64 {
                p.apply(r);
            }
            assert!(!p.is_armed(), "seed {seed}");
        }
    }

    #[test]
    fn armed_instance_equals_never_armed_instances() {
        for m in ARMING_DOMAINS {
            for seed in [1u64, 99, 0xDEAD_BEEF] {
                let live = FeistelPermutation::new(m, seed).unwrap();
                let cloned_before = live.clone();
                let mut args = Xoshiro256StarStar::seed_from_u64(mix(&[m, seed]));
                let calls = 3 * (1usize << live.half_bits) + 8;
                let mut armed_at = None;
                for i in 0..calls {
                    let arg = next_below(&mut args, m);
                    // A fresh instance answers one call and is dropped:
                    // it has done no work yet, so it computes every round.
                    let fresh = || FeistelPermutation::new(m, seed).unwrap();
                    let ctx = format!("m={m} seed={seed} call {i}");
                    let key = live.apply(arg);
                    assert_eq!(key, fresh().apply(arg), "{ctx}");
                    assert_eq!(live.invert(arg), fresh().invert(arg), "{ctx}");
                    // Mixed directions across the two sources.
                    assert_eq!(live.invert(fresh().apply(arg)), arg, "{ctx}");
                    assert_eq!(fresh().invert(key), arg, "{ctx}");
                    if armed_at.is_none() && live.is_armed() {
                        armed_at = Some(i);
                    }
                }
                let armed_at = armed_at.unwrap_or_else(|| panic!("m={m} never armed"));
                // Calls landed on both sides of the arming point (the very
                // first one is always computed).
                assert!(armed_at < calls - 8, "m={m} armed at {armed_at}");

                // Clones from either side of the arming point agree with
                // the original, as values and as mappings.
                let cloned_after = live.clone();
                assert!(!cloned_before.is_armed() && cloned_after.is_armed());
                assert_eq!(cloned_before, live);
                assert_eq!(cloned_after, live);
                for _ in 0..64 {
                    let arg = next_below(&mut args, m);
                    assert_eq!(cloned_before.apply(arg), live.apply(arg));
                    assert_eq!(cloned_after.apply(arg), live.apply(arg));
                    assert_eq!(cloned_before.invert(arg), live.invert(arg));
                    assert_eq!(cloned_after.invert(arg), live.invert(arg));
                }
            }
        }
    }

    #[test]
    fn armed_instance_is_still_a_bijection() {
        for m in ARMING_DOMAINS {
            let p = FeistelPermutation::new(m, 7).unwrap();
            for r in (0..m).cycle().take(2 << p.half_bits) {
                p.apply(r);
            }
            assert!(p.is_armed(), "m={m}");
            let mut seen = vec![false; m as usize];
            for r in 0..m {
                let k = p.apply(r);
                let slot = seen.get_mut(k as usize).expect("image inside the domain");
                assert!(!std::mem::replace(slot, true), "m={m}: duplicate image {k}");
                if r % 97 == 0 {
                    assert_eq!(p.invert(k), r, "m={m}");
                }
            }
        }
    }

    #[test]
    fn largest_tabled_domain_fits_its_entries() {
        // m = 2^32: half_bits = 16, round outputs use every bit of a u16
        // entry; 512 KB is the cap. Skip the 65 536 slow applies.
        let m = 1u64 << 32;
        let p = FeistelPermutation::new(m, 11).unwrap();
        p.slow_passes.set(1 << 16);
        let fresh = FeistelPermutation::new(m, 11).unwrap();
        for r in [0, 1, 65_535, 65_536, m / 3, m - 1] {
            assert_eq!(p.apply(r), fresh.apply(r));
            assert_eq!(p.invert(r), fresh.invert(r));
        }
        assert!(p.is_armed() && !fresh.is_armed());
        assert_eq!(p.table.get().map(|t| t.len() * 2), Some(512 * 1024));
    }

    #[test]
    fn domains_above_two_to_the_32_never_allocate() {
        let m = (1u64 << 32) + 1;
        let p = FeistelPermutation::new(m, 11).unwrap();
        assert_eq!(p.half_bits, 17);
        // However much work it has done (saturating, not wrapping).
        p.slow_passes.set(usize::MAX - 1);
        let fresh = FeistelPermutation::new(m, 11).unwrap();
        for r in [0, 1, m / 2, m - 1] {
            let k = p.apply(r);
            assert_eq!(k, fresh.apply(r));
            assert_eq!(p.invert(k), r);
        }
        assert!(!p.is_armed());
        assert_eq!(p.slow_passes.get(), usize::MAX);
    }

    #[test]
    fn equality_and_debug_ignore_the_table() {
        let armed = FeistelPermutation::new(100_000, 5).unwrap();
        for r in 0..2048 {
            armed.apply(r);
        }
        assert!(armed.is_armed());
        let fresh = FeistelPermutation::new(100_000, 5).unwrap();
        assert_eq!(armed, fresh);
        assert_ne!(armed, FeistelPermutation::new(100_000, 6).unwrap());
        assert_ne!(armed, FeistelPermutation::new(100_001, 5).unwrap());
        assert_eq!(
            KeyMapping::Feistel(armed.clone()),
            KeyMapping::Feistel(fresh.clone())
        );

        // `{:?}` names the mapping and the cache state, not 2048 entries.
        let (a, f) = (format!("{armed:?}"), format!("{fresh:?}"));
        assert!(a.contains("m: 100000") && a.contains("armed: true"), "{a}");
        assert!(f.contains("armed: false"), "{f}");
        assert!(a.len() < 200, "{} bytes: {a}", a.len());
    }

    // The batch walk: same keys, same pass count, same arming point.

    /// Warms `p` with `applies` scalar applies of seeded ranks.
    fn warm(p: &FeistelPermutation, applies: u64, seed: u64) {
        let mut gen = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..applies {
            p.apply(next_below(&mut gen, p.domain()));
        }
    }

    #[test]
    fn prop_apply_batch_equals_apply() {
        const LENS: [usize; 6] = [
            0,
            1,
            BATCH_CHUNK - 1,
            BATCH_CHUNK,
            BATCH_CHUNK + 1,
            3 * BATCH_CHUNK + 7,
        ];
        let mut gen = Xoshiro256StarStar::seed_from_u64(0xBA7C);
        // Cases that start unarmed, start armed, and arm inside the batch.
        let (mut states, mut arming) = ([0usize; 2], 0);
        for case in 0..500u64 {
            let k = 1 + next_below(&mut gen, 20);
            let m = match case % 8 {
                0 => 1 + case / 8 % 3,
                1 => 1 << k,
                2 => (1 << k) - 1,
                3 => (1 << k) + 1,
                4 => 100_000,
                5 => (1u64 << 32) + 1 + next_below(&mut gen, 1 << 20),
                _ => 1 + next_below(&mut gen, 1 << 20),
            };
            let seed = gen.next_u64();
            let len = LENS[(case as usize / 8) % LENS.len()];
            let scalar = FeistelPermutation::new(m, seed).unwrap();
            let batched = FeistelPermutation::new(m, seed).unwrap();
            // Anywhere from a fresh instance to well past arming, on
            // both instances alike.
            let warm_up = next_below(&mut gen, 3 << scalar.half_bits.min(11));
            warm(&scalar, warm_up, seed);
            warm(&batched, warm_up, seed);
            let was_armed = scalar.is_armed();
            states[usize::from(was_armed)] += 1;

            let mut ranks: Vec<u64> = (0..len).map(|_| next_below(&mut gen, m)).collect();
            // The domain's ends, and duplicates of earlier lanes.
            if let Some(first) = ranks.first_mut() {
                *first = 0;
            }
            if let Some(last) = ranks.last_mut() {
                *last = m - 1;
            }
            for lane in (2..len).step_by(5) {
                ranks[lane] = ranks[lane / 2];
            }
            let want: Vec<u64> = ranks.iter().map(|&r| scalar.apply(r)).collect();
            batched.apply_batch(&mut ranks);
            let ctx = format!("case {case}: m={m} seed={seed} len={len} warm={warm_up}");
            assert_eq!(ranks, want, "{ctx}");
            assert_eq!(batched.slow_passes.get(), scalar.slow_passes.get(), "{ctx}");
            assert_eq!(batched.is_armed(), scalar.is_armed(), "{ctx}");
            arming += usize::from(!was_armed && batched.is_armed());
        }
        assert!(
            states.iter().all(|&n| n > 50),
            "unarmed/armed cases: {states:?}"
        );
        assert!(arming > 10, "{arming} cases armed inside the batch");
    }

    #[test]
    fn apply_batch_arms_after_the_same_work_as_apply() {
        for batch in [1usize, 7, BATCH_CHUNK, 1000] {
            for seed in [1u64, mix(&[1, 3])] {
                let scalar = FeistelPermutation::new(100_000, seed).unwrap();
                let batched = FeistelPermutation::new(100_000, seed).unwrap();
                let mut gen = Xoshiro256StarStar::seed_from_u64(seed);
                let mut ranks = vec![0u64; batch];
                for round in 0..2000 / batch + 1 {
                    ranks.fill_with(|| next_below(&mut gen, 100_000));
                    for &r in &ranks {
                        scalar.apply(r);
                    }
                    batched.apply_batch(&mut ranks);
                    let ctx = format!("batch {batch} seed {seed} round {round}");
                    assert_eq!(batched.slow_passes.get(), scalar.slow_passes.get(), "{ctx}");
                    assert_eq!(batched.is_armed(), scalar.is_armed(), "{ctx}");
                }
                // Both armed, after the same counted work, which is at
                // least the break-even count.
                assert!(batched.is_armed(), "batch {batch}");
                assert!(batched.slow_passes.get() >= 1 << batched.half_bits);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn apply_batch_rejects_out_of_domain() {
        let p = FeistelPermutation::new(10, 1).unwrap();
        p.apply_batch(&mut [3, 9, 10]);
    }

    #[test]
    fn key_mapping_apply_batch_forwards() {
        let mut ranks = [5u64, 0, 499, 5];
        KeyMapping::Identity.apply_batch(&mut ranks);
        assert_eq!(ranks, [5, 0, 499, 5]);
        let map = KeyMapping::scattered(500, 9).unwrap();
        let want = ranks.map(|r| map.apply(r));
        map.apply_batch(&mut ranks);
        assert_eq!(ranks, want);
    }

    // Seeded randomized sweeps (stand-ins for property tests; the case
    // generator is deterministic so failures reproduce exactly).

    #[test]
    fn prop_bijective() {
        let mut gen = Xoshiro256StarStar::seed_from_u64(0xB17E);
        for _ in 0..48 {
            let m = 1 + next_below(&mut gen, 1999);
            let seed = gen.next_u64();
            let p = FeistelPermutation::new(m, seed).unwrap();
            let mut seen = HashSet::new();
            for r in 0..m {
                let k = p.apply(r);
                assert!(k < m, "m={m} seed={seed}: image {k} out of domain");
                assert!(seen.insert(k), "m={m} seed={seed}: duplicate image {k}");
                assert_eq!(p.invert(k), r, "m={m} seed={seed}");
            }
        }
    }

    #[test]
    fn prop_roundtrip_large() {
        let mut gen = Xoshiro256StarStar::seed_from_u64(0x1A26E);
        for _ in 0..64 {
            let m = 2000 + next_below(&mut gen, 5_000_000 - 2000);
            let seed = gen.next_u64();
            let rank = ((m - 1) as f64 * next_f64(&mut gen)) as u64;
            let p = FeistelPermutation::new(m, seed).unwrap();
            let k = p.apply(rank);
            assert!(k < m, "m={m} seed={seed} rank={rank}");
            assert_eq!(p.invert(k), rank, "m={m} seed={seed} rank={rank}");
        }
    }
}

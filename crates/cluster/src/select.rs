//! Replica selection: which member of a replica group serves a query.
//!
//! The paper's balls-into-bins analysis corresponds to
//! [`LeastLoadedSelector`] — every key is *pinned* to the least-loaded
//! member of its group when first seen (d-choice allocation). The other
//! selectors implement the "random selection or round-robin" rules the
//! paper mentions, which spread each key's rate evenly across its group.
//!
//! # Per-key state
//!
//! A selector built for a run of `items` keys
//! ([`LeastLoadedSelector::for_items`], [`RoundRobinSelector::for_items`])
//! indexes the keys below its *domain*, `min(items, DENSE_KEY_CAP)`,
//! directly: the keys every engine draws are Feistel images of ranks, so
//! they are dense in `0..items`. The dense range is a page table of one
//! `u32` per key, 0 meaning "none": a round-robin counter is stored as
//! itself (an absent counter reads 0), a pin as `tag << 24 | node + 1`,
//! the epoch tag in the top byte over a 24-bit node code. A
//! directory of `ceil(domain / 1024)` page pointers (784 B at m = 10⁵)
//! points at 1024-slot pages. The directory is allocated at the first
//! write and each page at the first write into it, zeroed, so building
//! a selector allocates nothing; `reset` zeroes the written pages in
//! place and keeps them. That is 4 B per key at page
//! granularity, 400 KB at m = 10⁵ once every page is written, and a
//! lookup hashes nothing.
//!
//! Keys at or above the domain — and every key of a selector built with
//! `new()` — stay in a map keyed by a [`FastBuildHasher`]: those keys
//! are whatever clients query, so runs seed the hasher (see
//! [`scp_workload::fasthash`]). The cap, [`DENSE_KEY_CAP`] = 2^24 keys,
//! bounds the directory at 128 KB (and the pages at 64 MB) whatever
//! `items` a caller passes; in a run over more keys, the keys from 2^24
//! up are hashed. A pin to a node from `2^24 − 1` up, which has no
//! 24-bit `node + 1` code, also goes to the map (with its tag); the map
//! is probed for a key in the dense range only while such a pin exists.
//!
//! # Pin epochs
//!
//! A pin is only as good as the partition it was checked against. Each
//! [`LeastLoadedSelector`] counts partition epochs in an 8-bit tag that
//! [`ReplicaSelector::advance_epoch`] moves on, and every pin carries
//! the tag of the epoch in which [`ReplicaSelector::select`] last found
//! it in its key's live group. [`ReplicaSelector::pinned`] reports only
//! pins with the current tag; `select` still honours an older pin that
//! lies in the group it is passed, and re-tags it. When the tag wraps,
//! one pass over the written pages and the map tags every pin 0, a tag
//! only the very first epoch carries, so a pin of an older epoch never
//! looks current again.
//!
//! Neither table is read in iteration order, and both hold the same
//! state, so the domain and the seed change where the state lives,
//! never a decision (the root suite `tests/select_equivalence.rs`
//! checks this against map-only twins).

use crate::ids::{KeyId, NodeId};
use scp_workload::fasthash::FastBuildHasher;
use scp_workload::rng::{next_below, Xoshiro256StarStar};
use std::collections::HashMap;
use std::fmt;

/// How a steady per-key query rate should be attributed to nodes by the
/// rate-propagation engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateAssignment {
    /// The whole rate goes to one node (sticky assignment).
    Pinned(NodeId),
    /// The rate is split evenly across the (live) group, the expectation
    /// of memoryless per-query policies.
    EvenSplit,
}

/// Chooses the serving node for queries within a replica group.
///
/// `group` is always non-empty and contains only live nodes; `loads` is the
/// cluster-wide load vector indexed by [`NodeId::index`].
pub trait ReplicaSelector: Send + fmt::Debug {
    /// Selects the node serving one query for `key`.
    fn select(&mut self, key: KeyId, group: &[NodeId], loads: &[f64]) -> NodeId;

    /// How a steady rate for `key` is attributed (rate-propagation mode).
    fn rate_assignment(&mut self, key: KeyId, group: &[NodeId], loads: &[f64]) -> RateAssignment;

    /// Clears any per-key state (pins, counters, RNG position is kept).
    fn reset(&mut self);

    /// Starts a new partition epoch: the groups passed from here on may
    /// differ from those the held pins were chosen in, so
    /// [`ReplicaSelector::pinned`] stops reporting every pin until a
    /// query in the new epoch finds it in its key's live group. Selectors
    /// that pin nothing keep the default, which does nothing.
    fn advance_epoch(&mut self) {}

    /// The node `key` is pinned to, if this selector pins keys and holds
    /// a pin for it that was chosen or re-checked in the current epoch.
    /// A pin is where [`ReplicaSelector::select`] sends the key for as
    /// long as that node stays in the live group it is passed. Selectors
    /// that pin nothing keep the default, `None`.
    fn pinned(&self, _key: KeyId) -> Option<NodeId> {
        None
    }

    /// A short name for reports.
    fn name(&self) -> &'static str;
}

fn argmin_load(group: &[NodeId], loads: &[f64]) -> NodeId {
    debug_assert!(!group.is_empty(), "selector invoked with empty group");
    // A node missing from `loads` scores infinity so it is never chosen
    // over a tracked node; callers pass cluster-wide load vectors that
    // cover every NodeId, so the fallback never fires in practice.
    let load_of = |n: NodeId| loads.get(n.index()).copied().unwrap_or(f64::INFINITY);
    let mut iter = group.iter().copied();
    let Some(mut best) = iter.next() else {
        return NodeId::new(0);
    };
    let mut best_load = load_of(best);
    for n in iter {
        let l = load_of(n);
        if l < best_load {
            best = n;
            best_load = l;
        }
    }
    best
}

/// Uniform random member per query.
#[derive(Debug, Clone)]
pub struct RandomSelector {
    rng: Xoshiro256StarStar,
}

impl RandomSelector {
    /// Creates the selector with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Xoshiro256StarStar::seed_from_u64(seed ^ 0x5E1E_C70F),
        }
    }
}

impl ReplicaSelector for RandomSelector {
    fn select(&mut self, _key: KeyId, group: &[NodeId], _loads: &[f64]) -> NodeId {
        // `next_below(len)` is always `< len`, so the fallback only
        // covers the contract-violating empty group.
        let idx = next_below(&mut self.rng, group.len() as u64) as usize;
        group.get(idx).copied().unwrap_or(NodeId::new(0))
    }

    fn rate_assignment(
        &mut self,
        _key: KeyId,
        _group: &[NodeId],
        _loads: &[f64],
    ) -> RateAssignment {
        RateAssignment::EvenSplit
    }

    fn reset(&mut self) {}

    fn name(&self) -> &'static str {
        "random"
    }
}

/// log2 of the slots per page of a [`PageTable`].
const PAGE_BITS: u32 = 10;
/// Slots per page: 1024 `u32`, 4 KB.
const PAGE_SLOTS: usize = 1 << PAGE_BITS;
/// Masks a key to its slot within its page.
const SLOT_MASK: usize = PAGE_SLOTS - 1;

/// The largest key domain a sticky selector indexes directly: 2^24 keys,
/// a directory of 16 384 page pointers (128 KB). Keys at or above it
/// stay in the keyed map.
pub const DENSE_KEY_CAP: u64 = 1 << 24;

/// One `u32` per key below `domain`, 0 meaning "none" (module docs).
#[derive(Clone, Default)]
struct PageTable {
    domain: u64,
    pages: Vec<Option<Box<[u32; PAGE_SLOTS]>>>,
}

impl PageTable {
    fn new(items: u64) -> Self {
        Self {
            domain: items.min(DENSE_KEY_CAP),
            pages: Vec::new(),
        }
    }

    /// Whether `key` lives in the table rather than the selector's map.
    #[inline]
    fn covers(&self, key: KeyId) -> bool {
        key.value() < self.domain
    }

    /// The slot of a covered key: 0 while its page is unwritten.
    #[inline]
    fn get(&self, key: KeyId) -> u32 {
        let k = key.value();
        self.pages
            .get((k >> PAGE_BITS) as usize)
            .and_then(Option::as_deref)
            .and_then(|page| page.get(k as usize & SLOT_MASK))
            .copied()
            .unwrap_or(0)
    }

    /// The slot of a covered key, its page allocated zeroed on first
    /// write. `None` only for a key the directory does not reach, which
    /// its sizing rules out for covered keys.
    #[inline]
    fn slot_mut(&mut self, key: KeyId) -> Option<&mut u32> {
        if self.pages.is_empty() {
            // The directory too waits for the first write, so building a
            // selector allocates nothing (engines build one per set-up).
            let len = self.domain.div_ceil(PAGE_SLOTS as u64) as usize;
            self.pages.resize_with(len, || None);
        }
        let k = key.value();
        self.pages
            .get_mut((k >> PAGE_BITS) as usize)?
            .get_or_insert_with(|| Box::new([0; PAGE_SLOTS]))
            .get_mut(k as usize & SLOT_MASK)
    }

    /// Zeroes the pages written so far, keeping their allocations.
    fn reset(&mut self) {
        for page in self.pages.iter_mut().flatten() {
            page.fill(0);
        }
    }

    /// Clears the bits outside `keep` in every slot written so far.
    fn mask(&mut self, keep: u32) {
        for slot in self
            .pages
            .iter_mut()
            .flatten()
            .flat_map(|page| page.iter_mut())
        {
            *slot &= keep;
        }
    }
}

impl fmt::Debug for PageTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageTable")
            .field("domain", &self.domain)
            .field("pages_written", &self.pages.iter().flatten().count())
            .finish()
    }
}

/// Per-key round-robin over the group.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinSelector {
    /// Counters of the keys below the domain; an absent one reads 0.
    dense: PageTable,
    counters: HashMap<KeyId, u32, FastBuildHasher>,
}

impl RoundRobinSelector {
    /// Creates the selector; every counter lives in the map, keyed with
    /// seed 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The selector for a run over keys `0..items`: counters of keys below
    /// `min(items, DENSE_KEY_CAP)` sit in the page table, the rest in a
    /// map keyed by `hasher` (module docs).
    pub fn for_items(items: u64, hasher: FastBuildHasher) -> Self {
        Self {
            dense: PageTable::new(items),
            counters: HashMap::with_hasher(hasher),
        }
    }
}

impl ReplicaSelector for RoundRobinSelector {
    fn select(&mut self, key: KeyId, group: &[NodeId], _loads: &[f64]) -> NodeId {
        let counter = if self.dense.covers(key) {
            self.dense.slot_mut(key)
        } else {
            Some(self.counters.entry(key).or_insert(0))
        };
        // `max(1)` keeps the modulus total; the fallbacks only cover the
        // contract-violating empty group and the unreachable slot.
        let Some(counter) = counter else {
            return group.first().copied().unwrap_or(NodeId::new(0));
        };
        let idx = (*counter as usize) % group.len().max(1);
        *counter = counter.wrapping_add(1);
        group.get(idx).copied().unwrap_or(NodeId::new(0))
    }

    fn rate_assignment(
        &mut self,
        _key: KeyId,
        _group: &[NodeId],
        _loads: &[f64],
    ) -> RateAssignment {
        RateAssignment::EvenSplit
    }

    fn reset(&mut self) {
        self.dense.reset();
        self.counters.clear();
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Bits of a pin slot below its epoch tag: the 24-bit `node + 1` code.
const CODE_BITS: u32 = 24;
/// Masks a pin slot to its node code.
const CODE_MASK: u32 = (1 << CODE_BITS) - 1;
/// The largest epoch tag, the top byte of a pin slot.
const TAG_MAX: u32 = u32::MAX >> CODE_BITS;

/// Sticky least-loaded assignment: the first query for a key pins it to the
/// least-loaded group member; later queries stick to that pin while it
/// remains live.
///
/// This is the "power of `d` choices" allocation underlying the paper's
/// Eq. (5) bound.
///
/// Each pin carries the epoch tag it was last checked in (module docs):
/// [`ReplicaSelector::pinned`] reports it only within that epoch.
#[derive(Debug, Clone, Default)]
pub struct LeastLoadedSelector {
    /// `tag << 24 | node + 1` per pinned key below the domain.
    dense: PageTable,
    /// Nonzero slots of `dense`.
    dense_pins: usize,
    /// Pins and their tags for the keys above the domain, and for the
    /// keys below it pinned to a node with no 24-bit `node + 1` code.
    pins: HashMap<KeyId, (NodeId, u32), FastBuildHasher>,
    /// Keys below the domain held in `pins`; while 0, an empty slot
    /// means unpinned without a map probe.
    wide: usize,
    /// The current epoch's tag, at most `TAG_MAX`; a pin with another
    /// one is unchecked.
    tag: u32,
}

impl LeastLoadedSelector {
    /// Creates the selector; every pin lives in the map, keyed with seed 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The selector for a run over keys `0..items`: pins of keys below
    /// `min(items, DENSE_KEY_CAP)` sit in the page table, the rest in a
    /// map keyed by `hasher` (module docs).
    pub fn for_items(items: u64, hasher: FastBuildHasher) -> Self {
        Self {
            dense: PageTable::new(items),
            pins: HashMap::with_hasher(hasher),
            ..Self::default()
        }
    }

    /// Number of keys currently pinned.
    pub fn pinned_keys(&self) -> usize {
        self.dense_pins + self.pins.len()
    }

    /// The pin `key` holds, of any epoch, and its tag.
    #[inline]
    fn pin_of(&self, key: KeyId) -> Option<(NodeId, u32)> {
        if self.dense.covers(key) {
            let slot = self.dense.get(key);
            if let Some(node) = (slot & CODE_MASK).checked_sub(1) {
                return Some((NodeId::new(node), slot >> CODE_BITS));
            }
            if self.wide == 0 {
                return None;
            }
        }
        self.pins.get(&key).copied()
    }

    /// Pins `key` to `node` with the current tag.
    fn store(&mut self, key: KeyId, node: NodeId) {
        if !self.dense.covers(key) {
            self.pins.insert(key, (node, self.tag));
            return;
        }
        let code = node.value().checked_add(1).filter(|&c| c <= CODE_MASK);
        if let Some(slot) = self.dense.slot_mut(key) {
            let was_pinned = *slot != 0;
            *slot = code.map_or(0, |c| self.tag << CODE_BITS | c);
            match (was_pinned, code.is_some()) {
                (false, true) => self.dense_pins += 1,
                (true, false) => self.dense_pins -= 1,
                _ => {}
            }
        }
        if code.is_none() {
            if self.pins.insert(key, (node, self.tag)).is_none() {
                self.wide += 1;
            }
        } else if self.wide > 0 && self.pins.remove(&key).is_some() {
            self.wide -= 1;
        }
    }

    fn pin(&mut self, key: KeyId, group: &[NodeId], loads: &[f64]) -> NodeId {
        if let Some((pinned, tag)) = self.pin_of(key) {
            if group.contains(&pinned) {
                if tag != self.tag {
                    self.store(key, pinned);
                }
                return pinned;
            }
        }
        let node = argmin_load(group, loads);
        self.store(key, node);
        node
    }
}

impl ReplicaSelector for LeastLoadedSelector {
    fn select(&mut self, key: KeyId, group: &[NodeId], loads: &[f64]) -> NodeId {
        self.pin(key, group, loads)
    }

    fn rate_assignment(&mut self, key: KeyId, group: &[NodeId], loads: &[f64]) -> RateAssignment {
        RateAssignment::Pinned(self.pin(key, group, loads))
    }

    fn reset(&mut self) {
        self.dense.reset();
        self.dense_pins = 0;
        self.pins.clear();
        self.wide = 0;
    }

    fn advance_epoch(&mut self) {
        if self.tag < TAG_MAX {
            self.tag += 1;
            return;
        }
        // The tag wraps: every pin drops to tag 0, which only the first
        // epoch carries.
        self.dense.mask(CODE_MASK);
        // DETERMINISM: every entry gets the same write, so the order of
        // the pass is unobservable.
        for (_, tag) in self.pins.values_mut() {
            *tag = 0;
        }
        self.tag = 1;
    }

    #[inline]
    fn pinned(&self, key: KeyId) -> Option<NodeId> {
        let (node, tag) = self.pin_of(key)?;
        (tag == self.tag).then_some(node)
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }
}

/// Memoryless join-the-least-loaded: every query independently picks the
/// currently least-loaded group member (no pinning).
#[derive(Debug, Clone, Default)]
pub struct PerQueryLeastLoaded;

impl PerQueryLeastLoaded {
    /// Creates the selector.
    pub fn new() -> Self {
        Self
    }
}

impl ReplicaSelector for PerQueryLeastLoaded {
    fn select(&mut self, _key: KeyId, group: &[NodeId], loads: &[f64]) -> NodeId {
        argmin_load(group, loads)
    }

    fn rate_assignment(
        &mut self,
        _key: KeyId,
        _group: &[NodeId],
        _loads: &[f64],
    ) -> RateAssignment {
        // In steady state, per-query least-loaded keeps group members equal.
        RateAssignment::EvenSplit
    }

    fn reset(&mut self) {}

    fn name(&self) -> &'static str {
        "per-query-least-loaded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId::new(i)).collect()
    }

    #[test]
    fn random_selector_covers_group_and_is_seeded() {
        let g = group(&[1, 4, 7]);
        let loads = vec![0.0; 10];
        let mut a = RandomSelector::new(5);
        let mut b = RandomSelector::new(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            let n = a.select(KeyId::new(0), &g, &loads);
            assert_eq!(n, b.select(KeyId::new(0), &g, &loads));
            assert!(g.contains(&n));
            seen.insert(n);
        }
        assert_eq!(seen.len(), 3, "all members should be used");
        assert_eq!(
            a.rate_assignment(KeyId::new(0), &g, &loads),
            RateAssignment::EvenSplit
        );
    }

    #[test]
    fn round_robin_cycles_in_order() {
        let g = group(&[2, 5, 8]);
        let loads = vec![0.0; 10];
        let mut s = RoundRobinSelector::new();
        let picks: Vec<u32> = (0..6)
            .map(|_| s.select(KeyId::new(1), &g, &loads).value())
            .collect();
        assert_eq!(picks, vec![2, 5, 8, 2, 5, 8]);
        // Independent counter per key.
        assert_eq!(s.select(KeyId::new(2), &g, &loads).value(), 2);
        s.reset();
        assert_eq!(s.select(KeyId::new(1), &g, &loads).value(), 2);
    }

    #[test]
    fn least_loaded_picks_min_and_sticks() {
        let g = group(&[0, 1, 2]);
        let mut loads = vec![5.0, 1.0, 3.0];
        let mut s = LeastLoadedSelector::new();
        let first = s.select(KeyId::new(9), &g, &loads);
        assert_eq!(first, NodeId::new(1));
        // Even after loads change, the pin holds.
        loads[1] = 100.0;
        assert_eq!(s.select(KeyId::new(9), &g, &loads), NodeId::new(1));
        assert_eq!(s.pinned_keys(), 1);
        assert_eq!(
            s.rate_assignment(KeyId::new(9), &g, &loads),
            RateAssignment::Pinned(NodeId::new(1))
        );
    }

    #[test]
    fn least_loaded_repins_when_pin_leaves_group() {
        let g = group(&[0, 1, 2]);
        let loads = vec![5.0, 1.0, 3.0];
        let mut s = LeastLoadedSelector::new();
        assert_eq!(s.select(KeyId::new(9), &g, &loads), NodeId::new(1));
        // Node 1 fails: group shrinks, key must be re-pinned.
        let live = group(&[0, 2]);
        assert_eq!(s.select(KeyId::new(9), &live, &loads), NodeId::new(2));
        // New pin persists.
        assert_eq!(s.select(KeyId::new(9), &live, &loads), NodeId::new(2));
    }

    #[test]
    fn least_loaded_ties_break_to_first() {
        let g = group(&[3, 1, 2]);
        let loads = vec![0.0; 5];
        let mut s = LeastLoadedSelector::new();
        assert_eq!(s.select(KeyId::new(0), &g, &loads), NodeId::new(3));
    }

    #[test]
    fn least_loaded_reset_clears_pins() {
        let g = group(&[0, 1]);
        let mut loads = vec![0.0, 1.0];
        let mut s = LeastLoadedSelector::new();
        assert_eq!(s.select(KeyId::new(5), &g, &loads), NodeId::new(0));
        loads[0] = 9.0;
        s.reset();
        assert_eq!(s.select(KeyId::new(5), &g, &loads), NodeId::new(1));
    }

    #[test]
    fn only_least_loaded_reports_pins() {
        let g = group(&[0, 1, 2]);
        let loads = vec![5.0, 1.0, 3.0];
        let key = KeyId::new(9);
        let memoryless: [Box<dyn ReplicaSelector>; 3] = [
            Box::new(RandomSelector::new(1)),
            Box::new(RoundRobinSelector::for_items(100, FastBuildHasher::new(1))),
            Box::new(PerQueryLeastLoaded::new()),
        ];
        for mut s in memoryless {
            s.select(key, &g, &loads);
            s.rate_assignment(key, &g, &loads);
            s.advance_epoch();
            s.select(key, &g, &loads);
            assert_eq!(s.pinned(key), None, "{} pins nothing", s.name());
        }
    }

    #[test]
    fn least_loaded_reports_the_pin_it_stored() {
        let loads = vec![5.0, 1.0, 3.0];
        let mut s = LeastLoadedSelector::for_items(2_048, FastBuildHasher::new(4));
        // Below the domain: the page table.
        let dense = KeyId::new(1_024);
        assert_eq!(s.pinned(dense), None);
        assert_eq!(s.select(dense, &group(&[0, 1, 2]), &loads), NodeId::new(1));
        assert_eq!(s.pinned(dense), Some(NodeId::new(1)));
        // Its pin leaves the group: the re-pin replaces it.
        assert_eq!(s.select(dense, &group(&[0, 2]), &loads), NodeId::new(2));
        assert_eq!(s.pinned(dense), Some(NodeId::new(2)));
        // Above the domain: the map.
        let above = KeyId::new(2_048);
        assert_eq!(
            s.rate_assignment(above, &group(&[0, 1, 2]), &loads),
            RateAssignment::Pinned(NodeId::new(1))
        );
        assert_eq!(s.pinned(above), Some(NodeId::new(1)));
        // `NodeId(u32::MAX)` has no `node + 1` code: a wide pin.
        let wide = NodeId::new(u32::MAX);
        let key = KeyId::new(7);
        assert_eq!(s.select(key, &[wide], &loads), wide);
        assert_eq!(s.pinned(key), Some(wide));
        s.reset();
        for k in [dense, above, key] {
            assert_eq!(s.pinned(k), None, "reset unpins {k}");
        }
    }

    #[test]
    fn pins_of_an_older_epoch_wait_for_a_recheck() {
        let loads = vec![5.0, 1.0, 3.0];
        let mut s = LeastLoadedSelector::for_items(2_048, FastBuildHasher::new(5));
        // Below the domain, above it, and wide pins below it: the first
        // node without a 24-bit code and `u32::MAX`.
        let (kept, moved, above) = (KeyId::new(3), KeyId::new(1_500), KeyId::new(9_000));
        let no_code = NodeId::new(CODE_MASK);
        let (wide_a, wide_b) = (KeyId::new(10), KeyId::new(11));
        for key in [kept, moved, above] {
            assert_eq!(s.select(key, &group(&[0, 1, 2]), &loads), NodeId::new(1));
        }
        assert_eq!(s.select(wide_a, &[no_code], &loads), no_code);
        assert_eq!(
            s.select(wide_b, &[NodeId::new(u32::MAX)], &loads),
            NodeId::new(u32::MAX)
        );
        assert_eq!((s.dense_pins, s.wide, s.pins.len()), (2, 2, 3));
        s.advance_epoch();
        for key in [kept, moved, above, wide_a, wide_b] {
            assert_eq!(s.pinned(key), None, "{key} is unchecked in the new epoch");
        }
        // A pin still in the group is kept and re-tagged; one outside it
        // re-pins. Either way the key is reported again.
        assert_eq!(s.select(kept, &group(&[2, 1]), &loads), NodeId::new(1));
        assert_eq!(s.select(moved, &group(&[0, 2]), &loads), NodeId::new(2));
        assert_eq!(
            s.rate_assignment(above, &group(&[1]), &loads),
            RateAssignment::Pinned(NodeId::new(1))
        );
        assert_eq!(
            s.select(wide_a, &[NodeId::new(0), no_code], &loads),
            no_code
        );
        for (key, node) in [(kept, 1), (moved, 2), (above, 1)] {
            assert_eq!(s.pinned(key), Some(NodeId::new(node)), "{key}");
        }
        assert_eq!(s.pinned(wide_a), Some(no_code));
        assert_eq!(s.pinned(wide_b), None, "untouched since the epoch began");
        assert_eq!((s.dense_pins, s.wide, s.pins.len()), (2, 2, 3));
    }

    #[test]
    fn a_wrapped_tag_never_revives_an_unchecked_pin() {
        let loads = vec![0.0; 4];
        let g = group(&[0, 1, 2]);
        let mut s = LeastLoadedSelector::for_items(4_096, FastBuildHasher::new(6));
        // Keys pinned in the first epochs, one per epoch, then left
        // untouched: through two wraps of the 8-bit tag none is reported.
        let cold: Vec<KeyId> = (0..4u64).map(|i| KeyId::new(1_000 * i + 7)).collect();
        let above = KeyId::new(5_000);
        s.select(above, &g, &loads);
        for &key in &cold {
            s.select(key, &g, &loads);
            s.advance_epoch();
        }
        let probe = KeyId::new(2);
        for epoch in 0..600 {
            for &key in cold.iter().chain([&above]) {
                assert_eq!(s.pinned(key), None, "{key} at epoch {epoch}");
            }
            // A pin made this epoch is reported until the next one.
            s.select(probe, &g, &loads);
            assert_eq!(s.pinned(probe), Some(NodeId::new(0)));
            s.advance_epoch();
            assert_eq!(s.pinned(probe), None);
        }
        assert_eq!(s.pinned_keys(), cold.len() + 2, "the wrap drops no pin");
        for &key in &cold {
            assert_eq!(s.select(key, &g, &loads), NodeId::new(0));
            assert_eq!(s.pinned(key), Some(NodeId::new(0)));
        }
    }

    #[test]
    fn per_query_least_loaded_follows_loads() {
        let g = group(&[0, 1]);
        let mut s = PerQueryLeastLoaded::new();
        assert_eq!(s.select(KeyId::new(0), &g, &[1.0, 2.0]), NodeId::new(0));
        assert_eq!(s.select(KeyId::new(0), &g, &[3.0, 2.0]), NodeId::new(1));
        assert_eq!(
            s.rate_assignment(KeyId::new(0), &g, &[1.0, 2.0]),
            RateAssignment::EvenSplit
        );
    }

    #[test]
    fn sticky_decisions_do_not_depend_on_the_hasher_seed() {
        // The pin and counter tables are never iterated, so keying them
        // with another seed changes their layout and nothing else: the
        // same stream routes identically, re-pins included.
        fn route(mut s: Box<dyn ReplicaSelector>) -> Vec<NodeId> {
            let mut gen = Xoshiro256StarStar::seed_from_u64(0x5E1E);
            let mut loads = vec![0.0; 16];
            let mut picks = Vec::new();
            for step in 0..20_000u64 {
                let key = next_below(&mut gen, 3_000) * 0x9E37_79B9;
                let first = (key % 16) as u32;
                let mut g = group(&[first, (first + 5) % 16, (first + 11) % 16]);
                if step % 97 == 0 {
                    g.remove(0); // a member drops out: pinned keys re-pin
                }
                let node = s.select(KeyId::new(key), &g, &loads);
                loads[node.index()] += 1.0;
                picks.push(node);
            }
            picks
        }
        let (a, b) = (FastBuildHasher::new(1), FastBuildHasher::new(2));
        assert_eq!(
            route(Box::new(LeastLoadedSelector::for_items(0, a))),
            route(Box::new(LeastLoadedSelector::for_items(0, b)))
        );
        assert_eq!(
            route(Box::new(RoundRobinSelector::for_items(0, a))),
            route(Box::new(RoundRobinSelector::for_items(0, b)))
        );
    }

    #[test]
    fn page_directory_is_sized_from_the_capped_domain() {
        // Nothing until the first write; then 784 B of page pointers at
        // m = 10⁵. `u64::MAX` items (a CLI value) stops at the cap's
        // 16 384 pointers instead of aborting.
        let written = |items: u64, key: u64| {
            let mut table = PageTable::new(items);
            assert!(table.pages.is_empty());
            *table.slot_mut(KeyId::new(key)).expect("covered key") = 1;
            table
        };
        let table = written(100_000, 99_999);
        assert_eq!(table.pages.len(), 98);
        assert_eq!(std::mem::size_of_val(table.pages.as_slice()), 784);
        assert_eq!(table.get(KeyId::new(99_999)), 1);
        let capped = written(u64::MAX, DENSE_KEY_CAP - 1);
        assert_eq!(capped.domain, DENSE_KEY_CAP);
        assert_eq!(capped.pages.len(), 16_384);
        assert!(!capped.covers(KeyId::new(DENSE_KEY_CAP)));
        assert!(capped.covers(KeyId::new(DENSE_KEY_CAP - 1)));
        assert_eq!(written(1025, 0).pages.len(), 2);
    }

    #[test]
    fn pages_are_allocated_on_first_write_and_kept_by_reset() {
        let g = group(&[0, 1]);
        let mut s = LeastLoadedSelector::for_items(5_000, FastBuildHasher::new(9));
        assert_eq!(s.dense.pages.iter().flatten().count(), 0);
        s.select(KeyId::new(4_097), &g, &[0.0, 1.0]);
        s.select(KeyId::new(5_000), &g, &[0.0, 1.0]); // above the domain
        assert_eq!(s.dense.pages.iter().flatten().count(), 1);
        assert_eq!((s.dense_pins, s.pins.len()), (1, 1));
        s.reset();
        assert_eq!(s.dense.pages.iter().flatten().count(), 1);
        assert_eq!(s.pinned_keys(), 0);
        assert_eq!(s.select(KeyId::new(4_097), &g, &[3.0, 1.0]), NodeId::new(1));
    }

    #[test]
    fn selector_names_are_distinct() {
        let names = [
            RandomSelector::new(0).name(),
            RoundRobinSelector::new().name(),
            LeastLoadedSelector::new().name(),
            PerQueryLeastLoaded::new().name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}

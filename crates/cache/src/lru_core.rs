//! Reusable LRU bookkeeping shared by the LRU, SLRU and ARC policies.

use crate::list::LinkedSlab;
use scp_workload::fasthash::FastBuildHasher;
use std::collections::HashMap;
use std::hash::Hash;

/// An LRU-ordered set of keys with O(1) touch/insert/evict.
///
/// This is a building block, not a [`crate::Cache`]: it has no statistics
/// and leaves capacity enforcement policy (what to do with the evicted key)
/// to its caller.
///
/// The key→slot map is keyed by a [`FastBuildHasher`]: an online cache
/// stores what clients ask for, so runs seed it (see
/// [`scp_workload::fasthash`]).
#[derive(Debug, Clone)]
pub struct LruCore<K> {
    map: HashMap<K, usize, FastBuildHasher>,
    list: LinkedSlab<K>,
    capacity: usize,
}

impl<K: Copy + Eq + Hash> LruCore<K> {
    /// Creates an empty set holding at most `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, FastBuildHasher::default())
    }

    /// [`LruCore::new`] with the key→slot map keyed by `hasher`.
    pub(crate) fn with_hasher(capacity: usize, hasher: FastBuildHasher) -> Self {
        Self {
            map: HashMap::with_capacity_and_hasher(capacity.min(1 << 20), hasher),
            list: LinkedSlab::with_capacity(capacity.min(1 << 20)),
            capacity,
        }
    }

    /// Maximum number of keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no keys are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether the set is at capacity.
    pub fn is_full(&self) -> bool {
        self.map.len() >= self.capacity
    }

    /// Whether `key` is resident.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// If resident, marks `key` most-recently-used and returns true.
    pub fn touch(&mut self, key: &K) -> bool {
        match self.map.get(key) {
            Some(&slot) => {
                self.list.move_to_front(slot);
                true
            }
            None => false,
        }
    }

    /// Inserts `key` as most-recently-used. If this exceeds capacity, the
    /// least-recently-used key is evicted and returned. Inserting a
    /// resident key just touches it.
    ///
    /// With `capacity == 0` the key is never admitted and is returned
    /// immediately as its own eviction.
    pub fn insert(&mut self, key: K) -> Option<K> {
        if self.capacity == 0 {
            return Some(key);
        }
        if self.touch(&key) {
            return None;
        }
        let slot = self.list.push_front(key);
        self.map.insert(key, slot);
        if self.map.len() > self.capacity {
            self.pop_lru()
        } else {
            None
        }
    }

    /// Removes `key` if resident; returns whether it was.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.map.remove(key) {
            Some(slot) => {
                self.list.remove(slot);
                true
            }
            None => false,
        }
    }

    /// Evicts and returns the least-recently-used key.
    pub fn pop_lru(&mut self) -> Option<K> {
        let (_, key) = self.list.pop_back()?;
        self.map.remove(&key);
        Some(key)
    }

    /// The least-recently-used key without removing it.
    pub fn peek_lru(&self) -> Option<&K> {
        self.list.back()
    }

    /// Drops all keys.
    pub fn clear(&mut self) {
        self.map.clear();
        self.list.clear();
    }

    /// Iterates keys from most- to least-recently-used.
    pub fn iter(&self) -> crate::list::Iter<'_, K> {
        self.list.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(core: &LruCore<u32>) -> Vec<u32> {
        core.iter().copied().collect()
    }

    #[test]
    fn insert_and_evict_in_lru_order() {
        let mut c = LruCore::new(2);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(2), None);
        assert_eq!(c.insert(3), Some(1));
        assert_eq!(order(&c), vec![3, 2]);
        assert!(c.is_full());
    }

    #[test]
    fn touch_changes_eviction_order() {
        let mut c = LruCore::new(2);
        c.insert(1);
        c.insert(2);
        assert!(c.touch(&1));
        assert_eq!(c.insert(3), Some(2));
        assert!(c.contains(&1));
    }

    #[test]
    fn reinsert_touches_instead_of_duplicating() {
        let mut c = LruCore::new(2);
        c.insert(1);
        c.insert(2);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.len(), 2);
        assert_eq!(order(&c), vec![1, 2]);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut c = LruCore::new(0);
        assert_eq!(c.insert(5), Some(5));
        assert!(c.is_empty());
        assert!(!c.contains(&5));
    }

    #[test]
    fn remove_and_pop() {
        let mut c = LruCore::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        assert!(c.remove(&2));
        assert!(!c.remove(&2));
        assert_eq!(c.peek_lru(), Some(&1));
        assert_eq!(c.pop_lru(), Some(1));
        assert_eq!(c.pop_lru(), Some(3));
        assert_eq!(c.pop_lru(), None);
    }

    #[test]
    fn touch_missing_returns_false() {
        let mut c = LruCore::new(2);
        assert!(!c.touch(&9));
    }

    #[test]
    fn clear_resets() {
        let mut c = LruCore::new(2);
        c.insert(1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.insert(1), None);
    }
}

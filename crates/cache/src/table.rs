//! The residency table under the LRU, SLRU, ARC and W-TinyLFU policies.
//!
//! One key→slot map (keyed by the cache's [`FastBuildHasher`]) over a node
//! slab threaded by `N` intrusive lists. Every key the policy tracks sits
//! on exactly one list — LRU has one, SLRU its probation and protected
//! segments, ARC its resident `T1`/`T2` and ghost `B1`/`B2` lists (the
//! `DBL(2c)` directory of Megiddo & Modha), W-TinyLFU its window,
//! probation and protected regions — so a request costs one map probe
//! whichever list holds the key, and moving a key between lists relinks
//! its node without touching the map. A list has no capacity of its own:
//! the policy decides what leaves and when, and counts it.

use scp_workload::fasthash::FastBuildHasher;
use std::collections::HashMap;
use std::hash::Hash;

/// "No node" link.
const NIL: usize = usize::MAX;

/// One tracked key: the policy's per-key value, its list and its links.
#[derive(Debug, Clone)]
pub(crate) struct Node<K, V> {
    key: K,
    /// Whatever the policy keeps per key (`()` when nothing).
    pub(crate) value: V,
    /// `NIL` once the node is removed and its slot free.
    list: usize,
    prev: usize,
    next: usize,
}

impl<K, V> Node<K, V> {
    /// The list this node is on.
    pub(crate) fn list(&self) -> usize {
        self.list
    }
}

/// One intrusive list over the node slab: front = most recently used.
#[derive(Debug, Clone, Copy)]
struct List {
    head: usize,
    tail: usize,
    len: usize,
}

impl List {
    const EMPTY: Self = Self {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// A key→node map over a slab threaded by `N` recency lists.
#[derive(Debug, Clone)]
pub(crate) struct Table<K, V, const N: usize> {
    map: HashMap<K, usize, FastBuildHasher>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    lists: [List; N],
}

impl<K: Copy + Eq + Hash, V, const N: usize> Table<K, V, N> {
    /// An empty table whose map has room for `reserve` keys. The node
    /// slab grows on demand: reserved up front, W-TinyLFU's 120 B nodes
    /// made a short run's set-up several microseconds slower at c = 1000.
    pub(crate) fn with_hasher(reserve: usize, hasher: FastBuildHasher) -> Self {
        Self {
            map: HashMap::with_capacity_and_hasher(reserve.min(1 << 20), hasher),
            nodes: Vec::new(),
            free: Vec::new(),
            lists: [List::EMPTY; N],
        }
    }

    /// Number of keys on all lists.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Number of keys on `list`.
    pub(crate) fn list_len(&self, list: usize) -> usize {
        self.lists.get(list).map_or(0, |l| l.len)
    }

    /// The slot of `key` and its node, if the table holds it.
    pub(crate) fn find(&self, key: &K) -> Option<(usize, &Node<K, V>)> {
        let &slot = self.map.get(key)?;
        Some((slot, self.nodes.get(slot)?))
    }

    /// The node at `slot`, if any.
    pub(crate) fn node(&self, slot: usize) -> Option<&Node<K, V>> {
        self.nodes.get(slot)
    }

    /// The slot at the back (least recently used end) of `list`.
    pub(crate) fn back(&self, list: usize) -> Option<usize> {
        self.lists
            .get(list)
            .map(|l| l.tail)
            .filter(|&tail| tail != NIL)
    }

    /// Adds `key`, which the table must not hold, at the front of `list`.
    pub(crate) fn push_front(&mut self, key: K, value: V, list: usize) {
        let node = Node {
            key,
            value,
            list,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                if let Some(vacant) = self.nodes.get_mut(slot) {
                    *vacant = node;
                }
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.link_front(slot, list);
    }

    /// Moves the node at `slot` to the front of `list`.
    pub(crate) fn move_to_front(&mut self, slot: usize, list: usize) {
        if self.lists.get(list).is_some_and(|l| l.head != slot) && self.unlink(slot) {
            self.link_front(slot, list);
        }
    }

    /// Moves the back of `from` to the front of `to`; false if `from` is
    /// empty.
    pub(crate) fn move_back_to_front(&mut self, from: usize, to: usize) -> bool {
        let Some(slot) = self.back(from) else {
            return false;
        };
        self.move_to_front(slot, to);
        true
    }

    /// Drops the node at `slot` from its list and from the table.
    pub(crate) fn remove(&mut self, slot: usize) {
        if !self.unlink(slot) {
            return;
        }
        if let Some(node) = self.nodes.get_mut(slot) {
            node.list = NIL;
            self.map.remove(&node.key);
            self.free.push(slot);
        }
    }

    /// Drops the back of `list`; false if `list` is empty.
    pub(crate) fn pop_back(&mut self, list: usize) -> bool {
        let Some(slot) = self.back(list) else {
            return false;
        };
        self.remove(slot);
        true
    }

    /// Drops every key.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.lists = [List::EMPTY; N];
    }

    /// Takes `slot` off its list; false if the slot is free.
    fn unlink(&mut self, slot: usize) -> bool {
        let Some(node) = self.nodes.get(slot) else {
            return false;
        };
        let (prev, next) = (node.prev, node.next);
        let Some(list) = self.lists.get_mut(node.list) else {
            return false;
        };
        match self.nodes.get_mut(prev) {
            Some(p) => p.next = next,
            None => list.head = next,
        }
        match self.nodes.get_mut(next) {
            Some(n) => n.prev = prev,
            None => list.tail = prev,
        }
        list.len -= 1;
        true
    }

    /// Puts the unlinked `slot` at the front of `list`.
    fn link_front(&mut self, slot: usize, list: usize) {
        let Some(l) = self.lists.get_mut(list) else {
            return;
        };
        let head = l.head;
        if let Some(node) = self.nodes.get_mut(slot) {
            node.list = list;
            node.prev = NIL;
            node.next = head;
        }
        match self.nodes.get_mut(head) {
            Some(h) => h.prev = slot,
            None => l.tail = slot,
        }
        l.head = slot;
        l.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Two = Table<u32, (), 2>;

    fn table() -> Two {
        Table::with_hasher(4, FastBuildHasher::default())
    }

    /// Keys on `list`, front to back, checked against the back links.
    fn keys(t: &Two, list: usize) -> Vec<u32> {
        let l = t.lists.get(list).copied().unwrap_or(List::EMPTY);
        let mut out = Vec::new();
        let (mut cursor, mut prev) = (l.head, NIL);
        while let Some(node) = t.nodes.get(cursor) {
            assert_eq!(node.prev, prev, "back link of {}", node.key);
            assert_eq!(node.list, list, "list of {}", node.key);
            out.push(node.key);
            (prev, cursor) = (cursor, node.next);
        }
        assert_eq!(l.tail, prev, "tail of list {list}");
        assert_eq!(l.len, out.len(), "len of list {list}");
        out
    }

    fn slot(t: &Two, key: u32) -> usize {
        t.find(&key).map(|(slot, _)| slot).expect("key held")
    }

    #[test]
    fn push_front_orders_mru_first() {
        let mut t = table();
        for k in 1..=3 {
            t.push_front(k, (), 0);
        }
        assert_eq!(keys(&t, 0), vec![3, 2, 1]);
        assert_eq!(t.back(0), Some(slot(&t, 1)));
        assert_eq!((t.len(), t.list_len(0), t.list_len(1)), (3, 3, 0));
    }

    #[test]
    fn move_to_front_reorders_and_moves_between_lists() {
        let mut t = table();
        for k in 1..=3 {
            t.push_front(k, (), 0);
        }
        t.move_to_front(slot(&t, 1), 0);
        assert_eq!(keys(&t, 0), vec![1, 3, 2]);
        // Moving the head is a no-op.
        t.move_to_front(slot(&t, 1), 0);
        assert_eq!(keys(&t, 0), vec![1, 3, 2]);
        t.move_to_front(slot(&t, 3), 1);
        assert_eq!((keys(&t, 0), keys(&t, 1)), (vec![1, 2], vec![3]));
        assert_eq!(t.find(&3).map(|(_, n)| n.list()), Some(1));
        assert!(t.move_back_to_front(0, 1));
        assert_eq!((keys(&t, 0), keys(&t, 1)), (vec![1], vec![2, 3]));
        assert!(t.move_back_to_front(0, 1));
        assert!(!t.move_back_to_front(0, 1), "empty list has no back");
        assert_eq!((keys(&t, 0), keys(&t, 1)), (vec![], vec![1, 2, 3]));
        assert_eq!(t.len(), 3, "moves never drop a key");
    }

    #[test]
    fn pop_back_evicts_in_lru_order_and_touch_changes_it() {
        let mut t = table();
        t.push_front(1, (), 0);
        t.push_front(2, (), 0);
        t.move_to_front(slot(&t, 1), 0);
        assert!(t.pop_back(0));
        assert!(t.find(&2).is_none() && t.find(&1).is_some());
        assert!(t.pop_back(0));
        assert!(!t.pop_back(0));
        assert_eq!(t.len(), 0);
        assert!(t.find(&9).is_none(), "an absent key has no slot");
    }

    #[test]
    fn single_key_is_head_and_tail() {
        let mut t = table();
        t.push_front(7, (), 0);
        let s = slot(&t, 7);
        assert_eq!(t.lists.first().map(|l| (l.head, l.tail)), Some((s, s)));
        t.move_to_front(s, 0);
        assert_eq!(keys(&t, 0), vec![7]);
        t.remove(s);
        assert_eq!((t.len(), keys(&t, 0)), (0, vec![]));
    }

    #[test]
    fn a_freed_slot_is_inert() {
        let mut t = table();
        t.push_front(1, (), 0);
        t.push_front(2, (), 0);
        let freed = slot(&t, 1);
        t.remove(freed);
        // Removing or moving it again touches no list and no key.
        t.remove(freed);
        t.move_to_front(freed, 1);
        assert_eq!((keys(&t, 0), keys(&t, 1)), (vec![2], vec![]));
        assert_eq!(t.free, vec![freed], "a slot is freed once");
        t.push_front(3, (), 1);
        assert_eq!((t.len(), keys(&t, 1)), (2, vec![3]));
    }

    #[test]
    fn remove_middle_keeps_links_and_slots_are_reused() {
        let mut t = table();
        for k in 1..=3 {
            t.push_front(k, (), 0);
        }
        let middle = slot(&t, 2);
        t.remove(middle);
        assert_eq!(keys(&t, 0), vec![3, 1]);
        assert!(t.find(&2).is_none());
        t.push_front(4, (), 1);
        assert_eq!(slot(&t, 4), middle, "freed slot should be recycled");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn clear_empties_every_list() {
        let mut t = table();
        t.push_front(1, (), 0);
        t.push_front(2, (), 1);
        t.clear();
        assert_eq!((t.len(), keys(&t, 0), keys(&t, 1)), (0, vec![], vec![]));
        assert_eq!(t.back(0), None);
        t.push_front(1, (), 0);
        assert_eq!(keys(&t, 0), vec![1]);
    }

    #[test]
    fn out_of_range_list_is_inert() {
        let mut t = table();
        t.push_front(1, (), 0);
        assert_eq!((t.list_len(2), t.back(2)), (0, None));
        t.move_to_front(slot(&t, 1), 2);
        assert!(!t.pop_back(2));
        assert_eq!(keys(&t, 0), vec![1]);
    }

    #[test]
    fn interleaved_operations_fuzz() {
        // Mirror both lists against `Vec` models (front = index 0).
        let mut t = table();
        let mut model: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        let mut x: u64 = 0x12345;
        for step in 0..4000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let list = (x >> 40) as usize % 2;
            match x % 5 {
                0 | 1 => {
                    t.push_front(step, (), list);
                    model[list].insert(0, step);
                }
                2 => {
                    assert_eq!(t.pop_back(list), model[list].pop().is_some());
                }
                3 => {
                    // Move a middle key of one list to the front of either.
                    let from = 1 - list;
                    if let Some(&k) = model[from].get(model[from].len() / 2) {
                        t.move_to_front(slot(&t, k), list);
                        model[from].retain(|&e| e != k);
                        model[list].insert(0, k);
                    }
                }
                _ => {
                    if let Some(k) = model[list].first().copied() {
                        t.remove(slot(&t, k));
                        model[list].remove(0);
                    }
                }
            }
            assert_eq!(t.len(), model[0].len() + model[1].len(), "step {step}");
            assert_eq!(t.list_len(list), model[list].len(), "step {step}");
        }
        assert_eq!(keys(&t, 0), model[0]);
        assert_eq!(keys(&t, 1), model[1]);
    }
}

//! A slab-backed intrusive doubly-linked list.
//!
//! The recency lists inside [`crate::lru_core::LruCore`] (and so the LRU,
//! SLRU and ARC policies built on it) need O(1) "move this known entry to
//! the front" and "pop the back" without per-node allocation.
//! `LinkedSlab` stores nodes in a `Vec`, reuses freed slots through a free
//! list, and hands out stable `usize` slot handles.

/// Sentinel meaning "no slot".
const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<T> {
    value: Option<T>,
    prev: usize,
    next: usize,
}

/// A doubly-linked list over a slab of reusable slots.
///
/// Front = most recently used, back = least recently used, by convention
/// of the callers.
#[derive(Debug, Clone)]
pub struct LinkedSlab<T> {
    nodes: Vec<Node<T>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    len: usize,
}

impl<T> LinkedSlab<T> {
    /// Creates an empty list, reserving room for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of entries in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes a value at the front; returns its slot handle.
    pub fn push_front(&mut self, value: T) -> usize {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = Node {
                    value: Some(value),
                    prev: NIL,
                    next: self.head,
                };
                slot
            }
            None => {
                self.nodes.push(Node {
                    value: Some(value),
                    prev: NIL,
                    next: self.head,
                });
                self.nodes.len() - 1
            }
        };
        if self.head != NIL {
            self.nodes[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
        self.len += 1;
        slot
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Removes the entry at `slot`, returning its value.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant (double removal is a caller bug).
    pub fn remove(&mut self, slot: usize) -> T {
        self.unlink(slot);
        let value = self.nodes[slot].value.take().expect("slot already vacant");
        self.free.push(slot);
        self.len -= 1;
        value
    }

    /// Moves an existing entry to the front.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn move_to_front(&mut self, slot: usize) {
        assert!(self.nodes[slot].value.is_some(), "slot vacant");
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Removes and returns the back (least recent) value with its slot.
    pub fn pop_back(&mut self) -> Option<(usize, T)> {
        if self.tail == NIL {
            return None;
        }
        let slot = self.tail;
        let value = self.remove(slot);
        Some((slot, value))
    }

    /// The back (least recent) value, if any.
    pub fn back(&self) -> Option<&T> {
        if self.tail == NIL {
            None
        } else {
            self.nodes[self.tail].value.as_ref()
        }
    }

    /// The front (most recent) value, if any.
    pub fn front(&self) -> Option<&T> {
        if self.head == NIL {
            None
        } else {
            self.nodes[self.head].value.as_ref()
        }
    }

    /// Value stored at `slot`, if occupied.
    pub fn get(&self, slot: usize) -> Option<&T> {
        self.nodes.get(slot).and_then(|n| n.value.as_ref())
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }

    /// Iterates values front-to-back.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            list: self,
            cursor: self.head,
        }
    }
}

/// Front-to-back iterator over a [`LinkedSlab`].
#[derive(Debug)]
pub struct Iter<'a, T> {
    list: &'a LinkedSlab<T>,
    cursor: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        if self.cursor == NIL {
            return None;
        }
        let node = &self.list.nodes[self.cursor];
        self.cursor = node.next;
        node.value.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contents(list: &LinkedSlab<u32>) -> Vec<u32> {
        list.iter().copied().collect()
    }

    #[test]
    fn push_front_orders_mru_first() {
        let mut l = LinkedSlab::with_capacity(4);
        l.push_front(1);
        l.push_front(2);
        l.push_front(3);
        assert_eq!(contents(&l), vec![3, 2, 1]);
        assert_eq!(l.front(), Some(&3));
        assert_eq!(l.back(), Some(&1));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn move_to_front_reorders() {
        let mut l = LinkedSlab::with_capacity(4);
        let a = l.push_front(1);
        let _b = l.push_front(2);
        l.push_front(3);
        l.move_to_front(a);
        assert_eq!(contents(&l), vec![1, 3, 2]);
        // Moving the head is a no-op.
        l.move_to_front(a);
        assert_eq!(contents(&l), vec![1, 3, 2]);
    }

    #[test]
    fn pop_back_is_lru_eviction() {
        let mut l = LinkedSlab::with_capacity(4);
        l.push_front(1);
        l.push_front(2);
        let (_, v) = l.pop_back().unwrap();
        assert_eq!(v, 1);
        let (_, v) = l.pop_back().unwrap();
        assert_eq!(v, 2);
        assert!(l.pop_back().is_none());
        assert!(l.is_empty());
    }

    #[test]
    fn remove_middle_keeps_links() {
        let mut l = LinkedSlab::with_capacity(4);
        l.push_front(1);
        let b = l.push_front(2);
        l.push_front(3);
        assert_eq!(l.remove(b), 2);
        assert_eq!(contents(&l), vec![3, 1]);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn slots_are_reused() {
        let mut l = LinkedSlab::with_capacity(2);
        let a = l.push_front(1);
        l.remove(a);
        let b = l.push_front(2);
        assert_eq!(a, b, "freed slot should be recycled");
        assert_eq!(l.get(b), Some(&2));
    }

    #[test]
    #[should_panic(expected = "slot already vacant")]
    fn double_remove_panics() {
        let mut l = LinkedSlab::with_capacity(2);
        let a = l.push_front(1);
        l.remove(a);
        l.remove(a);
    }

    #[test]
    fn clear_empties_everything() {
        let mut l = LinkedSlab::with_capacity(2);
        l.push_front(1);
        l.push_front(2);
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.front(), None);
        assert_eq!(l.back(), None);
        assert_eq!(contents(&l), Vec::<u32>::new());
    }

    #[test]
    fn single_element_edge_cases() {
        let mut l = LinkedSlab::with_capacity(1);
        let a = l.push_front(7);
        assert_eq!(l.front(), l.back());
        l.move_to_front(a);
        assert_eq!(contents(&l), vec![7]);
        assert_eq!(l.remove(a), 7);
        assert!(l.is_empty());
    }

    #[test]
    fn interleaved_operations_fuzz() {
        // Mirror against a Vec<u32> model (front = index 0).
        let mut l: LinkedSlab<u32> = LinkedSlab::with_capacity(8);
        let mut model: Vec<u32> = Vec::new();
        let mut slots: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        let mut x: u64 = 0x12345;
        for step in 0..2000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match x % 4 {
                0 => {
                    let v = step;
                    slots.insert(v, l.push_front(v));
                    model.insert(0, v);
                }
                1 => {
                    if let Some((_, v)) = l.pop_back() {
                        assert_eq!(model.pop().unwrap(), v);
                        slots.remove(&v);
                    } else {
                        assert!(model.is_empty());
                    }
                }
                2 => {
                    if let Some(&v) = model.get(model.len() / 2) {
                        l.move_to_front(slots[&v]);
                        let pos = model.iter().position(|&e| e == v).unwrap();
                        let val = model.remove(pos);
                        model.insert(0, val);
                    }
                }
                _ => {
                    if let Some(&v) = model.first() {
                        let removed = l.remove(slots[&v]);
                        assert_eq!(removed, v);
                        slots.remove(&v);
                        model.remove(0);
                    }
                }
            }
            assert_eq!(l.len(), model.len());
        }
        assert_eq!(contents(&l), model);
    }
}

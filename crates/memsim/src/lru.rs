//! A capacity-bounded fully-associative LRU set with O(1) operations.
//!
//! Used for the D-TLB ([`crate::tlb`]) and for the shadow cache that
//! classifies conflict vs capacity misses ([`crate::cache`]). Implemented
//! as a hash map into an intrusive doubly-linked list stored in a slab,
//! so hits, inserts, and evictions are all constant-time.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const NIL: u32 = u32::MAX;

/// Multiplicative hasher for the set's `u64` keys. They are page and line
/// numbers the simulator computes itself, never input from outside the
/// program, so std's collision-resistant SipHash buys nothing on this
/// once-per-simulated-reference path.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("LruSet keys are u64, which hash through write_u64")
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        // Fibonacci hashing; fold the well-mixed high half into the low
        // bits the table indexes its buckets with.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Clone, Copy)]
struct Node {
    key: u64,
    prev: u32,
    next: u32,
}

/// Fixed-capacity LRU set of `u64` keys.
pub struct LruSet {
    map: HashMap<u64, u32, BuildHasherDefault<MulHasher>>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    cap: usize,
}

impl LruSet {
    /// Create an LRU set holding at most `cap` keys.
    ///
    /// # Panics
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "LruSet capacity must be non-zero");
        LruSet {
            map: HashMap::with_capacity_and_hasher(cap * 2, Default::default()),
            nodes: Vec::with_capacity(cap),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            cap,
        }
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Touch `key`: returns `true` if it was resident (hit; promoted to
    /// MRU), `false` if it was inserted (miss; possibly evicting the LRU).
    pub fn touch(&mut self, key: u64) -> bool {
        // Re-touching the MRU key changes nothing. Two thirds of the
        // simulator's TLB accesses do (consecutive lines of one page),
        // so skip the hash lookup for them.
        if self.head != NIL && self.nodes[self.head as usize].key == key {
            return true;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            self.push_front(idx);
            return true;
        }
        if self.map.len() == self.cap {
            let lru = self.tail;
            let old = self.nodes[lru as usize].key;
            self.unlink(lru);
            self.map.remove(&old);
            self.free.push(lru);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize].key = key;
                i
            }
            None => {
                self.nodes.push(Node { key, prev: NIL, next: NIL });
                (self.nodes.len() - 1) as u32
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        false
    }

    /// Whether `key` is resident, without promoting it.
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_hit_miss() {
        let mut l = LruSet::new(2);
        assert!(!l.touch(1));
        assert!(!l.touch(2));
        assert!(l.touch(1));
        assert!(l.touch(2));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut l = LruSet::new(2);
        l.touch(1);
        l.touch(2);
        l.touch(1); // order: 1 (MRU), 2 (LRU)
        l.touch(3); // evicts 2
        assert!(l.contains(1));
        assert!(!l.contains(2));
        assert!(l.contains(3));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn capacity_one() {
        let mut l = LruSet::new(1);
        assert!(!l.touch(5));
        assert!(l.touch(5));
        assert!(!l.touch(6));
        assert!(!l.contains(5));
    }

    #[test]
    fn clear_resets() {
        let mut l = LruSet::new(4);
        for k in 0..4 {
            l.touch(k);
        }
        l.clear();
        assert!(l.is_empty());
        assert!(!l.touch(0));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn exact_lru_order_under_interleaving() {
        let mut l = LruSet::new(3);
        l.touch(10);
        l.touch(20);
        l.touch(30);
        l.touch(10); // order: 10, 30, 20
        l.touch(40); // evicts 20
        assert!(!l.contains(20));
        l.touch(50); // evicts 30
        assert!(!l.contains(30));
        assert!(l.contains(10) && l.contains(40) && l.contains(50));
    }

    #[test]
    fn matches_reference_model() {
        // Cross-check against a naive Vec-based LRU over a pseudo-random
        // workload with a small key universe to force heavy reuse.
        let mut l = LruSet::new(8);
        let mut reference: Vec<u64> = Vec::new();
        let mut state = 0x12345678u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % 24;
            let expect_hit = reference.contains(&key);
            let got_hit = l.touch(key);
            assert_eq!(got_hit, expect_hit);
            reference.retain(|&k| k != key);
            reference.insert(0, key);
            reference.truncate(8);
        }
    }
}

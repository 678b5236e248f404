//! A small bounded LRU map used by every process-wide cache in the
//! workspace (plan caches, the fleet tuning cache, the LLM sample cache).
//!
//! Under fleet load the original unbounded memos grow without limit; the
//! caches now share this one implementation so each can be capped with an
//! `LT_*_CAP` environment knob and report evictions through its own obs
//! counter. The structure is a plain `HashMap` into a slab of entries that
//! are threaded on an intrusive doubly-linked recency list — no external
//! crates, O(1) get/insert/evict.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

const NIL: usize = usize::MAX;

/// Reads a cache capacity from environment variable `var`, falling back to
/// `default` when unset or unparsable. All `LT_*_CAP` knobs go through
/// here so they share one convention.
pub fn cap_from_env(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// Bounded least-recently-used map. `get` refreshes recency; `insert` of a
/// fresh key beyond the capacity evicts the coldest entry and returns it so
/// the caller can count the eviction.
pub struct LruMap<K, V> {
    index: HashMap<K, usize>,
    slab: Vec<Option<Entry<K, V>>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    cap: usize,
}

impl<K, V> fmt::Debug for LruMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LruMap")
            .field("len", &self.index.len())
            .field("cap", &self.cap)
            .finish()
    }
}

impl<K: Clone + Eq + Hash, V> LruMap<K, V> {
    /// Creates a map bounded to `cap` entries. A zero capacity is clamped
    /// to one: a cache that can never hold anything would turn every
    /// lookup into a miss while still paying the insert bookkeeping.
    pub fn new(cap: usize) -> Self {
        LruMap {
            index: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            cap: cap.max(1),
        }
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Capacity bound.
    pub fn cap(&self) -> usize {
        self.cap
    }

    fn entry(&self, slot: usize) -> &Entry<K, V> {
        self.slab[slot].as_ref().expect("live LRU slot")
    }

    fn entry_mut(&mut self, slot: usize) -> &mut Entry<K, V> {
        self.slab[slot].as_mut().expect("live LRU slot")
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = {
            let e = self.entry(slot);
            (e.prev, e.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.entry_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entry_mut(n).prev = prev,
        }
    }

    fn push_front(&mut self, slot: usize) {
        let head = self.head;
        {
            let e = self.entry_mut(slot);
            e.prev = NIL;
            e.next = head;
        }
        match head {
            NIL => self.tail = slot,
            h => self.entry_mut(h).prev = slot,
        }
        self.head = slot;
    }

    /// Looks `key` up and, on a hit, marks it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = *self.index.get(key)?;
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
        Some(&self.entry(slot).value)
    }

    /// Checks for `key` without touching recency.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Inserts `key → value` as most recently used. Returns the evicted
    /// coldest `(key, value)` pair when the insert pushed the map past its
    /// capacity (never on an update of an existing key).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&slot) = self.index.get(&key) {
            self.entry_mut(slot).value = value;
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            return None;
        }
        let evicted = if self.index.len() >= self.cap {
            let cold = self.tail;
            self.unlink(cold);
            let entry = self.slab[cold].take().expect("live LRU tail");
            self.index.remove(&entry.key);
            self.free.push(cold);
            Some((entry.key, entry.value))
        } else {
            None
        };
        let entry = Entry {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(entry);
                slot
            }
            None => {
                self.slab.push(Some(entry));
                self.slab.len() - 1
            }
        };
        self.index.insert(key, slot);
        self.push_front(slot);
        evicted
    }

    /// Drops every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Iterates over `(key, value)` pairs in unspecified order, without
    /// touching recency. Used by nearest-neighbor scans over small caches.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.index
            .iter()
            .map(|(k, &slot)| (k, &self.entry(slot).value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = LruMap::new(2);
        assert!(lru.insert(1, "a").is_none());
        assert!(lru.insert(2, "b").is_none());
        assert_eq!(lru.get(&1), Some(&"a")); // refresh 1; 2 is now coldest
        assert_eq!(lru.insert(3, "c"), Some((2, "b")));
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(&"a"));
        assert_eq!(lru.get(&3), Some(&"c"));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn update_refreshes_without_evicting() {
        let mut lru = LruMap::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert!(lru.insert(1, 11).is_none()); // update, not insert
        assert_eq!(lru.insert(3, 30), Some((2, 20)));
        assert_eq!(lru.get(&1), Some(&11));
    }

    #[test]
    fn reuses_slots_after_eviction() {
        let mut lru = LruMap::new(3);
        for i in 0..100u64 {
            lru.insert(i, i * 2);
        }
        assert_eq!(lru.len(), 3);
        assert!(lru.slab.len() <= 4, "slab should not grow unboundedly");
        for i in 97..100 {
            assert_eq!(lru.get(&i), Some(&(i * 2)));
        }
    }

    #[test]
    fn zero_cap_clamps_to_one() {
        let mut lru = LruMap::new(0);
        assert_eq!(lru.cap(), 1);
        assert!(lru.insert(1, "a").is_none());
        assert_eq!(lru.insert(2, "b"), Some((1, "a")));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut lru = LruMap::new(4);
        lru.insert(1, "a");
        lru.insert(2, "b");
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.get(&1), None);
        assert!(lru.insert(3, "c").is_none());
    }
}

//! An LRU cache (intrusive doubly-linked list over a slab) and its sharded
//! concurrent wrapper — the grid's volatile cache, standing in for
//! Infinispan's bounded data container.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use parking_lot::Mutex;

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A classic O(1) LRU cache.
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> LruCache<K, V> {
        LruCache {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
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

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Get and touch (promote to most recently used). `key` may be any
    /// borrowed form of `K` (a `&str` for a `String` key).
    pub fn get<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(&self.nodes[idx].value)
    }

    /// Peek without touching.
    pub fn peek<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.map.get(key).map(|i| &self.nodes[*i].value)
    }

    /// Insert or replace, touching the entry. Returns the evicted
    /// `(key, value)` if the cache was full.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return None;
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let node = &mut self.nodes[victim];
            self.map.remove(&node.key);
            // Move out by swapping with the incoming entry.
            let old_key = std::mem::replace(&mut node.key, key.clone());
            let old_val = std::mem::replace(&mut node.value, value);
            evicted = Some((old_key, old_val));
            self.map.insert(key, victim);
            self.push_front(victim);
            return evicted;
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = Node {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.nodes.push(Node {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Remove an entry.
    pub fn remove<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        match self.map.remove(key) {
            Some(idx) => {
                self.unlink(idx);
                self.free.push(idx);
                true
            }
            None => false,
        }
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// A sharded, lock-per-shard LRU for concurrent use.
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<LruCache<K, V>>>,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedLru<K, V> {
    /// Build with `shards` shards and a *total* capacity. A non-zero total
    /// guarantees at least one entry per shard.
    pub fn new(total_capacity: usize, shards: usize) -> ShardedLru<K, V> {
        let shards = shards.max(1);
        let per = if total_capacity == 0 {
            0
        } else {
            (total_capacity / shards).max(1)
        };
        ShardedLru {
            shards: (0..shards).map(|_| Mutex::new(LruCache::new(per))).collect(),
        }
    }

    /// The shard of `key`. A borrowed form hashes as `K` does (the
    /// [`Borrow`] contract), so it finds the same shard.
    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> &Mutex<LruCache<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Get (clones the value) and touch. `key` may be any borrowed form of
    /// `K`, so a hit allocates only the clone.
    pub fn get<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        self.shard(key).lock().get(key).cloned()
    }

    /// Touch without cloning the value: whether `key` is cached.
    pub fn touch<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.shard(key).lock().get(key).is_some()
    }

    /// Insert/replace.
    pub fn insert(&self, key: K, value: V) {
        self.shard(&key).lock().insert(key, value);
    }

    /// Remove.
    pub fn remove<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.shard(key).lock().remove(key)
    }

    /// Total cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity across shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().capacity()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_and_touch_order() {
        let mut c = LruCache::new(2);
        assert!(c.insert("a", 1).is_none());
        assert!(c.insert("b", 2).is_none());
        // Touch "a" so "b" becomes LRU.
        assert_eq!(c.get(&"a"), Some(&1));
        let evicted = c.insert("c", 3).expect("evicts LRU");
        assert_eq!(evicted, ("b", 2));
        assert_eq!(c.peek(&"a"), Some(&1));
        assert_eq!(c.peek(&"b"), None);
        assert_eq!(c.peek(&"c"), Some(&3));
    }

    #[test]
    fn replace_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert!(c.insert("a", 10).is_none());
        assert_eq!(c.len(), 2);
        assert_eq!(c.peek(&"a"), Some(&10));
    }

    #[test]
    fn remove_and_reuse() {
        let mut c = LruCache::new(3);
        c.insert(1, "x");
        c.insert(2, "y");
        assert!(c.remove(&1));
        assert!(!c.remove(&1));
        assert_eq!(c.len(), 1);
        c.insert(3, "z");
        c.insert(4, "w");
        assert_eq!(c.len(), 3);
        assert_eq!(c.peek(&2), Some(&"y"));
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut c = LruCache::new(0);
        assert!(c.insert("a", 1).is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(c.get(&"a"), None);
    }

    #[test]
    fn eviction_order_is_lru_not_fifo() {
        let mut c = LruCache::new(3);
        for (k, v) in [(1, 1), (2, 2), (3, 3)] {
            c.insert(k, v);
        }
        c.get(&1);
        c.get(&2);
        // 3 is now LRU.
        c.insert(4, 4);
        assert_eq!(c.peek(&3), None);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn sharded_concurrent_smoke() {
        // Capacity comfortably above the 4000 distinct keys inserted so no
        // shard can evict a just-inserted entry mid-assertion.
        let c = std::sync::Arc::new(ShardedLru::new(64_000, 8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        c.insert(format!("k{t}-{i}"), i);
                        assert_eq!(c.get(&format!("k{t}-{i}")), Some(i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(c.len() <= c.capacity());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum LruOp {
            Insert(u8, u32),
            Get(u8),
            Remove(u8),
            /// Read WITHOUT touching — recency must not move.
            Peek(u8),
            /// Drop everything (also resets the slab + free list).
            Clear,
        }

        fn lru_ops() -> impl Strategy<Value = Vec<LruOp>> {
            proptest::collection::vec(
                prop_oneof![
                    4 => (any::<u8>(), any::<u32>()).prop_map(|(k, v)| LruOp::Insert(k % 24, v)),
                    3 => any::<u8>().prop_map(|k| LruOp::Get(k % 24)),
                    2 => any::<u8>().prop_map(|k| LruOp::Remove(k % 24)),
                    2 => any::<u8>().prop_map(|k| LruOp::Peek(k % 24)),
                    1 => Just(LruOp::Clear),
                ],
                1..200,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The full op set (insert/get/remove/peek/clear) agrees with a
            /// recency-ordered model: same hit/miss answers, same length, on
            /// overflow it evicts exactly the least-recently-used entry
            /// (returned as `(key, value)`), `peek` answers like `get` but
            /// must NOT promote, and `clear` resets to an empty cache whose
            /// recency order rebuilds from scratch.
            #[test]
            fn ops_match_recency_model(capacity in 1usize..12, ops in lru_ops()) {
                let mut c = LruCache::new(capacity);
                // Model: vec ordered most- to least-recently used.
                let mut model: Vec<(u8, u32)> = Vec::new();
                for op in ops {
                    match op {
                        LruOp::Insert(k, v) => {
                            let evicted = c.insert(k, v);
                            if model.iter().any(|(mk, _)| *mk == k) {
                                model.retain(|(mk, _)| *mk != k);
                                model.insert(0, (k, v));
                                prop_assert_eq!(evicted, None, "replace must not evict");
                            } else if model.len() >= capacity {
                                let lru = model.pop().unwrap();
                                model.insert(0, (k, v));
                                prop_assert_eq!(evicted, Some(lru), "wrong victim");
                            } else {
                                model.insert(0, (k, v));
                                prop_assert_eq!(evicted, None, "evicted below capacity");
                            }
                        }
                        LruOp::Get(k) => {
                            let got = c.get(&k).copied();
                            let want = model.iter().find(|(mk, _)| *mk == k).map(|(_, v)| *v);
                            prop_assert_eq!(got, want);
                            if let Some(v) = want {
                                model.retain(|(mk, _)| *mk != k);
                                model.insert(0, (k, v));
                            }
                        }
                        LruOp::Remove(k) => {
                            let want = model.iter().any(|(mk, _)| *mk == k);
                            prop_assert_eq!(c.remove(&k), want);
                            model.retain(|(mk, _)| *mk != k);
                        }
                        LruOp::Peek(k) => {
                            let got = c.peek(&k).copied();
                            let want = model.iter().find(|(mk, _)| *mk == k).map(|(_, v)| *v);
                            prop_assert_eq!(got, want);
                            // Deliberately no model reorder: the end-of-run
                            // drain below fails if peek promoted anything.
                        }
                        LruOp::Clear => {
                            c.clear();
                            model.clear();
                        }
                    }
                    prop_assert_eq!(c.len(), model.len());
                    prop_assert!(c.len() <= capacity);
                }
                // Fill to capacity with fresh keys (all ops used keys < 24),
                // then keep inserting: survivors must leave in exact LRU
                // order, oldest first.
                let mut fresh = 100u8;
                while model.len() < capacity {
                    prop_assert_eq!(c.insert(fresh, 0), None);
                    model.insert(0, (fresh, 0));
                    fresh += 1;
                }
                while let Some(lru) = model.pop() {
                    prop_assert_eq!(c.insert(fresh, 0), Some(lru), "wrong drain victim");
                    fresh += 1;
                }
            }
        }
    }

    #[test]
    fn stress_against_reference_model() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        let mut c = LruCache::new(16);
        // Model: vector ordered by recency.
        let mut model: Vec<(u32, u32)> = Vec::new();
        for step in 0..10_000 {
            let k = rng.random_range(0..40u32);
            // Rare full clears exercise slab/free-list reset under load.
            if step % 2_500 == 2_499 {
                c.clear();
                model.clear();
                continue;
            }
            if rng.random_range(0..8u8) == 7 {
                // Peek: answers like get, promotes nothing.
                let got = c.peek(&k).copied();
                let want = model.iter().find(|(mk, _)| *mk == k).map(|(_, v)| *v);
                assert_eq!(got, want);
                continue;
            }
            match rng.random_range(0..3u8) {
                0 => {
                    let v = rng.random::<u32>();
                    c.insert(k, v);
                    model.retain(|(mk, _)| *mk != k);
                    model.insert(0, (k, v));
                    if model.len() > 16 {
                        model.pop();
                    }
                }
                1 => {
                    let got = c.get(&k).copied();
                    let want = model.iter().find(|(mk, _)| *mk == k).map(|(_, v)| *v);
                    assert_eq!(got, want);
                    if let Some(v) = want {
                        model.retain(|(mk, _)| *mk != k);
                        model.insert(0, (k, v));
                    }
                }
                _ => {
                    let got = c.remove(&k);
                    let want = model.iter().any(|(mk, _)| *mk == k);
                    assert_eq!(got, want);
                    model.retain(|(mk, _)| *mk != k);
                }
            }
            assert_eq!(c.len(), model.len());
        }
    }
}

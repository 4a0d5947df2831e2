//! A volatile skip-list map.
//!
//! Used (a) as the mirror of the persistent skip-list map and (b) as the
//! volatile `ConcurrentSkipListMap` stand-in of Figure 12. Arena-based
//! (indices instead of pointers) so it stays entirely in safe Rust.

use std::borrow::Borrow;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

const MAX_LEVEL: usize = 24;
const NIL: usize = usize::MAX;

struct SkipNode<K, V> {
    key: K,
    value: V,
    /// next[l] = arena index of the successor at level l.
    next: Vec<usize>,
}

/// A volatile ordered map backed by a skip list.
pub struct SkipListMap<K, V> {
    arena: Vec<SkipNode<K, V>>,
    /// Recycled arena slots.
    free: Vec<usize>,
    /// head[l] = first node at level l.
    head: [usize; MAX_LEVEL],
    level: usize,
    len: usize,
    rng: SmallRng,
}

impl<K: Ord, V> Default for SkipListMap<K, V> {
    fn default() -> Self {
        SkipListMap::new()
    }
}

impl<K: Ord, V> SkipListMap<K, V> {
    /// An empty map (deterministic tower heights, seeded per instance).
    pub fn new() -> SkipListMap<K, V> {
        SkipListMap {
            arena: Vec::new(),
            free: Vec::new(),
            head: [NIL; MAX_LEVEL],
            level: 1,
            len: 0,
            rng: SmallRng::seed_from_u64(0x5eed_cafe),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn random_level(&mut self) -> usize {
        let mut lvl = 1;
        while lvl < MAX_LEVEL && (self.rng.random::<u32>() & 3) == 0 {
            lvl += 1;
        }
        lvl
    }

    /// For each level `l`, the index of the last node with key < `key`
    /// (NIL meaning "head"). Returns the predecessor array.
    fn predecessors<Q: ?Sized + Ord>(&self, key: &Q) -> [usize; MAX_LEVEL]
    where
        K: Borrow<Q>,
    {
        let mut preds = [NIL; MAX_LEVEL];
        let mut cur = NIL; // head
        for l in (0..self.level).rev() {
            loop {
                let next = if cur == NIL {
                    self.head[l]
                } else {
                    self.arena[cur].next[l]
                };
                if next != NIL && self.arena[next].key.borrow() < key {
                    cur = next;
                } else {
                    break;
                }
            }
            preds[l] = cur;
        }
        preds
    }

    fn next_of(&self, node: usize, level: usize) -> usize {
        if node == NIL {
            self.head[level]
        } else {
            self.arena[node].next[level]
        }
    }

    fn set_next(&mut self, node: usize, level: usize, to: usize) {
        if node == NIL {
            self.head[level] = to;
        } else {
            self.arena[node].next[level] = to;
        }
    }

    /// Insert or replace; returns the previous value if the key existed.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let preds = self.predecessors(&key);
        let candidate = self.next_of(preds[0], 0);
        if candidate != NIL && self.arena[candidate].key == key {
            return Some(std::mem::replace(&mut self.arena[candidate].value, value));
        }
        let lvl = self.random_level();
        if lvl > self.level {
            self.level = lvl;
        }
        let node = SkipNode {
            key,
            value,
            next: vec![NIL; lvl],
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.arena[i] = node;
                i
            }
            None => {
                self.arena.push(node);
                self.arena.len() - 1
            }
        };
        for (l, &pred) in preds.iter().enumerate().take(lvl) {
            let succ = self.next_of(pred, l);
            self.arena[idx].next[l] = succ;
            self.set_next(pred, l, idx);
        }
        self.len += 1;
        None
    }

    /// Look up `key` (any form the key type borrows as).
    pub fn get<Q: ?Sized + Ord>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        let preds = self.predecessors(key);
        let candidate = self.next_of(preds[0], 0);
        if candidate != NIL && self.arena[candidate].key.borrow() == key {
            Some(&self.arena[candidate].value)
        } else {
            None
        }
    }

    /// Remove `key`; returns whether it was present. (The slot's value
    /// stays parked in the arena until reuse; [`SkipListMap::remove_cloned`]
    /// retrieves it for cloneable values.)
    pub fn remove<Q: ?Sized + Ord>(&mut self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        let preds = self.predecessors(key);
        let target = self.next_of(preds[0], 0);
        if target == NIL || self.arena[target].key.borrow() != key {
            return false;
        }
        let height = self.arena[target].next.len();
        for (l, &pred) in preds.iter().enumerate().take(height) {
            let succ = self.arena[target].next[l];
            self.set_next(pred, l, succ);
        }
        self.arena[target].next.clear();
        self.len -= 1;
        self.free.push(target);
        true
    }

    /// In-order iteration over `(key, value)`.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        let mut cur = self.head[0];
        while cur != NIL {
            let node = &self.arena[cur];
            f(&node.key, &node.value);
            cur = node.next[0];
        }
    }

    /// Keys in order, up to `limit`.
    pub fn first_keys(&self, limit: usize) -> Vec<&K> {
        let mut out = Vec::new();
        let mut cur = self.head[0];
        while cur != NIL && out.len() < limit {
            out.push(&self.arena[cur].key);
            cur = self.arena[cur].next[0];
        }
        out
    }
}

impl<K: Ord + Clone, V: Clone> SkipListMap<K, V> {
    /// Remove `key` and return clones of its key and value, as
    /// `BTreeMap::remove_entry` returns them. (The arena keeps the slot
    /// until reuse; cloning sidesteps moving out of the arena.)
    pub fn remove_cloned<Q: ?Sized + Ord>(&mut self, key: &Q) -> Option<(K, V)>
    where
        K: Borrow<Q>,
    {
        let preds = self.predecessors(key);
        let target = self.next_of(preds[0], 0);
        if target == NIL || self.arena[target].key.borrow() != key {
            return None;
        }
        let node = &self.arena[target];
        let entry = (node.key.clone(), node.value.clone());
        self.remove(key);
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove() {
        let mut m = SkipListMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, "five"), None);
        assert_eq!(m.insert(1, "one"), None);
        assert_eq!(m.insert(9, "nine"), None);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&5), Some(&"five"));
        assert_eq!(m.get(&2), None);
        assert_eq!(m.insert(5, "FIVE"), Some("five"));
        assert_eq!(m.len(), 3);
        assert_eq!(m.remove_cloned(&5), Some((5, "FIVE")));
        assert_eq!(m.get(&5), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove_cloned(&5), None);
    }

    #[test]
    fn iteration_is_ordered() {
        let mut m = SkipListMap::new();
        for k in [9, 3, 7, 1, 5, 8, 2, 6, 4, 0] {
            m.insert(k, k * 10);
        }
        let mut seen = Vec::new();
        m.for_each(|k, v| {
            seen.push((*k, *v));
        });
        assert_eq!(seen, (0..10).map(|k| (k, k * 10)).collect::<Vec<_>>());
        assert_eq!(m.first_keys(3), vec![&0, &1, &2]);
    }

    #[test]
    fn agrees_with_btreemap_under_random_ops() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let mut sl: SkipListMap<u32, u32> = SkipListMap::new();
        let mut bt: BTreeMap<u32, u32> = BTreeMap::new();
        for _ in 0..5000 {
            let k = rng.random_range(0..500u32);
            match rng.random_range(0..3u8) {
                0 => {
                    let v = rng.random::<u32>();
                    assert_eq!(sl.insert(k, v), bt.insert(k, v));
                }
                1 => {
                    assert_eq!(sl.get(&k).copied(), bt.get(&k).copied());
                }
                _ => {
                    assert_eq!(sl.remove_cloned(&k), bt.remove_entry(&k));
                }
            }
            assert_eq!(sl.len(), bt.len());
        }
        let mut pairs = Vec::new();
        sl.for_each(|k, v| pairs.push((*k, *v)));
        assert_eq!(pairs, bt.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn slot_reuse_after_removal() {
        let mut m = SkipListMap::new();
        for k in 0..100 {
            m.insert(k, k);
        }
        for k in 0..100 {
            m.remove_cloned(&k);
        }
        assert!(m.is_empty());
        for k in 0..100 {
            m.insert(k, k + 1);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&42), Some(&43));
    }
}

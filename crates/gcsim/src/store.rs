//! The two stores the motivation experiments run on (§2.2.1).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Duration;

use crate::gen::{GenConfig, GenerationalGc};
use crate::heap::{ManagedHeap, ObjId, RootId};
use crate::tricolor::TriColorGc;

/// go-redis-pmem: a feature-poor Redis whose records live in the managed
/// (joint volatile + persistent) heap. Every GC pass marks the entire
/// dataset — the mechanism behind Figure 2.
pub struct RedisLikeStore {
    heap: ManagedHeap,
    gc: TriColorGc,
    index: HashMap<String, (RootId, ObjId)>,
    nfields: usize,
    field_size: u32,
}

impl RedisLikeStore {
    /// `gc_threshold` is go-pmem's forced-collection budget ("every 10 GB
    /// of allocation", scaled down with everything else).
    pub fn new(nfields: usize, field_size: u32, gc_threshold: u64) -> RedisLikeStore {
        RedisLikeStore {
            heap: ManagedHeap::new(),
            gc: TriColorGc::new(gc_threshold),
            index: HashMap::new(),
            nfields,
            field_size,
        }
    }

    fn alloc_record(&mut self) -> ObjId {
        let fields: Vec<ObjId> = (0..self.nfields)
            .map(|_| self.heap.alloc(self.field_size, vec![]))
            .collect();
        self.heap.alloc(8 * self.nfields as u32 + 16, fields)
    }

    /// Insert (or replace) `key`.
    pub fn insert(&mut self, key: &str) {
        let rec = self.alloc_record();
        match self.index.get(key) {
            Some((root, _)) => {
                let root = *root;
                self.heap.set_root(root, rec);
                self.index.insert(key.to_string(), (root, rec));
            }
            None => {
                let root = self.heap.add_root(rec);
                self.index.insert(key.to_string(), (root, rec));
            }
        }
        self.gc.maybe_collect(&mut self.heap);
    }

    /// Read `key`: touches every field object (real pointer chasing).
    pub fn read(&mut self, key: &str) -> bool {
        match self.index.get(key) {
            Some((_, rec)) => {
                let mut checksum = 0u64;
                for slot in 0..self.nfields {
                    let f = self.heap.get_ref(*rec, slot);
                    checksum ^= f as u64;
                }
                std::hint::black_box(checksum);
                true
            }
            None => false,
        }
    }

    /// Read-modify-write: replace one field object (the old one becomes
    /// garbage for the next GC pass).
    pub fn rmw(&mut self, key: &str, field: usize) -> bool {
        let Some((_, rec)) = self.index.get(key).copied() else {
            return false;
        };
        self.read(key);
        let fresh = self.heap.alloc(self.field_size, vec![]);
        self.heap.set_ref(rec, field % self.nfields, fresh);
        self.gc.maybe_collect(&mut self.heap);
        true
    }

    /// Allocate transient client-side garbage (Go's YCSB client allocates
    /// wrappers per operation; this models that allocation pressure, which
    /// sets the collection frequency).
    pub fn alloc_temp(&mut self, size: u32) {
        let tmp = self.heap.alloc(size, vec![]);
        std::hint::black_box(tmp);
        self.gc.maybe_collect(&mut self.heap);
    }

    /// Records stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no record is stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Cumulative GC time.
    pub fn gc_time(&self) -> Duration {
        self.gc.gc_time
    }

    /// GC passes run and objects visited.
    pub fn gc_stats(&self) -> (u64, u64) {
        (self.gc.passes, self.gc.objects_visited)
    }

    /// The heap (inspection).
    pub fn heap(&self) -> &ManagedHeap {
        &self.heap
    }
}

/// Modeled file-system costs for [`CachedFsStore`] (spin-injected; the
/// *real* marshalling cost model lives in `jnvm-kvstore` — here the
/// subject under study is the collector, so FS work is a constant).
#[derive(Debug, Clone, Copy)]
pub struct FsCost {
    /// Read-path cost (syscall + unmarshal), nanoseconds.
    pub read_ns: u64,
    /// Write-path cost, nanoseconds.
    pub write_ns: u64,
}

impl FsCost {
    /// Zero cost (tests).
    pub const fn free() -> FsCost {
        FsCost {
            read_ns: 0,
            write_ns: 0,
        }
    }
}

/// Infinispan-over-ext4 with a volatile LRU cache of configurable ratio —
/// the store behind Figure 1. Cached records are old-generation live data;
/// unmarshalled records and temporaries are young garbage.
pub struct CachedFsStore {
    heap: ManagedHeap,
    gc: GenerationalGc,
    /// Transient objects allocated per operation beyond the record graphs
    /// (marshalling buffers, boxed wrappers — the Java client/stack churn).
    pub temps_per_op: usize,
    /// Number of recent temporaries kept referenced across collection
    /// boundaries (connection/session state, batched result buffers).
    /// These medium-lived objects are what G1 promotes and later collects
    /// from the old generation; 0 disables the effect.
    pub survivor_window: usize,
    survivors: VecDeque<(RootId, ObjId)>,
    /// key -> (root, record object, recency stamp).
    cache: HashMap<String, (RootId, ObjId, u64)>,
    /// recency stamp -> key (LRU order).
    recency: BTreeMap<u64, String>,
    stamp: u64,
    cache_capacity: usize,
    nfields: usize,
    field_size: u32,
    costs: FsCost,
}

impl CachedFsStore {
    /// Create with a cache of `cache_capacity` records.
    pub fn new(
        cache_capacity: usize,
        nfields: usize,
        field_size: u32,
        gc: GenConfig,
        costs: FsCost,
    ) -> CachedFsStore {
        CachedFsStore {
            heap: ManagedHeap::new(),
            gc: GenerationalGc::new(gc),
            temps_per_op: 2,
            survivor_window: 0,
            survivors: VecDeque::new(),
            cache: HashMap::new(),
            recency: BTreeMap::new(),
            stamp: 0,
            cache_capacity,
            nfields,
            field_size,
            costs,
        }
    }

    fn alloc_record(&mut self) -> ObjId {
        let fields: Vec<ObjId> = (0..self.nfields)
            .map(|_| self.gc.alloc(&mut self.heap, self.field_size, vec![]))
            .collect();
        self.gc
            .alloc(&mut self.heap, 8 * self.nfields as u32 + 16, fields)
    }

    fn touch(&mut self, key: &str) {
        if let Some((_, _, old_stamp)) = self.cache.get(key) {
            let old = *old_stamp;
            self.recency.remove(&old);
            self.stamp += 1;
            let s = self.stamp;
            self.recency.insert(s, key.to_string());
            if let Some(e) = self.cache.get_mut(key) {
                e.2 = s;
            }
        }
    }

    fn cache_insert(&mut self, key: &str, rec: ObjId) {
        if self.cache_capacity == 0 {
            return;
        }
        if self.cache.len() >= self.cache_capacity && !self.cache.contains_key(key) {
            // Evict LRU: the record graph becomes old-generation garbage.
            if let Some((_, victim)) = self.recency.pop_first() {
                if let Some((root, _, _)) = self.cache.remove(&victim) {
                    self.heap.remove_root(root);
                }
            }
        }
        self.stamp += 1;
        match self.cache.get(key) {
            Some((root, _, old_stamp)) => {
                let (root, old_stamp) = (*root, *old_stamp);
                self.recency.remove(&old_stamp);
                self.heap.set_root(root, rec);
                self.cache.insert(key.to_string(), (root, rec, self.stamp));
            }
            None => {
                let root = self.heap.add_root(rec);
                self.cache.insert(key.to_string(), (root, rec, self.stamp));
            }
        }
        let s = self.stamp;
        self.recency.insert(s, key.to_string());
    }

    /// Read `key` (assumed loaded): cache hit touches the record; a miss
    /// pays the FS cost and materializes a fresh record graph. Both paths
    /// allocate result-copy temporaries (the client materializes the
    /// record either way).
    pub fn read(&mut self, key: &str) {
        if self.cache.contains_key(key) {
            self.touch(key);
            let rec = self.cache[key].1;
            let mut cs = 0u64;
            for slot in 0..self.nfields {
                cs ^= self.heap.get_ref(rec, slot) as u64;
            }
            std::hint::black_box(cs);
        } else {
            jnvm_pmem_free_spin(self.costs.read_ns);
            let rec = self.alloc_record();
            self.cache_insert(key, rec);
        }
        self.alloc_temps();
        self.gc.maybe_collect(&mut self.heap);
    }

    fn alloc_temps(&mut self) {
        // Temporaries are record-shaped graphs: the Java path materializes
        // result maps, marshalling buffers and boxed fields per operation.
        for _ in 0..self.temps_per_op {
            let tmp = self.alloc_record();
            if self.survivor_window > 0 {
                // Medium-lived: stays referenced across young collections,
                // gets promoted, then dies in the old generation.
                let root = self.heap.add_root(tmp);
                self.survivors.push_back((root, tmp));
                if self.survivors.len() > self.survivor_window {
                    if let Some((old_root, _)) = self.survivors.pop_front() {
                        self.heap.remove_root(old_root);
                    }
                }
            } else {
                std::hint::black_box(tmp);
            }
        }
    }

    /// Read-modify-write: write-through to the FS plus fresh temporaries
    /// (the marshalling garbage). If the key is cached, the cached record
    /// graph is **replaced** — the old, promoted graph becomes
    /// old-generation garbage, the mechanism that makes large caches
    /// GC-expensive (§2.2.1).
    pub fn rmw(&mut self, key: &str) {
        self.read(key);
        jnvm_pmem_free_spin(self.costs.write_ns);
        self.alloc_temps();
        if self.cache.contains_key(key) {
            let fresh = self.alloc_record();
            let (root, _, stamp) = self.cache[key];
            self.heap.set_root(root, fresh);
            self.cache.insert(key.to_string(), (root, fresh, stamp));
        }
        self.gc.maybe_collect(&mut self.heap);
    }

    /// Cached records.
    pub fn cached(&self) -> usize {
        self.cache.len()
    }

    /// Cumulative GC time.
    pub fn gc_time(&self) -> Duration {
        self.gc.gc_time
    }

    /// The collector (pause inspection).
    pub fn gc(&self) -> &GenerationalGc {
        &self.gc
    }

    /// The heap (inspection).
    pub fn heap(&self) -> &ManagedHeap {
        &self.heap
    }
}

// gcsim deliberately has no dependency on jnvm-pmem; a local spin keeps
// the modeled FS cost self-contained.
fn jnvm_pmem_free_spin(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = std::time::Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redis_like_insert_read_rmw() {
        let mut s = RedisLikeStore::new(10, 100, u64::MAX);
        for i in 0..100 {
            s.insert(&format!("k{i}"));
        }
        assert_eq!(s.len(), 100);
        assert!(s.read("k5"));
        assert!(!s.read("missing"));
        assert!(s.rmw("k5", 3));
        assert!(!s.rmw("missing", 0));
        // 100 records x 11 objects, plus one replaced field not yet
        // collected.
        assert_eq!(s.heap().stats().objects, 1101);
    }

    #[test]
    fn redis_like_gc_time_grows_with_dataset() {
        // Two identical op sequences over different dataset sizes: the
        // bigger store must visit ~10x the objects in GC.
        let run = |records: usize| {
            let mut s = RedisLikeStore::new(10, 100, 50_000);
            for i in 0..records {
                s.insert(&format!("k{i}"));
            }
            let (_passes_before, _) = s.gc_stats();
            for i in 0..2000 {
                s.rmw(&format!("k{}", i % records), i);
            }
            let (passes, visited) = s.gc_stats();
            (passes, visited)
        };
        let (p_small, v_small) = run(100);
        let (p_big, v_big) = run(1000);
        assert!(p_small > 0 && p_big > 0);
        let per_pass_small = v_small / p_small.max(1);
        let per_pass_big = v_big / p_big.max(1);
        assert!(
            per_pass_big > per_pass_small * 5,
            "marking work per pass must scale with the dataset: {per_pass_small} vs {per_pass_big}"
        );
    }

    #[test]
    fn cached_fs_store_eviction_bounds_cache() {
        let mut s = CachedFsStore::new(
            10,
            10,
            100,
            GenConfig {
                eden_bytes: u64::MAX,
                ..GenConfig::default()
            },
            FsCost::free(),
        );
        for i in 0..100 {
            s.read(&format!("k{i}"));
        }
        assert_eq!(s.cached(), 10);
    }

    #[test]
    fn cached_fs_store_old_gen_tracks_cache_ratio() {
        let run = |cache: usize| {
            let mut s = CachedFsStore::new(
                cache,
                10,
                100,
                GenConfig {
                    eden_bytes: 64 << 10,
                    old_trigger_factor: 10.0, // no full GCs: observe old growth
                    min_old_bytes: u64::MAX,
                    ..GenConfig::default()
                },
                FsCost::free(),
            );
            s.temps_per_op = 0; // isolate the cache's contribution
            for i in 0..2000u32 {
                s.read(&format!("k{}", i % 1000));
            }
            s.gc().old_bytes()
        };
        let small = run(10);
        let big = run(500);
        assert!(
            big > small * 5,
            "old generation must scale with the cache: {small} vs {big}"
        );
    }

    #[test]
    fn cache_hits_allocate_only_temporaries() {
        let mut s = CachedFsStore::new(
            10,
            10,
            100,
            GenConfig {
                eden_bytes: u64::MAX,
                ..GenConfig::default()
            },
            FsCost::free(),
        );
        s.temps_per_op = 0;
        s.read("k");
        let before = s.heap().stats().total_allocated;
        for _ in 0..100 {
            s.read("k"); // hits: no record graph materialized
        }
        assert_eq!(s.heap().stats().total_allocated, before);
        s.temps_per_op = 2;
        s.read("k");
        assert!(s.heap().stats().total_allocated > before, "temps allocated");
    }
}

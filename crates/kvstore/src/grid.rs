//! The embedded data grid: sharded LRU cache + write-through backend +
//! per-key lock striping (Infinispan embedded mode, §5.1).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::Backend;
use crate::codec::{encode_record_into, Record};
use crate::lru::ShardedLru;

/// Shards of the volatile record cache.
const CACHE_SHARDS: usize = 64;
/// Per-key lock stripes.
const LOCK_STRIPES: usize = 256;

/// Grid configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridConfig {
    /// Volatile cache capacity in records (the paper caches ≤ 10 % of the
    /// dataset; J-NVM backends run with 0 — caching brings them nothing,
    /// §5.3.1).
    pub cache_capacity: usize,
}

/// Grid-level counters.
#[derive(Debug, Default)]
pub struct GridMetrics {
    /// Cache hits.
    pub hits: AtomicU64,
    /// Cache misses.
    pub misses: AtomicU64,
    /// Read operations.
    pub reads: AtomicU64,
    /// Write operations (insert + update).
    pub writes: AtomicU64,
}

/// An embedded data grid over a persistence [`Backend`].
pub struct DataGrid {
    backend: Arc<dyn Backend>,
    cache: ShardedLru<String, Record>,
    cache_enabled: bool,
    locks: Vec<Mutex<()>>,
    metrics: GridMetrics,
}

impl DataGrid {
    /// Build a grid over `backend`.
    pub fn new(backend: Arc<dyn Backend>, cfg: GridConfig) -> DataGrid {
        DataGrid {
            backend,
            cache: ShardedLru::new(cfg.cache_capacity, CACHE_SHARDS),
            cache_enabled: cfg.cache_capacity > 0,
            locks: (0..LOCK_STRIPES).map(|_| Mutex::new(())).collect(),
            metrics: GridMetrics::default(),
        }
    }

    fn stripe(&self, key: &str) -> &Mutex<()> {
        &self.locks[self.stripe_index(key)]
    }

    /// Index of the lock stripe guarding `key` (FNV-1a, as everywhere).
    /// Exposed so the group committer can detect same-stripe conflicts and
    /// hold the same locks the direct-call paths take.
    pub(crate) fn stripe_index(&self, key: &str) -> usize {
        (crate::fnv1a(key) as usize) % LOCK_STRIPES
    }

    /// The stripe lock at `idx` (from [`DataGrid::stripe_index`]).
    pub(crate) fn stripe_at(&self, idx: usize) -> &Mutex<()> {
        &self.locks[idx]
    }

    /// Drop `key` from the volatile cache (used by the group committer,
    /// whose writes bypass the write-through paths).
    pub(crate) fn invalidate(&self, key: &str) {
        if self.cache_enabled {
            self.cache.remove(key);
        }
    }

    /// The backing store.
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    /// Grid counters.
    pub fn metrics(&self) -> &GridMetrics {
        &self.metrics
    }

    /// Records in the backend.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// True when the backend holds no record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert (or replace) a record, write-through.
    pub fn insert(&self, rec: &Record) -> bool {
        let _g = self.stripe(&rec.key).lock();
        self.metrics.writes.fetch_add(1, Ordering::Relaxed);
        let ok = self.backend.store_full(rec);
        if ok && self.cache_enabled {
            self.cache.insert(rec.key.clone(), rec.clone());
        }
        ok
    }

    /// Read a record: volatile cache first, then the backend.
    pub fn read(&self, key: &str) -> Option<Record> {
        let _g = self.stripe(key).lock();
        self.metrics.reads.fetch_add(1, Ordering::Relaxed);
        if self.cache_enabled {
            if let Some(rec) = self.cache.get(key) {
                self.metrics.hits.fetch_add(1, Ordering::Relaxed);
                return Some(rec);
            }
        }
        self.metrics.misses.fetch_add(1, Ordering::Relaxed);
        let rec = self.backend.read(key)?;
        if self.cache_enabled {
            self.cache.insert(key.to_string(), rec.clone());
        }
        Some(rec)
    }

    /// [`DataGrid::read`] marshalled ([`crate::encode_record`]'s bytes) onto `out`:
    /// same stripe lock, same counters, `out` untouched when absent. An
    /// uncached grid lets the backend encode (J-NVM: straight out of NVMM).
    pub fn read_encoded(&self, key: &str, out: &mut Vec<u8>) -> bool {
        if self.cache_enabled {
            return self
                .read(key)
                .map(|rec| encode_record_into(&rec, out))
                .is_some();
        }
        let _g = self.stripe(key).lock();
        self.metrics.reads.fetch_add(1, Ordering::Relaxed);
        self.metrics.misses.fetch_add(1, Ordering::Relaxed);
        self.backend.read_encoded(key, out)
    }

    /// Serve a read without forcing full materialization when the backend
    /// supports it (J-NVM designs hand out persistent values; §5.2).
    /// Cache hits still return materialized records.
    pub fn read_touch(&self, key: &str) -> bool {
        let _g = self.stripe(key).lock();
        self.read_touch_locked(key)
    }

    /// [`DataGrid::read_touch`] body; caller holds the key's stripe lock.
    fn read_touch_locked(&self, key: &str) -> bool {
        self.metrics.reads.fetch_add(1, Ordering::Relaxed);
        if self.cache_enabled && self.cache.touch(key) {
            self.metrics.hits.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        self.metrics.misses.fetch_add(1, Ordering::Relaxed);
        if self.backend.prefers_field_updates() {
            // J-NVM path: proxy touch.
            self.backend.read_touch(key)
        } else {
            let rec = self.backend.read(key);
            if let Some(rec) = rec {
                if self.cache_enabled {
                    self.cache.insert(key.to_string(), rec);
                }
                true
            } else {
                false
            }
        }
    }

    /// Update one positional field, write-through.
    ///
    /// J-NVM-style backends take the in-place path; external-design
    /// backends do read-modify-write with whole-record marshalling (which
    /// is exactly the asymmetry Figure 7 measures).
    pub fn update_field(&self, key: &str, field: usize, value: &[u8]) -> bool {
        let _g = self.stripe(key).lock();
        self.update_field_locked(key, field, value)
    }

    /// [`DataGrid::update_field`] body; caller holds the key's stripe lock.
    fn update_field_locked(&self, key: &str, field: usize, value: &[u8]) -> bool {
        self.metrics.writes.fetch_add(1, Ordering::Relaxed);
        let ok = if self.backend.prefers_field_updates() {
            self.backend.update_field(key, field, value)
        } else {
            let rec = if self.cache_enabled {
                self.cache.get(key)
            } else {
                None
            };
            let rec = rec.or_else(|| self.backend.read(key));
            let mut rec = match rec {
                Some(r) => r,
                None if self.backend.is_black_hole() => {
                    // The black hole stores nothing, but the write-through
                    // path still marshals a full record (Figure 8's point).
                    Record::ycsb(key, &vec![value.to_vec(); 10])
                }
                None => return false,
            };
            if !rec.set_field(field, value) {
                return false;
            }
            self.backend.store_full(&rec)
        };
        if ok && self.cache_enabled {
            // Keep the cached copy coherent (write-through).
            if let Some(mut rec) = self.cache.get(key) {
                if rec.set_field(field, value) {
                    self.cache.insert(key.to_string(), rec);
                }
            }
        }
        ok
    }

    /// Read-modify-write: read the record (through proxies for J-NVM
    /// backends, materialized otherwise), then update one field.
    pub fn rmw(&self, key: &str, field: usize, value: &[u8]) -> bool {
        // Single-key RMW: one stripe-lock acquisition covers both halves,
        // so no concurrent writer can interleave between the read and the
        // update.
        let _g = self.stripe(key).lock();
        self.read_touch_locked(key) && self.update_field_locked(key, field, value)
    }

    /// Remove a record.
    pub fn remove(&self, key: &str) -> bool {
        let _g = self.stripe(key).lock();
        self.metrics.writes.fetch_add(1, Ordering::Relaxed);
        if self.cache_enabled {
            self.cache.remove(key);
        }
        self.backend.remove(key)
    }

    /// Cache hit ratio since start.
    pub fn hit_ratio(&self) -> f64 {
        let h = self.metrics.hits.load(Ordering::Relaxed) as f64;
        let m = self.metrics.misses.load(Ordering::Relaxed) as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::VolatileBackend;
    use crate::simfs::FsBackend;
    use crate::CostModel;
    use jnvm_pmem::{Pmem, PmemConfig};

    fn volatile_grid(cache: usize) -> DataGrid {
        DataGrid::new(Arc::new(VolatileBackend::new()), GridConfig { cache_capacity: cache })
    }

    #[test]
    fn insert_read_update_remove() {
        let g = volatile_grid(10);
        let rec = Record::ycsb("k", &[b"a".to_vec(), b"b".to_vec()]);
        assert!(g.insert(&rec));
        assert_eq!(g.read("k").unwrap(), rec);
        assert!(g.update_field("k", 1, b"B"));
        assert_eq!(g.read("k").unwrap().fields.value(1), b"B");
        assert!(g.rmw("k", 0, b"A"));
        assert_eq!(g.read("k").unwrap().fields.value(0), b"A");
        assert!(g.remove("k"));
        assert!(g.read("k").is_none());
    }

    #[test]
    fn cache_serves_hits() {
        let g = volatile_grid(10);
        let rec = Record::ycsb("k", &[b"v".to_vec()]);
        g.insert(&rec);
        g.read("k");
        g.read("k");
        assert!(g.metrics().hits.load(Ordering::Relaxed) >= 2);
        assert!(g.hit_ratio() > 0.5);
    }

    #[test]
    fn cache_stays_coherent_after_update() {
        let g = volatile_grid(10);
        let rec = Record::ycsb("k", &[b"old".to_vec()]);
        g.insert(&rec);
        g.read("k"); // cached
        g.update_field("k", 0, b"new");
        assert_eq!(g.read("k").unwrap().fields.value(0), b"new");
    }

    #[test]
    fn rmw_on_external_backend_marshal_path() {
        let pmem = Pmem::new(PmemConfig::perf(8 << 20));
        let be = Arc::new(FsBackend::new(pmem, 4096, CostModel::free()));
        let g = DataGrid::new(be, GridConfig { cache_capacity: 4 });
        let rec = Record::ycsb("k", &[b"x".to_vec(), b"y".to_vec()]);
        g.insert(&rec);
        assert!(g.update_field("k", 0, b"X"));
        assert_eq!(g.read("k").unwrap().fields.value(0), b"X");
        assert!(!g.update_field("absent", 0, b"X"));
    }

    #[test]
    fn cache_disabled_always_misses() {
        let g = volatile_grid(0);
        let rec = Record::ycsb("k", &[b"v".to_vec()]);
        g.insert(&rec);
        g.read("k");
        g.read("k");
        assert_eq!(g.metrics().hits.load(Ordering::Relaxed), 0);
        assert_eq!(g.hit_ratio(), 0.0);
    }

    #[test]
    fn concurrent_rmw_preserves_per_key_atomicity() {
        let g = Arc::new(volatile_grid(0));
        g.insert(&Record::ycsb("k", &[0u64.to_le_bytes().to_vec()]));
        // 8 threads × 100 increments through rmw-like cycles under the
        // grid; the stripe lock serializes per key.
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        loop {
                            let cur = g.read("k").unwrap();
                            let v =
                                u64::from_le_bytes(cur.fields.value(0)[..8].try_into().unwrap());
                            // CAS-like: reinsert only if unchanged (the
                            // VolatileBackend's update is atomic per call).
                            if g.update_field_cas("k", v, v + 1) {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let v = u64::from_le_bytes(
            g.read("k").unwrap().fields.value(0)[..8]
                .try_into()
                .unwrap(),
        );
        assert_eq!(v, 800);
    }

    /// A backend that detects a writer interleaving between the read and
    /// the update halves of [`DataGrid::rmw`]: every mutation bumps a
    /// version; `read_touch` remembers the version its thread saw, and
    /// `update_field` flags the rmw as torn when the version moved in
    /// between. With rmw holding the stripe lock across both halves no
    /// interleave is possible.
    #[derive(Default)]
    struct VersionedBackend {
        version: AtomicU64,
        seen: Mutex<std::collections::HashMap<std::thread::ThreadId, u64>>,
        torn: AtomicU64,
    }

    impl crate::backend::Backend for VersionedBackend {
        fn name(&self) -> &'static str {
            "versioned"
        }
        fn store_full(&self, _rec: &Record) -> bool {
            self.version.fetch_add(1, Ordering::SeqCst);
            true
        }
        fn read(&self, key: &str) -> Option<Record> {
            Some(Record::ycsb(key, &[b"v".to_vec()]))
        }
        fn read_touch(&self, _key: &str) -> bool {
            let v = self.version.load(Ordering::SeqCst);
            self.seen.lock().insert(std::thread::current().id(), v);
            // Widen the rmw window so an unlocked gap is actually hit.
            std::thread::yield_now();
            true
        }
        fn update_field(&self, _key: &str, _field: usize, _value: &[u8]) -> bool {
            let seen = self.seen.lock().remove(&std::thread::current().id());
            let now = self.version.fetch_add(1, Ordering::SeqCst);
            if let Some(seen) = seen {
                if now != seen {
                    self.torn.fetch_add(1, Ordering::SeqCst);
                }
            }
            true
        }
        fn remove(&self, _key: &str) -> bool {
            self.version.fetch_add(1, Ordering::SeqCst);
            true
        }
        fn len(&self) -> usize {
            1
        }
        fn prefers_field_updates(&self) -> bool {
            true
        }
    }

    #[test]
    fn rmw_holds_stripe_lock_across_read_and_update() {
        let be = Arc::new(VersionedBackend::default());
        let g = Arc::new(DataGrid::new(
            Arc::clone(&be) as Arc<dyn Backend>,
            GridConfig { cache_capacity: 0 },
        ));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        if (t + i) % 2 == 0 {
                            assert!(g.rmw("k", 0, b"x"));
                        } else {
                            // The competing writer that used to slip into
                            // rmw's unlocked gap.
                            assert!(g.update_field("k", 0, b"y"));
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            be.torn.load(Ordering::SeqCst),
            0,
            "a writer interleaved between rmw's read and update"
        );
    }

    /// A counter backend for proving rmw's read and update halves execute
    /// under one continuous stripe-lock hold: `read_touch` observes the
    /// counter, `update_field` stores back observed + 1. Any writer
    /// interleaving between the halves loses increments, so an exact
    /// final sum is only possible with the lock held across both.
    #[derive(Default)]
    struct CounterBackend {
        value: AtomicU64,
        seen: Mutex<std::collections::HashMap<std::thread::ThreadId, u64>>,
    }

    impl crate::backend::Backend for CounterBackend {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn store_full(&self, _rec: &Record) -> bool {
            true
        }
        fn read(&self, key: &str) -> Option<Record> {
            Some(Record::ycsb(
                key,
                &[self.value.load(Ordering::SeqCst).to_le_bytes().to_vec()],
            ))
        }
        fn read_touch(&self, _key: &str) -> bool {
            let v = self.value.load(Ordering::SeqCst);
            self.seen.lock().insert(std::thread::current().id(), v);
            // Widen the read-to-update window so an unlocked gap is hit.
            std::thread::yield_now();
            true
        }
        fn update_field(&self, _key: &str, _field: usize, _value: &[u8]) -> bool {
            let seen = self
                .seen
                .lock()
                .remove(&std::thread::current().id())
                .expect("rmw update half without its read half");
            self.value.store(seen + 1, Ordering::SeqCst);
            true
        }
        fn remove(&self, _key: &str) -> bool {
            true
        }
        fn len(&self) -> usize {
            1
        }
        fn prefers_field_updates(&self) -> bool {
            true
        }
    }

    #[test]
    fn concurrent_rmw_counter_sum_is_exact() {
        let be = Arc::new(CounterBackend::default());
        let g = Arc::new(DataGrid::new(
            Arc::clone(&be) as Arc<dyn Backend>,
            GridConfig { cache_capacity: 0 },
        ));
        const T: usize = 8;
        const K: u64 = 250;
        let threads: Vec<_> = (0..T)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for _ in 0..K {
                        assert!(g.rmw("k", 0, b"x"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            be.value.load(Ordering::SeqCst),
            T as u64 * K,
            "lost increments: rmw released the stripe lock between read and update"
        );
    }

    #[test]
    fn remove_counts_as_write() {
        let g = volatile_grid(0);
        g.insert(&Record::ycsb("k", &[b"v".to_vec()]));
        let before = g.metrics().writes.load(Ordering::Relaxed);
        g.remove("k");
        assert_eq!(g.metrics().writes.load(Ordering::Relaxed), before + 1);
    }

    impl DataGrid {
        /// Test helper: compare-and-set the first field as a u64 counter.
        fn update_field_cas(&self, key: &str, expect: u64, new: u64) -> bool {
            let _g = self.stripe(key).lock();
            let Some(rec) = self.backend.read(key) else {
                return false;
            };
            let cur = u64::from_le_bytes(rec.fields.value(0)[..8].try_into().unwrap());
            if cur != expect {
                return false;
            }
            self.backend
                .update_field(key, 0, &new.to_le_bytes())
        }
    }
}

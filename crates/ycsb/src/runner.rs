//! The YCSB client runner.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::generator::{Generator, LatestGenerator, ScrambledZipfianGenerator};
use crate::workload::{RequestDistribution, WorkloadSpec};
use crate::Histogram;
use crate::{field_value, record_key};

/// The operations a store adapter must serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Fetch a record (all fields when `read_all_fields`).
    Read,
    /// Rewrite one field of a record.
    Update,
    /// Insert a fresh record.
    Insert,
    /// Read, modify one field, write back.
    Rmw,
}

/// A per-thread connection to the store under test.
///
/// Return `false` for an operation the store failed to apply (missing key
/// on a read is still `true`-worthy: YCSB counts it as a completed
/// operation).
pub trait KvClient: Send {
    /// Read `key` (all fields). Implementations should materialize the
    /// field values (that is where marshalling costs surface).
    fn read(&mut self, key: &str) -> bool;
    /// Overwrite field `field` of `key` with `value`.
    fn update(&mut self, key: &str, field: usize, value: &[u8]) -> bool;
    /// Insert a record with the given field values.
    fn insert(&mut self, key: &str, fields: &[Vec<u8>]) -> bool;
    /// Read `key`, then overwrite field `field` with `value`.
    fn rmw(&mut self, key: &str, field: usize, value: &[u8]) -> bool;
}

/// Outcome of a run: wall time, throughput and latency distributions.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock completion time.
    pub completion: Duration,
    /// Operations executed.
    pub ops: u64,
    /// Operations per second.
    pub throughput: f64,
    /// All operations.
    pub total: Histogram,
    /// Reads only.
    pub reads: Histogram,
    /// Updates only.
    pub updates: Histogram,
    /// Inserts only.
    pub inserts: Histogram,
    /// Read-modify-writes only.
    pub rmws: Histogram,
}

impl RunReport {
    fn empty() -> RunReport {
        RunReport {
            completion: Duration::ZERO,
            ops: 0,
            throughput: 0.0,
            total: Histogram::new(),
            reads: Histogram::new(),
            updates: Histogram::new(),
            inserts: Histogram::new(),
            rmws: Histogram::new(),
        }
    }

    fn merge(&mut self, other: &RunReport) {
        self.ops += other.ops;
        self.total.merge(&other.total);
        self.reads.merge(&other.reads);
        self.updates.merge(&other.updates);
        self.inserts.merge(&other.inserts);
        self.rmws.merge(&other.rmws);
    }
}

fn make_generator(spec: &WorkloadSpec, items: u64, seed: u64) -> Box<dyn Generator> {
    match spec.distribution {
        RequestDistribution::Zipfian => Box::new(ScrambledZipfianGenerator::new(items, seed)),
        RequestDistribution::Latest => Box::new(LatestGenerator::new(items, seed)),
        RequestDistribution::Uniform => Box::new(crate::UniformGenerator::new(items, seed)),
    }
}

/// Load phase: insert `spec.record_count` records through `spec.threads`
/// clients. Returns the wall time.
pub fn run_load<C, F>(spec: &WorkloadSpec, factory: F) -> Duration
where
    C: KvClient,
    F: Fn(usize) -> C + Sync,
{
    let start = Instant::now();
    let threads = spec.threads.max(1);
    std::thread::scope(|s| {
        for t in 0..threads {
            let spec = spec.clone();
            let factory = &factory;
            s.spawn(move || {
                let mut client = factory(t);
                let mut rng = SmallRng::seed_from_u64(spec.seed ^ (t as u64) << 32);
                let mut n = t as u64;
                while n < spec.record_count {
                    let fields: Vec<Vec<u8>> = (0..spec.field_count)
                        .map(|_| field_value(&mut rng, spec.field_len))
                        .collect();
                    client.insert(&record_key(n), &fields);
                    n += threads as u64;
                }
            });
        }
    });
    start.elapsed()
}

/// Run phase: execute `spec.op_count` operations across `spec.threads`
/// clients with the workload's operation mix and request distribution.
pub fn run_workload<C, F>(spec: &WorkloadSpec, factory: F) -> RunReport
where
    C: KvClient,
    F: Fn(usize) -> C + Sync,
{
    let threads = spec.threads.max(1);
    let insert_cursor = AtomicU64::new(spec.record_count);
    let start = Instant::now();
    let mut report = RunReport::empty();
    let partials = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let spec = spec.clone();
                let factory = &factory;
                let insert_cursor = &insert_cursor;
                s.spawn(move || {
                    let mut client = factory(t);
                    let mut local = RunReport::empty();
                    let mut rng = SmallRng::seed_from_u64(spec.seed ^ (0xabcd + t as u64));
                    let mut gen = make_generator(&spec, spec.record_count, spec.seed + t as u64);
                    let my_ops = spec.op_count / threads as u64
                        + u64::from((spec.op_count % threads as u64) > t as u64);
                    for _ in 0..my_ops {
                        let dice: f64 = rng.random();
                        let kind = if dice < spec.read {
                            OpKind::Read
                        } else if dice < spec.read + spec.update {
                            OpKind::Update
                        } else if dice < spec.read + spec.update + spec.insert {
                            OpKind::Insert
                        } else {
                            OpKind::Rmw
                        };
                        let items = insert_cursor.load(Ordering::Relaxed);
                        gen.set_item_count(items);
                        // Keys and field payloads are generated *before*
                        // the latency clock starts: the RNG fill for a
                        // large field_len dwarfs the store op itself and
                        // belongs to the harness, not the histograms.
                        match kind {
                            OpKind::Read => {
                                let key = record_key(gen.next() % items);
                                let t0 = Instant::now();
                                client.read(&key);
                                let ns = t0.elapsed().as_nanos() as u64;
                                local.reads.record(ns);
                                local.total.record(ns);
                            }
                            OpKind::Update => {
                                let key = record_key(gen.next() % items);
                                let field = rng.random_range(0..spec.field_count);
                                let value = field_value(&mut rng, spec.field_len);
                                let t0 = Instant::now();
                                client.update(&key, field, &value);
                                let ns = t0.elapsed().as_nanos() as u64;
                                local.updates.record(ns);
                                local.total.record(ns);
                            }
                            OpKind::Insert => {
                                let n = insert_cursor.fetch_add(1, Ordering::Relaxed);
                                let key = record_key(n);
                                let fields: Vec<Vec<u8>> = (0..spec.field_count)
                                    .map(|_| field_value(&mut rng, spec.field_len))
                                    .collect();
                                let t0 = Instant::now();
                                client.insert(&key, &fields);
                                let ns = t0.elapsed().as_nanos() as u64;
                                local.inserts.record(ns);
                                local.total.record(ns);
                            }
                            OpKind::Rmw => {
                                let key = record_key(gen.next() % items);
                                let field = rng.random_range(0..spec.field_count);
                                let value = field_value(&mut rng, spec.field_len);
                                let t0 = Instant::now();
                                client.rmw(&key, field, &value);
                                let ns = t0.elapsed().as_nanos() as u64;
                                local.rmws.record(ns);
                                local.total.record(ns);
                            }
                        }
                        local.ops += 1;
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ycsb worker thread panicked"))
            .collect::<Vec<_>>()
    });
    for p in &partials {
        report.merge(p);
    }
    report.completion = start.elapsed();
    report.throughput = report.ops as f64 / report.completion.as_secs_f64().max(1e-9);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    /// A trivially correct in-memory store for exercising the runner.
    #[derive(Clone, Default)]
    struct MemStore {
        data: Arc<Mutex<HashMap<String, Vec<Vec<u8>>>>>,
    }

    impl KvClient for MemStore {
        fn read(&mut self, key: &str) -> bool {
            self.data.lock().unwrap().get(key).is_some()
        }
        fn update(&mut self, key: &str, field: usize, value: &[u8]) -> bool {
            match self.data.lock().unwrap().get_mut(key) {
                Some(f) if field < f.len() => {
                    f[field] = value.to_vec();
                    true
                }
                _ => false,
            }
        }
        fn insert(&mut self, key: &str, fields: &[Vec<u8>]) -> bool {
            self.data
                .lock()
                .unwrap()
                .insert(key.to_string(), fields.to_vec());
            true
        }
        fn rmw(&mut self, key: &str, field: usize, value: &[u8]) -> bool {
            let mut d = self.data.lock().unwrap();
            match d.get(key).cloned() {
                Some(mut f) if field < f.len() => {
                    f[field] = value.to_vec();
                    d.insert(key.to_string(), f);
                    true
                }
                _ => false,
            }
        }
    }

    #[test]
    fn load_inserts_every_record() {
        let store = MemStore::default();
        let spec = Workload::A.spec(500, 0);
        run_load(&spec, |_| store.clone());
        assert_eq!(store.data.lock().unwrap().len(), 500);
        assert!(store.data.lock().unwrap().contains_key(&record_key(0)));
        assert!(store.data.lock().unwrap().contains_key(&record_key(499)));
    }

    #[test]
    fn multithreaded_load_covers_range() {
        let store = MemStore::default();
        let mut spec = Workload::A.spec(501, 0);
        spec.threads = 4;
        run_load(&spec, |_| store.clone());
        assert_eq!(store.data.lock().unwrap().len(), 501);
    }

    #[test]
    fn run_executes_requested_ops() {
        let store = MemStore::default();
        let spec = Workload::A.spec(100, 1000);
        run_load(&spec, |_| store.clone());
        let report = run_workload(&spec, |_| store.clone());
        assert_eq!(report.ops, 1000);
        assert_eq!(report.total.count(), 1000);
        // A is 50/50 read/update: both present, no inserts or rmws.
        assert!(report.reads.count() > 300);
        assert!(report.updates.count() > 300);
        assert_eq!(report.inserts.count(), 0);
        assert_eq!(report.rmws.count(), 0);
        assert!(report.throughput > 0.0);
    }

    #[test]
    fn workload_d_grows_keyspace() {
        let store = MemStore::default();
        let spec = Workload::D.spec(100, 2000);
        run_load(&spec, |_| store.clone());
        let report = run_workload(&spec, |_| store.clone());
        assert!(report.inserts.count() > 0, "D performs inserts");
        assert!(store.data.lock().unwrap().len() > 100);
    }

    #[test]
    fn workload_f_performs_rmw() {
        let store = MemStore::default();
        let spec = Workload::F.spec(100, 1000);
        run_load(&spec, |_| store.clone());
        let report = run_workload(&spec, |_| store.clone());
        assert!(report.rmws.count() > 300);
    }

    /// A client whose every op is free. Any latency the histograms see
    /// is pure harness overhead, so with a huge `field_len` the insert
    /// median stays tiny only if value generation happens *outside* the
    /// timed region.
    struct NoopClient;

    impl KvClient for NoopClient {
        fn read(&mut self, _key: &str) -> bool {
            true
        }
        fn update(&mut self, _key: &str, _field: usize, _value: &[u8]) -> bool {
            true
        }
        fn insert(&mut self, _key: &str, _fields: &[Vec<u8>]) -> bool {
            true
        }
        fn rmw(&mut self, _key: &str, _field: usize, _value: &[u8]) -> bool {
            true
        }
    }

    #[test]
    fn value_generation_is_not_timed() {
        let mut spec = Workload::A.spec(64, 60);
        spec.read = 0.5;
        spec.update = 0.0;
        spec.insert = 0.5;
        spec.rmw = 0.0;
        spec.field_count = 2;
        spec.field_len = 1 << 21; // 2 MiB per field: generation >> no-op store
        spec.threads = 1;
        let report = run_workload(&spec, |_| NoopClient);
        assert!(report.inserts.count() > 10);
        let median = report.inserts.quantile(0.5);
        assert!(
            median < 200_000,
            "insert median {median} ns: 2 MiB value generation leaked into the timed region"
        );
    }

    #[test]
    fn op_split_across_threads_is_exact() {
        let store = MemStore::default();
        let mut spec = Workload::C.spec(50, 1001);
        spec.threads = 8;
        run_load(&spec, |_| store.clone());
        let report = run_workload(&spec, |_| store.clone());
        assert_eq!(report.ops, 1001);
    }
}

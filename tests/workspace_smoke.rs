//! End-to-end smoke tests of the evaluation pipeline: a miniature YCSB run
//! over every backend, a miniature recovery timeline, and the motivation
//! simulators — everything the figure regenerators do, at toy scale.

use std::sync::Arc;
use std::time::Duration;

use jnvm_repro::gcsim::{CachedFsStore, FsCost, GenConfig, RedisLikeStore};
use jnvm_repro::kvstore::{CostModel, DataGrid, Record};
use jnvm_repro::tpcb::{run_timeline, BankKind, TimelineConfig};
use jnvm_repro::ycsb::{run_load, run_workload, KvClient, Workload};

struct Client(Arc<DataGrid>);

impl KvClient for Client {
    fn read(&mut self, key: &str) -> bool {
        self.0.read(key).is_some()
    }
    fn update(&mut self, key: &str, field: usize, value: &[u8]) -> bool {
        self.0.update_field(key, field, value)
    }
    fn insert(&mut self, key: &str, fields: &[Vec<u8>]) -> bool {
        self.0.insert(&Record::ycsb(key, fields))
    }
    fn rmw(&mut self, key: &str, field: usize, value: &[u8]) -> bool {
        self.0.rmw(key, field, value)
    }
}

// The bench crate owns the full grid construction; the smoke test builds
// the two extremes by hand to avoid a dev-dependency cycle.
fn jnvm_grid(records: u64) -> Arc<DataGrid> {
    use jnvm_repro::heap::HeapConfig;
    use jnvm_repro::jnvm::JnvmBuilder;
    use jnvm_repro::kvstore::{register_kvstore, GridConfig, JnvmBackend};
    use jnvm_repro::pmem::{Pmem, PmemConfig};
    let pmem = Pmem::new(PmemConfig::perf(records * 8192 + (64 << 20)));
    let rt = register_kvstore(JnvmBuilder::new())
        .create(pmem, HeapConfig::default())
        .expect("pool");
    let be = Arc::new(JnvmBackend::create(&rt, 8, false).expect("backend"));
    Arc::new(DataGrid::new(be, GridConfig::default()))
}

fn fs_grid(records: u64) -> Arc<DataGrid> {
    use jnvm_repro::kvstore::{FsBackend, GridConfig};
    use jnvm_repro::pmem::{Pmem, PmemConfig};
    let pmem = Pmem::new(PmemConfig::perf(records * 4096 + (16 << 20)));
    let be = Arc::new(FsBackend::new(pmem, 2048, CostModel::free()));
    Arc::new(DataGrid::new(
        be,
        GridConfig {
            cache_capacity: records as usize / 10,
        },
    ))
}

#[test]
fn every_workload_runs_over_jnvm_and_fs_grids() {
    for make in [jnvm_grid as fn(u64) -> Arc<DataGrid>, fs_grid] {
        for w in Workload::ALL {
            let grid = make(200);
            let mut spec = w.spec(200, 400);
            spec.threads = 2;
            run_load(&spec, |_| Client(Arc::clone(&grid)));
            assert_eq!(grid.len(), 200, "workload {w:?} load");
            let report = run_workload(&spec, |_| Client(Arc::clone(&grid)));
            assert_eq!(report.ops, 400, "workload {w:?} ops");
            assert!(report.throughput > 0.0);
        }
    }
}

#[test]
fn timeline_smoke_all_designs() {
    let cfg = TimelineConfig {
        accounts: 500,
        threads: 2,
        run_before: Duration::from_millis(300),
        run_after: Duration::from_millis(300),
        bucket: Duration::from_millis(50),
        pool_bytes: 32 << 20,
        costs: CostModel::free(),
        ..TimelineConfig::default()
    };
    for kind in [
        BankKind::Volatile,
        BankKind::Fs,
        BankKind::Jpfa,
        BankKind::JpfaNogc,
    ] {
        let r = run_timeline(kind, &cfg);
        assert!(
            r.nominal_before > 0.0,
            "{kind:?} served requests before the crash"
        );
        assert!(r.restart_duration >= 0.0);
        if kind != BankKind::Volatile {
            assert!(r.money_conserved, "{kind:?} conserves money");
        }
    }
}

#[test]
fn motivation_simulators_scale_as_claimed() {
    // Figure 2 mechanism: GC marking per pass scales with the dataset.
    let run = |records: u32| {
        let mut s = RedisLikeStore::new(10, 100, 200_000);
        for i in 0..records {
            s.insert(&format!("k{i}"));
        }
        for i in 0..3000u32 {
            s.rmw(&format!("k{}", i % records), i as usize);
            s.alloc_temp(64);
        }
        let (passes, visited) = s.gc_stats();
        visited / passes.max(1)
    };
    let small = run(200);
    let big = run(2000);
    assert!(big > small * 5, "per-pass GC work: {small} vs {big}");

    // Figure 1 mechanism: full collections cost tracks the cache size.
    let gc_time = |cache: usize| {
        let mut s = CachedFsStore::new(
            cache,
            10,
            100,
            GenConfig {
                eden_bytes: 256 << 10,
                old_trigger_factor: 1.0,
                min_old_bytes: 1 << 20,
                old_trigger_bytes: 1 << 20,
                evac_ns_per_obj: 200,
            },
            FsCost::free(),
        );
        s.temps_per_op = 2;
        s.survivor_window = 500;
        for i in 0..2000u32 {
            s.read(&format!("k{}", i % 1000));
        }
        for i in 0..4000u32 {
            s.rmw(&format!("k{}", i % 1000));
        }
        s.gc_time()
    };
    let small = gc_time(10);
    let large = gc_time(1000);
    assert!(
        large > small,
        "GC time grows with the cache: {small:?} vs {large:?}"
    );
}

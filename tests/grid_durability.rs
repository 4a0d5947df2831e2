//! Data-grid durability: the embedded grid over the J-NVM backends
//! survives device crashes with full record fidelity, and the external
//! backends keep their contract too.

use std::sync::Arc;

use jnvm_repro::heap::HeapConfig;
use jnvm_repro::jnvm::JnvmBuilder;
use jnvm_repro::kvstore::{
    register_kvstore, CostModel, DataGrid, FsBackend, GridConfig, JnvmBackend, Record,
};
use jnvm_repro::pmem::{CrashPolicy, Pmem, PmemConfig};

fn sample_record(i: u32) -> Record {
    Record::ycsb(
        &format!("user{i:08}"),
        &(0..10).map(|f| vec![(i % 251) as u8 ^ f; 100]).collect::<Vec<_>>(),
    )
}

#[test]
fn jnvm_grid_survives_crash_with_full_fidelity() {
    for fa in [false, true] {
        eprintln!("== fa = {fa} ==");
        let pmem = Pmem::new(PmemConfig::crash_sim(256 << 20));
        let rt = register_kvstore(JnvmBuilder::new())
            .create(Arc::clone(&pmem), HeapConfig::default())
            .expect("pool");
        let backend = Arc::new(JnvmBackend::create(&rt, 8, fa).expect("backend"));
        let grid = DataGrid::new(backend, GridConfig::default());
        for i in 0..200 {
            assert!(grid.insert(&sample_record(i)), "insert {i} (fa={fa})");
        }
        // Updates through the field path.
        for i in 0..50 {
            assert!(grid.update_field(&format!("user{i:08}"), 3, &[0xEE; 100]));
        }
        grid.backend().sync();
        drop(grid);
        drop(rt);
        pmem.crash(&CrashPolicy::strict()).expect("crash");

        let (rt2, _) = register_kvstore(JnvmBuilder::new())
            .open(Arc::clone(&pmem))
            .expect("recovery");
        let backend2 = Arc::new(JnvmBackend::open(&rt2, fa).expect("backend reopen"));
        let grid2 = DataGrid::new(backend2, GridConfig::default());
        assert_eq!(grid2.len(), 200);
        for i in 0..200 {
            if i == 0 { eprintln!("reading back (fa={fa})"); }
            let rec = grid2
                .read(&format!("user{i:08}"))
                .unwrap_or_else(|| panic!("record {i} lost (fa={fa})"));
            if i < 50 {
                assert_eq!(rec.fields.value(3), vec![0xEE; 100], "updated field {i}");
            } else {
                assert_eq!(rec, sample_record(i), "record {i} content");
            }
        }
    }
}

#[test]
fn fs_grid_survives_crash_after_remount() {
    let pmem = Pmem::new(PmemConfig::crash_sim(64 << 20));
    let be = Arc::new(FsBackend::new(Arc::clone(&pmem), 4096, CostModel::free()));
    let grid = DataGrid::new(be, GridConfig { cache_capacity: 16 });
    for i in 0..100 {
        assert!(grid.insert(&sample_record(i)));
    }
    drop(grid);
    pmem.crash(&CrashPolicy::strict()).expect("crash");
    let be2 = Arc::new(FsBackend::mount(pmem, 4096, CostModel::free()));
    let grid2 = DataGrid::new(be2, GridConfig::default());
    assert_eq!(grid2.len(), 100);
    for i in 0..100 {
        assert_eq!(grid2.read(&format!("user{i:08}")).expect("present"), sample_record(i));
    }
}

#[test]
fn concurrent_grid_load_then_crash() {
    let pmem = Pmem::new(PmemConfig::crash_sim(256 << 20));
    let rt = register_kvstore(JnvmBuilder::new())
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool");
    let backend = Arc::new(JnvmBackend::create(&rt, 16, false).expect("backend"));
    let grid = Arc::new(DataGrid::new(backend, GridConfig::default()));
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let grid = Arc::clone(&grid);
            s.spawn(move || {
                for i in 0..50 {
                    grid.insert(&sample_record(t * 1000 + i));
                }
            });
        }
    });
    assert_eq!(grid.len(), 200);
    grid.backend().sync();
    drop(grid);
    drop(rt);
    pmem.crash(&CrashPolicy::strict()).expect("crash");
    let (rt2, _) = register_kvstore(JnvmBuilder::new())
        .open(Arc::clone(&pmem))
        .expect("recovery");
    let backend2 = JnvmBackend::open(&rt2, false).expect("reopen");
    use jnvm_repro::kvstore::Backend as _;
    assert_eq!(backend2.len(), 200);
    for t in 0..4u32 {
        for i in 0..50 {
            let key = format!("user{:08}", t * 1000 + i);
            assert!(backend2.read(&key).is_some(), "{key} lost");
        }
    }
}

//! An Infinispan-like embedded data grid with the J-PDT persistent
//! backend, driven by a short YCSB-A run (the setup behind Figure 7).
//!
//! Run: `cargo run --release --example kvcache`

use std::sync::Arc;

use jnvm_repro::heap::HeapConfig;
use jnvm_repro::jnvm::JnvmBuilder;
use jnvm_repro::kvstore::{register_kvstore, DataGrid, GridConfig, JnvmBackend, Record};
use jnvm_repro::pmem::{Pmem, PmemConfig};
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

fn main() {
    let pmem = Pmem::new(PmemConfig::perf(512 << 20));
    let rt = register_kvstore(JnvmBuilder::new())
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool");
    let backend = Arc::new(JnvmBackend::create(&rt, 16, false).expect("backend"));
    // The paper disables Infinispan's cache for J-NVM backends: caching
    // proxies brings nothing (§5.3.1).
    let grid = Arc::new(DataGrid::new(backend, GridConfig::default()));

    let mut spec = Workload::A.spec(20_000, 50_000);
    spec.threads = 4;
    println!(
        "loading {} records ({} fields x {} B)...",
        spec.record_count, spec.field_count, spec.field_len
    );
    let load = run_load(&spec, |_| Client(Arc::clone(&grid)));
    println!("load: {:.2} s ({} records)", load.as_secs_f64(), grid.len());

    println!(
        "running YCSB-A with {} ops on {} threads...",
        spec.op_count, spec.threads
    );
    let report = run_workload(&spec, |_| Client(Arc::clone(&grid)));
    println!(
        "throughput: {:.1} Kops/s over {:.2} s",
        report.throughput / 1e3,
        report.completion.as_secs_f64()
    );
    println!("reads:   {}", report.reads.summary().display_us());
    println!("updates: {}", report.updates.summary().display_us());
    let stats = pmem.stats();
    println!(
        "device: {} reads / {} writes / {} pwb / {} pfence",
        stats.reads, stats.writes, stats.pwbs, stats.pfences
    );
}

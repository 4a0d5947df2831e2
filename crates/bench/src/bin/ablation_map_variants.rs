//! Ablation (§4.3.2) regenerator: base vs cached vs eager map variants —
//! proxy-cache hit cost and resurrection cost.
//!
//! The three differ only in value-proxy caching. No variant reads a map
//! word from NVMM on a lookup: the mirror holds each cell's value
//! reference. What `Base` still reads per `get_value` is the value's own
//! chain, walked by `Proxy::open` (the values here are 500-byte chains, so
//! the cache has that work to save); `Cached` and `Eager` hit their proxy
//! cache and read nothing. The `reads` column is device reads per
//! `get_value`.
//!
//! Flags: `--records` (default 5000), `--gets` (default 200000),
//! `--opens` (default 20), `--out results`.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use jnvm::{JnvmBuilder, PObject};
use jnvm_bench::{write_csv, Args, Table};
use jnvm_heap::HeapConfig;
use jnvm_jpdt::{register_jpdt, CacheMode, PBytes, PStringHashMap};
use jnvm_pmem::{Pmem, PmemConfig};

/// Mean nanoseconds of one `f()` over `iters` calls.
fn ns_per<R>(iters: u64, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

fn main() {
    let args = Args::parse();
    let records: usize = args.get_or("records", 5000);
    let gets: u64 = args.get_or("gets", 200_000);
    let opens: u64 = args.get_or("opens", 20);
    let out: PathBuf = PathBuf::from(args.get_or("out", "results".to_string()));

    let rt = register_jpdt(JnvmBuilder::new())
        .create(
            Pmem::new(PmemConfig::perf(512 << 20)),
            HeapConfig::default(),
        )
        .expect("pool");

    println!("Ablation (§4.3.2): map variants over {records} records");
    let mut table = Table::new(&["variant", "get_value", "reads", "resurrect"]);
    let mut rows = Vec::new();
    let key = format!("key-{}", records / 2);
    for mode in [CacheMode::Base, CacheMode::Cached, CacheMode::Eager] {
        // One populated map per mode (values are chained, not pooled, so
        // the proxy cache has real work to save).
        let m = PStringHashMap::with_mode(&rt, mode).expect("map");
        for i in 0..records {
            let v = PBytes::new(&rt, &[1u8; 500]).expect("value");
            m.put(format!("key-{i}"), v.addr()).expect("put");
        }
        let before = rt.pmem().stats().reads;
        let get_ns = ns_per(gets, || m.get_value(black_box(&key)));
        let reads = (rt.pmem().stats().reads - before) as f64 / gets as f64;
        // Resurrection cost: Base defers value-proxy creation, Eager pays
        // it upfront.
        let open_us = ns_per(opens, || {
            PStringHashMap::open_with_mode(&rt, m.addr(), mode)
        }) / 1e3;
        table.row(&[
            format!("{mode:?}"),
            format!("{get_ns:.0} ns"),
            format!("{reads:.2}"),
            format!("{open_us:.1} us"),
        ]);
        rows.push(format!("{mode:?},{get_ns:.1},{reads:.2},{open_us:.2}"));
    }
    table.print();
    let path = write_csv(
        &out,
        "ablation_map_variants",
        "variant,get_value_ns,get_value_reads,resurrect_us",
        &rows,
    );
    println!("wrote {}", path.display());
}

//! Figure 10 regenerator: multi-threaded YCSB-A and YCSB-C throughput for
//! J-PDT, FS and Volatile as client threads grow.
//!
//! Paper result: J-PDT's peak at least matches Volatile (proxies introduce
//! no scalability bottleneck); FS saturates > 5x lower.
//!
//! Flags: `--records` (default 10000 = paper 1M / 100), `--ops` (default
//! 200000), `--threads 1,2,4,8,12,16,20`, `--out results`.
//!
//! `--crashsim` runs a small multi-threaded sanity pass on a CrashSim pool
//! instead: the YCSB-A mix over J-PDT, a simulated power failure, and a
//! recovery check. Throughput numbers from that mode are meaningless (the
//! crash simulator tracks per-line persistence state); it exists so the
//! bench workload itself is exercised under the durability checker.

use std::path::PathBuf;
use std::sync::Arc;

use jnvm_bench::{make_grid, write_csv, Args, BackendKind, GridClient, Table};
use jnvm_ycsb::{run_load, run_workload, Workload};

/// `--crashsim`: drive the multi-threaded YCSB-A mix against a J-PDT grid
/// on a crash-simulating device, pull the plug, and recover.
fn crashsim_sanity(records: u64, ops: u64, threads: usize) {
    use jnvm::JnvmBuilder;
    use jnvm_heap::HeapConfig;
    use jnvm_kvstore::{register_kvstore, Backend, DataGrid, GridConfig, JnvmBackend};
    use jnvm_pmem::{CrashPolicy, Pmem, PmemConfig};

    println!(
        "crashsim sanity: {records} records, {ops} YCSB-A ops, {threads} thread(s) \
         on a crash-simulating pool"
    );
    let pmem = Pmem::new(PmemConfig::crash_sim(256 << 20));
    let rt = register_kvstore(JnvmBuilder::new())
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool creation");
    let be = Arc::new(JnvmBackend::create(&rt, 64, false).expect("backend"));
    let grid = Arc::new(DataGrid::new(
        Arc::clone(&be) as Arc<dyn Backend>,
        GridConfig { cache_capacity: 0 },
    ));
    let mut spec = Workload::A.spec(records, ops);
    spec.threads = threads;
    run_load(&spec, |_| GridClient::new(Arc::clone(&grid)));
    let report = run_workload(&spec, |_| GridClient::new(Arc::clone(&grid)));
    println!(
        "workload done ({} ops; throughput under the checker is not meaningful)",
        report.total.count()
    );
    pmem.psync();
    drop(grid);
    drop(be);
    drop(rt);
    pmem.crash(&CrashPolicy::strict()).expect("simulated power failure");
    let (rt2, recovery) = register_kvstore(JnvmBuilder::new())
        .open(Arc::clone(&pmem))
        .expect("recovery");
    let be2 = JnvmBackend::open(&rt2, false).expect("backend reopen");
    assert_eq!(
        be2.len() as u64,
        records,
        "record count changed across the crash (YCSB-A never inserts or removes)"
    );
    println!(
        "recovered: {} records, {} live blocks, {} nullified refs — OK",
        be2.len(),
        recovery.live_blocks,
        recovery.nullified_refs
    );
}

fn main() {
    let args = Args::parse();
    let records: u64 = args.get_or("records", 10_000);
    let ops: u64 = args.get_or("ops", 200_000);
    let threads: Vec<usize> = args
        .get_or("threads", "1,2,4,8,12,16,20".to_string())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let out: PathBuf = PathBuf::from(args.get_or("out", "results".to_string()));
    let optane = !args.has("no-latency");
    if args.has("crashsim") {
        let t = threads.iter().copied().max().unwrap_or(4).min(8);
        crashsim_sanity(records.min(2_000), ops.min(20_000), t);
        return;
    }

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "Figure 10 (host has {cpus} CPU(s); the paper's testbed has 80 cores — \
         absolute scaling requires cores, the J-PDT-vs-FS gap does not)"
    );
    for w in [Workload::A, Workload::C] {
        println!("\nFigure 10 / YCSB-{}:", w.label());
        let mut table = Table::new(&["threads", "J-PDT", "FS", "Volatile"]);
        let mut rows = Vec::new();
        for t in &threads {
            let mut tputs = Vec::new();
            for kind in [BackendKind::Jpdt, BackendKind::Fs, BackendKind::Volatile] {
                let ratio = if kind == BackendKind::Fs { 0.1 } else { 0.0 };
                let setup = make_grid(kind, records, 10, 100, ratio, optane);
                let mut spec = w.spec(records, ops);
                spec.threads = *t;
                run_load(&spec, |_| GridClient::new(Arc::clone(&setup.grid)));
                let report = run_workload(&spec, |_| GridClient::new(Arc::clone(&setup.grid)));
                tputs.push(report.throughput);
            }
            let fmt = |x: f64| format!("{:.2} Mops/s", x / 1e6);
            table.row(&[
                t.to_string(),
                fmt(tputs[0]),
                fmt(tputs[1]),
                fmt(tputs[2]),
            ]);
            rows.push(format!("{},{:.0},{:.0},{:.0}", t, tputs[0], tputs[1], tputs[2]));
        }
        table.print();
        let path = write_csv(
            &out,
            &format!("fig10_ycsb_{}", w.label().to_lowercase()),
            "threads,jpdt,fs,volatile",
            &rows,
        );
        println!("wrote {}", path.display());
    }
}

//! Figure 1 regenerator: the cost of G1-style garbage collection as the
//! Infinispan cache ratio grows, under YCSB-F (the motivation experiment
//! of §2.2.1).
//!
//! Paper result: a 100 % cache roughly doubles completion time — 69 % of
//! the time goes to GC — and the 0.9999-percentile latency is up to 50x
//! worse than with a 1 % cache.
//!
//! Runs on the managed-heap simulator (`jnvm-gcsim`): GC work is real
//! graph traversal; FS work is a modeled constant. Scaled 1/100 by
//! default (paper: 15 M objects).
//!
//! Flags: `--records` (default 150000), `--ops` (default 600000),
//! `--out results`.

use std::path::PathBuf;
use std::time::Instant;

use jnvm_bench::{write_csv, Args, Table};
use jnvm_gcsim::{CachedFsStore, FsCost, GenConfig};
use jnvm_ycsb::{record_key, Generator, Histogram, ScrambledZipfianGenerator};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

fn main() {
    let args = Args::parse();
    let records: u64 = args.get_or("records", 150_000);
    let ops: u64 = args.get_or("ops", 600_000);
    let out: PathBuf = PathBuf::from(args.get_or("out", "results".to_string()));

    println!(
        "Figure 1: G1-style GC vs Infinispan cache ratio ({records} records, {ops} YCSB-F ops)"
    );
    let mut table = Table::new(&[
        "cache",
        "completion",
        "gc time",
        "gc share",
        "p50",
        "p99.99",
        "max pause",
    ]);
    let mut rows = Vec::new();
    // The paper tunes the Java heap per configuration: 20, 30, 100 GB for
    // 1 %, 10 %, 100 % cache. Scaled 1/100 and converted into G1's IHOP
    // (45 % of heap) as the old-collection trigger.
    for (ratio, heap_gb) in [(0.01, 20.0), (0.10, 30.0), (1.00, 100.0)] {
        let heap_bytes = (heap_gb / 100.0 * 1e9) as u64;
        let mut store = CachedFsStore::new(
            (records as f64 * ratio) as usize,
            10,
            100,
            GenConfig {
                eden_bytes: 8 << 20,
                old_trigger_factor: 1.4,
                min_old_bytes: 8 << 20,
                old_trigger_bytes: (heap_bytes as f64 * 0.45) as u64,
                evac_ns_per_obj: 300,
            },
            FsCost {
                read_ns: 4_000,
                write_ns: 5_000,
            },
        );
        store.temps_per_op = 4;
        store.survivor_window = 4_000;
        // Load: touch every record once so the cache warms to capacity.
        for i in 0..records {
            store.read(&record_key(i));
        }
        let mut gen = ScrambledZipfianGenerator::new(records, 3);
        let mut rng = SmallRng::seed_from_u64(17);
        let gc_before = store.gc_time();
        let mut hist = Histogram::new();
        let start = Instant::now();
        for _ in 0..ops {
            let key = record_key(gen.next());
            let t = Instant::now();
            if rng.random::<bool>() {
                store.read(&key);
            } else {
                store.rmw(&key);
            }
            hist.record(t.elapsed().as_nanos() as u64);
        }
        let completion = start.elapsed().as_secs_f64();
        let gc = (store.gc_time() - gc_before).as_secs_f64();
        let max_pause = store
            .gc()
            .pauses
            .iter()
            .map(|(_, d)| d.as_secs_f64())
            .fold(0.0f64, f64::max);
        let s = hist.summary();
        table.row(&[
            format!("{:.0}%", ratio * 100.0),
            format!("{completion:.2} s"),
            format!("{gc:.2} s"),
            format!("{:.0}%", gc / completion * 100.0),
            format!("{:.1} us", s.p50_ns as f64 / 1e3),
            format!("{:.1} us", s.p9999_ns as f64 / 1e3),
            format!("{:.1} ms", max_pause * 1e3),
        ]);
        rows.push(format!(
            "{},{:.4},{:.4},{},{},{:.6}",
            ratio, completion, gc, s.p50_ns, s.p9999_ns, max_pause
        ));
    }
    table.print();
    let path = write_csv(
        &out,
        "fig1_gc_cache_ratio",
        "cache_ratio,completion_s,gc_s,p50_ns,p9999_ns,max_pause_s",
        &rows,
    );
    println!("wrote {}", path.display());
}

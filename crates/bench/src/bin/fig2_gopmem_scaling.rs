//! Figure 2 regenerator: YCSB-F on the go-pmem-like store as the
//! persistent dataset grows (the motivation experiment of §2.2.1).
//!
//! Paper result: from 0.3 GB to 151.68 GB, completion time multiplies by
//! ~3.4x while compute time stays flat — the growth is entirely GC, which
//! reaches ~67 % of CPU time because every pass marks the whole dataset.
//!
//! Scaled 1/100: one paper "GB" = 10000 records here (paper: 1M records
//! per GB); the forced-GC budget ("every 10 GB of allocation") scales the
//! same way. The scaling law under test is invariant to the factor.
//!
//! Flags: `--ops` (default 400000), `--scale-records-per-gb 10000`,
//! `--out results`.

use std::path::PathBuf;
use std::time::Instant;

use jnvm_bench::{write_csv, Args, Table};
use jnvm_gcsim::RedisLikeStore;
use jnvm_ycsb::{record_key, Generator, ScrambledZipfianGenerator};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// The paper's x axis (GB).
const SIZES_GB: [f64; 10] = [
    0.30, 0.59, 1.18, 2.37, 4.74, 9.48, 18.96, 37.92, 75.84, 151.68,
];

fn main() {
    let args = Args::parse();
    let ops: u64 = args.get_or("ops", 400_000);
    let per_gb: u64 = args.get_or("scale-records-per-gb", 10_000);
    let out: PathBuf = PathBuf::from(args.get_or("out", "results".to_string()));

    // go-pmem: records of 10 x 100 B fields; a rmw allocates a replacement
    // field; the client allocates a small temporary per op. The forced GC
    // budget is "10 GB", scaled like the dataset (10 GB -> per_gb * 10
    // records' worth of allocation).
    let gc_budget = per_gb * 10 * 150; // bytes: ~150 B garbage per op

    println!("Figure 2: go-pmem GC vs dataset size ({ops} YCSB-F ops per point)");
    let mut table = Table::new(&[
        "dataset",
        "records",
        "completion",
        "compute",
        "gc",
        "gc share",
        "gc passes",
    ]);
    let mut rows = Vec::new();
    let mut first_completion = None;
    for gb in SIZES_GB {
        let records = ((gb * per_gb as f64) as u64).max(100);
        let mut store = RedisLikeStore::new(10, 100, gc_budget);
        for i in 0..records {
            store.insert(&record_key(i));
        }
        let gc_before = store.gc_time();
        let (passes_before, _) = store.gc_stats();
        let mut gen = ScrambledZipfianGenerator::new(records, 3);
        let mut rng = SmallRng::seed_from_u64(29);
        let start = Instant::now();
        for i in 0..ops {
            let key = record_key(gen.next());
            if rng.random::<bool>() {
                store.read(&key);
                store.alloc_temp(64);
            } else {
                store.rmw(&key, i as usize);
            }
        }
        let completion = start.elapsed().as_secs_f64();
        let gc = (store.gc_time() - gc_before).as_secs_f64();
        let (passes, _) = store.gc_stats();
        first_completion.get_or_insert(completion);
        table.row(&[
            format!("{gb:.2} GB*"),
            records.to_string(),
            format!("{completion:.2} s"),
            format!("{:.2} s", completion - gc),
            format!("{gc:.2} s"),
            format!("{:.0}%", gc / completion * 100.0),
            (passes - passes_before).to_string(),
        ]);
        rows.push(format!(
            "{},{},{:.4},{:.4},{:.4}",
            gb,
            records,
            completion,
            completion - gc,
            gc
        ));
    }
    table.print();
    println!("(* paper-scale GB; {per_gb} records per GB at 1/100 scale)");
    if let Some(first) = first_completion {
        let last: f64 = rows
            .last()
            .and_then(|r| r.split(',').nth(2))
            .and_then(|s| s.parse().ok())
            .unwrap_or(first);
        println!(
            "largest/smallest completion ratio: {:.1}x (paper: 3.4x)",
            last / first
        );
    }
    let path = write_csv(
        &out,
        "fig2_gopmem_scaling",
        "dataset_gb,records,completion_s,compute_s,gc_s",
        &rows,
    );
    println!("wrote {}", path.display());
}

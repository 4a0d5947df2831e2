//! Shard-scaling harness for the multi-pool engine: one group committer
//! per pmem pool, keys routed by hash, the identical write stream at
//! every pool-shard count.
//!
//! The claim under test: the single-pool server serializes every write
//! behind ONE committer's 4-fence commit passes, so commit throughput is
//! bounded by one device's fence latency. With N pools the same K writes
//! split into N disjoint streams whose fence passes run concurrently —
//! the *critical path* (the busiest committer's device) shrinks toward
//! 1/N of the single-pool cost while total fences stay put.
//!
//! To keep group formation deterministic (and the fences-per-write curve
//! free of socket-scheduling noise), each shard's committer is modeled
//! at saturation: one thread per shard drains that shard's routed stream
//! through [`commit_writes`] in `batch_max`-sized batches — exactly the
//! code path and batch bound `jnvm-server`'s per-shard committers use
//! when their queues stay full. Device latency follows the Optane-like
//! profile, so charged nanoseconds are meaningful modeled time.
//!
//! Reported per shard count:
//! * `total f/w` — ordering points summed over all devices per acked
//!   write (the amortization level; roughly flat),
//! * `crit f/w` — ordering points on the *busiest* device per acked
//!   write (what a write waits behind; falls ~1/N),
//! * `crit ms` — modeled device time charged to the busiest committer,
//! * `modeled op/s` — acked writes over that critical-path time, and
//!   `speedup` relative to the 1-shard row.
//!
//! Flags: `--shards 1,2,4,8` (pool counts), `--ops` (total writes,
//! default 4096), `--batch` (committer batch bound, default 64),
//! `--fields`/`--vsize` (record shape), `--out results`.

use std::path::PathBuf;
use std::time::Instant;

use jnvm_bench::{write_csv, Args, Table};
use jnvm_kvstore::{commit_writes, Record, WriteOp};
use jnvm_pmem::{thread_charged_ns, LatencyProfile, PmemConfig, StatsSnapshot};
use jnvm_server::Cluster;

struct Point {
    shards: usize,
    rate: f64,
    acked: u64,
    total_fences_per_write: f64,
    crit_fences_per_write: f64,
    crit_ms: f64,
    modeled_rate: f64,
}

fn run_point(shards: usize, total_ops: usize, batch: usize, fields: usize, vsize: usize) -> Point {
    // One pool's worth of media split over however many pools this row
    // uses, so total capacity is constant across rows.
    let mut device = PmemConfig::crash_sim((512 << 20) / shards as u64);
    device.latency = LatencyProfile::optane_like();
    let cluster = Cluster::create(shards, 1, 32, device, true).expect("pool creation");
    let kv = cluster.kv(0);
    let pmems = || cluster.pmems().iter().flatten();

    // The identical write stream every row sees, routed by key hash.
    let mut per_shard: Vec<Vec<WriteOp>> = vec![Vec::new(); shards];
    for i in 0..total_ops {
        let key = format!("user{i:07}");
        let values: Vec<Vec<u8>> = (0..fields)
            .map(|f| vec![b'a' + (f as u8 % 26); vsize])
            .collect();
        per_shard[kv.route(&key)].push(WriteOp::Set(Record::ycsb(&key, &values)));
    }

    let before: Vec<StatsSnapshot> = pmems().map(|p| p.stats()).collect();
    let start = Instant::now();
    let mut acked = 0u64;
    let charged: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = kv
            .shards()
            .iter()
            .zip(&per_shard)
            .map(|(shard, ops)| {
                s.spawn(move || {
                    let mut ok = 0u64;
                    for chunk in ops.chunks(batch.max(1)) {
                        let out = commit_writes(&shard.grid, &shard.be, chunk);
                        ok += out.results.iter().filter(|&&r| r).count() as u64;
                    }
                    (ok, thread_charged_ns())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (ok, ns) = h.join().expect("committer thread");
                acked += ok;
                ns
            })
            .collect()
    });
    let elapsed = start.elapsed();
    let deltas: Vec<StatsSnapshot> = pmems()
        .zip(&before)
        .map(|(p, b)| p.stats().delta(b))
        .collect();

    assert_eq!(acked, total_ops as u64, "every modeled write must commit");
    let total_fences: u64 = deltas.iter().map(|d| d.ordering_points()).sum();
    let crit_fences = deltas.iter().map(|d| d.ordering_points()).max().unwrap_or(0);
    let crit_ns = charged.iter().copied().max().unwrap_or(0).max(1);
    Point {
        shards,
        rate: acked as f64 / elapsed.as_secs_f64().max(1e-9),
        acked,
        total_fences_per_write: total_fences as f64 / acked.max(1) as f64,
        crit_fences_per_write: crit_fences as f64 / acked.max(1) as f64,
        crit_ms: crit_ns as f64 / 1e6,
        modeled_rate: acked as f64 / (crit_ns as f64 / 1e9),
    }
}

fn main() {
    let args = Args::parse();
    let total_ops: usize = args.get_or("ops", 4096);
    let batch: usize = args.get_or("batch", 64);
    let fields: usize = args.get_or("fields", 4);
    let vsize: usize = args.get_or("vsize", 64);
    let shard_counts: Vec<usize> = args
        .get("shards")
        .unwrap_or("1,2,4,8")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n >= 1)
        .collect();
    let out_dir = PathBuf::from(args.get("out").unwrap_or("results"));

    println!(
        "shard scaling: {total_ops} writes, batch {batch}, {fields}x{vsize} B records"
    );
    let mut table = Table::new(&[
        "shards",
        "op/s",
        "acked",
        "total f/w",
        "crit f/w",
        "crit ms",
        "modeled op/s",
        "speedup",
    ]);
    let mut rows = Vec::new();
    let mut base_modeled = 0.0f64;
    for &n in &shard_counts {
        let p = run_point(n, total_ops, batch, fields, vsize);
        if base_modeled == 0.0 {
            base_modeled = p.modeled_rate;
        }
        let speedup = p.modeled_rate / base_modeled.max(1e-9);
        table.row(&[
            p.shards.to_string(),
            format!("{:.0}", p.rate),
            p.acked.to_string(),
            format!("{:.4}", p.total_fences_per_write),
            format!("{:.4}", p.crit_fences_per_write),
            format!("{:.2}", p.crit_ms),
            format!("{:.0}", p.modeled_rate),
            format!("{:.2}x", speedup),
        ]);
        rows.push(format!(
            "{},{:.0},{},{:.4},{:.4},{:.2},{:.0},{:.2}",
            p.shards,
            p.rate,
            p.acked,
            p.total_fences_per_write,
            p.crit_fences_per_write,
            p.crit_ms,
            p.modeled_rate,
            speedup
        ));
    }
    table.print();
    let path = write_csv(
        &out_dir,
        "fig13_shard_scaling",
        "shards,rate,acked,total_fences_per_write,crit_fences_per_write,crit_ms,modeled_rate,speedup",
        &rows,
    );
    println!("wrote {}", path.display());
}

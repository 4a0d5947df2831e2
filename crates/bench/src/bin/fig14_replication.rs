//! Replication-cost harness for `jnvm-repl`: the same write stream
//! committed solo, replicated (primary + backup), and replicated over
//! two shards.
//!
//! The claim under test: replicating at **group granularity** keeps the
//! acked ⇒ durable-on-both-replicas guarantee close to free in *latency*
//! even though it doubles total fence work. Each commit group runs one
//! §4.2 4-fence pass per device; the server streams the group to the
//! backup *before* committing the primary, so the two passes overlap and
//! a client waits for `max(backup, primary)` — not their sum. Sharding
//! then divides the replicated critical path exactly as in fig13.
//!
//! Committers are modeled at saturation, as in `fig13_shard_scaling`:
//! one thread per shard drains its routed stream in `batch_max`-sized
//! chunks through [`commit_writes`] — backup first, then primary, the
//! wire path's ordering — against Optane-like device latency. Per chunk
//! the thread records the charged time of each side; the **serial**
//! column is their sum (a naive synchronous implementation), the
//! **overlap** column is `Σ max(backup, primary)` (the pipelined wire
//! path), and `modeled op/s` uses the overlapped critical path of the
//! busiest shard.
//!
//! Reported per row:
//! * `total f/w` — ordering points over ALL devices (primaries and
//!   backups) per acked write: replication pays ~2× here, by design,
//! * `serial ms` / `overlap ms` — busiest shard's charged device time,
//! * `modeled op/s` and `vs solo` — the end-to-end replication cost,
//! * `groups` / `lag` — the [`ReplLag`] watermark: groups shipped to the
//!   backup, and the in-flight count at the end (0 = caught up).
//!
//! Flags: `--ops` (total writes, default 4096), `--batch` (group bound,
//! default 64), `--fields`/`--vsize` (record shape), `--out results`.

use std::path::PathBuf;
use std::time::Instant;

use jnvm_bench::{write_csv, Args, Table};
use jnvm_kvstore::{commit_writes, Record, ReplLag, WriteOp};
use jnvm_pmem::{thread_charged_ns, LatencyProfile, PmemConfig};
use jnvm_server::Cluster;

struct Point {
    name: &'static str,
    shards: usize,
    replicas: usize,
    rate: f64,
    acked: u64,
    total_fences_per_write: f64,
    serial_ms: f64,
    overlap_ms: f64,
    modeled_rate: f64,
    groups: u64,
    lag: u64,
}

fn run_point(
    name: &'static str,
    shards: usize,
    replicas: usize,
    total_ops: usize,
    batch: usize,
    fields: usize,
    vsize: usize,
) -> Point {
    // Constant total media per replica role across rows, as in fig13.
    let mut device = PmemConfig::crash_sim((512 << 20) / shards as u64);
    device.latency = LatencyProfile::optane_like();
    let cluster = Cluster::create(shards, replicas, 32, device, true).expect("pool creation");

    // The identical write stream every row sees, routed by key hash
    // (identical shard counts on both replicas ⇒ identical routing).
    let mut per_shard: Vec<Vec<WriteOp>> = vec![Vec::new(); shards];
    for i in 0..total_ops {
        let key = format!("user{i:07}");
        let values: Vec<Vec<u8>> = (0..fields)
            .map(|f| vec![b'a' + (f as u8 % 26); vsize])
            .collect();
        per_shard[cluster.kv(0).route(&key)].push(WriteOp::Set(Record::ycsb(&key, &values)));
    }

    let lags: Vec<ReplLag> = (0..shards).map(|_| ReplLag::new()).collect();
    let before = cluster.device_stats();
    let start = Instant::now();
    let mut acked = 0u64;
    // Per shard: (ok, serial charged ns, overlapped charged ns).
    let timings: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
        let (cluster, lags) = (&cluster, &lags);
        let handles: Vec<_> = per_shard
            .iter()
            .enumerate()
            .map(|(si, ops)| {
                s.spawn(move || {
                    let primary = cluster.kv(0).shard(si);
                    let backup = (replicas > 1).then(|| cluster.kv(1).shard(si));
                    let (mut ok, mut serial, mut overlap) = (0u64, 0u64, 0u64);
                    for chunk in ops.chunks(batch.max(1)) {
                        let t0 = thread_charged_ns();
                        if let Some(b) = backup {
                            let seq = lags[si].next_seq();
                            commit_writes(&b.grid, &b.be, chunk);
                            lags[si].record_acked(seq);
                        }
                        let t1 = thread_charged_ns();
                        let out = commit_writes(&primary.grid, &primary.be, chunk);
                        let t2 = thread_charged_ns();
                        ok += out.results.iter().filter(|&&r| r).count() as u64;
                        serial += t2 - t0;
                        overlap += (t1 - t0).max(t2 - t1);
                    }
                    (ok, serial, overlap)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("committer thread"))
            .collect()
    });
    let elapsed = start.elapsed();
    let total_fences = cluster.device_stats().delta(&before).ordering_points();

    for (ok, _, _) in &timings {
        acked += ok;
    }
    assert_eq!(acked, total_ops as u64, "every modeled write must commit");
    let crit_serial = timings.iter().map(|t| t.1).max().unwrap_or(0).max(1);
    let crit_overlap = timings.iter().map(|t| t.2).max().unwrap_or(0).max(1);
    Point {
        name,
        shards,
        replicas,
        rate: acked as f64 / elapsed.as_secs_f64().max(1e-9),
        acked,
        total_fences_per_write: total_fences as f64 / acked.max(1) as f64,
        serial_ms: crit_serial as f64 / 1e6,
        overlap_ms: crit_overlap as f64 / 1e6,
        modeled_rate: acked as f64 / (crit_overlap as f64 / 1e9),
        groups: lags.iter().map(|l| l.sent()).sum(),
        lag: lags.iter().map(|l| l.lag()).sum(),
    }
}

fn main() {
    let args = Args::parse();
    let total_ops: usize = args.get_or("ops", 4096);
    let batch: usize = args.get_or("batch", 64);
    let fields: usize = args.get_or("fields", 4);
    let vsize: usize = args.get_or("vsize", 64);
    let out_dir = PathBuf::from(args.get("out").unwrap_or("results"));

    println!(
        "replication cost: {total_ops} writes, batch {batch}, {fields}x{vsize} B records"
    );
    let rows_spec: [(&'static str, usize, usize); 3] = [
        ("solo", 1, 1),
        ("replicated", 1, 2),
        ("replicated-2-shards", 2, 2),
    ];
    let mut table = Table::new(&[
        "config",
        "op/s",
        "acked",
        "total f/w",
        "serial ms",
        "overlap ms",
        "modeled op/s",
        "vs solo",
        "groups",
        "lag",
    ]);
    let mut rows = Vec::new();
    let mut solo_rate = 0.0f64;
    for (name, shards, replicas) in rows_spec {
        let p = run_point(name, shards, replicas, total_ops, batch, fields, vsize);
        if solo_rate == 0.0 {
            solo_rate = p.modeled_rate;
        }
        let vs_solo = p.modeled_rate / solo_rate.max(1e-9);
        assert_eq!(p.lag, 0, "the backup must be caught up after a full drain");
        table.row(&[
            p.name.to_string(),
            format!("{:.0}", p.rate),
            p.acked.to_string(),
            format!("{:.4}", p.total_fences_per_write),
            format!("{:.2}", p.serial_ms),
            format!("{:.2}", p.overlap_ms),
            format!("{:.0}", p.modeled_rate),
            format!("{:.2}x", vs_solo),
            p.groups.to_string(),
            p.lag.to_string(),
        ]);
        rows.push(format!(
            "{},{},{},{:.0},{},{:.4},{:.2},{:.2},{:.0},{:.2},{},{}",
            p.name,
            p.shards,
            p.replicas,
            p.rate,
            p.acked,
            p.total_fences_per_write,
            p.serial_ms,
            p.overlap_ms,
            p.modeled_rate,
            vs_solo,
            p.groups,
            p.lag
        ));
    }
    table.print();
    let path = write_csv(
        &out_dir,
        "fig14_replication",
        "config,shards,replicas,rate,acked,total_fences_per_write,serial_ms,overlap_ms,modeled_rate,vs_solo,groups,lag",
        &rows,
    );
    println!("wrote {}", path.display());
}

//! Client-scaling harness for `jnvm-server`: throughput, ack latency and
//! ordering fences per acked write as concurrent pipelined connections
//! grow.
//!
//! The point under test is the group-commit amortization claim: with more
//! pipelined clients the committer forms bigger groups, so fences per
//! acked write should *fall* as connections rise while throughput climbs
//! until the single committer saturates.
//!
//! Flags: `--conns 1,2,4,8` (connection counts), `--ops` (requests per
//! connection, default 500), `--pipeline` (default 16), `--out results`.

use std::path::PathBuf;

use jnvm_bench::{write_csv, Args, Table};
use jnvm_pmem::PmemConfig;
use jnvm_server::{run_loadgen, Cluster, LoadgenConfig, ServerConfig};

struct Point {
    conns: usize,
    rate: f64,
    p50_us: f64,
    p99_us: f64,
    acked: u64,
    groups: u64,
    fences_per_write: f64,
}

fn run_point(conns: usize, ops: usize, pipeline: usize) -> Point {
    let cluster =
        Cluster::create(1, 1, 32, PmemConfig::crash_sim(512 << 20), true).expect("pool creation");
    let server = cluster.start(ServerConfig::default()).expect("bind server");
    let before = cluster.device_stats();
    let load = run_loadgen(
        server.addr(),
        &LoadgenConfig {
            conns,
            ops_per_conn: ops,
            pipeline,
            ..LoadgenConfig::default()
        },
    );
    let stats = server.stats();
    server.shutdown();
    let d = cluster.device_stats().delta(&before);
    let replied: usize = load.per_conn.iter().map(|c| c.replied()).sum();
    Point {
        conns,
        rate: replied as f64 / load.elapsed.as_secs_f64().max(1e-9),
        p50_us: load.hist.quantile(0.5) as f64 / 1000.0,
        p99_us: load.hist.quantile(0.99) as f64 / 1000.0,
        acked: load.acked_writes,
        groups: stats.groups,
        fences_per_write: d.ordering_points() as f64 / load.acked_writes.max(1) as f64,
    }
}

fn main() {
    let args = Args::parse();
    let ops: usize = args.get_or("ops", 500);
    let pipeline: usize = args.get_or("pipeline", 16);
    let conns: Vec<usize> = args
        .get("conns")
        .unwrap_or("1,2,4,8")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let out_dir = PathBuf::from(args.get("out").unwrap_or("results"));

    println!("server scaling: {ops} ops/conn, pipeline {pipeline}");
    let mut table = Table::new(&[
        "conns",
        "op/s",
        "p50 us",
        "p99 us",
        "acked",
        "groups",
        "fences/write",
    ]);
    let mut rows = Vec::new();
    for &c in &conns {
        let p = run_point(c, ops, pipeline);
        table.row(&[
            p.conns.to_string(),
            format!("{:.0}", p.rate),
            format!("{:.1}", p.p50_us),
            format!("{:.1}", p.p99_us),
            p.acked.to_string(),
            p.groups.to_string(),
            format!("{:.4}", p.fences_per_write),
        ]);
        rows.push(format!(
            "{},{:.0},{:.1},{:.1},{},{},{:.4}",
            p.conns, p.rate, p.p50_us, p.p99_us, p.acked, p.groups, p.fences_per_write
        ));
    }
    table.print();
    let path = write_csv(
        &out_dir,
        "server_scaling",
        "conns,rate,p50_us,p99_us,acked,groups,fences_per_write",
        &rows,
    );
    println!("wrote {}", path.display());
}

//! Standalone `jnvm-server`: a persistent KV store behind a TCP wire
//! protocol, with per-shard group commit on the write path.
//!
//! ```text
//! jnvm-server [--pool-mb 256] [--shards 1] [--map-shards 16]
//!             [--replicas 1] [--batch-max 64] [--queue-cap 256]
//!             [--no-fa] [--recovery-threads 1] [--restart-drill]
//! ```
//!
//! `--shards N` opens N independent pools (each `--pool-mb` MiB, with its
//! own FA manager and group committer); keys route to pools by hash.
//! `--map-shards` is the per-pool map shard count — the in-pool sharding
//! that predates multi-pool, orthogonal to routing.
//!
//! `--replicas 2` gives every shard a primary *and* a backup pool on
//! independent devices: each committer streams its group to the backup
//! over the wire protocol before committing the primary, and only acks
//! once both are durable. If the primary's device dies the shard
//! promotes the backup in place and keeps serving; if the backup dies
//! the shard degrades to solo mode. Both events show in the final STATS.
//!
//! Binds an ephemeral localhost port and prints `listening on <addr>`;
//! drive it with `jnvm-loadgen --addr <addr>` or any client speaking the
//! protocol in `jnvm_server::proto`. A SHUTDOWN frame stops it and dumps
//! the final STATS block.
//!
//! `--recovery-threads N` sets the worker-thread count of the per-shard
//! recovery pass whenever this process reopens its pools (shards recover
//! concurrently on top of that); `--restart-drill` exercises it before
//! serving: the freshly formatted pools are crashed, reopened with an
//! N-way recovery per shard, and the recovery reports printed, so the
//! served heaps are *recovered* heaps. With replicas the drill runs on
//! every replica's pools — a restarted server recovers both sides.

use std::time::Duration;

use jnvm::RecoveryOptions;
use jnvm_pmem::PmemConfig;
use jnvm_server::{Args, Cluster, ServerConfig};

fn main() {
    let args = Args::parse();
    let pool_mb: u64 = args.get_or("pool-mb", 256);
    let pool_shards: usize = args.get_or("shards", 1);
    let map_shards: usize = args.get_or("map-shards", 16);
    let replicas: usize = args.get_or("replicas", 1);
    let fa = !args.has("no-fa");
    let cfg = ServerConfig {
        batch_max: args.get_or("batch-max", 64),
        queue_cap: args.get_or("queue-cap", 256),
    };
    let recovery_threads: usize = args.get_or("recovery-threads", 1);

    let device = PmemConfig::crash_sim(pool_mb << 20);
    let mut cluster = Cluster::create(pool_shards, replicas, map_shards, device, fa)
        .unwrap_or_else(|e| Args::usage_error(&e));

    if args.has("restart-drill") {
        // Crash every fresh pool and serve the *recovered* heaps: the
        // same reopen path a real restart takes — each shard recovered
        // concurrently, each with the configured thread count.
        for p in cluster.pmems().iter().flatten() {
            p.psync();
        }
        let reports = cluster
            .crash_and_reopen(RecoveryOptions::parallel(recovery_threads))
            .expect("recovery");
        for (i, report) in reports.iter().enumerate() {
            println!(
                "restart drill replica {} shard {}: threads={} replayed={} \
                 live_objects={} live_blocks={} freed_blocks={} gc={:.3}ms (modeled {:.3}ms)",
                i / pool_shards,
                i % pool_shards,
                report.threads,
                report.replayed_logs,
                report.live_objects,
                report.live_blocks,
                report.freed_blocks,
                report.gc_time.as_secs_f64() * 1e3,
                report.modeled_gc_time().as_secs_f64() * 1e3,
            );
        }
    }

    let server = cluster.start(cfg).expect("bind server");
    println!("listening on {}", server.addr());
    println!(
        "pools={}x{} MiB replicas={} map_shards={} fa={} batch_max={} queue_cap={} \
         recovery_threads={}",
        pool_shards, pool_mb, replicas, map_shards, fa, cfg.batch_max, cfg.queue_cap,
        recovery_threads
    );

    while !server.shutdown_requested() && !server.is_dead() {
        std::thread::sleep(Duration::from_millis(100));
    }
    let stats = server.stats();
    server.shutdown();
    let d = cluster.device_stats();
    println!(
        "acked_writes={} nacked={} failed={} groups={} batches={} conns={} shards={} dead_shards={}",
        stats.acked_writes,
        stats.nacked_writes,
        stats.failed_writes,
        stats.groups,
        stats.batches,
        stats.connections,
        stats.shards,
        stats.dead_shards
    );
    if replicas > 1 {
        println!(
            "replicas={} promotions={} degraded_shards={} acked_after_promotion={} \
             repl_sent={} repl_acked={}",
            stats.replicas,
            stats.promotions,
            stats.degraded_shards,
            stats.acked_after_promotion,
            stats.repl_sent,
            stats.repl_acked
        );
    }
    println!(
        "ordering_points={} per_acked_write={:.4}",
        d.ordering_points(),
        d.ordering_points() as f64 / stats.acked_writes.max(1) as f64
    );
}

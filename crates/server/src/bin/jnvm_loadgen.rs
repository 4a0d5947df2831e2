//! `jnvm-loadgen`: pipelined load generator and kill-during-traffic
//! driver for `jnvm-server`.
//!
//! Three modes:
//!
//! ```text
//! # against an already-running server
//! jnvm-loadgen --addr 127.0.0.1:41234 [--conns 4] [--ops 200] ...
//!
//! # spin up a server in-process, load it, report acked writes per commit
//! # group and fences per acked write
//! jnvm-loadgen --self-host [--shards 1] [--replicas 1] [--conns 4] ...
//!
//! # one kill-during-traffic experiment (or a whole sweep)
//! jnvm-loadgen --kill-at 1234 [--shards 4] [--crash-shard 0]
//! jnvm-loadgen --kill-sweep 25        # 25 strided points over the op space
//! ```
//!
//! `--shards` opens that many independent pools with one group committer
//! each; the kill modes arm the crash on `--crash-shard`'s device only,
//! so the experiment covers the failure-isolation contract: the other
//! shards must keep acking while one lies dead.
//!
//! `--trace` turns the observability layer on (`JNVM_OBS=log` for the
//! self-hosted server) and dumps the server's `TRACE` and `METRICS`
//! reports after the run.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use jnvm_pmem::PmemConfig;
use jnvm_server::{
    encode_request, handshake, kill_during_traffic, parse_reply, run_loadgen, traffic_op_count,
    Args, Cluster, LoadReport, LoadgenConfig, Reply, Request, ServerConfig, TortureConfig,
};

fn load_cfg(args: &Args) -> LoadgenConfig {
    LoadgenConfig {
        conns: args.get_or("conns", 4),
        ops_per_conn: args.get_or("ops", 200),
        pipeline: args.get_or("pipeline", 16),
        fields: args.get_or("fields", 4),
        value_size: args.get_or("value-size", 64),
        seed: args.get_or("seed", 0),
    }
}

fn torture_cfg(args: &Args) -> TortureConfig {
    // --crash-backup arms the kill on the backup replica; the default
    // (also spellable --crash-primary) arms it on the primary — the
    // failover case.
    let crash_replica = usize::from(args.has("crash-backup"));
    TortureConfig {
        load: load_cfg(args),
        shards: args.get_or("map-shards", 16),
        pool_shards: args.get_or("shards", 1),
        replicas: args.get_or("replicas", 1),
        crash_shard: args.get_or("crash-shard", 0),
        crash_replica,
        pool_bytes: args.get_or::<u64>("pool-mb", 64) << 20,
        recovery_threads: args.get_or("recovery-threads", 1),
        server: ServerConfig {
            batch_max: args.get_or("batch-max", 64),
            queue_cap: args.get_or("queue-cap", 256),
        },
    }
}

fn print_report(report: &LoadReport) {
    let replied: usize = report.per_conn.iter().map(|c| c.replied()).sum();
    let sent: usize = report.per_conn.iter().map(|c| c.sent).sum();
    let secs = report.elapsed.as_secs_f64().max(1e-9);
    println!(
        "sent={} replied={} acked_writes={} errors={} elapsed={:.3}s rate={:.0} op/s",
        sent,
        replied,
        report.acked_writes,
        report.errors,
        secs,
        replied as f64 / secs
    );
    for c in &report.per_conn {
        if let Some(e) = c.proto_error {
            eprintln!("conn {}: reply stream unparseable: {e}", c.conn);
        }
    }
    println!("latency {}", report.hist.summary().display_us());
}

/// One-shot request against a running server: handshake, one frame out,
/// one reply back. Used for the post-run `TRACE`/`METRICS` dumps.
fn fetch(addr: SocketAddr, req: &Request) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    handshake(&mut s).map_err(|e| e.to_string())?;
    s.write_all(&encode_request(req)).map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    loop {
        match parse_reply(&buf).map_err(|e| e.to_string())? {
            Some((Reply::Value(v), _)) => return Ok(String::from_utf8_lossy(&v).into_owned()),
            Some((other, _)) => return Err(format!("unexpected reply {other:?}")),
            None => {}
        }
        let n = s.read(&mut tmp).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed before reply".into());
        }
        buf.extend_from_slice(&tmp[..n]);
    }
}

/// Dump the server's `TRACE` and `METRICS` reports to stdout.
fn dump_obs(addr: SocketAddr) {
    for (name, req) in [("TRACE", Request::Trace), ("METRICS", Request::Metrics)] {
        match fetch(addr, &req) {
            Ok(text) => println!("--- {name} ---\n{text}"),
            Err(e) => eprintln!("{name} fetch failed: {e}"),
        }
    }
}

fn main() {
    let args = Args::parse();
    let cfg = load_cfg(&args);
    let trace = args.has("trace");
    if trace {
        // Flip the whole process into log mode before any pool exists so
        // every span site on the path is live, whatever JNVM_OBS says.
        jnvm_obs::set_mode(jnvm_obs::ObsMode::Log);
    }

    // One kill experiment (`--kill-at P`) is a sweep over the single
    // point P; `--kill-sweep N` strides N points over the counted op space.
    let kill_at = args.get("kill-at").is_some();
    if kill_at || args.get("kill-sweep").is_some() {
        let tcfg = torture_cfg(&args);
        let points: Vec<u64> = if kill_at {
            vec![args.get_or("kill-at", 0)]
        } else {
            let n: u64 = args.get_or("kill-sweep", 25);
            let total = traffic_op_count(&tcfg).unwrap_or_else(|e| Args::usage_error(&e));
            println!("op space ~{total}; sweeping {n} strided points");
            (0..n).map(|k| 1 + k * total.max(1) / n.max(1)).collect()
        };
        let mut failures = 0u32;
        for point in points {
            match kill_during_traffic(point, &tcfg) {
                Ok(r) => println!(
                    "point {point}: ok (injected={} acked={} acked_after_first_error={} \
                     promotions={} acked_after_promotion={} degraded={} divergent={} \
                     keys_checked={} ops_counted={})",
                    r.injected,
                    r.acked_writes,
                    r.acked_after_first_error,
                    r.promotions,
                    r.acked_after_promotion,
                    r.degraded_shards,
                    r.divergent_keys,
                    r.keys_checked,
                    r.ops_counted
                ),
                Err(e) => {
                    eprintln!("point {point}: FAILED: {e}");
                    failures += 1;
                }
            }
        }
        if failures > 0 {
            eprintln!("{failures} point(s) failed");
            std::process::exit(1);
        }
        return;
    }

    if args.has("self-host") {
        let scfg = ServerConfig {
            batch_max: args.get_or("batch-max", 64),
            queue_cap: args.get_or("queue-cap", 256),
        };
        let cluster = Cluster::create(
            args.get_or("shards", 1),
            args.get_or("replicas", 1),
            args.get_or("map-shards", 16),
            PmemConfig::crash_sim(args.get_or::<u64>("pool-mb", 256) << 20),
            true,
        )
        .unwrap_or_else(|e| Args::usage_error(&e));
        let before = cluster.device_stats();
        let server = cluster.start(scfg).expect("bind server");
        let report = run_loadgen(server.addr(), &cfg);
        let stats = server.stats();
        if trace {
            dump_obs(server.addr());
        }
        server.shutdown();
        let d = cluster.device_stats().delta(&before);
        print_report(&report);
        // One line (CI tails it into the job summary): group formation,
        // fence cost, and the hand-off's accounting identity.
        println!(
            "shards={} groups={} batches={} ops_per_group={:.2} ordering_points={} \
             per_acked_write={:.4} queued={} acked={} nacked={} failed={} rejected={}",
            stats.shards,
            stats.groups,
            stats.batches,
            report.acked_writes as f64 / stats.groups.max(1) as f64,
            d.ordering_points(),
            d.ordering_points() as f64 / report.acked_writes.max(1) as f64,
            stats.queued_writes,
            stats.acked_writes,
            stats.nacked_writes,
            stats.failed_writes,
            stats.rejected_writes
        );
        return;
    }

    let addr: SocketAddr = args
        .get("addr")
        .expect("--addr host:port (or --self-host / --kill-at / --kill-sweep)")
        .parse()
        .expect("--addr must be host:port");
    print_report(&run_loadgen(addr, &cfg));
    if trace {
        dump_obs(addr);
    }
}

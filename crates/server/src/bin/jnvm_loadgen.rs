//! `jnvm-loadgen`: pipelined load generator for `jnvm-server`.
//!
//! Two modes:
//!
//! ```text
//! # against an already-running server
//! jnvm-loadgen --addr 127.0.0.1:41234 [--conns 4] [--ops 200] ...
//!
//! # spin up a server in-process, load it, report acked writes per commit
//! # group and fences per acked write
//! jnvm-loadgen --self-host [--shards 1] [--replicas 1] [--conns 4] ...
//! ```
//!
//! Either way the run's captured history goes through the
//! durable-linearizability checker (`jnvm-lincheck`): the summary line
//! carries its verdict, and a violation prints the minimized witness and
//! exits 1. Against `--addr`, the keys of `--seed` must be this run's
//! alone. Kill-during-traffic sweeps are `jnvm-faultsim lincheck`.
//!
//! `--trace` turns the observability layer on (`JNVM_OBS=log` for the
//! self-hosted server) and dumps the server's `TRACE` and `METRICS`
//! reports after the run.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};

use jnvm_pmem::PmemConfig;
use jnvm_server::{
    encode_request, handshake, read_reply, run_loadgen, Args, Cluster, LoadReport, LoadgenConfig,
    Reply, Request, ServerConfig,
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

/// Print the run's summary with the checker's verdict on its history.
/// Returns whether the history linearized; a violation's minimized
/// witness goes to stderr.
fn print_report(report: &LoadReport) -> bool {
    let verdict = jnvm_lincheck::check(&report.history);
    let replied: usize = report.per_conn.iter().map(|c| c.replied()).sum();
    let sent: usize = report.per_conn.iter().map(|c| c.sent).sum();
    let secs = report.elapsed.as_secs_f64().max(1e-9);
    println!(
        "sent={} replied={} acked_writes={} errors={} lincheck={} elapsed={:.3}s rate={:.0} op/s",
        sent,
        replied,
        report.acked_writes,
        report.errors,
        if verdict.is_ok() { "ok" } else { "VIOLATION" },
        secs,
        replied as f64 / secs
    );
    for c in &report.per_conn {
        if let Some(e) = c.proto_error {
            eprintln!("conn {}: reply stream unparseable: {e}", c.conn);
        }
    }
    println!("latency {}", report.hist.summary().display_us());
    if let Err(v) = &verdict {
        eprintln!("not linearizable: {v}");
    }
    verdict.is_ok()
}

/// One-shot request against a running server: handshake, one frame out,
/// one reply back. Used for the post-run `TRACE`/`METRICS` dumps.
fn fetch(addr: SocketAddr, req: &Request) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    handshake(&mut s).map_err(|e| e.to_string())?;
    s.write_all(&encode_request(req))
        .map_err(|e| e.to_string())?;
    match read_reply(&mut s, &mut Vec::new()).map_err(|e| e.to_string())? {
        Some(Reply::Value(v)) => Ok(String::from_utf8_lossy(&v).into_owned()),
        Some(other) => Err(format!("unexpected reply {other:?}")),
        None => Err("no reply: the connection closed, failed or stayed silent".into()),
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

    let linearizable = if args.has("self-host") {
        let scfg = ServerConfig {
            batch_max: args.get_or("batch-max", 64),
            queue_cap: args.get_or("queue-cap", 256),
        };
        let cluster = Cluster::create(
            args.get_or("shards", 1),
            args.get_or("replicas", 1),
            args.get_or("map-shards", 16),
            PmemConfig::crash_sim(args.get_or::<u64>("pool-mb", 256) << 20),
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
        let linearizable = print_report(&report);
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
        linearizable
    } else {
        let addr: SocketAddr = args
            .get("addr")
            .expect("--addr host:port (or --self-host)")
            .parse()
            .expect("--addr must be host:port");
        let linearizable = print_report(&run_loadgen(addr, &cfg));
        if trace {
            dump_obs(addr);
        }
        linearizable
    };
    if !linearizable {
        std::process::exit(1);
    }
}

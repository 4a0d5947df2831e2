//! `jnvm-faultsim`: command-line front end for the crash-point engine.
//!
//! ```text
//! # render the commit timeline around an injected power failure
//! jnvm-faultsim timeline [--threads 3] [--point N] [--rounds 4]
//!                        [--keys 4] [--pool-mb 16] [--max-spans 48]
//!
//! # sweep crash points and hold every run to durable linearizability
//! jnvm-faultsim lincheck [--points 12] [--shards 2] [--replicas 2]
//!                        [--crash-shard 0] [--crash-backup] [--seed N]
//!                        [--conns 4] [--ops 120]
//! ```
//!
//! The `lincheck` subcommand is the kill-during-traffic sweep: it drives
//! the server torture at `faultsim::strided_points` over the crash
//! replica's counted op space; each run captures every client's
//! invocation/response-stamped op history, reopens the surviving
//! replicas, appends the recovered state as post-recovery reads, and
//! checks the whole thing with the per-key Wing–Gong verifier
//! (`jnvm-lincheck`), plus the failover divergence audit after a primary
//! kill. The first failing point stops the sweep and prints its minimized
//! witness — the shortest per-key subsequence that fails — then exits 1.
//! A sweep in which no point fired exits 1 too: it checked nothing.
//!
//! The `timeline` subcommand runs a concurrent failure-atomic KV churn on
//! a CrashSim device with the Optane-like latency profile, arms a power
//! failure at op `--point` (default: the middle of the counted op
//! stream), recovers the pool, and renders the observability layer's
//! span rings as one interleaved timeline: every `fa_stage`,
//! `fa_commit_group`, ordering point, and recovery span, per thread, on
//! the modeled device clock. The crash splits the timeline in two — the
//! spans the workload completed before power was lost, then the recovery
//! pass's marks and replays.
//!
//! Timestamps are **per-thread modeled nanoseconds** (each thread's own
//! charged device time, as if it had a dedicated core), so cross-thread
//! ordering in the merged view is approximate; within a thread it is
//! exact.

use std::sync::Arc;

use jnvm::JnvmBuilder;
use jnvm_faultsim::{strided_points, torture_point, TortureOutcome};
use jnvm_kvstore::{register_kvstore, DataGrid, Record};
use jnvm_pmem::{silence_crash_panics, FaultPlan, LatencyProfile, Pmem, PmemConfig};
use jnvm_server::{Args, Cluster};

/// What a run hands its post-crash check: the devices and the outcome.
type Verify<'a> = &'a dyn Fn(&[Vec<Arc<Pmem>>], &TortureOutcome);

struct TimelineOpts {
    threads: usize,
    rounds: usize,
    keys: usize,
    pool_mb: u64,
    max_spans: usize,
}

/// The one pool's grid.
fn grid(pool: &Cluster) -> &DataGrid {
    &pool.kv(0).shard(0).grid
}

fn setup(opts: &TimelineOpts) -> (Vec<Vec<Arc<Pmem>>>, Cluster) {
    // CrashSim fidelity *with* the Optane latency profile: the injected
    // spin both charges the modeled clock (span timestamps) and spreads
    // the threads' op streams out so the timeline shows real overlap.
    let mut device = PmemConfig::crash_sim(opts.pool_mb << 20);
    device.latency = LatencyProfile::optane_like();
    let pool = Cluster::create(1, 1, 2, device, true).expect("create pool");
    for t in 0..opts.threads {
        for k in 0..opts.keys {
            let v = format!("t{t}k{k}-init").into_bytes();
            assert!(grid(&pool).insert(&Record::ycsb(&format!("t{t}k{k}"), &[v.clone(), v])));
        }
    }
    pool.pmems()[0][0].psync();
    (pool.pmems().to_vec(), pool)
}

/// Per-thread churn: RMW / remove / re-insert over the thread's own keys,
/// contending on the shared heap, redo-log pool and map shards.
fn workload(t: usize, pool: &Cluster, opts: &TimelineOpts) {
    for i in 0..opts.rounds {
        for k in 0..opts.keys {
            let key = format!("t{t}k{k}");
            let val = format!("t{t}k{k}-{i:04}").into_bytes();
            match i % 3 {
                0 => drop(grid(pool).rmw(&key, 0, &val)),
                1 => drop(grid(pool).remove(&key)),
                _ => drop(grid(pool).insert(&Record::ycsb(&key, &[val.clone(), val]))),
            }
        }
    }
}

fn render_timeline(max_spans: usize) {
    // Merge every thread's recent spans into one chronological view.
    let mut rows: Vec<(String, jnvm_obs::SpanRecord)> = Vec::new();
    for (thread, _total, spans) in jnvm_obs::recent_spans(max_spans) {
        for s in spans {
            rows.push((thread.clone(), s));
        }
    }
    rows.sort_by_key(|(_, s)| (s.begin_ns, s.seq));
    println!(
        "{:>12}  {:>9}  {:<14}  {:<16}  label",
        "t(ns)", "dur(ns)", "thread", "kind"
    );
    for (thread, s) in &rows {
        println!(
            "{:>12}  {:>9}  {:<14}  {:<16}  {}",
            s.begin_ns,
            s.end_ns - s.begin_ns,
            thread,
            s.kind.name(),
            s.label
        );
    }
    let totals = jnvm_obs::span_totals();
    let summary: Vec<String> = jnvm_obs::SpanKind::all()
        .iter()
        .map(|k| format!("{}={}", k.name(), totals[*k as usize]))
        .collect();
    println!("---\nspans {}", summary.join(" "));
}

fn timeline(args: &Args) {
    let opts = TimelineOpts {
        threads: args.get_or("threads", 3),
        rounds: args.get_or("rounds", 4),
        keys: args.get_or("keys", 4),
        pool_mb: args.get_or("pool-mb", 16),
        max_spans: args.get_or("max-spans", 48),
    };
    silence_crash_panics();
    // One pool, `threads` workers, fresh devices per run.
    let run = |point: u64, verify: Verify<'_>| {
        torture_point(
            point,
            FaultPlan::count(),
            (0, 0),
            opts.threads,
            || setup(&opts),
            |t, pool| workload(t, pool, &opts),
            verify,
        )
    };

    // Count pass: learn the interleaved op total so the default crash
    // point lands mid-stream. Tracing stays off here so the rendered
    // timeline holds only the crash run and its recovery.
    jnvm_obs::set_mode(jnvm_obs::ObsMode::Off);
    let total = run(u64::MAX, &|_, _| {}).ops_counted;
    let point: u64 = args.get_or("point", total / 2);
    println!("op space ~{total}; arming power failure at op {point}\n");
    jnvm_obs::set_mode(jnvm_obs::ObsMode::Log);

    // Crash run, then recovery — both traced.
    run(point, &|pmems, out| {
        println!(
            "crash {}: {}/{} workers unwound; recovering...\n",
            if out.injected {
                "fired"
            } else {
                "did not fire (point past stream end)"
            },
            out.crashed_workers,
            opts.threads
        );
        let (_rt, report) = register_kvstore(JnvmBuilder::new())
            .open(Arc::clone(&pmems[0][0]))
            .expect("recovery");
        println!(
            "recovered: {} live blocks, {} logs replayed\n",
            report.live_blocks, report.replayed_logs
        );
        render_timeline(opts.max_spans);
    });
}

/// Sweep strided crash points through kill-during-traffic and hold every
/// run to durable linearizability. Exits 1 on the first violation, with
/// the checker's minimized witness on stderr, and when no point fired.
fn lincheck(args: &Args) {
    use jnvm_server::{
        kill_during_traffic, traffic_op_count, LoadgenConfig, ServerConfig, TortureConfig,
    };
    let cfg = TortureConfig {
        load: LoadgenConfig {
            conns: args.get_or("conns", 4),
            ops_per_conn: args.get_or("ops", 120),
            pipeline: args.get_or("pipeline", 16),
            fields: args.get_or("fields", 4),
            value_size: args.get_or("value-size", 32),
            seed: args.get_or("seed", 0),
        },
        shards: args.get_or("map-shards", 16),
        pool_shards: args.get_or("shards", 2),
        replicas: args.get_or("replicas", 1),
        crash_shard: args.get_or("crash-shard", 0),
        crash_replica: usize::from(args.has("crash-backup")),
        pool_bytes: args.get_or("pool-mb", 64u64) << 20,
        recovery_threads: args.get_or("recovery-threads", 2),
        server: ServerConfig::default(),
    };
    let total = traffic_op_count(&cfg).unwrap_or_else(|e| Args::usage_error(&e));
    let points = strided_points(total, args.get_or("points", 12u64));
    println!(
        "lincheck sweep: {} shard(s) x {} replica(s), seed {}, op space ~{total}, {} points",
        cfg.pool_shards,
        cfg.replicas,
        cfg.load.seed,
        points.len()
    );
    let mut checked_keys = 0u64;
    let mut checked_events = 0u64;
    let mut injected = 0u64;
    for &point in &points {
        match kill_during_traffic(point, &cfg) {
            Ok(r) => {
                checked_keys += r.lincheck_keys;
                checked_events += r.lincheck_events;
                injected += u64::from(r.injected);
                println!(
                    "point {point}: linearizable ({} keys, {} events, injected={}, acked={}, \
                     promotions={}, divergent={})",
                    r.lincheck_keys,
                    r.lincheck_events,
                    r.injected,
                    r.acked_writes,
                    r.promotions,
                    r.divergent_keys
                );
            }
            Err(e) => {
                eprintln!("point {point}: VIOLATION\n{e}");
                std::process::exit(1);
            }
        }
    }
    if injected == 0 {
        eprintln!("verdict: no crash point fired — the sweep checked nothing");
        std::process::exit(1);
    }
    println!(
        "verdict: durably linearizable — {} crash points ({injected} fired), \
         {checked_keys} key partitions, {checked_events} events",
        points.len()
    );
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let subcommand = argv.next();
    let args = Args::from_args(argv);
    match subcommand.as_deref() {
        Some("timeline") => timeline(&args),
        Some("lincheck") => lincheck(&args),
        _ => {
            eprintln!(
                "usage: jnvm-faultsim timeline [--threads N] [--point N] [--rounds N] \
                 [--keys N] [--pool-mb MB] [--max-spans N]\n\
                 \x20      jnvm-faultsim lincheck [--points N] [--shards N] [--replicas N] \
                 [--crash-shard N] [--crash-backup] [--seed N] [--conns N] [--ops N]"
            );
            std::process::exit(2);
        }
    }
}

//! `jnvm-faultsim`: command-line front end for the crash-point engine.
//!
//! ```text
//! # render the commit timeline around an injected power failure
//! jnvm-faultsim timeline [--threads 3] [--point N] [--rounds 4]
//!                        [--keys 4] [--pool-mb 16] [--max-spans 48]
//! ```
//!
//! The crash sweeps themselves run in the tests: `tests/crash_points.rs`
//! sweeps single-writer workloads at every fence epoch, and
//! `tests/server_torture.rs` kills a serving cluster mid-traffic and holds
//! every run to durable linearizability.
//!
//! The `timeline` subcommand runs a concurrent failure-atomic KV churn on
//! a CrashSim device with the Optane-like latency profile, arms a power
//! failure at op `--point` (default: the middle of the counted op
//! stream), recovers the pool, and renders the observability layer's
//! span rings as one interleaved timeline: every `fa_stage`,
//! `fa_commit_group`, ordering point, and recovery span, per thread, on
//! the modeled device clock. The crash splits the timeline in two — the
//! spans the workload completed before power was lost, then the recovery
//! pass's marks and replays. Worker 0 runs on the main thread (the
//! engine runs every topology's worker 0 on the calling thread), so its
//! spans share that thread's row with the recovery pass's.
//!
//! Timestamps are **per-thread modeled nanoseconds** (each thread's own
//! charged device time, as if it had a dedicated core), so cross-thread
//! ordering in the merged view is approximate; within a thread it is
//! exact.

use std::sync::Arc;

use jnvm::JnvmBuilder;
use jnvm_faultsim::{torture_point, Devices, TortureOutcome};
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

fn setup(opts: &TimelineOpts) -> (Devices, Cluster) {
    // CrashSim fidelity *with* the Optane latency profile: the injected
    // spin both charges the modeled clock (span timestamps) and spreads
    // the threads' op streams out so the timeline shows real overlap.
    let mut device = PmemConfig::crash_sim(opts.pool_mb << 20);
    device.latency = LatencyProfile::optane_like();
    let pool = Cluster::create(1, 1, 2, device).expect("create pool");
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
    let run = |plan: FaultPlan, verify: Verify<'_>| {
        torture_point(
            plan,
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
    let total = run(FaultPlan::count(), &|_, _| {}).ops_counted;
    let point: u64 = args.get_or("point", total / 2);
    println!("op space ~{total}; arming power failure at op {point}\n");
    jnvm_obs::set_mode(jnvm_obs::ObsMode::Log);

    // Crash run, then recovery — both traced.
    run(FaultPlan::crash_at(point), &|pmems, out| {
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

fn main() {
    let mut argv = std::env::args().skip(1);
    let subcommand = argv.next();
    let args = Args::from_args(argv);
    match subcommand.as_deref() {
        Some("timeline") => timeline(&args),
        _ => {
            eprintln!(
                "usage: jnvm-faultsim timeline [--threads N] [--point N] [--rounds N] \
                 [--keys N] [--pool-mb MB] [--max-spans N]"
            );
            std::process::exit(2);
        }
    }
}

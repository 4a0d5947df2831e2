//! Figure 11 regenerator: crash/recovery throughput timeline of the
//! TPC-B-like bank for Volatile, FS, J-PFA and J-PFA-nogc — plus the
//! recovery-GC thread-scaling section for the parallel recovery engine.
//!
//! Paper result: Volatile restarts first (2.4 s, losing everything), then
//! J-PFA-nogc, then J-PFA (the gap is the recovery-GC graph traversal),
//! and FS last (28.8 s, cache reload). The reproduction preserves the
//! ordering and attributes the J-PFA/nogc gap to the measured recovery
//! pass.
//!
//! The scaling section goes beyond the paper (which recovers on one
//! thread): it builds a >= 1M-object bank heap under Optane-like latency
//! and recovers it with 1, 2, 4 and 8 worker threads. Mark and sweep
//! parallelize (log replay is sequential: microseconds of a reopen), so
//! the recovery-GC pass is expected to reach at least 2x at 4 threads;
//! every thread count produces the same recovered heap (see
//! `tests/recovery_equivalence.rs`).
//!
//! Flags: `--accounts` (default 100000 = paper 10M / 100), `--threads`,
//! `--recovery-threads` (restart recovery workers for the timeline,
//! default 1), `--before-secs`, `--after-secs`, `--scale-objects`
//! (default 1000000; the scaling heap), `--no-scale` (skip the scaling
//! section), `--out results`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use jnvm::{JnvmBuilder, RecoveryOptions};
use jnvm_bench::{write_csv, Args, Table};
use jnvm_heap::HeapConfig;
use jnvm_pmem::{Pmem, PmemConfig};
use jnvm_tpcb::{register_tpcb, run_timeline, BankKind, JnvmBank, TimelineConfig};

fn timeline_section(args: &Args, out: &Path) {
    let cfg = TimelineConfig {
        accounts: args.get_or("accounts", 100_000),
        threads: args.get_or("threads", 4),
        recovery_threads: args.get_or("recovery-threads", 1),
        run_before: Duration::from_secs_f64(args.get_or("before-secs", 3.0)),
        run_after: Duration::from_secs_f64(args.get_or("after-secs", 3.0)),
        pool_bytes: args.get_or("pool-bytes", 2u64 << 30),
        ..TimelineConfig::default()
    };

    println!(
        "Figure 11: recovery timeline ({} accounts, {} threads, {} recovery threads)",
        cfg.accounts, cfg.threads, cfg.recovery_threads
    );
    let mut table = Table::new(&[
        "design",
        "restart",
        "tput before",
        "tput after",
        "money conserved",
        "gc pass",
    ]);
    let mut rows = Vec::new();
    for kind in [
        BankKind::Volatile,
        BankKind::JpfaNogc,
        BankKind::Jpfa,
        BankKind::Fs,
    ] {
        let r = run_timeline(kind, &cfg);
        let gc = r
            .recovery
            .map(|rec| {
                format!(
                    "{:.3} s ({} live objs)",
                    rec.gc_time.as_secs_f64(),
                    rec.live_objects
                )
            })
            .unwrap_or_else(|| "-".to_string());
        table.row(&[
            kind.label().to_string(),
            format!("{:.3} s", r.restart_duration),
            format!("{:.1} Kops/s", r.nominal_before / 1e3),
            format!("{:.1} Kops/s", r.nominal_after / 1e3),
            r.money_conserved.to_string(),
            gc,
        ]);
        // Per-design timeline series.
        let series: Vec<String> = r
            .buckets
            .iter()
            .map(|(t, n)| format!("{t:.2},{n}"))
            .collect();
        write_csv(
            out,
            &format!("fig11_timeline_{}", kind.label()),
            "t_sec,ops",
            &series,
        );
        rows.push(format!(
            "{},{:.4},{:.0},{:.0}",
            kind.label(),
            r.restart_duration,
            r.nominal_before,
            r.nominal_after
        ));
    }
    table.print();
    let path = write_csv(
        out,
        "fig11_recovery_summary",
        "design,restart_s,tput_before,tput_after",
        &rows,
    );
    println!("wrote {}", path.display());
}

/// Recovery-GC thread scaling on a large heap: one object per account, an
/// Optane-latency device, full recovery at 1/2/4/8 workers.
fn scaling_section(args: &Args, out: &Path) {
    let objects: u64 = args.get_or("scale-objects", 1_000_000);
    let pool_bytes: u64 = args.get_or("scale-pool-bytes", 2u64 << 30);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\nRecovery-GC thread scaling ({objects} objects, Optane-like latency, {cores} host cores)"
    );
    println!(
        "speedup is on the modeled critical path (slowest worker's charged device time):\n\
         the busy-wait latency model time-shares host cores, so wall clock only shows\n\
         parallel speedup when the host has a core per recovery worker"
    );

    let pmem = Pmem::new(PmemConfig::optane(pool_bytes));
    {
        let rt = register_tpcb(JnvmBuilder::new())
            .create(Arc::clone(&pmem), HeapConfig::default())
            .expect("pool creation");
        let bank = JnvmBank::create(&rt, objects, 100).expect("bank");
        rt.psync();
        drop(bank);
    }

    let mut table = Table::new(&[
        "threads",
        "mark model",
        "sweep model",
        "gc model",
        "speedup",
        "gc wall",
        "mark worker device ms",
    ]);
    let mut rows = Vec::new();
    let mut gc_base = None;
    for threads in [1usize, 2, 4, 8] {
        let (rt, rep) = register_tpcb(JnvmBuilder::new())
            .open_with_options(Arc::clone(&pmem), RecoveryOptions::parallel(threads))
            .expect("recovery");
        let gc_wall = rep.gc_time.as_secs_f64();
        let gc_model = rep.modeled_gc_time().as_secs_f64();
        let base = *gc_base.get_or_insert(gc_model);
        let speedup = base / gc_model;
        table.row(&[
            threads.to_string(),
            format!("{:.1} ms", rep.modeled_mark_time.as_secs_f64() * 1e3),
            format!("{:.1} ms", rep.modeled_sweep_time.as_secs_f64() * 1e3),
            format!("{:.1} ms", gc_model * 1e3),
            format!("{speedup:.2}x"),
            format!("{:.1} ms", gc_wall * 1e3),
            rep.mark_thread_device_times
                .iter()
                .map(|t| format!("{:.0}", t.as_secs_f64() * 1e3))
                .collect::<Vec<_>>()
                .join("/"),
        ]);
        rows.push(format!(
            "{},{:.6},{:.6},{:.6},{:.6},{:.3}",
            threads,
            rep.modeled_mark_time.as_secs_f64(),
            rep.modeled_sweep_time.as_secs_f64(),
            gc_model,
            gc_wall,
            speedup
        ));
        drop(rt);
    }
    table.print();
    let path = write_csv(
        out,
        "fig11_recovery_scaling",
        "threads,mark_model_s,sweep_model_s,gc_model_s,gc_wall_s,speedup",
        &rows,
    );
    println!("wrote {}", path.display());
}

fn main() {
    let args = Args::parse();
    let out: PathBuf = PathBuf::from(args.get_or("out", "results".to_string()));
    timeline_section(&args, &out);
    if !args.has("no-scale") {
        scaling_section(&args, &out);
    }
}

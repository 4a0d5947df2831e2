//! Sanitizer overhead: YCSB-A throughput on the CrashSim device with the
//! persist-ordering sanitizer Off, in Log mode, and in Strict mode, plus
//! the redundant-flush report the sanitizer produces as a side effect.
//!
//! Off must be free (the sanitizer state machine is never consulted); Log
//! and Strict pay a per-pwb/per-fence bookkeeping cost that this bin
//! quantifies. Numbers are CrashSim-relative — the device already models
//! flush latency — so only the *relative* spread matters.
//!
//! Flags: `--records` (default 2000), `--ops` (default 20000),
//! `--threads` (default 4), `--out results`, `--report` (emit a markdown
//! table for a CI step summary instead of the plain table).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use jnvm::JnvmBuilder;
use jnvm_bench::{write_csv, Args, GridClient, Table};
use jnvm_heap::HeapConfig;
use jnvm_kvstore::{register_kvstore, Backend, DataGrid, GridConfig, JnvmBackend};
use jnvm_pmem::{Pmem, PmemConfig, SanitizeMode};
use jnvm_ycsb::{run_load, run_workload, Workload};

struct ModeRow {
    mode: SanitizeMode,
    throughput: f64,
    ordering_points: u64,
    redundant_pwbs: u64,
    redundant_fences: u64,
    san_violations: u64,
}

fn run_mode(mode: SanitizeMode, records: u64, ops: u64, threads: usize) -> ModeRow {
    let pmem = Pmem::new(PmemConfig::crash_sim(256 << 20).with_sanitize(mode));
    let rt = register_kvstore(JnvmBuilder::new())
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool creation");
    let be = Arc::new(JnvmBackend::create(&rt, 64, false).expect("backend"));
    let grid = Arc::new(DataGrid::new(
        Arc::clone(&be) as Arc<dyn Backend>,
        GridConfig { cache_capacity: 0 },
    ));
    let mut spec = Workload::A.spec(records, ops);
    spec.threads = threads;
    run_load(&spec, |_| GridClient::new(Arc::clone(&grid)));
    let before = pmem.stats();
    let start = Instant::now();
    let report = run_workload(&spec, |_| GridClient::new(Arc::clone(&grid)));
    let elapsed = start.elapsed().as_secs_f64();
    let d = pmem.stats().delta(&before);
    ModeRow {
        mode,
        throughput: report.total.count() as f64 / elapsed.max(1e-9),
        ordering_points: d.ordering_points(),
        redundant_pwbs: d.redundant_pwbs,
        redundant_fences: d.redundant_fences,
        san_violations: d.san_violations,
    }
}

fn mode_label(mode: SanitizeMode) -> &'static str {
    match mode {
        SanitizeMode::Off => "off",
        SanitizeMode::Log => "log",
        SanitizeMode::Strict => "strict",
    }
}

fn main() {
    let args = Args::parse();
    let records: u64 = args.get_or("records", 2_000);
    let ops: u64 = args.get_or("ops", 20_000);
    let threads: usize = args.get_or("threads", 4);
    let out: PathBuf = PathBuf::from(args.get_or("out", "results".to_string()));
    let markdown = args.has("report");

    if !markdown {
        println!(
            "sanitizer overhead: {records} records, {ops} YCSB-A ops, {threads} thread(s) \
             on a crash-simulating pool"
        );
    }
    let rows: Vec<ModeRow> = [SanitizeMode::Off, SanitizeMode::Log, SanitizeMode::Strict]
        .into_iter()
        .map(|m| run_mode(m, records, ops, threads))
        .collect();
    let base = rows[0].throughput.max(1e-9);

    if markdown {
        println!("### Sanitizer overhead (YCSB-A, {ops} ops, {threads} threads, CrashSim)\n");
        println!("| mode | throughput | vs off | ordering points | redundant pwbs | redundant fences | violations |");
        println!("|------|-----------:|-------:|----------------:|---------------:|-----------------:|-----------:|");
        for r in &rows {
            println!(
                "| {} | {:.0} ops/s | {:.2}x | {} | {} | {} | {} |",
                mode_label(r.mode),
                r.throughput,
                r.throughput / base,
                r.ordering_points,
                r.redundant_pwbs,
                r.redundant_fences,
                r.san_violations,
            );
        }
    } else {
        let mut table = Table::new(&[
            "mode",
            "throughput",
            "vs off",
            "ordering pts",
            "redundant pwbs",
            "redundant fences",
            "violations",
        ]);
        let mut csv = Vec::new();
        for r in &rows {
            table.row(&[
                mode_label(r.mode).to_string(),
                format!("{:.0} ops/s", r.throughput),
                format!("{:.2}x", r.throughput / base),
                r.ordering_points.to_string(),
                r.redundant_pwbs.to_string(),
                r.redundant_fences.to_string(),
                r.san_violations.to_string(),
            ]);
            csv.push(format!(
                "{},{:.0},{},{},{},{}",
                mode_label(r.mode),
                r.throughput,
                r.ordering_points,
                r.redundant_pwbs,
                r.redundant_fences,
                r.san_violations
            ));
        }
        table.print();
        let path = write_csv(
            &out,
            "fig12_sanitizer_overhead",
            "mode,throughput,ordering_points,redundant_pwbs,redundant_fences,violations",
            &csv,
        );
        println!("wrote {}", path.display());
    }
    assert_eq!(
        rows.iter().map(|r| r.san_violations).sum::<u64>(),
        0,
        "sanitizer flagged violations during the bench workload"
    );
}

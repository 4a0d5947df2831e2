//! Observability overhead: what the `jnvm-obs` layer costs when it is off
//! (the contract: one predictable branch per span site) and when it is in
//! `log` mode, measured on the YCSB-A CrashSim path the torture suites
//! run.
//!
//! Three measurements:
//!
//! 1. **site cost** — a tight loop over a disabled span site
//!    (`span_begin`/`span_end`) and a disabled fence hook, giving the
//!    per-site nanosecond cost of off mode;
//! 2. **off mode** — YCSB-A throughput with `JNVM_OBS=off`. The *derived*
//!    overhead is `sites_per_op x site_ns / t_op`: deterministic, immune
//!    to run-to-run throughput noise that dwarfs a branch;
//! 3. **log mode** — the same workload with spans and fence accounting
//!    live. The *derived* overhead prices the run's actual site counts
//!    (ordering-point spans, plain span pairs, fence hooks) at
//!    tight-loop-measured per-site costs; the measured wall-clock
//!    slowdown versus the off run is reported alongside but run-to-run
//!    scheduler noise on the ms-scale rounds swamps a single-digit
//!    percentage, so the gate uses the derived number.
//!
//! `--assert` gates the acceptance bounds: off ≤ 1%, log ≤ 5%
//! (both derived).
//!
//! Flags: `--records` (default 2000), `--ops` (default 20000),
//! `--threads` (default 4), `--repeat` (default 3), `--assert`,
//! `--out results`, `--report` (markdown for a CI step summary).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use jnvm::JnvmBuilder;
use jnvm_bench::{write_csv, Args, GridClient, Table};
use jnvm_heap::HeapConfig;
use jnvm_kvstore::{register_kvstore, Backend, DataGrid, GridConfig, JnvmBackend};
use jnvm_obs::ObsMode;
use jnvm_pmem::{Pmem, PmemConfig};
use jnvm_ycsb::{run_load, run_workload, Workload};

/// Best-of-3 tight-loop cost of one call to `f`, in nanoseconds. Tight
/// loops amortize scheduler bursts over millions of iterations, so these
/// per-site numbers are stable where ms-scale wall-clock A/B is not.
fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Nanoseconds one *disabled* span site costs: span begin/end pair plus a
/// fence hook, amortized over a tight loop. This is the "one branch per
/// site" number the off-mode contract promises.
fn site_cost_ns() -> f64 {
    assert!(matches!(jnvm_obs::mode(), ObsMode::Off));
    // 3 sites per iteration: begin+end is one span site, note_pwb one
    // hook site, and the pair's two branches average out as one more.
    ns_per_call(4_000_000, || {
        let b = jnvm_obs::span_begin();
        jnvm_obs::span_end(jnvm_obs::SpanKind::FaStage, b);
        jnvm_obs::note_pwb();
    }) / 3.0
}

/// Per-site log-mode costs: a recorded span pair, an ordering point
/// (point span + pending-count claim), and a plain fence hook.
struct LogSiteCosts {
    span_ns: f64,
    point_ns: f64,
    hook_ns: f64,
}

fn log_site_costs() -> LogSiteCosts {
    assert!(matches!(jnvm_obs::mode(), ObsMode::Log));
    let costs = LogSiteCosts {
        span_ns: ns_per_call(500_000, || {
            let b = jnvm_obs::span_begin();
            jnvm_obs::span_end(jnvm_obs::SpanKind::FaStage, b);
        }),
        point_ns: ns_per_call(500_000, || {
            jnvm_obs::note_ordering_point("fig15-point");
        }),
        hook_ns: ns_per_call(2_000_000, jnvm_obs::note_pwb),
    };
    jnvm_obs::flush_thread_pending();
    costs
}

struct ModeRun {
    /// Best-of-N seconds per op.
    sec_per_op: f64,
    /// Device persistence ops (pwb+pfence+psync+ordering points) per op.
    sites_per_op: f64,
    /// Ordering points per op (priced as point spans in log mode).
    points_per_op: f64,
    /// Plain pwb/pfence/psync hooks per op.
    hooks_per_op: f64,
    /// Non-point spans per op (fa stage/commit pairs etc.).
    plain_spans_per_op: f64,
    /// Spans recorded during the measured runs.
    spans: u64,
}

fn run_mode(mode: ObsMode, records: u64, ops: u64, threads: usize, repeat: usize) -> ModeRun {
    jnvm_obs::set_mode(mode);
    let pmem = Pmem::new(PmemConfig::crash_sim(256 << 20));
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
    let spans_before: u64 = jnvm_obs::span_totals().iter().sum();
    let mut best = f64::INFINITY;
    let mut total_ops = 0u64;
    for _ in 0..repeat.max(1) {
        let start = Instant::now();
        let report = run_workload(&spec, |_| GridClient::new(Arc::clone(&grid)));
        let n = report.total.count().max(1);
        total_ops += n;
        best = best.min(start.elapsed().as_secs_f64() / n as f64);
    }
    let d = pmem.stats().delta(&before);
    let sites = d.pwbs + d.pfences + d.psyncs + d.ordering_points();
    let spans = jnvm_obs::span_totals().iter().sum::<u64>() - spans_before;
    let ops = total_ops.max(1) as f64;
    ModeRun {
        sec_per_op: best,
        sites_per_op: sites as f64 / ops,
        points_per_op: d.ordering_points() as f64 / ops,
        hooks_per_op: (d.pwbs + d.pfences + d.psyncs) as f64 / ops,
        plain_spans_per_op: spans.saturating_sub(d.ordering_points()) as f64 / ops,
        spans,
    }
}

fn main() {
    let args = Args::parse();
    let records: u64 = args.get_or("records", 2_000);
    let ops: u64 = args.get_or("ops", 20_000);
    let threads: usize = args.get_or("threads", 4);
    let repeat: usize = args.get_or("repeat", 3);
    let out: PathBuf = PathBuf::from(args.get_or("out", "results".to_string()));
    let markdown = args.has("report");
    let gate = args.has("assert");

    jnvm_obs::set_mode(ObsMode::Off);
    let site_ns = site_cost_ns();
    jnvm_obs::set_mode(ObsMode::Log);
    let log_costs = log_site_costs();
    jnvm_obs::set_mode(ObsMode::Off);
    let off = run_mode(ObsMode::Off, records, ops, threads, repeat);
    let log = run_mode(ObsMode::Log, records, ops, threads, repeat);
    jnvm_obs::set_mode(ObsMode::from_env());

    assert_eq!(off.spans, 0, "off mode recorded {} spans", off.spans);
    assert!(log.spans > 0, "log mode recorded no spans");

    // Off-mode overhead, derived: sites/op x ns/site over the op time.
    let off_pct = off.sites_per_op * site_ns / (off.sec_per_op * 1e9) * 100.0;
    // Log-mode overhead, derived: the run's actual site counts priced at
    // tight-loop per-site costs, over the *off* op time (the smaller
    // denominator — the conservative direction).
    let log_ns_per_op = log.plain_spans_per_op * log_costs.span_ns
        + log.points_per_op * log_costs.point_ns
        + log.hooks_per_op * log_costs.hook_ns;
    let log_pct = log_ns_per_op / (off.sec_per_op * 1e9) * 100.0;
    // Measured wall-clock slowdown, best-of-N (reported, not gated:
    // ms-scale round noise swamps single-digit percentages).
    let log_measured_pct =
        ((log.sec_per_op - off.sec_per_op) / off.sec_per_op * 100.0).max(0.0);

    if markdown {
        println!("### Observability overhead (YCSB-A, {ops} ops, {threads} threads, CrashSim)\n");
        println!("| mode | ns/op | sites/op | spans | overhead |");
        println!("|------|------:|---------:|------:|---------:|");
        println!(
            "| off | {:.0} | {:.1} | 0 | {off_pct:.3}% (derived, {site_ns:.2} ns/site) |",
            off.sec_per_op * 1e9,
            off.sites_per_op
        );
        println!(
            "| log | {:.0} | {:.1} | {} | {log_pct:.2}% (derived, {log_ns_per_op:.0} ns/op; \
             measured {log_measured_pct:.2}%) |",
            log.sec_per_op * 1e9,
            log.sites_per_op,
            log.spans
        );
    } else {
        println!(
            "obs overhead: {records} records, {ops} YCSB-A ops, {threads} thread(s), \
             best of {repeat}; disabled site costs {site_ns:.2} ns"
        );
        let mut table = Table::new(&["mode", "ns/op", "sites/op", "spans", "overhead"]);
        table.row(&[
            "off".into(),
            format!("{:.0}", off.sec_per_op * 1e9),
            format!("{:.1}", off.sites_per_op),
            "0".into(),
            format!("{off_pct:.3}% (derived)"),
        ]);
        table.row(&[
            "log".into(),
            format!("{:.0}", log.sec_per_op * 1e9),
            format!("{:.1}", log.sites_per_op),
            log.spans.to_string(),
            format!("{log_pct:.2}% (derived; measured {log_measured_pct:.2}%)"),
        ]);
        table.print();
        let path = write_csv(
            &out,
            "fig15_obs_overhead",
            "mode,ns_per_op,sites_per_op,spans,overhead_pct",
            &[
                format!(
                    "off,{:.0},{:.2},0,{off_pct:.4}",
                    off.sec_per_op * 1e9,
                    off.sites_per_op
                ),
                format!(
                    "log,{:.0},{:.2},{},{log_pct:.4}",
                    log.sec_per_op * 1e9,
                    log.sites_per_op,
                    log.spans
                ),
            ],
        );
        println!("wrote {}", path.display());
    }

    if gate {
        assert!(
            off_pct <= 1.0,
            "off-mode span sites cost {off_pct:.3}% of the CrashSim op path (bound: 1%)"
        );
        assert!(
            log_pct <= 5.0,
            "log mode slows the CrashSim op path by {log_pct:.2}% (bound: 5%)"
        );
        println!("asserted: off {off_pct:.3}% <= 1%, log {log_pct:.2}% <= 5%");
    }
}

//! Figure 11 companion: exhaustive crash-point sweep of the failure-atomic
//! commit sequence (§4.2).
//!
//! Where `fig11_recovery` crashes the TPC-B bank once and times the
//! restart, this binary crashes a failure-atomic transfer via the
//! `jnvm-pmem` injection engine, re-opens the pool after each injected
//! power failure, and prints one row per **fence epoch**: the crash points
//! (store / `pwb` / `pfence` / `psync`) from one fence to the next, which
//! under the strict policy all leave the same media, so one crash — before
//! the epoch's fence, where the most of the program has run — stands for
//! them. A row gives the epoch's point range, the op its crash replaced,
//! the commit phase it landed in, what state recovery produced, and
//! whether any block leaked. The table makes the §4.2 protocol's
//! all-or-nothing boundary visible: every epoch up to the fence that makes
//! the commit record durable recovers the old state, every later one the
//! new one.
//!
//! Flags: `--transfers` (fa blocks in the workload, default 1),
//! `--out results`.

use std::path::PathBuf;
use std::sync::Arc;

use jnvm::{commit_phase, persistent_class, Jnvm, JnvmBuilder};
use jnvm_bench::{write_csv, Args, Table};
use jnvm_faultsim::{self as faultsim, Devices, Images};
use jnvm_heap::HeapConfig;
use jnvm_jpdt::register_jpdt;
use jnvm_pmem::{silence_crash_panics, FaultPlan, Pmem, PmemConfig};

persistent_class! {
    pub class Pair {
        val left, set_left: i64;
        val right, set_right: i64;
    }
}

struct Ctx {
    rt: Jnvm,
    p: Pair,
    transfers: usize,
}

fn setup(transfers: usize) -> (Devices, Ctx) {
    let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
    let rt = register_jpdt(JnvmBuilder::new())
        .register::<Pair>()
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool");
    let p = rt.fa(|| {
        let p = Pair::alloc_uninit(&rt);
        p.set_left(1600);
        p.set_right(400);
        rt.root_put("pair", &p).expect("root");
        p
    });
    // Warm-up transfer so the redo log is in steady state and every sweep
    // instance performs the identical op stream.
    rt.fa(|| {
        p.set_left(p.left() - 100);
        p.set_right(p.right() + 100);
    });
    pmem.psync();
    (vec![vec![pmem]], Ctx { rt, p, transfers })
}

fn workload(_: usize, ctx: &Ctx) {
    for _ in 0..ctx.transfers {
        ctx.rt.fa(|| {
            ctx.p.set_left(ctx.p.left() - 100);
            ctx.p.set_right(ctx.p.right() + 100);
        });
    }
}

fn recover(pmem: &Arc<Pmem>) -> (i64, i64, u64, u64) {
    let (rt, report) = register_jpdt(JnvmBuilder::new())
        .register::<Pair>()
        .open(Arc::clone(pmem))
        .expect("recovery");
    let p = rt
        .root_get_as::<Pair>("pair")
        .expect("typed")
        .expect("pair survived");
    (
        p.left(),
        p.right(),
        report.replayed_logs,
        report.live_blocks,
    )
}

fn main() {
    silence_crash_panics();
    let args = Args::parse();
    let transfers: usize = args.get_or("transfers", 1);
    let out: PathBuf = PathBuf::from(args.get_or("out", "results".to_string()));

    // The one pool (target (0, 0)), written by one worker, which runs on
    // this thread: `commit_phase` below reads the phase the crash
    // interrupted.
    let trace = faultsim::torture_point(
        FaultPlan::count(),
        (0, 0),
        1,
        || setup(transfers),
        workload,
        |_, _| {},
    )
    .trace;
    let total = trace.len();
    println!(
        "Crash-point sweep: {transfers} failure-atomic transfer(s), \
         {total} persistence-relevant ops"
    );

    let mut table = Table::new(&[
        "points",
        "op",
        "phase",
        "recovered",
        "replayed logs",
        "live blocks",
        "verdict",
    ]);
    let mut rows = Vec::new();
    let mut old_state = 0u64;
    let mut new_state = 0u64;
    let mut torn = 0u64;
    // The first point of the epoch the next crash stands for.
    let mut first = 0u64;
    let summary = faultsim::sweep_all(
        Images::Strict,
        (0, 0),
        1,
        || setup(transfers),
        workload,
        |pmems, report| {
            let phase = commit_phase();
            let (l, r, replayed, live) = recover(&pmems[0][0]);
            let verdict = if l + r != 2000 {
                torn += 1;
                "TORN"
            } else if (l, r) == (1500, 500) {
                old_state += 1;
                "old state"
            } else if (l, r) == (1500 - 100 * transfers as i64, 500 + 100 * transfers as i64) {
                new_state += 1;
                "new state"
            } else {
                // Multi-transfer sweeps recover intermediate prefixes.
                new_state += 1;
                "prefix state"
            };
            let op = trace
                .get(report.point as usize)
                .map(|t| t.op.name())
                .unwrap_or("?");
            let points = format!("{first}-{}", report.point);
            first = report.point + 1;
            table.row(&[
                points.clone(),
                op.to_string(),
                phase.name().to_string(),
                format!("({l}, {r})"),
                replayed.to_string(),
                live.to_string(),
                verdict.to_string(),
            ]);
            rows.push(format!(
                "{},{},{},{},{},{},{}",
                points,
                op,
                phase.name(),
                l,
                r,
                replayed,
                live
            ));
        },
    );
    table.print();
    println!(
        "{} fence epochs of {total} crash points: {} recover the old state, \
         {} the new/prefix state, {} torn",
        summary.points_injected, old_state, new_state, torn
    );
    if torn > 0 {
        println!("FAILURE: the commit sequence is not failure-atomic");
        std::process::exit(1);
    }
    let path = write_csv(
        &out,
        "fig11_crash_point_sweep",
        "points,op,phase,left,right,replayed_logs,live_blocks",
        &rows,
    );
    println!("wrote {}", path.display());
}

//! Concurrent crash-torture: N writer threads hammer a shared pool while
//! the injection engine kills the power mid-flight, then recovery is held
//! to the same invariants a sequential crash must satisfy.
//!
//! Where `tests/crash_points.rs` sweeps the op stream of a *single*
//! thread, these tests drive `jnvm_faultsim::torture_sweep`: the crash
//! point is an index into the **interleaved** op stream of all workers,
//! so which thread triggers the failure — and what every other thread was
//! in the middle of — varies from run to run. Two workloads:
//!
//! 1. TPC-B-style bank transfers (failure-atomic): the total balance is
//!    conserved at every crash point, and the recovered image holds no
//!    leaked redo-log or account blocks;
//! 2. DataGrid insert / RMW / remove churn over the `JnvmBackend`
//!    (J-PFA flavour), every op recorded into a `jnvm-lincheck` history:
//!    the history closed over the recovered image is durably linearizable,
//!    and object and block accounting close exactly (records + a bounded
//!    number of redo logs).
//!
//! The accounting constants (`log_blocks`, `rec_objects`) are *measured*
//! from deterministic single-threaded runs rather than hard-coded, so the
//! tests survive layout changes.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use jnvm_repro::faultsim::{
    strided_points, torture_count, torture_sweep, TortureOutcome, TortureSummary,
};
use jnvm_repro::heap::HeapConfig;
use jnvm_repro::jnvm::{Jnvm, JnvmBuilder, RecoveryReport};
use jnvm_repro::kvstore::{register_kvstore, Backend, DataGrid, GridConfig, JnvmBackend, Record};
use jnvm_repro::lincheck::{ClientRecorder, Clock, History, OpKind, Outcome};
use jnvm_repro::pmem::{silence_crash_panics, CrashPolicy, FaultPlan, Pmem, PmemConfig};
use jnvm_repro::tpcb::{register_tpcb, Bank, JnvmBank};

const NTHREADS: usize = 4;

// ---------------------------------------------------------------------------
// Workload 1: concurrent failure-atomic bank transfers.
// ---------------------------------------------------------------------------

const ACCOUNTS: u64 = 8;
const INITIAL: i64 = 1000;
const TRANSFERS: usize = 5;

struct BankCtx {
    /// Keeps the runtime (and its heap/pools) alive for the workload's lifetime.
    _rt: Jnvm,
    bank: JnvmBank,
}

fn bank_setup() -> (Arc<Pmem>, BankCtx) {
    let pmem = Pmem::new(PmemConfig::crash_sim(4 << 20));
    let rt = register_tpcb(JnvmBuilder::new())
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool");
    let bank = JnvmBank::create(&rt, ACCOUNTS, INITIAL).expect("bank");
    pmem.psync();
    (pmem, BankCtx { _rt: rt, bank })
}

/// Each worker moves money around its own rotation of account pairs; the
/// pairs of different workers overlap, so transfers contend on accounts,
/// stripe locks, and the redo-log pool.
fn bank_workload(t: usize, ctx: &BankCtx) {
    for i in 0..TRANSFERS {
        let a = ((t * 2 + i) as u64) % ACCOUNTS;
        let b = (a + 3) % ACCOUNTS;
        assert!(ctx.bank.transfer(a, b, 7), "transfer ({a}, {b}) refused");
    }
}

fn bank_reopen(pmem: &Arc<Pmem>) -> (Jnvm, RecoveryReport) {
    register_tpcb(JnvmBuilder::new())
        .open(Arc::clone(pmem))
        .expect("recovery")
}

/// Measured baselines: `(base, log_blocks)` where `base` is the live block
/// count of the freshly-created bank (no redo log exists yet) and
/// `log_blocks` is the footprint of one redo log (created lazily by the
/// first failure-atomic block and retained in the free pool afterwards).
fn bank_baselines() -> (u64, u64) {
    let observe = |run_workload: bool| {
        let (pmem, ctx) = bank_setup();
        if run_workload {
            bank_workload(0, &ctx);
        }
        drop(ctx);
        pmem.crash(&CrashPolicy::strict()).expect("crash");
        bank_reopen(&pmem).1.live_blocks
    };
    let base = observe(false);
    let with_one_log = observe(true);
    assert!(
        with_one_log > base,
        "single-threaded transfers created no redo log"
    );
    (base, with_one_log - base)
}

/// The concurrent-crash contract: money is conserved, per-account balances
/// are reachable by whole transfers, block accounting closes with at most
/// one redo log per worker, and recovery is idempotent.
fn bank_verify(base: u64, log_blocks: u64, pmem: &Arc<Pmem>, outcome: &TortureOutcome) {
    let point = outcome.point;
    let (rt, report) = bank_reopen(pmem);
    let bank = JnvmBank::open(&rt).expect("bank reopen");
    assert_eq!(
        bank.total(),
        ACCOUNTS as i64 * INITIAL,
        "crash point {point}: a transfer was torn (money created or destroyed)"
    );
    for a in 0..ACCOUNTS {
        let bal = bank.balance(a);
        assert_eq!(
            (bal - INITIAL) % 7,
            0,
            "crash point {point}: account {a} holds a partial transfer ({bal})"
        );
    }
    assert!(
        report.live_blocks >= base,
        "crash point {point}: account or root blocks lost ({} < {base})",
        report.live_blocks
    );
    let extra = report.live_blocks - base;
    assert_eq!(
        extra % log_blocks,
        0,
        "crash point {point}: leaked {extra} blocks (not a whole number of redo logs)"
    );
    assert!(
        extra / log_blocks <= NTHREADS as u64,
        "crash point {point}: {} redo logs recovered for {NTHREADS} workers",
        extra / log_blocks
    );
    // Recovery idempotence: crash again before any new work.
    let first = (report.live_blocks, bank.total());
    drop(bank);
    drop(rt);
    pmem.crash(&CrashPolicy::strict()).expect("recrash");
    let (rt2, report2) = bank_reopen(pmem);
    let bank2 = JnvmBank::open(&rt2).expect("bank reopen 2");
    assert_eq!(
        (report2.live_blocks, bank2.total()),
        first,
        "crash point {point}: recovery is not idempotent"
    );
}

/// Acceptance: ≥ 4 writers, crash points swept across the interleaved op
/// stream, zero torn states and zero leaked blocks.
#[test]
fn bank_transfers_survive_concurrent_crash_sweep() {
    silence_crash_panics();
    let (base, log_blocks) = bank_baselines();
    let total = torture_count(NTHREADS, bank_setup, bank_workload);
    assert!(total > 0, "bank workload performed no persistence ops");
    let summary = torture_sweep(
        strided_points(total, 24),
        FaultPlan::count(),
        NTHREADS,
        bank_setup,
        bank_workload,
        |pmem, outcome| bank_verify(base, log_blocks, pmem, outcome),
    );
    assert!(
        summary.points_injected > 0,
        "no crash point fired inside the concurrent workload"
    );
}

/// Full randomized torture: every crash point of the interleaved stream,
/// under several adversarial line-eviction policies. Slow; run with
/// `cargo test --test concurrent_torture -- --ignored`.
#[test]
#[ignore = "full randomized torture sweep; run with --ignored"]
fn bank_transfers_survive_exhaustive_randomized_torture() {
    silence_crash_panics();
    let (base, log_blocks) = bank_baselines();
    let total = torture_count(NTHREADS, bank_setup, bank_workload);
    for seed in 0..4u64 {
        let plan = FaultPlan::count().with_policy(CrashPolicy::adversarial(seed));
        // Op totals vary run-to-run with the interleaving, so sweep a bit
        // past the counted total; late points that complete instead of
        // crashing still verify the finished image.
        let summary = torture_sweep(
            0..total + NTHREADS as u64,
            plan,
            NTHREADS,
            bank_setup,
            bank_workload,
            |pmem, outcome| bank_verify(base, log_blocks, pmem, outcome),
        );
        assert!(summary.points_injected > 0, "seed {seed}: nothing injected");
    }
}

// ---------------------------------------------------------------------------
// Workload 2: DataGrid insert / RMW / remove churn over the J-PFA backend.
// ---------------------------------------------------------------------------

const KEYS_PER_THREAD: usize = 4;
const CHURN_ROUNDS: usize = 6;

fn grid_key(t: usize, k: usize) -> String {
    format!("t{t}k{k}")
}

/// 8-byte value: a per-key prefix plus a round tag, so a recovered field
/// proves which write it came from (and that no other record's bytes bled
/// into it).
fn grid_val(t: usize, k: usize, tag: &str) -> Vec<u8> {
    format!("{t:02}{k:02}{tag}").into_bytes()
}

/// One recorder per churn worker plus one, the last, for the setup's
/// inserts; `Arc`ed past the harness's context drop.
struct GridLog {
    clock: Clock,
    recorders: Vec<Mutex<ClientRecorder>>,
}

impl GridLog {
    fn into_history(self) -> History {
        let recs = self.recorders.into_iter();
        let recs = recs.map(|m| m.into_inner().expect("recorder lock"));
        History::collect(self.clock, recs.collect::<Vec<_>>())
    }
}

struct GridCtx {
    /// Keeps the runtime (and its heap/pools) alive for the workload's lifetime.
    _rt: Jnvm,
    grid: DataGrid,
    log: Arc<GridLog>,
}

/// Run one grid write as client `w`'s recorded op: invoked before it
/// touches the device, acked once it returns (every churn op succeeds).
fn recorded(log: &GridLog, w: usize, key: &str, kind: OpKind, op: impl FnOnce() -> bool) {
    let recorder = || log.recorders[w].lock().expect("recorder lock");
    let tok = recorder().invoke(key, kind);
    assert!(op(), "{key}: churn op refused");
    recorder().resolve(tok, Outcome::Ok);
}

/// Insert the two-field record `[v, v]` under `key`, recorded.
fn recorded_insert(ctx: &GridCtx, w: usize, key: &str, v: Vec<u8>) {
    let kind = OpKind::Set(vec![v.clone(), v.clone()]);
    recorded(&ctx.log, w, key, kind, || {
        ctx.grid.insert(&Record::ycsb(key, &[v.clone(), v]))
    });
}

fn grid_setup() -> (Arc<Pmem>, GridCtx) {
    let pmem = Pmem::new(PmemConfig::crash_sim(8 << 20));
    let rt = register_kvstore(JnvmBuilder::new())
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool");
    let be = JnvmBackend::create(&rt, 2, true).expect("backend");
    let grid = DataGrid::new(Arc::new(be), GridConfig { cache_capacity: 0 });
    let clock = Clock::new();
    let log = Arc::new(GridLog {
        recorders: (0..=NTHREADS)
            .map(|w| Mutex::new(ClientRecorder::new(&clock, w)))
            .collect(),
        clock,
    });
    let ctx = GridCtx { _rt: rt, grid, log };
    for t in 0..NTHREADS {
        for k in 0..KEYS_PER_THREAD {
            recorded_insert(&ctx, NTHREADS, &grid_key(t, k), grid_val(t, k, "init"));
        }
    }
    pmem.psync();
    (pmem, ctx)
}

/// Each worker churns its own keys (RMW, remove, re-insert) so per-key
/// outcomes stay predictable while the heap, redo-log pool, and map shards
/// are shared across all workers.
fn grid_workload(t: usize, ctx: &GridCtx) {
    for i in 0..CHURN_ROUNDS {
        for k in 0..KEYS_PER_THREAD {
            let key = grid_key(t, k);
            let v = grid_val(t, k, &format!("{i:04}"));
            match i % 3 {
                0 => {
                    let kind = OpKind::SetField(0, v.clone());
                    recorded(&ctx.log, t, &key, kind, || ctx.grid.rmw(&key, 0, &v));
                }
                1 => recorded(&ctx.log, t, &key, OpKind::Del, || ctx.grid.remove(&key)),
                _ => recorded_insert(ctx, t, &key, v),
            }
        }
    }
}

fn grid_reopen(pmem: &Arc<Pmem>) -> (Jnvm, JnvmBackend, RecoveryReport) {
    let (rt, report) = register_kvstore(JnvmBuilder::new())
        .open(Arc::clone(pmem))
        .expect("recovery");
    let be = JnvmBackend::open(&rt, true).expect("backend reopen");
    (rt, be, report)
}

/// Measured grid baselines: the live object count of the complete
/// 16-record image (which includes the one redo log the single-threaded
/// setup created), the per-record footprint in objects (record + field
/// blobs + map entry, which holds the key; 5 while the key was a blob of
/// its own), the live *block* count of the image after
/// every record has been removed again (map skeleton + one redo log, no
/// pool slabs), and one redo log's footprint in blocks.
struct GridBase {
    full: u64,
    rec_objects: u64,
    drained: u64,
    log_blocks: u64,
}

fn grid_baselines() -> GridBase {
    let observe = |removals: usize| {
        let (pmem, ctx) = grid_setup();
        for i in 0..removals {
            let key = grid_key(i / KEYS_PER_THREAD, i % KEYS_PER_THREAD);
            assert!(ctx.grid.remove(&key));
        }
        drop(ctx);
        pmem.crash(&CrashPolicy::strict()).expect("crash");
        grid_reopen(&pmem).2
    };
    let full = observe(0);
    let minus_one = observe(1);
    let drained = observe(NTHREADS * KEYS_PER_THREAD);
    let rec_objects = full.live_objects - minus_one.live_objects;
    assert_eq!(
        rec_objects, 4,
        "a record is its entry (key inside), record and two blobs"
    );
    assert!(
        full.live_blocks > drained.live_blocks,
        "draining the grid freed no blocks"
    );
    GridBase {
        full: full.live_objects,
        rec_objects,
        drained: drained.live_blocks,
        // The log layout depends only on the (shared, default) heap
        // geometry, so the bank pool's measurement holds here.
        log_blocks: bank_baselines().1,
    }
}

/// The recovered grid against the churn's history — durably linearizable:
/// a completed write lost, a torn record or one holding another record's
/// bytes has no linearization — then object and block accounting, which
/// the history does not see.
fn grid_verify(base: &GridBase, log: GridLog, pmem: &Arc<Pmem>, outcome: &TortureOutcome) {
    let GridBase {
        full,
        rec_objects,
        drained: drained_base,
        log_blocks,
    } = *base;
    let point = outcome.point;
    let (_rt, be, report) = grid_reopen(pmem);
    let mut history = log.into_history();
    if let Err(v) = history.check_recovered(|key| {
        be.read(key)
            .map(|rec| rec.fields.values().map(<[u8]>::to_vec).collect())
    }) {
        panic!("crash point {point}: durable-linearizability violation: {v}");
    }
    let present = history
        .keys()
        .into_iter()
        .filter(|key| be.read(key).is_some())
        .count() as u64;
    assert_eq!(
        be.len() as u64,
        present,
        "crash point {point}: backend len disagrees with reachable records"
    );
    // Object accounting, pass 1 — exact up to the redo logs. Every object
    // of a record (its entry, record and blobs) is pool-allocated
    // (§4.4), so which slab *blocks* survive a concurrent remove/re-insert
    // churn depends on the interleaving; the live *objects* do not: the
    // image holds four per present record, plus one object per redo log
    // beyond the setup's (at most one per worker).
    let total_keys = (NTHREADS * KEYS_PER_THREAD) as u64;
    assert!(present <= total_keys);
    let expected = full - (total_keys - present) * rec_objects;
    assert!(
        (expected..expected + NTHREADS as u64).contains(&report.live_objects),
        "crash point {point}: {} live objects, {expected} expected for {present} records \
         plus up to {} more redo logs",
        report.live_objects,
        NTHREADS - 1
    );
    // Block accounting, pass 2 — exact. Drain every surviving record, crash
    // again, and require the footprint to return to the drained baseline
    // plus whole redo logs (the directory retains up to one log per worker
    // thread, and logs are never reclaimed). Slab packing cannot hide a
    // leak here: with no records left, every pool slab must be empty and
    // collected, so any stray block shows up as a non-multiple of the log
    // size. A lost block would already have made one of the drains fail.
    for t in 0..NTHREADS {
        for k in 0..KEYS_PER_THREAD {
            let key = grid_key(t, k);
            if be.read(&key).is_some() {
                assert!(
                    be.remove(&key),
                    "crash point {point}: {key} readable but not removable"
                );
            }
        }
    }
    pmem.psync();
    drop(be);
    drop(_rt);
    pmem.crash(&CrashPolicy::strict()).expect("drain crash");
    let (_rt2, be2, report2) = grid_reopen(pmem);
    assert_eq!(
        be2.len(),
        0,
        "crash point {point}: drained backend still holds entries"
    );
    assert!(
        report2.live_blocks >= drained_base,
        "crash point {point}: drained image lost blocks ({} live, {drained_base} baseline)",
        report2.live_blocks
    );
    let extra = report2.live_blocks - drained_base;
    assert_eq!(
        extra % log_blocks,
        0,
        "crash point {point}: {extra} blocks leaked after draining all records"
    );
    assert!(
        extra / log_blocks <= (NTHREADS - 1) as u64,
        "crash point {point}: {} extra redo logs for {NTHREADS} workers",
        extra / log_blocks
    );
}

/// Sweep `points` of the grid churn under `plan`, each recovered image
/// held to [`grid_verify`] with the history its own run recorded.
fn grid_sweep(
    base: &GridBase,
    points: impl IntoIterator<Item = u64>,
    plan: FaultPlan,
) -> TortureSummary {
    let log = RefCell::new(None);
    torture_sweep(
        points,
        plan,
        NTHREADS,
        || {
            let (pmem, ctx) = grid_setup();
            *log.borrow_mut() = Some(Arc::clone(&ctx.log));
            (pmem, ctx)
        },
        grid_workload,
        |pmem, outcome| {
            let run = log.borrow_mut().take().expect("setup ran");
            let run = Arc::into_inner(run).expect("the workload context is dropped");
            grid_verify(base, run, pmem, outcome)
        },
    )
}

/// Acceptance: concurrent insert / RMW / remove churn recovers to a
/// durably linearizable image with exact object and block accounting.
#[test]
fn grid_churn_survives_concurrent_crash_sweep() {
    silence_crash_panics();
    let base = grid_baselines();
    let total = torture_count(NTHREADS, grid_setup, grid_workload);
    assert!(total > 0, "grid workload performed no persistence ops");
    let summary = grid_sweep(&base, strided_points(total, 20), FaultPlan::count());
    assert!(
        summary.points_injected > 0,
        "no crash point fired inside the concurrent workload"
    );
}

/// Exhaustive randomized variant of the grid torture. Run with `--ignored`.
#[test]
#[ignore = "full randomized torture sweep; run with --ignored"]
fn grid_churn_survives_exhaustive_randomized_torture() {
    silence_crash_panics();
    let base = grid_baselines();
    let total = torture_count(NTHREADS, grid_setup, grid_workload);
    for seed in 0..2u64 {
        let plan = FaultPlan::count().with_policy(CrashPolicy::adversarial(seed));
        let summary = grid_sweep(&base, 0..total + NTHREADS as u64, plan);
        assert!(summary.points_injected > 0, "seed {seed}: nothing injected");
    }
}

// ---------------------------------------------------------------------------
// Satellite: concurrent insert/remove block conservation (no leaks, no
// double frees) — crash-free, the churn itself is the stressor.
// ---------------------------------------------------------------------------

#[test]
fn concurrent_insert_remove_conserves_blocks() {
    let image = |churn: bool| -> u64 {
        let pmem = Pmem::new(PmemConfig::crash_sim(8 << 20));
        let rt = register_kvstore(JnvmBuilder::new())
            .create(Arc::clone(&pmem), HeapConfig::default())
            .expect("pool");
        let be = JnvmBackend::create(&rt, 4, false).expect("backend");
        let grid = Arc::new(DataGrid::new(
            Arc::new(be),
            GridConfig { cache_capacity: 0 },
        ));
        // Pre-size the map shards so the churn below never grows them:
        // growth order would otherwise differ between the two runs.
        for t in 0..NTHREADS {
            for k in 0..KEYS_PER_THREAD {
                let v = grid_val(t, k, "init");
                assert!(grid.insert(&Record::ycsb(&grid_key(t, k), &[v.clone(), v])));
            }
        }
        for t in 0..NTHREADS {
            for k in 0..KEYS_PER_THREAD {
                assert!(grid.remove(&grid_key(t, k)));
            }
        }
        if churn {
            std::thread::scope(|s| {
                for t in 0..NTHREADS {
                    let grid = Arc::clone(&grid);
                    s.spawn(move || {
                        for round in 0..3 {
                            for k in 0..KEYS_PER_THREAD {
                                let v = grid_val(t, k, &format!("{round:04}"));
                                assert!(
                                    grid.insert(&Record::ycsb(&grid_key(t, k), &[v.clone(), v]))
                                );
                            }
                            for k in 0..KEYS_PER_THREAD {
                                assert!(grid.remove(&grid_key(t, k)));
                            }
                        }
                    });
                }
            });
        }
        grid.backend().sync();
        drop(grid);
        drop(rt);
        pmem.crash(&CrashPolicy::strict()).expect("crash");
        let (_rt, be, report) = grid_reopen(&pmem);
        assert_eq!(be.len(), 0);
        report.live_blocks
    };
    let quiet = image(false);
    let churned = image(true);
    assert_eq!(
        quiet, churned,
        "concurrent insert/remove churn leaked or double-freed blocks"
    );
}

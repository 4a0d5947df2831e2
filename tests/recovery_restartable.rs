//! Crash-during-recovery: the parallel recovery pass is itself a
//! crash-consistent program.
//!
//! Recovery replays redo logs, nullifies dangling references, clears dead
//! headers, and retires committed flags — all persistent writes. If the
//! power fails *again* in the middle of that (a very real failure mode:
//! machines that crash once tend to crash again on the way back up), the
//! next recovery must converge to exactly the heap a crash-free recovery
//! would have produced, no matter which worker was mid-write.
//!
//! Mechanically: a concurrent torture run produces a mid-flight crash
//! image; [`jnvm_faultsim::sweep`] then sweeps crash points *inside*
//! a parallel (`threads = 4`) recovery of that image, run by the one
//! worker of a 1 × 1 topology — the injected crash unwinds one recovery
//! thread, `run_workers_timed` re-throws it from the spawning thread, and
//! the engine resynchronizes the device cache from media (ghost stores of
//! other mid-store threads must not be visible). Verification — at every
//! crash, and at any point past the end of the stream, where recovery
//! completed — reopens sequentially and requires:
//!
//! 1. the workload's own invariants (bank money conserved, whole
//!    transfers only);
//! 2. **convergence**: the final media is bit-identical to the oracle —
//!    the media produced by recovering the original image without any
//!    mid-recovery crash;
//! 3. **idempotence**: a third recovery finds nothing left to do (no logs
//!    to replay, nothing to free, nothing to nullify).
//!
//! Recovery's threads all write the device, so no fence epoch is defined:
//! the default tests sweep `strided_points` of the recovery op stream; the
//! exhaustive every-point sweep (plus adversarial line-eviction policies)
//! runs with `--ignored`.

use std::sync::Arc;

use jnvm_repro::faultsim::{strided_points, sweep, torture_point, Devices, TortureSummary};
use jnvm_repro::heap::HeapConfig;
use jnvm_repro::jnvm::{persistent_class, Jnvm, JnvmBuilder, RecoveryOptions};
use jnvm_repro::pmem::{silence_crash_panics, CrashPolicy, FaultPlan, Pmem, PmemConfig};
use jnvm_repro::tpcb::{register_tpcb, Bank, JnvmBank};

/// Writer threads in the torture run that produces the crash image.
const NTHREADS: usize = 4;
/// The one pool's device, the 1 × 1 topology's, is the crash target.
const POOL: (usize, usize) = (0, 0);
/// Worker threads of the recovery pass under injection. The CI recovery
/// matrix overrides this via `JNVM_RECOVERY_THREADS`.
fn recovery_threads() -> usize {
    std::env::var("JNVM_RECOVERY_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

// ---------------------------------------------------------------------------
// Image capture / restore (same conventions as tests/recovery_equivalence.rs).
// ---------------------------------------------------------------------------

fn snapshot(pmem: &Arc<Pmem>) -> Vec<u8> {
    pmem.resync_cache();
    let mut img = vec![0u8; pmem.len() as usize];
    pmem.read_bytes(0, &mut img);
    img
}

fn restore(image: &[u8]) -> Arc<Pmem> {
    let pmem = Pmem::new(PmemConfig::crash_sim(image.len() as u64));
    pmem.write_bytes(0, image);
    pmem.drain_all();
    pmem
}

/// `image` restored as a one-pool topology whose context is the device.
fn restore_pool(image: &[u8]) -> (Devices, Arc<Pmem>) {
    let pmem = restore(image);
    (vec![vec![Arc::clone(&pmem)]], pmem)
}

fn assert_media_matches(pmem: &Arc<Pmem>, oracle: &[u8], label: &str) {
    let mut addr = 0u64;
    while addr < pmem.len() {
        let i = addr as usize;
        let want = u64::from_le_bytes(oracle[i..i + 8].try_into().expect("slice of 8"));
        let got = pmem.media_read_u64(addr);
        assert_eq!(
            got, want,
            "{label}: converged media diverges from the crash-free oracle \
             at byte {addr:#x} ({got:#018x} vs {want:#018x})"
        );
        addr += 8;
    }
}

// ---------------------------------------------------------------------------
// Scenario 1: bank image (replay-heavy — committed and abandoned redo logs).
// ---------------------------------------------------------------------------

const ACCOUNTS: u64 = 8;
const INITIAL: i64 = 1000;
const TRANSFERS: usize = 5;

struct BankCtx {
    _rt: Jnvm,
    bank: JnvmBank,
}

fn bank_setup() -> (Devices, BankCtx) {
    let pmem = Pmem::new(PmemConfig::crash_sim(4 << 20));
    let rt = register_tpcb(JnvmBuilder::new())
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool");
    let bank = JnvmBank::create(&rt, ACCOUNTS, INITIAL).expect("bank");
    pmem.psync();
    (vec![vec![pmem]], BankCtx { _rt: rt, bank })
}

fn bank_workload(t: usize, ctx: &BankCtx) {
    for i in 0..TRANSFERS {
        let a = ((t * 2 + i) as u64) % ACCOUNTS;
        let b = (a + 3) % ACCOUNTS;
        assert!(ctx.bank.transfer(a, b, 7), "transfer ({a}, {b}) refused");
    }
}

/// A crash image from the middle of a concurrent transfer storm: redo
/// logs in every lifecycle state, in-flight copies, per-worker garbage.
fn torn_bank_image() -> Vec<u8> {
    silence_crash_panics();
    let count = FaultPlan::count();
    let total =
        torture_point(count, POOL, NTHREADS, bank_setup, bank_workload, |_, _| {}).ops_counted;
    let mut image = None;
    // Interleavings vary run to run, so try a few mid-stream points and
    // keep the last one that actually crashed.
    sweep(
        [total / 3, total / 2, 2 * total / 3],
        CrashPolicy::strict(),
        POOL,
        NTHREADS,
        bank_setup,
        bank_workload,
        |pmems, _| image = Some(snapshot(&pmems[0][0])),
    );
    image.expect("no mid-stream crash point fired")
}

// ---------------------------------------------------------------------------
// Scenario 2: dangling-reference graph (mark-heavy — nullification writes).
// ---------------------------------------------------------------------------

persistent_class! {
    pub class Link {
        val value, set_value: i64;
        ref next, set_next, update_next: Link;
    }
}

const LINKS: i64 = 48;

fn torn_graph_image() -> Vec<u8> {
    let pmem = Pmem::new(PmemConfig::crash_sim(2 << 20));
    let rt = JnvmBuilder::new()
        .register::<Link>()
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool");
    for i in 0..LINKS {
        let a = Link::alloc_uninit(&rt);
        a.set_value(i);
        let b = Link::alloc_uninit(&rt);
        b.set_value(i + 1000);
        a.set_next(Some(&b));
        a.pwb();
        b.pwb();
        if i % 3 == 0 {
            b.validate();
        }
        rt.root_put(&format!("n{i}"), &a).expect("root");
    }
    rt.psync();
    pmem.crash(&CrashPolicy::strict()).expect("crash");
    snapshot(&pmem)
}

// ---------------------------------------------------------------------------
// The sweep driver.
// ---------------------------------------------------------------------------

/// Sweep crash points inside a parallel recovery of `image` and verify
/// convergence + idempotence at every crashed point. `verify_extra` runs
/// scenario-specific invariants against the converged runtime.
fn restartable_sweep(
    image: &[u8],
    register: fn(JnvmBuilder) -> JnvmBuilder,
    points: Vec<u64>,
    policy: CrashPolicy,
    verify_extra: impl Fn(&Jnvm),
) -> TortureSummary {
    silence_crash_panics();
    let threads = recovery_threads();
    // The crash-free oracle: recover the image once, sequentially, and
    // remember the resulting media.
    let oracle_pmem = restore(image);
    let (oracle_rt, oracle_report) = register(JnvmBuilder::new())
        .open(Arc::clone(&oracle_pmem))
        .expect("oracle recovery");
    drop(oracle_rt);
    let oracle_media = snapshot(&oracle_pmem);
    // The fixpoint oracle: what a recovery of an already-recovered heap
    // reports. (`freed_blocks` stays nonzero at fixpoint — the sweep
    // counts every unmarked block below the bump, free holes included.)
    let (oracle_rt2, oracle_fixpoint) = register(JnvmBuilder::new())
        .open(Arc::clone(&oracle_pmem))
        .expect("oracle fixpoint recovery");
    drop(oracle_rt2);

    sweep(
        points,
        policy,
        POOL,
        1,
        || restore_pool(image),
        |_, pmem| {
            // The workload under injection IS the parallel recovery. A
            // crash inside any worker unwinds the open.
            let _ = register(JnvmBuilder::new())
                .open_with_options(Arc::clone(pmem), RecoveryOptions::parallel(threads))
                .expect("recovery on an intact image cannot fail logically");
        },
        |pmems, report| {
            let pmem = &pmems[0][0];
            let label = format!("recovery-crash@{}", report.point);
            // Second recovery, sequential: must succeed and converge.
            let (rt, rep2) = register(JnvmBuilder::new())
                .open(Arc::clone(pmem))
                .expect("re-recovery after mid-recovery crash");
            assert_eq!(
                rep2.live_blocks, oracle_report.live_blocks,
                "{label}: converged live set differs from the oracle"
            );
            verify_extra(&rt);
            drop(rt);
            assert_media_matches(pmem, &oracle_media, &label);
            // Third recovery: a fixpoint — nothing left to replay, free,
            // or nullify.
            let (_rt3, rep3) = register(JnvmBuilder::new())
                .open(Arc::clone(pmem))
                .expect("third recovery");
            assert_eq!(rep3.replayed_logs, 0, "{label}: fixpoint replays a log");
            assert_eq!(rep3.nullified_refs, 0, "{label}: fixpoint nullifies a ref");
            assert_eq!(
                rep3.freed_blocks, oracle_fixpoint.freed_blocks,
                "{label}: fixpoint free-hole count drifts"
            );
            assert_eq!(
                rep3.live_blocks, oracle_report.live_blocks,
                "{label}: fixpoint live set drifts"
            );
        },
    )
}

fn bank_invariants(rt: &Jnvm) {
    let bank = JnvmBank::open(rt).expect("bank reopen");
    assert_eq!(
        bank.total(),
        ACCOUNTS as i64 * INITIAL,
        "a transfer was torn across the double crash"
    );
    for a in 0..ACCOUNTS {
        assert_eq!(
            (bank.balance(a) - INITIAL) % 7,
            0,
            "account {a} holds a partial transfer"
        );
    }
}

fn recovery_op_count(image: &[u8], register: fn(JnvmBuilder) -> JnvmBuilder) -> u64 {
    let threads = recovery_threads();
    torture_point(
        FaultPlan::count(),
        POOL,
        1,
        || restore_pool(image),
        |_, pmem| {
            let _ = register(JnvmBuilder::new())
                .open_with_options(Arc::clone(pmem), RecoveryOptions::parallel(threads))
                .expect("count pass");
        },
        |_, _| {},
    )
    .ops_counted
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

/// Bounded slice over the bank image: crashes land in replay, mark and
/// sweep of a 4-thread recovery.
#[test]
fn parallel_recovery_of_bank_image_survives_midway_crashes() {
    let image = torn_bank_image();
    let total = recovery_op_count(&image, register_tpcb);
    let summary = restartable_sweep(
        &image,
        register_tpcb,
        strided_points(total, 16),
        CrashPolicy::strict(),
        bank_invariants,
    );
    assert!(
        summary.points_injected > 0,
        "no crash point fired inside recovery"
    );
}

/// Bounded slice over the dangling-graph image: crashes land in the
/// work-stealing mark's nullification writes and the invalid-child sweep.
#[test]
fn parallel_recovery_of_dangling_graph_survives_midway_crashes() {
    let image = torn_graph_image();
    let total = recovery_op_count(&image, |b| b.register::<Link>());
    let summary = restartable_sweep(
        &image,
        |b| b.register::<Link>(),
        strided_points(total, 12),
        CrashPolicy::strict(),
        |_| {},
    );
    assert!(
        summary.points_injected > 0,
        "no crash point fired inside recovery"
    );
}

/// Exhaustive: every crash point of the recovery op stream, under the
/// strict policy and two adversarial line-eviction policies. Slow; run
/// with `cargo test --test recovery_restartable -- --ignored`.
#[test]
#[ignore = "exhaustive crash-during-recovery sweep; run with --ignored"]
fn parallel_recovery_survives_exhaustive_crash_sweep() {
    let image = torn_bank_image();
    let total = recovery_op_count(&image, register_tpcb);
    for policy in [
        CrashPolicy::strict(),
        CrashPolicy::adversarial(1),
        CrashPolicy::adversarial(2),
    ] {
        let summary = restartable_sweep(
            &image,
            register_tpcb,
            // Parallel op totals wobble slightly with scheduling; points
            // past the end count as completed, not crashed.
            (0..total + NTHREADS as u64).collect(),
            policy,
            bank_invariants,
        );
        assert!(summary.points_injected > 0, "nothing injected");
    }
}

//! Differential testing of the parallel recovery engine against the
//! sequential pass.
//!
//! The contract under test: **any** recovery thread count produces the
//! same recovered heap. `threads == 1` is the oracle — the same engine with
//! one worker, on the calling thread — and every parallel configuration
//! must match it *bit for bit* on the persistent media, and exactly on
//! every counter the [`RecoveryReport`] exposes (live objects, live
//! blocks, freed blocks, nullified refs, replayed logs) plus
//! the rebuilt volatile state (free-queue length, pool free slots).
//!
//! Crash images come from four sources:
//!
//! 1. concurrent torture runs (bank transfers, DataGrid churn) killed
//!    mid-flight by the injection engine — randomized, messy images with
//!    in-flight redo logs;
//! 2. a deterministic wide graph of dangling references, so the
//!    work-stealing mark provably nullifies the same set of slots the
//!    sequential mark does — plain ones, and records' tagged field
//!    references, which must keep their tag bit for bit when live;
//! 3. two writers frozen between commit point and retire, so two
//!    committed logs write the same word and the replay order shows;
//! 4. completed workloads (for the HeaderScanOnly-vs-Full pin and its
//!    counterexample, recovery's reads per record, and a span whose slot
//!    count is corrupt).
//!
//! Images are captured once (a byte-for-byte copy of the post-crash
//! media) and restored into a fresh device per configuration, so every
//! recovery run starts from the identical crash state.

use std::sync::Arc;

use jnvm_repro::faultsim::{strided_points, sweep, torture_point, Devices};
use jnvm_repro::heap::{BlockHeader, HeapConfig, CLASS_ID_POOL, REF_ADDR_MASK};
use jnvm_repro::jnvm::{
    persistent_class, Jnvm, JnvmBuilder, PObject, Proxy, RecoveryMode, RecoveryOptions,
    RecoveryReport,
};
use jnvm_repro::kvstore::{
    register_kvstore, Backend, DataGrid, GridConfig, JnvmBackend, PRecord, Record,
};
use jnvm_repro::pmem::{
    catch_crash, silence_crash_panics, CrashPolicy, FaultOp, FaultPlan, Pmem, PmemConfig,
};
use jnvm_repro::tpcb::{register_tpcb, Bank, JnvmBank};

const NTHREADS: usize = 4;

/// The one pool's device, the 1 × 1 topology's, is the crash target.
const POOL: (usize, usize) = (0, 0);

/// The ops `NTHREADS` workers of `workload` issue on `setup`'s pool.
fn pool_ops<C: Sync>(setup: fn() -> (Devices, C), workload: fn(usize, &C)) -> u64 {
    let count = FaultPlan::count();
    torture_point(count, POOL, NTHREADS, setup, workload, |_, _| {}).ops_counted
}

/// Parallel thread counts to hold against the sequential oracle. The CI
/// recovery matrix narrows this to one count via `JNVM_RECOVERY_THREADS`.
fn candidate_threads() -> Vec<usize> {
    match std::env::var("JNVM_RECOVERY_THREADS") {
        Ok(v) => vec![v.parse().expect("JNVM_RECOVERY_THREADS must be a number")],
        Err(_) => vec![2, 4, 8],
    }
}

// ---------------------------------------------------------------------------
// Image capture / restore.
// ---------------------------------------------------------------------------

/// Byte-for-byte copy of the device **media** (the post-crash image).
fn snapshot(pmem: &Arc<Pmem>) -> Vec<u8> {
    // After `crash`/`resync_cache` the cache mirrors media exactly.
    pmem.resync_cache();
    let mut img = vec![0u8; pmem.len() as usize];
    pmem.read_bytes(0, &mut img);
    img
}

/// Fresh device holding exactly `image` on media.
fn restore(image: &[u8]) -> Arc<Pmem> {
    let pmem = Pmem::new(PmemConfig::crash_sim(image.len() as u64));
    pmem.write_bytes(0, image);
    pmem.drain_all();
    pmem
}

/// Restore `image` and recover it with the given mode and thread count.
fn open_restored(
    image: &[u8],
    register: fn(JnvmBuilder) -> JnvmBuilder,
    mode: RecoveryMode,
    threads: usize,
) -> (Arc<Pmem>, Jnvm, RecoveryReport) {
    let pmem = restore(image);
    let (rt, report) = register(JnvmBuilder::new())
        .open_with_options(Arc::clone(&pmem), RecoveryOptions { mode, threads })
        .expect("recovery");
    (pmem, rt, report)
}

/// Every persistent word of the two devices must agree.
fn assert_media_identical(a: &Arc<Pmem>, b: &Arc<Pmem>, label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: device sizes differ");
    let mut addr = 0;
    while addr < a.len() {
        let (wa, wb) = (a.media_read_u64(addr), b.media_read_u64(addr));
        assert_eq!(
            wa, wb,
            "{label}: recovered media diverges at byte {addr:#x} \
             ({wa:#018x} vs {wb:#018x})"
        );
        addr += 8;
    }
}

/// The core differential check: recover `image` sequentially (the oracle)
/// and at each candidate thread count, and require identical media,
/// identical report counters, and identical rebuilt volatile state.
/// Returns the oracle report so callers can assert scenario-specific
/// expectations (e.g. "this image must have produced nullifications").
fn assert_thread_equivalence(
    image: &[u8],
    register: fn(JnvmBuilder) -> JnvmBuilder,
    mode: RecoveryMode,
    label: &str,
) -> RecoveryReport {
    let (op, ort, oracle) = open_restored(image, register, mode, 1);
    assert_eq!(oracle.threads, 1, "{label}: oracle must be sequential");
    for threads in candidate_threads() {
        let tag = format!("{label} [threads={threads}]");
        let (p, rt, rep) = open_restored(image, register, mode, threads);
        assert_eq!(rep.threads, threads, "{tag}: report thread count");
        assert_eq!(
            rep.replayed_logs, oracle.replayed_logs,
            "{tag}: replayed logs"
        );
        assert_eq!(rep.live_objects, oracle.live_objects, "{tag}: live objects");
        assert_eq!(rep.live_blocks, oracle.live_blocks, "{tag}: live blocks");
        assert_eq!(rep.freed_blocks, oracle.freed_blocks, "{tag}: freed blocks");
        assert_eq!(
            rep.nullified_refs, oracle.nullified_refs,
            "{tag}: nullified refs"
        );
        assert_eq!(
            rt.heap().stats().free_queue_len,
            ort.heap().stats().free_queue_len,
            "{tag}: rebuilt free-queue length"
        );
        assert_eq!(
            rt.heap().stats().bump,
            ort.heap().stats().bump,
            "{tag}: repaired bump pointer"
        );
        assert_eq!(
            rt.pools().free_slots(),
            ort.pools().free_slots(),
            "{tag}: rebuilt pool free slots"
        );
        assert_media_identical(&op, &p, &tag);
    }
    oracle
}

// ---------------------------------------------------------------------------
// Torture-produced images: concurrent bank transfers.
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

fn bank_torture_equivalence(points: Vec<u64>) {
    silence_crash_panics();
    let summary = sweep(
        points,
        CrashPolicy::strict(),
        POOL,
        NTHREADS,
        bank_setup,
        bank_workload,
        |pmems, outcome| {
            let image = snapshot(&pmems[0][0]);
            assert_thread_equivalence(
                &image,
                register_tpcb,
                RecoveryMode::Full,
                &format!("bank@{}", outcome.point),
            );
        },
    );
    assert!(summary.points_injected > 0, "no crash point fired");
}

/// Bounded slice: a strided sample of the interleaved op stream; at each
/// crashed point the image is recovered at 1/2/4/8 threads and compared.
#[test]
fn bank_torture_images_recover_identically_across_thread_counts() {
    let total = pool_ops(bank_setup, bank_workload);
    bank_torture_equivalence(strided_points(total, 8));
}

/// Exhaustive variant: every crash point of the interleaved stream.
#[test]
#[ignore = "exhaustive differential sweep; run with --ignored"]
fn bank_torture_images_recover_identically_exhaustive() {
    let total = pool_ops(bank_setup, bank_workload);
    bank_torture_equivalence((0..total).collect());
}

// ---------------------------------------------------------------------------
// Torture-produced images: DataGrid churn (pooled objects + frees).
// ---------------------------------------------------------------------------

const KEYS_PER_THREAD: usize = 4;
const CHURN_ROUNDS: usize = 6;

struct GridCtx {
    _rt: Jnvm,
    grid: DataGrid,
}

fn grid_key(t: usize, k: usize) -> String {
    format!("t{t}k{k}")
}

fn grid_val(t: usize, k: usize, tag: &str) -> Vec<u8> {
    format!("{t:02}{k:02}{tag}").into_bytes()
}

fn grid_setup() -> (Devices, GridCtx) {
    let pmem = Pmem::new(PmemConfig::crash_sim(8 << 20));
    let rt = register_kvstore(JnvmBuilder::new())
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool");
    let be = JnvmBackend::create(&rt, 2, true).expect("backend");
    let grid = DataGrid::new(Arc::new(be), GridConfig { cache_capacity: 0 });
    for t in 0..NTHREADS {
        for k in 0..KEYS_PER_THREAD {
            let v = grid_val(t, k, "init");
            assert!(grid.insert(&Record::ycsb(&grid_key(t, k), &[v.clone(), v])));
        }
    }
    pmem.psync();
    (vec![vec![pmem]], GridCtx { _rt: rt, grid })
}

fn grid_workload(t: usize, ctx: &GridCtx) {
    for i in 0..CHURN_ROUNDS {
        for k in 0..KEYS_PER_THREAD {
            let key = grid_key(t, k);
            let tag = format!("{i:04}");
            match i % 3 {
                0 => {
                    assert!(ctx.grid.rmw(&key, 0, &grid_val(t, k, &tag)));
                }
                1 => {
                    assert!(ctx.grid.remove(&key));
                }
                _ => {
                    let v = grid_val(t, k, &tag);
                    assert!(ctx.grid.insert(&Record::ycsb(&key, &[v.clone(), v])));
                }
            }
        }
    }
}

/// Churn images exercise the pooled-object claim table and the pool-slot
/// sweep: records live in slab slots, removes free them mid-flight.
#[test]
fn grid_churn_images_recover_identically_across_thread_counts() {
    silence_crash_panics();
    let total = pool_ops(grid_setup, grid_workload);
    let summary = sweep(
        strided_points(total, 6),
        CrashPolicy::strict(),
        POOL,
        NTHREADS,
        grid_setup,
        grid_workload,
        |pmems, outcome| {
            let image = snapshot(&pmems[0][0]);
            assert_thread_equivalence(
                &image,
                register_kvstore,
                RecoveryMode::Full,
                &format!("grid@{}", outcome.point),
            );
        },
    );
    assert!(summary.points_injected > 0, "no crash point fired");
}

// ---------------------------------------------------------------------------
// Deterministic dangling-reference graph: the nullification set.
// ---------------------------------------------------------------------------

persistent_class! {
    pub class Pair {
        val value, set_value: i64;
        ref next, set_next, update_next: Pair;
    }
}

const PAIRS: i64 = 96;

/// A wide two-level graph: `PAIRS` roots, each pointing at a child that is
/// validated only every third time. The other two thirds are dangling at
/// recovery — reachable but invalid — and must be nullified. Wide and
/// flat so the work-stealing mark actually distributes it.
fn dangling_graph_image() -> Vec<u8> {
    let pmem = Pmem::new(PmemConfig::crash_sim(2 << 20));
    let rt = JnvmBuilder::new()
        .register::<Pair>()
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool");
    for i in 0..PAIRS {
        let a = Pair::alloc_uninit(&rt);
        a.set_value(i);
        let b = Pair::alloc_uninit(&rt);
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

#[test]
fn dangling_refs_nullified_identically_in_parallel() {
    let image = dangling_graph_image();
    let oracle = assert_thread_equivalence(
        &image,
        |b| b.register::<Pair>(),
        RecoveryMode::Full,
        "dangling-graph",
    );
    // Two thirds of the children were never validated.
    let expected = (PAIRS - (PAIRS + 2) / 3) as u64;
    assert_eq!(
        oracle.nullified_refs, expected,
        "every dangling child ref must be nullified exactly once"
    );
    assert!(
        oracle.freed_blocks > 0,
        "invalid children must be reclaimed"
    );
}

// ---------------------------------------------------------------------------
// Tagged references: a record's field reference carries its value's slack
// above the address bits.
// ---------------------------------------------------------------------------

/// Rooted records of the tagged image.
const TAGGED_RECORDS: usize = 48;
/// Field value lengths: three pool classes (one value empty) and a chain.
const TAGGED_LENS: [usize; 4] = [100, 7, 300, 0];

/// A record's field reference words, straight off the device.
fn field_words(rt: &Jnvm, rec: &PRecord) -> [u64; 4] {
    let proxy = Proxy::open(rt, rec.addr());
    std::array::from_fn(|f| proxy.read_u64(8 * f as u64))
}

/// `TAGGED_RECORDS` rooted records; in every third one, the value of field
/// `i % 4` is invalidated before the power failure, so its tagged reference
/// dangles. Returns the image and, per record, the words recovery must
/// leave: 0 for the dangling reference, every other word as written.
fn tagged_refs_image() -> (Vec<u8>, Vec<[u64; 4]>) {
    let pmem = Pmem::new(PmemConfig::crash_sim(4 << 20));
    let rt = register_kvstore(JnvmBuilder::new())
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool");
    let mut want = Vec::new();
    for i in 0..TAGGED_RECORDS {
        let values = TAGGED_LENS.map(|len| vec![i as u8; len]);
        let rec = PRecord::create(&rt, &values).expect("record");
        rt.root_put(&format!("r{i}"), &rec).expect("root");
        let mut words = field_words(&rt, &rec);
        assert!(words.iter().all(|w| w >> 48 != 0), "every value has slack");
        if i % 3 == 0 {
            rt.set_valid_addr(words[i % 4] & REF_ADDR_MASK, false);
            words[i % 4] = 0;
        }
        want.push(words);
    }
    rt.psync();
    pmem.crash(&CrashPolicy::strict()).expect("crash");
    (snapshot(&pmem), want)
}

/// Recovery masks a tagged reference before it checks the target: one to
/// an invalidated value is nullified to 0, one to a valid value keeps its
/// word bit for bit — identically at 1, 2, 4 and 8 threads.
#[test]
fn tagged_refs_are_kept_or_nullified_identically_in_parallel() {
    let (image, want) = tagged_refs_image();
    let oracle = assert_thread_equivalence(&image, register_kvstore, RecoveryMode::Full, "tagged");
    assert_eq!(oracle.nullified_refs, TAGGED_RECORDS.div_ceil(3) as u64);
    for threads in std::iter::once(1).chain(candidate_threads()) {
        let (_, rt, _) = open_restored(&image, register_kvstore, RecoveryMode::Full, threads);
        for (i, want) in want.iter().enumerate() {
            let rec = rt
                .root_get_as::<PRecord>(&format!("r{i}"))
                .expect("typed")
                .expect("rooted");
            assert_eq!(
                &field_words(&rt, &rec),
                want,
                "threads={threads}, record {i}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Two committed logs over one block: replay order.
// ---------------------------------------------------------------------------

/// Build a pool holding one rooted `Pair` and, for each entry of `frozen`,
/// let a writer thread of its own commit `value = v` and lose power at
/// device op `point` of that commit. The device comes back disarmed, holding
/// what survived.
fn pool_with_frozen_commits(frozen: &[(u64, i64)]) -> (Arc<Pmem>, Jnvm, Pair) {
    let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
    let rt = JnvmBuilder::new()
        .register::<Pair>()
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool");
    let x = Pair::alloc_uninit(&rt);
    x.pwb();
    rt.root_put("x", &x).expect("root");
    rt.psync();
    for &(point, v) in frozen {
        pmem.arm_faults(FaultPlan::crash_at(point));
        let outcome = std::thread::scope(|s| {
            s.spawn(|| catch_crash(|| rt.fa(|| x.set_value(v))))
                .join()
                .expect("writer")
        });
        assert!(outcome.is_err(), "crash point {point} not reached");
        pmem.disarm_faults();
        pmem.resync_cache();
    }
    (pmem, rt, x)
}

/// The device op right behind the commit point of `value = v` on top of
/// `frozen`: of a commit's closing four fences (flush, commit point, apply,
/// retire) the second.
fn op_behind_commit_point(frozen: &[(u64, i64)], v: i64) -> u64 {
    let (pmem, rt, x) = pool_with_frozen_commits(frozen);
    pmem.arm_faults(FaultPlan::count());
    rt.fa(|| x.set_value(v));
    pmem.disarm_faults();
    let fences: Vec<usize> = pmem
        .fault_trace()
        .iter()
        .enumerate()
        .filter(|(_, r)| r.op == FaultOp::Pfence)
        .map(|(i, _)| i)
        .collect();
    fences[fences.len() - 3] as u64 + 1
}

/// Two writers frozen between commit point and retire leave two committed
/// logs that write the same word. A writer that lost power never pooled its
/// log again, so the second writer's is the later directory slot — and
/// replay, which has one order (directory-slot order, on the caller), must
/// end on the second writer's value at every thread count, with identical
/// media and counts.
#[test]
fn overlapping_committed_logs_replay_in_slot_order_at_every_thread_count() {
    silence_crash_panics();
    let first = (op_behind_commit_point(&[], 111), 111);
    let second = (op_behind_commit_point(&[first], 222), 222);
    let (pmem, rt, x) = pool_with_frozen_commits(&[first, second]);
    assert_eq!(
        x.value(),
        0,
        "neither commit was applied before the power failure"
    );
    drop((x, rt));
    let image = snapshot(&pmem);
    let register: fn(JnvmBuilder) -> JnvmBuilder = |b| b.register::<Pair>();
    let oracle =
        assert_thread_equivalence(&image, register, RecoveryMode::Full, "overlapping-logs");
    assert_eq!(oracle.replayed_logs, 2, "both logs were durably committed");
    for threads in std::iter::once(1).chain(candidate_threads()) {
        let (_, rt, _) = open_restored(&image, register, RecoveryMode::Full, threads);
        let x = rt
            .root_get_as::<Pair>("x")
            .expect("root")
            .expect("x survives");
        assert_eq!(
            x.value(),
            222,
            "threads={threads}: the later slot applies last"
        );
    }
}

// ---------------------------------------------------------------------------
// HeaderScanOnly vs Full: the pin and its counterexample.
// ---------------------------------------------------------------------------

/// Image of a *completed* FA-publication-only workload: every allocation
/// was published (made reachable) inside its failure-atomic block, so
/// nothing valid is unreachable.
fn fa_publication_only_image() -> Vec<u8> {
    let (pmems, ctx) = bank_setup();
    for t in 0..NTHREADS {
        bank_workload(t, &ctx);
    }
    drop(ctx);
    pmems[0][0].crash(&CrashPolicy::strict()).expect("crash");
    snapshot(&pmems[0][0])
}

/// On FA-publication-only workloads the cheap header scan (J-PFA-nogc)
/// must agree with the full reachability pass — same live/freed blocks,
/// same recovered media — at every thread count. This pins HeaderScanOnly
/// as a sound fast path for workloads that never leak.
#[test]
fn header_scan_agrees_with_full_gc_on_publication_only_workloads() {
    let image = fa_publication_only_image();
    let full = assert_thread_equivalence(&image, register_tpcb, RecoveryMode::Full, "pin-full");
    let scan = assert_thread_equivalence(
        &image,
        register_tpcb,
        RecoveryMode::HeaderScanOnly,
        "pin-scan",
    );
    assert_eq!(
        scan.live_blocks, full.live_blocks,
        "modes disagree on live blocks"
    );
    assert_eq!(
        scan.freed_blocks, full.freed_blocks,
        "modes disagree on freed blocks"
    );
    assert_eq!(
        full.nullified_refs, 0,
        "publication-only image has no dangling refs"
    );
    let (pf, _rtf, _) = open_restored(&image, register_tpcb, RecoveryMode::Full, 1);
    let (ps, _rts, _) = open_restored(&image, register_tpcb, RecoveryMode::HeaderScanOnly, 1);
    assert_media_identical(&pf, &ps, "pin: Full vs HeaderScanOnly media");
}

/// The counterexample that shows the pin is *conditional*: a valid,
/// flushed, but never-published object. Full recovery reclaims it (it is
/// unreachable); the header scan keeps it (it is a valid master). The two
/// modes legitimately diverge here, which is exactly why HeaderScanOnly
/// is an opt-in (J-PFA-nogc) and not the default.
#[test]
fn header_scan_diverges_from_full_gc_on_unreachable_garbage() {
    let pmem = Pmem::new(PmemConfig::crash_sim(1 << 20));
    let rt = JnvmBuilder::new()
        .register::<Pair>()
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool");
    let kept = Pair::alloc_uninit(&rt);
    kept.set_value(1);
    kept.pwb();
    rt.root_put("kept", &kept).expect("root");
    // Leaked: allocated, validated, flushed — never made reachable.
    let leaked = Pair::alloc_uninit(&rt);
    leaked.set_value(2);
    leaked.pwb();
    leaked.validate();
    rt.pfence();
    let leaked_block = rt.heap().block_of_addr(leaked.addr());
    pmem.crash(&CrashPolicy::strict()).expect("crash");
    let image = snapshot(&pmem);

    // Each mode still equals itself across thread counts...
    let full = assert_thread_equivalence(
        &image,
        |b| b.register::<Pair>(),
        RecoveryMode::Full,
        "diverge-full",
    );
    let scan = assert_thread_equivalence(
        &image,
        |b| b.register::<Pair>(),
        RecoveryMode::HeaderScanOnly,
        "diverge-scan",
    );
    // ...but the two modes disagree about the leaked block.
    assert!(
        scan.live_blocks > full.live_blocks,
        "header scan must retain the unreachable-but-valid master"
    );
    let (_, rt_full, _) = open_restored(&image, |b| b.register::<Pair>(), RecoveryMode::Full, 1);
    let (_, rt_scan, _) = open_restored(
        &image,
        |b| b.register::<Pair>(),
        RecoveryMode::HeaderScanOnly,
        1,
    );
    assert!(
        rt_full.heap().read_header(leaked_block).is_free_or_slave(),
        "Full mode reclaims the leaked block"
    );
    assert!(
        rt_scan.heap().read_header(leaked_block).is_valid_master(),
        "HeaderScanOnly keeps the leaked block"
    );
}

// ---------------------------------------------------------------------------
// What the mark reads per record.
// ---------------------------------------------------------------------------

/// A one-shard kvstore pool of `records` records of 10 × 100 B — the
/// benchmark's shape —, synced and crashed.
fn records_image(records: usize) -> Vec<u8> {
    let pmem = Pmem::new(PmemConfig::crash_sim(8 << 20));
    let rt = register_kvstore(JnvmBuilder::new())
        .create(Arc::clone(&pmem), HeapConfig::default())
        .expect("pool");
    let be = JnvmBackend::create(&rt, 1, false).expect("backend");
    let values = vec![vec![7u8; 100]; 10];
    for i in 0..records {
        assert!(be.store_full(&Record::ycsb(&format!("user{i:05}"), &values)));
    }
    rt.psync();
    pmem.crash(&CrashPolicy::strict()).expect("crash");
    snapshot(&pmem)
}

/// The mark's device reads, exactly, at one thread, for 512 and 1 024
/// records: 13 814 and 26 313, 24.41 per record of the 512 more (a map
/// whose cell array is exactly full either way). For every reference it
/// resolves, the mark reads the slot and the target's header, which says
/// whether the target is valid and names its class: the map cell and the
/// entry, the entry's value reference and the record, then each of the 10
/// field references and its value — 24 a record. The rest is each span's
/// meta word, read at its first touch (≈0.4 a record: 32 100-B values to
/// a span); 16 537 and 31 760, 29.73 per record, while each 256-B pool
/// block's was (≈5.7 a record: two 100-B values to a block). The record's
/// field count comes from the tag of the entry's reference to it: nothing
/// reads a count. It was 23 196 and 45 075, 42.73 per record, while the
/// record's first word held its count
/// (1 read) and the mark read each claimed object's header a second time
/// for its class (12). More threads may read a span's meta word
/// twice, when two workers first touch it at once, so only the one-thread
/// count is exact.
#[test]
fn mark_reads_per_record_are_pinned() {
    let [small, large] = [512, 1024].map(|records| {
        let (_, _, report) = open_restored(
            &records_image(records),
            register_kvstore,
            RecoveryMode::Full,
            1,
        );
        report
    });
    assert_eq!(large.live_objects - small.live_objects, 512 * 12);
    assert_eq!(
        (small.mark_reads, large.mark_reads),
        (13_814, 26_313),
        "mark device reads of 512 and 1 024 records"
    );
}

/// Replay's and the sweep's device reads, exactly, at one thread, for the
/// images of `mark_reads_per_record_are_pinned`. Replay reads the log
/// directory and its logs' lengths, 69 either way: no log is committed.
/// The sweep reads the bump pointer twice, the span floor once, the master
/// word of each span with no live slot (13 and 28: the unused tail of the
/// span cursor's reservation) and the word of each dead slot in a kept
/// span (133 and 123): 149 and 154. Its span liveness is the slot bitmap's,
/// and the pool rebuild visits no chain block. It was
/// 3 097 and 6 013 while pool blocks shared the block range and the pool
/// rebuild read the header of each block the mark kept (3 091 and 6 009);
/// 9 906 and 17 754 while it read every block header below the bump
/// pointer, and both halves of each kept pool block's meta word.
#[test]
fn replay_and_sweep_reads_are_pinned() {
    let [small, large] = [512, 1024].map(|records| {
        let (_, _, report) = open_restored(
            &records_image(records),
            register_kvstore,
            RecoveryMode::Full,
            1,
        );
        report
    });
    assert_eq!(
        (small.replay_reads, large.replay_reads),
        (69, 69),
        "replay device reads of 512 and 1 024 records"
    );
    assert_eq!(
        (small.sweep_reads, large.sweep_reads),
        (149, 154),
        "sweep device reads of 512 and 1 024 records"
    );
}

// ---------------------------------------------------------------------------
// A corrupt slot count.
// ---------------------------------------------------------------------------

/// Regression: the sweep took a kept pool block's slot count from its meta
/// word, so a block whose class is valid and whose count is not walked the
/// sweep past its end, clearing words of the objects behind it (a count
/// past the device panicked the open). Here a span of 104-B value slots,
/// 32 to a span, claims 1 000; the count follows from the class, and every
/// record reads back whole in both modes.
#[test]
fn a_corrupt_pool_slot_count_damages_no_other_object() {
    const RECORDS: usize = 64;
    let mut image = records_image(RECORDS);
    let (_, rt, _) = open_restored(&image, register_kvstore, RecoveryMode::Full, 1);
    let heap = rt.heap();
    let meta = (0..heap.span_count())
        .map(|span| heap.span_addr(span))
        .find(|base| {
            BlockHeader::decode(rt.pmem().read_u64(*base)).id == CLASS_ID_POOL
                && rt.pmem().read_u32(base + 8) == 104
        })
        .map(|base| base as usize + 8)
        .expect("a span of value slots");
    image[meta + 4..meta + 8].copy_from_slice(&1000u32.to_le_bytes());
    let values = vec![vec![7u8; 100]; 10];
    for mode in [RecoveryMode::Full, RecoveryMode::HeaderScanOnly] {
        let (_, rt, _) = open_restored(&image, register_kvstore, mode, 1);
        let be = JnvmBackend::open(&rt, false).expect("backend");
        for i in 0..RECORDS {
            let key = format!("user{i:05}");
            let want = Record::ycsb(&key, &values);
            assert_eq!(be.read(&key), Some(want), "{mode:?}: {key}");
        }
    }
}

//! Crash-point sweeps over the persistence-relevant op stream of
//! single-writer workloads.
//!
//! Where `tests/crash_recovery.rs` crashes at *random* moments with
//! adversarial line eviction, these tests use the `jnvm-pmem` injection
//! engine (`FaultPlan` / `CrashAt`) plus the `jnvm-faultsim` sweep driver
//! to crash at every persistence-relevant operation (store, `pwb`,
//! `pfence`, `psync`) that can leave a distinct image, and check every image
//! a crash there can leave. A crash keeps the fenced lines and any subset of
//! the non-clean ones. `faultsim::sweep_all` checks either the strict image
//! (the empty subset) at one point per fence epoch, where it does not
//! change between two fences ([`Images::Strict`]), or every subset at
//! every point whose previous op is not a `pwb`, once per keep mask
//! ([`Images::Every`]). A failed check names its `(point, mask)`, and
//! `CrashPolicy::keep(mask)` at that point replays it.
//!
//! One oracle, [`prefix_sweep`], checks the workloads: each is a sequence
//! of steps (a failure-atomic block, a commit group, a J-PDT publish, a
//! record update), and every crash must recover — in each recovery mode —
//! to the crash-free image of some prefix of the steps, with that image's
//! exact live count, and every prefix's image must be seen. Workload
//! checks that are not about which prefix survived (a transfer's sum, a
//! torn field, a header word, a value's length) live in each workload's
//! `observe`. Two other sweeps stand beside it: a crash *during recovery
//! replay* must leave a state from which a second recovery still reaches
//! the committed image, and [`eviction_sweep`] checks that a commit is
//! all-or-nothing under line eviction, and durable from its commit-point
//! fence on.

use std::sync::Arc;

use jnvm_repro::faultsim::{self, Devices, Images};
use jnvm_repro::heap::{BlockHeader, HeapConfig, REF_ADDR_MASK};
use jnvm_repro::jnvm::{
    commit_phase, persistent_class, Jnvm, JnvmBuilder, PObject, Proxy, RawChain, RecoveryMode,
    RecoveryOptions, RecoveryReport,
};
use jnvm_repro::jpdt::{register_jpdt, PByteArray, PBytes, PI64SkipMap, PRefArray};
use jnvm_repro::kvstore::{
    commit_writes, register_kvstore, Backend, DataGrid, GridConfig, JnvmBackend, PRecord, Record,
    WriteOp,
};
use jnvm_repro::pmem::{
    catch_crash, silence_crash_panics, CrashPolicy, FaultOp, FaultPlan, Pmem, PmemConfig,
    SanitizeMode, TraceRecord,
};

use proptest::prelude::*;

persistent_class! {
    pub class Pair {
        val left, set_left: i64;
        val right, set_right: i64;
    }
}

// ---------------------------------------------------------------------------
// The prefix-image oracle.
// ---------------------------------------------------------------------------

const FULL: [RecoveryMode; 1] = [RecoveryMode::Full];
const BOTH: [RecoveryMode; 2] = [RecoveryMode::Full, RecoveryMode::HeaderScanOnly];

/// Reopen a crashed pool under `mode`.
fn open(builder: JnvmBuilder, pmem: &Arc<Pmem>, mode: RecoveryMode) -> (Jnvm, RecoveryReport) {
    builder
        .open_with_options(Arc::clone(pmem), RecoveryOptions::with_mode(mode))
        .expect("recovery")
}

/// Every sweep here crashes one pool, the 1 × 1 topology's device, written
/// by one worker on the calling thread.
const POOL: (usize, usize) = (0, 0);

/// `setup`'s device as that topology.
fn one_pool<C>(setup: impl Fn() -> (Arc<Pmem>, C)) -> impl FnMut() -> (Devices, C) {
    move || {
        let (pmem, ctx) = setup();
        (vec![vec![pmem]], ctx)
    }
}

/// The count pass of `workload` over `setup`'s pool: its ops, in order.
fn trace<C: Sync>(
    setup: impl Fn() -> (Arc<Pmem>, C),
    workload: impl Fn(&C) + Sync,
) -> Vec<TraceRecord> {
    let count = FaultPlan::count();
    let workload = |_: usize, ctx: &C| workload(ctx);
    faultsim::torture_point(count, POOL, 1, one_pool(setup), workload, |_, _| {}).trace
}

/// A fresh pool on a device of `config`, created by `builder`.
fn create(builder: JnvmBuilder, config: PmemConfig) -> (Arc<Pmem>, Jnvm) {
    let pmem = Pmem::new(config);
    let rt = builder.create(Arc::clone(&pmem), HeapConfig::default());
    (pmem, rt.expect("pool"))
}

fn jpdt_builder() -> JnvmBuilder {
    register_jpdt(JnvmBuilder::new())
}

fn pair_builder() -> JnvmBuilder {
    jpdt_builder().register::<Pair>()
}

fn kvstore_builder() -> JnvmBuilder {
    register_kvstore(JnvmBuilder::new())
}

/// What a workload's `observe` says of a recovered pool: which prefix of the
/// steps its image is (`None` for none), and its live count.
type Observed = (Option<usize>, u64);

/// The crash-free image of every prefix of `steps`: the live count recovery
/// reports under `mode` when the power fails right after `run(ctx, upto)`,
/// an image `observe` must name as that prefix's.
fn prefix_images<C>(
    setup: impl Fn() -> (Arc<Pmem>, C),
    steps: usize,
    run: impl Fn(&C, usize),
    observe: impl Fn(&Arc<Pmem>, RecoveryMode) -> Observed,
    mode: RecoveryMode,
) -> Vec<u64> {
    (0..=steps)
        .map(|upto| {
            let (pmem, ctx) = setup();
            run(&ctx, upto);
            drop(ctx);
            pmem.crash(&CrashPolicy::strict()).expect("crash");
            let (image, live) = observe(&pmem, mode);
            assert_eq!(
                image,
                Some(upto),
                "{mode:?}: the crash-free image of {upto} steps"
            );
            live
        })
        .collect()
}

/// Names the crash a failed check recovered from.
struct At(String);

impl Drop for At {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failed check at {}", self.0);
        }
    }
}

/// `report`'s crash, as a failed check names it.
fn crash_name(report: &faultsim::TortureOutcome) -> String {
    format!("keep {:#b}, crash point {}", report.mask, report.point)
}

/// Crash `run(ctx, steps)` at every image `faultsim::sweep_all` takes under
/// `sweep` and recover it under each of `modes`: the pool must recover to
/// the crash-free image of some prefix of the steps ([`Observed`] by
/// `observe`), with that image's exact live count, and every prefix's image
/// must be seen. Returns the crash-free live counts, per mode and prefix.
fn prefix_sweep<C: Sync>(
    setup: impl Fn() -> (Arc<Pmem>, C),
    steps: usize,
    run: impl Fn(&C, usize) + Sync,
    observe: impl Fn(&Arc<Pmem>, RecoveryMode) -> Observed,
    modes: &[RecoveryMode],
    sweep: Images,
) -> Vec<Vec<u64>> {
    silence_crash_panics();
    let mut live = Vec::new();
    for &mode in modes {
        let images = prefix_images(&setup, steps, &run, &observe, mode);
        let mut seen = vec![0usize; steps + 1];
        let workload = |_: usize, ctx: &C| run(ctx, steps);
        let crashes = faultsim::sweep_all(
            sweep,
            POOL,
            1,
            one_pool(&setup),
            workload,
            |pmems, report| {
                let at = At(format!("{mode:?}, {}", crash_name(report)));
                let (image, recovered) = observe(&pmems[0][0], mode);
                let step = image
                    .filter(|s| *s <= steps)
                    .unwrap_or_else(|| panic!("{}: no prefix's image", at.0));
                assert_eq!(
                    recovered, images[step],
                    "{}: live count of {step} steps",
                    at.0
                );
                seen[step] += 1;
            },
        );
        assert!(
            seen.iter().all(|n| *n > 0),
            "{mode:?}, {sweep:?}: every prefix's image, seen {seen:?}"
        );
        println!("{mode:?}, {sweep:?}: {} crashes", crashes.points_injected);
        live.push(images);
    }
    live
}

// ---------------------------------------------------------------------------
// Workload 1: the failure-atomic pair transfer (§4.2 commit sequence).
// ---------------------------------------------------------------------------

struct FaCtx {
    rt: Jnvm,
    p: Pair,
}

/// Fresh pool with a published pair at (1500, 500). A warm-up transfer has
/// already run, so the redo log is in steady state: every sweep instance
/// of the workload performs the identical op stream and allocation pattern.
fn fa_setup() -> (Arc<Pmem>, FaCtx) {
    let (pmem, rt) = create(pair_builder(), PmemConfig::crash_sim(1 << 20));
    let p = rt.fa(|| {
        let p = Pair::alloc_uninit(&rt);
        p.set_left(1600);
        p.set_right(400);
        rt.root_put("pair", &p).expect("root");
        p
    });
    let ctx = FaCtx { rt, p };
    fa_run(&ctx, 1);
    pmem.psync();
    (pmem, ctx)
}

/// `upto` failure-atomic 100-unit transfers, (1500, 500) -> (1400, 600) ...
fn fa_run(ctx: &FaCtx, upto: usize) {
    for _ in 0..upto {
        ctx.rt.fa(|| {
            ctx.p.set_left(ctx.p.left() - 100);
            ctx.p.set_right(ctx.p.right() + 100);
        });
    }
}

/// Reopen under `mode`: how many whole transfers the pair shows, after
/// checking that the sum survived, and the live block count.
fn fa_observe(pmem: &Arc<Pmem>, mode: RecoveryMode) -> Observed {
    let (rt, report) = open(pair_builder(), pmem, mode);
    let p = rt.root_get_as::<Pair>("pair").expect("typed");
    let (l, r) = p.map(|p| (p.left(), p.right())).expect("pair survived");
    assert_eq!(l + r, 2000, "transfer was torn: ({l}, {r})");
    let moved = 1500 - l;
    let step = (moved >= 0 && moved % 100 == 0).then_some(moved as usize / 100);
    (step, report.live_blocks)
}

/// Every crash of the FA pair transfer preserves the sum and recovers to
/// exactly the old or the new state, leaking no blocks.
#[test]
fn fa_transfer_survives_every_crash_point() {
    prefix_sweep(fa_setup, 1, fa_run, fa_observe, &FULL, Images::Strict);
}

// ---------------------------------------------------------------------------
// Workload 3 (depends on workload 1's machinery): crash during recovery
// replay. Recovery must be idempotent — power can fail while the redo log
// is being replayed, and the *next* recovery still reaches the committed
// image.
// ---------------------------------------------------------------------------

/// Crash the FA transfer at `point` and report whether the crash landed
/// after the commit point (the log is durable but not yet applied).
fn crash_transfer_at(point: u64) -> (Arc<Pmem>, bool) {
    let (pmem, ctx) = fa_setup();
    pmem.arm_faults(FaultPlan::crash_at(point));
    let outcome = catch_crash(|| fa_run(&ctx, 1));
    drop(ctx);
    pmem.disarm_faults();
    let committed = outcome.is_err() && commit_phase().is_committed();
    (pmem, committed)
}

#[test]
fn recovery_replay_survives_every_crash_point() {
    let mode = RecoveryMode::Full;
    let live = prefix_images(fa_setup, 1, fa_run, fa_observe, mode)[1];
    // The state a replaying recovery starts from: the first crash point
    // of the transfer that lands between commit and apply.
    let total = trace(fa_setup, |ctx| fa_run(ctx, 1)).len() as u64;
    let seed_point = (0..total)
        .find(|i| crash_transfer_at(*i).1)
        .expect("a crash point lands between commit and apply");
    let summary = faultsim::sweep_all(
        Images::Strict,
        POOL,
        1,
        one_pool(|| {
            let (pmem, committed) = crash_transfer_at(seed_point);
            assert!(
                committed,
                "crash point {seed_point} lands after the commit point"
            );
            (Arc::clone(&pmem), pmem)
        }),
        // The workload under injection is recovery itself.
        |_, pmem| drop(open(pair_builder(), pmem, mode)),
        |pmems, report| {
            // Second recovery after a torn first recovery: replay must be
            // idempotent, always reaching the committed (1400, 600) image.
            assert_eq!(
                fa_observe(&pmems[0][0], mode),
                (Some(1), live),
                "replay crash point {}: committed transfer lost, torn or leaking",
                report.point
            );
        },
    );
    assert!(summary.points_injected > 0, "recovery performed no ops");
}

// ---------------------------------------------------------------------------
// Workload 2: JnvmBackend (J-PFA flavour) insert + RMW through the
// DataGrid.
// ---------------------------------------------------------------------------

struct GridCtx {
    _rt: Jnvm,
    grid: DataGrid,
}

const K1_OLD: &[u8] = b"aaaa";
const K1_NEW: &[u8] = b"AAAA";

fn grid_setup() -> (Arc<Pmem>, GridCtx) {
    let (pmem, rt) = create(kvstore_builder(), PmemConfig::crash_sim(4 << 20));
    let be = JnvmBackend::create(&rt, 1, true).expect("backend");
    let grid = DataGrid::new(Arc::new(be), GridConfig { cache_capacity: 0 });
    assert!(grid.insert(&Record::ycsb("k1", &[K1_OLD.to_vec(), b"bbbb".to_vec()])));
    pmem.psync();
    (pmem, GridCtx { _rt: rt, grid })
}

/// Insert a second record, then RMW the first record's field 0. The new
/// value has the same length as the old one so both later images have the
/// same per-record block count.
fn grid_run(ctx: &GridCtx, upto: usize) {
    if upto >= 1 {
        ctx.grid
            .insert(&Record::ycsb("k2", &[b"cccc".to_vec(), b"dddd".to_vec()]));
    }
    if upto >= 2 {
        ctx.grid.rmw("k1", 0, K1_NEW);
    }
}

/// Reopen under `mode`: how many of the two writes the pool shows, after
/// checking that neither record is torn and that the RMW never survives
/// without the insert before it, and the live block count.
fn grid_observe(pmem: &Arc<Pmem>, mode: RecoveryMode) -> Observed {
    let (rt, report) = open(kvstore_builder(), pmem, mode);
    let be = JnvmBackend::open(&rt, true).expect("backend");
    let k1 = be.read("k1").expect("k1 lost");
    let f0 = k1.fields.value(0);
    assert!(f0 == K1_OLD || f0 == K1_NEW, "k1 field0 torn: {f0:?}");
    assert_eq!(
        k1.fields.value(1),
        b"bbbb",
        "k1 field1 damaged by unrelated crash"
    );
    let k2 = be.read("k2");
    if let Some(rec) = &k2 {
        // All-or-nothing: a recovered k2 is the complete record.
        assert_eq!(rec.fields.value(0), b"cccc", "k2 torn");
        assert_eq!(rec.fields.value(1), b"dddd", "k2 torn");
    }
    // Program order: the RMW ran after the insert committed, so a new k1
    // value implies k2 is present.
    if f0 == K1_NEW {
        assert!(k2.is_some(), "rmw applied but earlier insert lost");
    }
    let step = if f0 == K1_NEW {
        2
    } else {
        k2.is_some() as usize
    };
    (Some(step), report.live_blocks)
}

#[test]
fn grid_insert_rmw_survives_every_crash_point() {
    prefix_sweep(grid_setup, 2, grid_run, grid_observe, &FULL, Images::Strict);
}

// ---------------------------------------------------------------------------
// Workload 4: the jpdt skip-list's publish paths — insert a new key,
// overwrite an existing key's value slot, remove a key — swept with the
// persist-ordering sanitizer in Strict mode. The map's value slot is a
// ref slot (recovery GC chases it), so values are published `PBytes`
// addresses, never raw integers.
// ---------------------------------------------------------------------------

struct SkCtx {
    rt: Jnvm,
    m: PI64SkipMap,
}

/// Fresh strict-sanitized pool with a skip-list of three published keys,
/// synced: the deterministic S0 image every sweep instance starts from.
fn sk_setup() -> (Arc<Pmem>, SkCtx) {
    let (pmem, rt) = create(
        jpdt_builder(),
        PmemConfig::crash_sim(4 << 20).with_sanitize(SanitizeMode::Strict),
    );
    let m = PI64SkipMap::new(&rt).expect("map");
    rt.root_put("sk", &m).expect("root");
    for k in [10i64, 20, 30] {
        let v = PBytes::new(&rt, format!("init-{k}").as_bytes()).expect("blob");
        m.put(k, v.addr()).expect("put");
    }
    pmem.psync();
    (pmem, SkCtx { rt, m })
}

/// The publish paths under test, in program order: insert key 25 (fresh
/// tower), overwrite key 20's value slot (old blob freed), remove key 30
/// (tower unlink, blob freed). `upto` truncates the sequence.
fn sk_mutations(ctx: &SkCtx, upto: usize) {
    let SkCtx { rt, m } = ctx;
    if upto >= 1 {
        let v = PBytes::new(rt, b"ins-25").expect("blob");
        m.put(25, v.addr()).expect("insert");
    }
    if upto >= 2 {
        let v = PBytes::new(rt, b"upd-20").expect("blob");
        if let Some(old) = m.put(20, v.addr()).expect("update") {
            rt.free_addr(old);
        }
        rt.pmem().pfence();
    }
    if upto >= 3 {
        if let Some(old) = m.remove(&30) {
            rt.free_addr(old);
        }
        rt.pmem().pfence();
    }
}

/// The map as ordered `(key, value bytes)` pairs after `upto` mutations.
fn sk_image(upto: usize) -> Vec<(i64, Vec<u8>)> {
    let mut image: std::collections::BTreeMap<i64, Vec<u8>> = [10i64, 20, 30]
        .map(|k| (k, format!("init-{k}").into_bytes()))
        .into();
    if upto >= 1 {
        image.insert(25, b"ins-25".to_vec());
    }
    if upto >= 2 {
        image.insert(20, b"upd-20".to_vec());
    }
    if upto >= 3 {
        image.remove(&30);
    }
    image.into_iter().collect()
}

/// Reopen under `mode`: which mutation prefix the recovered map equals
/// exactly — a torn tower, a half-updated value slot, or a half-unlinked
/// key matches none — and the live block count.
fn sk_observe(pmem: &Arc<Pmem>, mode: RecoveryMode) -> Observed {
    let (rt, report) = open(jpdt_builder(), pmem, mode);
    let m = rt.root_get_as::<PI64SkipMap>("sk").expect("typed");
    let m = m.expect("map survived");
    let state: Vec<(i64, Vec<u8>)> = m
        .keys(16)
        .into_iter()
        .map(|k| {
            let addr = m.get(&k).expect("published key holds a value ref");
            (k, PBytes::resurrect(&rt, addr).to_vec())
        })
        .collect();
    (
        (0..=3).find(|upto| sk_image(*upto) == state),
        report.live_blocks,
    )
}

#[test]
fn skiplist_publish_paths_survive_every_crash_point() {
    prefix_sweep(sk_setup, 3, sk_mutations, sk_observe, &FULL, Images::Strict);
}

// ---------------------------------------------------------------------------
// Workload 5: multi-object blocks under line eviction. A strict power
// failure — nothing unfenced survives — cannot see a fence missing
// *between* two steps of the commit: that takes a crash that persists a
// later line (the zeroed log length) and loses an earlier one (an
// applied payload). The commit used to retire its log without fencing the
// applies; a block over several objects then tore, and no log was left to
// replay it.
// ---------------------------------------------------------------------------

const CELLS: usize = 4;

struct CellsCtx {
    rt: Jnvm,
    cells: Vec<Pair>,
}

/// The cells each failure-atomic block of the workload writes: all four in
/// one solo block, or a staged group of three blocks over two, one and one.
fn cell_blocks(grouped: bool) -> impl Iterator<Item = std::ops::Range<usize>> {
    let bounds: &[usize] = if grouped {
        &[0, 2, 3, CELLS]
    } else {
        &[0, CELLS]
    };
    bounds.windows(2).map(|w| w[0]..w[1])
}

/// Set every cell's `left` to `base + i`: as one solo `fa()` block, or as a
/// staged group (see [`cell_blocks`]).
fn write_cells(ctx: &CellsCtx, grouped: bool, base: i64) {
    let write = |cells: std::ops::Range<usize>| {
        for i in cells {
            ctx.cells[i].set_left(base + i as i64);
        }
    };
    if grouped {
        let group = cell_blocks(true).map(|cells| ctx.rt.fa_stage(|| write(cells)).0);
        ctx.rt.fa_commit_group(group.collect());
    } else {
        ctx.rt.fa(|| write(0..CELLS));
    }
}

/// Small fresh pool with four rooted one-block objects holding `left == i`.
/// The warm-up pass has the shape of the workload, so the log pool is in
/// steady state and the workload's op stream is the commit protocol alone.
fn cells_setup(grouped: bool) -> (Arc<Pmem>, CellsCtx) {
    let (pmem, rt) = create(pair_builder(), PmemConfig::crash_sim(256 << 10));
    let cells = (0..CELLS)
        .map(|i| {
            rt.fa(|| {
                let p = Pair::alloc_uninit(&rt);
                p.set_left(-1);
                p.set_right(0);
                rt.root_put(&format!("cell{i}"), &p).expect("root");
                p
            })
        })
        .collect();
    let ctx = CellsCtx { rt, cells };
    write_cells(&ctx, grouped, 0);
    pmem.psync();
    (pmem, ctx)
}

/// Crash `workload` — one commit, solo or of a staged group — at every
/// image of every point, reopen, and require the *commit* to be
/// all-or-nothing: every failure-atomic block of it — `observe` reports each
/// as `Some(is it new)`, or `None` when torn — whole, all of them on the
/// same side (a group is one transaction in one log, with one commit word),
/// and that side the new one once the commit-point fence has executed.
/// Returns the number of crashes.
fn eviction_sweep<C: Sync>(
    setup: impl Fn() -> (Arc<Pmem>, C),
    workload: impl Fn(&C) + Sync,
    observe: impl Fn(&Jnvm) -> Vec<Option<bool>>,
) -> usize {
    silence_crash_panics();
    let trace = trace(&setup, &workload);
    // The workload's first fence covers step 1's write-backs, its second
    // is the commit point.
    let commit_fence = trace
        .iter()
        .enumerate()
        .filter(|(_, r)| r.op == FaultOp::Pfence)
        .nth(1)
        .expect("a commit has a commit-point fence")
        .0 as u64;
    let mut torn = Vec::new();
    let workload = |_: usize, ctx: &C| workload(ctx);
    let summary = faultsim::sweep_all(
        Images::Every,
        POOL,
        1,
        one_pool(&setup),
        workload,
        |pmems, report| {
            let (rt, _) = open(pair_builder(), &pmems[0][0], RecoveryMode::Full);
            let blocks = observe(&rt);
            let ok = match blocks[0] {
                Some(new) => new || report.point <= commit_fence,
                None => false,
            };
            if !ok || blocks.iter().any(|b| *b != blocks[0]) {
                torn.push((crash_name(report), blocks));
            }
        },
    );
    let crashes = summary.points_injected;
    assert!(
        torn.is_empty(),
        "{} torn, split or lost commits in {crashes} crashes of {} points \
         (commit-point fence at {commit_fence}); first: {:?}",
        torn.len(),
        trace.len(),
        torn[0]
    );
    println!("{crashes} crashes");
    crashes
}

/// [`eviction_sweep`] over `write_cells(.., 100)`.
fn cells_eviction_sweep(grouped: bool) -> usize {
    let observe = |rt: &Jnvm| {
        let left: Vec<i64> = (0..CELLS)
            .map(|i| {
                let cell = rt.root_get_as::<Pair>(&format!("cell{i}"));
                cell.expect("typed").expect("cell survived").left()
            })
            .collect();
        let seen = |block: std::ops::Range<usize>| {
            let new = block.clone().all(|i| left[i] == 100 + i as i64);
            let old = block.clone().all(|i| left[i] == i as i64);
            (new || old).then_some(new)
        };
        cell_blocks(grouped).map(seen).collect()
    };
    eviction_sweep(
        || cells_setup(grouped),
        |ctx| write_cells(ctx, grouped, 100),
        observe,
    )
}

// The same sweeps over the other shape of redo entry: not one word per
// object but one multi-word range, unaligned at both ends and crossing the
// seam between two blocks of a chain — two entries, the first ending and
// the second starting on a merged partial word.

/// Bytes per array: a two-block chain (8-byte length + 400 > 248).
const SPAN_ARRAY: u64 = 400;
/// The range each block overwrites: array bytes 229..266 are payload bytes
/// 237..274, across the seam at 248.
const SPAN: std::ops::Range<u64> = 229..266;

struct SpanCtx {
    rt: Jnvm,
    arrays: Vec<PByteArray>,
}

/// Fill every array's [`SPAN`] with `fill + i`: as one solo `fa()` block
/// over a single array, or as a staged group of one block per array.
fn write_spans(ctx: &SpanCtx, fill: u8) {
    let write = |i: usize| {
        ctx.arrays[i].write_at(
            SPAN.start,
            &vec![fill + i as u8; (SPAN.end - SPAN.start) as usize],
        )
    };
    if ctx.arrays.len() > 1 {
        let group = (0..ctx.arrays.len()).map(|i| ctx.rt.fa_stage(|| write(i)).0);
        ctx.rt.fa_commit_group(group.collect());
    } else {
        ctx.rt.fa(|| write(0));
    }
}

/// Small fresh pool with `n` rooted two-block byte arrays, every byte
/// 0xEE outside the span and `0x10 + i` inside it (written by a warm-up
/// pass of the workload's own shape).
fn spans_setup(n: usize) -> (Arc<Pmem>, SpanCtx) {
    let (pmem, rt) = create(pair_builder(), PmemConfig::crash_sim(256 << 10));
    let arrays = (0..n)
        .map(|i| {
            rt.fa(|| {
                let a = PByteArray::new(&rt, SPAN_ARRAY).expect("array");
                a.write_at(0, &[0xEE; SPAN_ARRAY as usize]);
                rt.root_put(&format!("span{i}"), &a).expect("root");
                a
            })
        })
        .collect();
    let ctx = SpanCtx { rt, arrays };
    write_spans(&ctx, 0x10);
    pmem.psync();
    (pmem, ctx)
}

/// [`eviction_sweep`] over `write_spans(.., 0x80)` on `n` arrays: a
/// block is new (old) when its whole span reads `0x80 + i` (`0x10 + i`)
/// and not a byte around it moved.
fn spans_eviction_sweep(n: usize) -> usize {
    let observe = |rt: &Jnvm| {
        let seen = |i: usize| {
            let array = rt.root_get_as::<PByteArray>(&format!("span{i}"));
            let mut bytes = vec![0u8; SPAN_ARRAY as usize];
            array
                .expect("typed")
                .expect("array survived")
                .read_at(0, &mut bytes);
            let image = |fill: u8| {
                let byte = |at: u64| {
                    if SPAN.contains(&at) {
                        fill + i as u8
                    } else {
                        0xEE
                    }
                };
                (0..SPAN_ARRAY).map(byte).collect::<Vec<u8>>()
            };
            (bytes == image(0x80) || bytes == image(0x10)).then_some(bytes == image(0x80))
        };
        (0..n).map(seen).collect()
    };
    eviction_sweep(|| spans_setup(n), |ctx| write_spans(ctx, 0x80), observe)
}

// And over a structural group — the three shapes of the server's writes in
// one commit: ALLOC and FREE entries (one word each since log format 3,
// pooled blobs and a block-allocated object) beside the WRITEs that publish
// and unlink them, a one-word publish of a fresh object fused with its
// ALLOC into a LINK since log format 5, applied by the live commit from
// DRAM and by replay from the log.

struct SlotsCtx {
    rt: Jnvm,
    slots: Vec<PRefArray>,
}

/// Small fresh pool with three rooted two-cell reference arrays: slot 0
/// holds a blob `old-0`, slot 1 is empty, slot 2 holds a blob `old-2` and
/// a [`Pair`]. The set-up leaves the log created, a bump stride reserved
/// and the blob pool carved, so the workload's op stream is three stagings
/// and one commit.
fn slots_setup() -> (Arc<Pmem>, SlotsCtx) {
    let (pmem, rt) = create(pair_builder(), PmemConfig::crash_sim(256 << 10));
    let slots: Vec<PRefArray> = (0..3)
        .map(|i| {
            rt.fa(|| {
                let slot = PRefArray::new(&rt, 2).expect("array");
                if i != 1 {
                    let blob = PBytes::new(&rt, format!("old-{i}").as_bytes()).expect("blob");
                    slot.set_ref(0, Some(blob.addr()));
                }
                if i == 2 {
                    slot.set_ref(1, Some(Pair::alloc_uninit(&rt).addr()));
                }
                rt.root_put(&format!("slot{i}"), &slot).expect("root");
                slot
            })
        })
        .collect();
    pmem.psync();
    (pmem, SlotsCtx { rt, slots })
}

/// One commit group of a field update (fresh blob published, old one
/// freed), an insert (a fresh blob and a fresh object published in an empty
/// slot) and a delete (both references cleared, both objects freed).
fn write_slots(ctx: &SlotsCtx) {
    let rt = &ctx.rt;
    let blob = |bytes: &[u8]| Some(PBytes::new(rt, bytes).expect("blob").addr());
    let setf = rt.fa_stage(|| {
        rt.free_addr(ctx.slots[0].get_ref(0).expect("old blob"));
        ctx.slots[0].set_ref(0, blob(b"new-0"));
    });
    let set = rt.fa_stage(|| {
        let pair = Pair::alloc_uninit(rt);
        pair.set_left(11);
        ctx.slots[1].set_ref(0, blob(b"new-1"));
        ctx.slots[1].set_ref(1, Some(pair.addr()));
    });
    let del = rt.fa_stage(|| {
        for cell in 0..2 {
            rt.free_addr(ctx.slots[2].get_ref(cell).expect("stored"));
            ctx.slots[2].set_ref(cell, None);
        }
    });
    rt.fa_commit_group(vec![setf.0, set.0, del.0]);
}

/// [`eviction_sweep`] over [`write_slots`]: a block is old or new when
/// its slot holds exactly the old or the new references, each to a valid
/// object of the right content (recovery nulls a reference to an invalid
/// one, which reads as torn here).
fn slots_eviction_sweep() -> usize {
    let observe = |rt: &Jnvm| {
        let cells = |i: usize| {
            let slot = rt.root_get_as::<PRefArray>(&format!("slot{i}"));
            let slot = slot.expect("typed").expect("slot survived");
            let blob = slot.get_ref(0).map(|a| PBytes::resurrect(rt, a).to_vec());
            let pair = slot.get_ref(1).map(|a| Pair::resurrect(rt, a).left());
            (blob, pair)
        };
        let side = |seen, old, new| (seen == old || seen == new).then_some(seen == new);
        let blob = |tag: &str| Some(tag.as_bytes().to_vec());
        vec![
            side(cells(0), (blob("old-0"), None), (blob("new-0"), None)),
            side(cells(1), (None, None), (blob("new-1"), Some(11))),
            side(cells(2), (blob("old-2"), Some(0)), (None, None)),
        ]
    };
    eviction_sweep(slots_setup, write_slots, observe)
}

/// Regression (fails on the 3-fence commit): every image of every crash
/// point, the solo form and a staged group of three — of one word in each
/// of several objects, of one unaligned two-block range per block, and of
/// an update, an insert and a delete.
#[test]
fn multi_object_blocks_survive_adversarial_eviction_after_commit_point() {
    for grouped in [false, true] {
        assert!(cells_eviction_sweep(grouped) > 0);
    }
    for arrays in [1, 3] {
        assert!(spans_eviction_sweep(arrays) > 0);
    }
    assert!(slots_eviction_sweep() > 0);
}

// ---------------------------------------------------------------------------
// Workload 6: a group that allocates chains and grows them inside the block
// that allocated them. The live commit validates each allocation by storing
// the header word it kept in DRAM (for a one-block chain grown since, a
// header whose `next` the growth rewrote) and flushes the blocks it kept;
// replay reads the header back. Swept under both recovery modes.
// ---------------------------------------------------------------------------

/// Capacity of every grown array: three blocks of payload, less the length.
const GROWN_LEN: u64 = 3 * 248 - 8;

struct GrowCtx {
    rt: Jnvm,
    slots: PRefArray,
}

/// Small fresh pool with a rooted two-cell reference array, both cells
/// empty, and the log created.
fn grow_setup() -> (Arc<Pmem>, GrowCtx) {
    let (pmem, rt) = create(jpdt_builder(), PmemConfig::crash_sim(256 << 10));
    let slots = rt.fa(|| {
        let slots = PRefArray::new(&rt, 2).expect("array");
        rt.root_put("grown", &slots).expect("root");
        slots
    });
    pmem.psync();
    (pmem, GrowCtx { rt, slots })
}

/// One group of two blocks, each publishing in its own cell a byte array
/// it allocated and grew to three blocks: block 0 from a two-block chain,
/// block 1 from a one-block chain (whose master header the growth links).
fn grow_run(ctx: &GrowCtx, upto: usize) {
    if upto == 0 {
        return;
    }
    let rt = &ctx.rt;
    let stage = |cell: u64, payload: u64, extra: u64| {
        rt.fa_stage(|| {
            let mut array = rt.alloc_proxy::<PByteArray>(payload).expect("alloc");
            array.extend(extra).expect("grow");
            array.write_u64(0, GROWN_LEN);
            array.write_bytes(8, &[0xA0 + cell as u8; GROWN_LEN as usize]);
            ctx.slots.set_ref(cell, Some(array.addr()));
        })
        .0
    };
    rt.fa_commit_group(vec![stage(0, 8 + 400, 1), stage(1, 16, 2)]);
}

/// Reopen under `mode`: both cells empty (0), or both holding their whole
/// grown array (1), and the live block count.
fn grow_observe(pmem: &Arc<Pmem>, mode: RecoveryMode) -> Observed {
    let (rt, report) = open(jpdt_builder(), pmem, mode);
    let slots = rt.root_get_as::<PRefArray>("grown");
    let slots = slots.expect("typed").expect("rooted");
    let cells: Vec<Option<bool>> = (0..2)
        .map(|cell| {
            slots.get_ref(cell).map(|addr| {
                let array = PByteArray::resurrect(&rt, addr);
                let mut bytes = vec![0u8; array.len() as usize];
                array.read_at(0, &mut bytes);
                array.len() == GROWN_LEN && bytes.iter().all(|b| *b == 0xA0 + cell as u8)
            })
        })
        .collect();
    let step = match cells[..] {
        [None, None] => Some(0),
        [Some(true), Some(true)] => Some(1),
        _ => None,
    };
    (step, report.live_blocks)
}

#[test]
fn grown_chains_recover_equivalently_at_every_crash_point() {
    let live = prefix_sweep(grow_setup, 1, grow_run, grow_observe, &BOTH, Images::Strict);
    for (mode, live) in BOTH.iter().zip(live) {
        assert_eq!(live[1], live[0] + 6, "{mode:?}: two 3-block arrays");
    }
}

// ---------------------------------------------------------------------------
// Workload 7: one commit group over records that live in pool slots — a SET
// of a new key, a SETF and a DEL. The map entries, records and blobs are
// all pooled, so the group's ALLOC, WRITE and FREE entries land in
// slots that share blocks and lines with each other.
// ---------------------------------------------------------------------------

/// Map shards of the backend under test.
const POOLED_SHARDS: usize = 4;
/// The key the group inserts.
const POOLED_NEW: &str = "fresh";

/// A two-field record of 16-byte values: its entry (which holds the key),
/// record and blobs each fit a pool slot.
fn pooled_record(key: &str, fill: u8) -> Record {
    Record::ycsb(key, &[vec![fill; 16], vec![fill + 1; 16]])
}

/// The key the group deletes: on another map shard than [`POOLED_NEW`], so
/// that the SET and the DEL share one group.
fn pooled_gone() -> String {
    let shard = |k: &str| jnvm_repro::kvstore::shard_for_key(k, POOLED_SHARDS);
    let key = (0..)
        .map(|i| format!("gone{i}"))
        .find(|k| shard(k) != shard(POOLED_NEW));
    key.expect("a key on another shard")
}

struct PooledCtx {
    _rt: Jnvm,
    be: Arc<JnvmBackend>,
    grid: DataGrid,
}

/// Small fresh pool whose backend holds `keep` and the key to delete, the
/// log created by a warm-up SETF.
fn pooled_setup() -> (Arc<Pmem>, PooledCtx) {
    let (pmem, rt) = create(kvstore_builder(), PmemConfig::crash_sim(1 << 20));
    let be = Arc::new(JnvmBackend::create(&rt, POOLED_SHARDS, true).expect("backend"));
    let grid = DataGrid::new(
        Arc::clone(&be) as Arc<dyn Backend>,
        GridConfig { cache_capacity: 0 },
    );
    for (key, fill) in [("keep", 0x10), (pooled_gone().as_str(), 0x20)] {
        assert!(grid.insert(&pooled_record(key, fill)));
    }
    let warm = WriteOp::SetField {
        key: "keep".into(),
        field: 1,
        value: vec![0x11; 16],
    };
    assert!(commit_writes(&grid, &be, &[warm]).results[0]);
    pmem.psync();
    (pmem, PooledCtx { _rt: rt, be, grid })
}

fn pooled_run(ctx: &PooledCtx, upto: usize) {
    if upto == 0 {
        return;
    }
    let ops = [
        WriteOp::Set(pooled_record(POOLED_NEW, 0x30)),
        WriteOp::SetField {
            key: "keep".into(),
            field: 0,
            value: vec![0x40; 16],
        },
        WriteOp::Del(pooled_gone()),
    ];
    let out = commit_writes(&ctx.grid, &ctx.be, &ops);
    assert_eq!((out.results, out.groups), (vec![true; 3], 1));
}

/// Reopen under `mode`: the image before the group (0) or after it (1),
/// and the live-object count.
fn pooled_observe(pmem: &Arc<Pmem>, mode: RecoveryMode) -> Observed {
    let (rt, report) = open(kvstore_builder(), pmem, mode);
    let be = JnvmBackend::open(&rt, true).expect("backend");
    let keep = be
        .read("keep")
        .expect("keep survives")
        .fields
        .value(0)
        .to_vec();
    let fresh = be.read(POOLED_NEW);
    let gone = be.read(&pooled_gone());
    let before = keep == [0x10; 16] && fresh.is_none() && gone.is_some();
    let after =
        keep == [0x40; 16] && fresh == Some(pooled_record(POOLED_NEW, 0x30)) && gone.is_none();
    let step = (before || after).then_some(after as usize);
    (step, report.live_objects)
}

/// Every crash image of the group, under `Full` and `HeaderScanOnly`
/// recovery: the pool
/// recovers to the image before the group or the one after it, with that
/// image's exact live-object count. The commit invalidates what the group
/// frees behind its apply fence, so a crash right after it loses none of
/// the five frees — it leaves the live count a settled pool has.
/// `HeaderScanOnly` used to keep them (ROADMAP's "`HeaderScanOnly` leak" —
/// the invalidations followed the retire fence, unfenced), and this test
/// pinned 6 leaked objects, then a range of counts past the group.
#[test]
fn pooled_records_recover_to_either_image_at_every_crash_point() {
    let live = prefix_sweep(
        pooled_setup,
        1,
        pooled_run,
        pooled_observe,
        &BOTH,
        Images::Every,
    );
    for (mode, live) in BOTH.iter().zip(live) {
        assert_eq!(
            live[1], live[0],
            "{mode:?}: 4 objects in, 4 out, one blob swapped"
        );
        let (pmem, ctx) = pooled_setup();
        pooled_run(&ctx, 1);
        pmem.psync();
        drop(ctx);
        pmem.crash(&CrashPolicy::strict()).expect("crash");
        assert_eq!(
            pooled_observe(&pmem, *mode),
            (Some(1), live[1]),
            "{mode:?}: objects leaked by the group's frees"
        );
    }
}

// ---------------------------------------------------------------------------
// Workload 8: where a committed slot comes from. One group allocates three
// pooled blobs — into a slot a free recycled, into the first slot of a
// block carved from the bump cursor (whose mini-headers were never
// written) and into the first slot of a block carved from a freed chain
// (whose old bytes the carve clears) — and frees a fourth. None of the
// three mini-headers is stored before the commit's apply; replay stores
// them from the ALLOC entries' class ids.
// ---------------------------------------------------------------------------

/// Content lengths of the group's blobs, each of its own slot class: 232 B
/// (one slot to a block — the recycled slot), 16 B (the carve of the freed
/// chain) and 32 B (the carve from the bump cursor), in allocation order.
const ORIGIN_LENS: [usize; 3] = [200, 8, 20];

struct OriginCtx {
    rt: Jnvm,
    cells: PRefArray,
}

/// Small fresh pool with a rooted four-cell reference array whose last cell
/// holds a 40-byte blob, the log created; then a 200-byte blob allocated
/// and freed (its slot queued for reuse), and a one-block chain whose
/// payload is non-zero bytes, freed (its block the heap's only free one).
fn origin_setup() -> (Arc<Pmem>, OriginCtx) {
    let (pmem, rt) = create(jpdt_builder(), PmemConfig::crash_sim(256 << 10));
    let cells = rt.fa(|| {
        let cells = PRefArray::new(&rt, 4).expect("array");
        let gone = PBytes::new(&rt, &[0x33; 40]).expect("blob");
        cells.set_ref(3, Some(gone.addr()));
        rt.root_put("origins", &cells).expect("root");
        cells
    });
    let recycled = PBytes::new(&rt, &[0; 200]).expect("blob");
    rt.free_addr(recycled.addr());
    let chain = rt.alloc_proxy::<PBytes>(248).expect("chain");
    chain.write_bytes(0, &[0x5A; 248]);
    chain.pwb();
    chain.validate();
    pmem.pfence();
    rt.free_addr(chain.addr());
    assert_eq!(rt.heap().stats().free_queue_len, 1);
    pmem.psync();
    (pmem, OriginCtx { rt, cells })
}

fn origin_run(ctx: &OriginCtx, upto: usize) {
    if upto == 0 {
        return;
    }
    let rt = &ctx.rt;
    let set = rt.fa_stage(|| {
        for (i, len) in ORIGIN_LENS.iter().enumerate() {
            let blob = PBytes::new(rt, &vec![0xA0 + i as u8; *len]).expect("blob");
            ctx.cells.set_ref(i as u64, Some(blob.addr()));
        }
    });
    let del = rt.fa_stage(|| {
        rt.free_addr(ctx.cells.get_ref(3).expect("stored"));
        ctx.cells.set_ref(3, None);
    });
    rt.fa_commit_group(vec![set.0, del.0]);
}

/// Reopen under `mode`: the image before the group (0) or after it (1),
/// and the live-object count. In the image after the group, each allocated
/// blob's mini-header is the word the live commit stores: its class, valid,
/// no link.
fn origin_observe(pmem: &Arc<Pmem>, mode: RecoveryMode) -> Observed {
    let (rt, report) = open(jpdt_builder(), pmem, mode);
    let cells = rt.root_get_as::<PRefArray>("origins");
    let cells = cells.expect("typed").expect("rooted");
    let seen: Vec<Option<Vec<u8>>> = (0..4)
        .map(|i| cells.get_ref(i).map(|a| PBytes::resurrect(&rt, a).to_vec()))
        .collect();
    let before = seen == [None, None, None, Some(vec![0x33; 40])];
    let new = |i: usize| Some(vec![0xA0 + i as u8; ORIGIN_LENS[i]]);
    let after = seen == [new(0), new(1), new(2), None];
    if after {
        let id = rt.registry().id_of::<PBytes>().expect("registered");
        let word = BlockHeader {
            id,
            valid: true,
            next: 0,
        }
        .encode();
        for i in 0..3 {
            let addr = cells.get_ref(i).expect("stored");
            assert_eq!(pmem.read_u64(addr), word, "{mode:?}: header of blob {i}");
        }
    }
    (
        (before || after).then_some(after as usize),
        report.live_objects,
    )
}

/// [`prefix_sweep`] over [`origin_run`], every crash image, under both
/// recovery modes: 3 blobs in, 1 out; after the group each allocated slot
/// holds the header the live commit stores — replayed from the log when the
/// crash fell between the commit point and the apply.
#[test]
fn slots_of_every_origin_recover_to_either_image_at_every_crash_point() {
    let (pmem, ctx) = origin_setup();
    origin_run(&ctx, 1);
    let heap = ctx.rt.heap();
    let blocks: Vec<u64> = (0..3)
        .map(|i| heap.block_of_addr(ctx.cells.get_ref(i).expect("stored")))
        .collect();
    assert!(
        blocks[0] < blocks[1] && blocks[1] < blocks[2],
        "slot, recycled carve, bump"
    );
    assert_eq!(
        heap.stats().bump,
        blocks[2] + 1,
        "the last carve took the bump cursor"
    );
    drop((ctx, pmem));
    let live = prefix_sweep(
        origin_setup,
        1,
        origin_run,
        origin_observe,
        &BOTH,
        Images::Every,
    );
    for (mode, live) in BOTH.iter().zip(live) {
        assert_eq!(live[1], live[0] + 2, "{mode:?}");
    }
}

// ---------------------------------------------------------------------------
// Workload 10: a pool block carved from a recycled chain whose every payload
// word decodes as a valid mini-header of a registered class. The carve
// clears each slot's mini-header before the pool header can reach media: a
// header scan must never find the block a pool block with a stale word at a
// slot boundary.
// ---------------------------------------------------------------------------

struct CarveCtx {
    rt: Jnvm,
    cells: PRefArray,
}

/// Small fresh pool with a rooted two-cell reference array, the log
/// created; then a one-block chain whose payload words are each the header
/// word of a valid `PBytes`, freed (its block the heap's only free one).
fn carve_setup() -> (Arc<Pmem>, CarveCtx) {
    let (pmem, rt) = create(jpdt_builder(), PmemConfig::crash_sim(256 << 10));
    let cells = rt.fa(|| {
        let cells = PRefArray::new(&rt, 2).expect("array");
        rt.root_put("carved", &cells).expect("root");
        cells
    });
    let id = rt.registry().id_of::<PBytes>().expect("registered");
    let valid = BlockHeader {
        id,
        valid: true,
        next: 0,
    }
    .encode();
    let chain = rt.alloc_proxy::<PBytes>(248).expect("chain");
    let words: Vec<u8> = (0..248 / 8).flat_map(|_| valid.to_le_bytes()).collect();
    chain.write_bytes(0, &words);
    chain.pwb();
    chain.validate();
    pmem.pfence();
    rt.free_addr(chain.addr());
    assert_eq!(rt.heap().stats().free_queue_len, 1);
    pmem.psync();
    (pmem, CarveCtx { rt, cells })
}

/// One failure-atomic block: an 8-byte blob (a slot of the 16-B class,
/// whose pool block the allocation carves from the recycled chain) stored
/// in cell 0.
fn carve_run(ctx: &CarveCtx, upto: usize) {
    if upto == 0 {
        return;
    }
    let rt = &ctx.rt;
    rt.fa(|| {
        let blob = PBytes::new(rt, &[0xC5; 8]).expect("blob");
        ctx.cells.set_ref(0, Some(blob.addr()));
    });
}

fn carve_observe(pmem: &Arc<Pmem>, mode: RecoveryMode) -> Observed {
    let (rt, report) = open(jpdt_builder(), pmem, mode);
    let cells = rt.root_get_as::<PRefArray>("carved");
    let cells = cells.expect("typed").expect("rooted");
    let step = match cells.get_ref(0) {
        None => Some(0),
        Some(a) => (PBytes::resurrect(&rt, a).to_vec() == [0xC5; 8]).then_some(1),
    };
    (step, report.live_objects)
}

/// [`prefix_sweep`] over [`carve_run`], every crash image, under both
/// recovery modes. Regression: the carve stored the pool header and the
/// cleared mini-headers with no fence between them, so eviction could
/// persist the header's line alone, and a header scan counted every stale
/// word at a slot boundary of another line as a live object.
#[test]
fn a_recycled_carve_recovers_an_exact_live_count_at_every_crash_point() {
    let (pmem, ctx) = carve_setup();
    let freed = ctx.rt.heap().stats().bump;
    carve_run(&ctx, 1);
    let blob = ctx.cells.get_ref(0).expect("stored");
    assert_eq!(
        ctx.rt.heap().stats().bump,
        freed,
        "the carve recycled the chain's block"
    );
    assert!(ctx.rt.pools().is_pooled_addr(blob));
    drop((ctx, pmem));
    let live = prefix_sweep(
        carve_setup,
        1,
        carve_run,
        carve_observe,
        &BOTH,
        Images::Every,
    );
    for (mode, live) in BOTH.iter().zip(live) {
        assert_eq!(live[1], live[0] + 1, "{mode:?}");
    }
}

// ---------------------------------------------------------------------------
// Workload 9: one record field swept through value sizes — 100 B, 7 B, 300 B
// (a chain), 0 B. The field's reference carries its value's slack (capacity
// minus length) above its address, and the value stores no length: whichever
// update a crash leaves, the reference recovery keeps must decode to that
// value's exact length. The root entry's reference to the record carries its
// field count the same way.
// ---------------------------------------------------------------------------

/// The field's value lengths, setup first, then one update each.
const FIELD_LENS: [usize; 4] = [100, 7, 300, 0];

/// The rooted record after `step` updates: field 0 swept, field 1 fixed.
fn field_record(step: usize) -> Record {
    let swept = vec![0xA0 + step as u8; FIELD_LENS[step]];
    Record::ycsb("rec", &[swept, vec![0x11; 16]])
}

struct FieldCtx {
    rt: Jnvm,
    rec: PRecord,
    fa: bool,
}

/// Small fresh pool with a rooted two-field record at step 0, the log
/// created by a warm-up update of field 1.
fn field_setup(fa: bool) -> (Arc<Pmem>, FieldCtx) {
    let (pmem, rt) = create(kvstore_builder(), PmemConfig::crash_sim(256 << 10));
    let rec = rt.fa(|| {
        let rec = PRecord::create(&rt, field_record(0).fields.values()).expect("record");
        rt.root_put("rec", &rec).expect("root");
        rec
    });
    rt.fa(|| assert!(rec.set_field(1, &[0x11; 16]).expect("warm-up")));
    pmem.psync();
    (pmem, FieldCtx { rt, rec, fa })
}

/// The first `upto` updates of field 0, each a failure-atomic block in the
/// J-PFA flavour, the low-level publish-then-free of §4.1.6 otherwise.
fn field_updates(ctx: &FieldCtx, upto: usize) {
    for step in 1..=upto {
        let value = field_record(step).fields.value(0).to_vec();
        let update = || assert!(ctx.rec.set_field(0, &value).expect("update"));
        if ctx.fa {
            ctx.rt.fa(update);
        } else {
            update();
        }
    }
}

/// Reopen under `mode`: which step's image the record holds (`None` for
/// none), after checking that the field's reference decodes to that step's
/// length, and the live-object count.
fn field_observe(pmem: &Arc<Pmem>, mode: RecoveryMode) -> Observed {
    let (rt, report) = open(kvstore_builder(), pmem, mode);
    let rec = rt
        .root_get_as::<PRecord>("rec")
        .expect("typed")
        .expect("rooted");
    assert_eq!(
        rec.nfields(),
        2,
        "{mode:?}: the root reference's field count"
    );
    let got = rec.to_record("rec");
    let step = (0..FIELD_LENS.len()).find(|s| got == field_record(*s));
    if let Some(step) = step {
        let word = Proxy::open(&rt, rec.addr()).read_u64(0);
        let capacity = RawChain::open(&rt, word & REF_ADDR_MASK).capacity();
        assert_eq!(
            capacity - (word >> 48),
            FIELD_LENS[step] as u64,
            "{mode:?}: the tag of step {step}'s value ({word:#x})"
        );
    }
    (step, report.live_objects)
}

/// Every crash image of the three updates, in the J-PFA flavour recovered
/// by `Full` and `HeaderScanOnly` and in the J-PDT flavour recovered by
/// `Full` (its unpublished values are garbage only a traversal reclaims):
/// the record recovers to the image of some number of updates, with that
/// image's exact live-object count, and each of the four images is seen.
#[test]
fn tagged_field_references_recover_to_an_exact_length_at_every_crash_point() {
    let flavours: [(bool, &[RecoveryMode]); 2] = [(true, &BOTH), (false, &FULL)];
    for (fa, modes) in flavours {
        let setup = || field_setup(fa);
        let steps = FIELD_LENS.len() - 1;
        prefix_sweep(
            setup,
            steps,
            field_updates,
            field_observe,
            modes,
            Images::Every,
        );
    }
}

/// `fa(body)` is `fa_stage(body)` + `fa_commit_group(vec![tx])`: on
/// identical fresh pools both issue the same device ops at the same
/// addresses in the same order (which also pins that the flush phase walks
/// its overlay and allocations in address order, not hash order).
#[test]
fn solo_fa_and_group_of_one_issue_identical_device_ops() {
    let trace = |staged: bool| {
        let setup = || {
            let (pmem, ctx) = cells_setup(false);
            let spare = ctx.rt.fa(|| Pair::alloc_uninit(&ctx.rt));
            pmem.psync();
            (pmem, (ctx, spare))
        };
        // 4 staged writes (`write_cells`' own `fa` nests in place),
        // 1 allocation, 1 free.
        let body = |ctx: &CellsCtx, spare: &Pair| {
            write_cells(ctx, false, 100);
            Pair::alloc_uninit(&ctx.rt).set_left(7);
            ctx.rt.free_addr(spare.addr());
        };
        trace(setup, |(ctx, spare)| {
            if staged {
                let (tx, ()) = ctx.rt.fa_stage(|| body(ctx, spare));
                ctx.rt.fa_commit_group(vec![tx]);
            } else {
                ctx.rt.fa(|| body(ctx, spare));
            }
        })
        .into_iter()
        .map(|r| (r.op, r.addr))
        .collect::<Vec<_>>()
    };
    let solo = trace(false);
    // 26 device ops (27 while the commit point stored a committed flag
    // beside the length; 30 while a fresh block bumped the persistent bump
    // pointer and wrote it back, and the entries began on the flag's line;
    // 90 while every redirected write built, flushed and applied a whole
    // in-flight block copy): the allocation (header, one in-place field —
    // the block comes out of the reserved stride), ONE store of the six log
    // entries and the pwbs of their 2 lines + the fresh object's, fence;
    // length, 1 pwb, fence; the validation and 4 × (8-byte apply + pwb),
    // fence; length zeroed + pwb, fence; the free's header + pwb.
    assert_eq!(solo.len(), 26, "device ops of the block");
    assert_eq!(solo, trace(true));
}

// ---------------------------------------------------------------------------
// Randomized satellite: random transfer count, random crash point — the
// sum invariant must hold wherever the power fails.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fa_random_workload_random_crash_point(
        transfers in 1usize..4,
        point_sel in 0u64..1_000_000,
    ) {
        let total = trace(fa_setup, |ctx| fa_run(ctx, transfers)).len() as u64;
        let point = point_sel % total;
        let summary = faultsim::sweep(
            [point],
            CrashPolicy::strict(),
            POOL,
            1,
            one_pool(fa_setup),
            |_, ctx| fa_run(ctx, transfers),
            |pmems, report| {
                // Transfers apply in order: the recovered pair is that of
                // some number of whole transfers.
                let (step, _) = fa_observe(&pmems[0][0], RecoveryMode::Full);
                assert!(
                    step.is_some_and(|s| s <= transfers),
                    "crash point {}: impossible state after {step:?} transfers",
                    report.point
                );
            },
        );
        prop_assert_eq!(summary.points_injected, 1);
    }
}

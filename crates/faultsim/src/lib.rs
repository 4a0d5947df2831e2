//! # jnvm-faultsim — crash-point sweep driver
//!
//! The `jnvm-pmem` injection engine ([`jnvm_pmem::FaultPlan`]) can crash a
//! simulated device immediately **before** its N-th persistence-relevant
//! operation. This crate turns that primitive into one exhaustive testing
//! engine over a **topology** of devices, `pmems[shard][replica]` (replica
//! 0 the primary). One pool is the 1 × 1 topology, N isolated shards are
//! N × 1, and N replicated shards are N × R: the same experiment with
//! different arguments.
//!
//! [`torture_point`] is the one primitive. It builds the topology afresh,
//! arms **one** device with a plan — [`FaultMode::Count`] to count and
//! trace that device's ops, or [`FaultMode::CrashAt`]`(i)` to crash it
//! before its op `i` — and runs `workers` workers over a shared context.
//! Worker 0 runs on the calling thread, whatever the shape, so a one-pool
//! sweep's `verify` sees that worker's thread-local state (the commit
//! phase a crash interrupted, `jnvm::commit_phase`). Whichever worker's op
//! lands on the trigger takes the power failure; every *other* worker that
//! touches the frozen device unwinds with a secondary
//! [`jnvm_pmem::CrashInjected`], and workers that never touch it run to
//! completion. The driver joins all workers
//! (the quiesce protocol), drops the context **while the device is still
//! frozen** — so destructors running during or after the unwind (a
//! failure-atomic guard's abort path) cannot repair the crash image —
//! thaws it, resynchronizes its cache ([`Pmem::resync_cache`]: workers
//! mid-store at the moment of the crash may have scribbled on the rebuilt
//! cache), and only then hands the devices to a caller-supplied `verify`.
//!
//! Two sweeps run it point after point:
//!
//! - [`sweep`] crashes at the points the caller names, under one policy;
//! - [`sweep_all`] takes its points from a count pass over a device one
//!   thread writes, and checks the crash [`Images`] it is asked for. A
//!   crash keeps what was fenced plus any subset of the non-clean lines
//!   (dirty, or written back and not fenced), so:
//!   - [`Images::Strict`], the subset kept empty ([`CrashPolicy::strict`]):
//!     every point between two fences leaves the same media, and one point
//!     per **fence epoch** sees every strict image;
//!   - [`Images::Every`], every subset: at each point it crashes once per
//!     [`CrashPolicy::keep`] mask over the point's `n` non-clean lines,
//!     `2ⁿ` crashes. A `pwb` changes neither a word nor which lines are
//!     non-clean, so a point right after one has the previous point's
//!     images and is skipped. A failure names a replayable `(point, mask)`.
//!
//! ## Drivers on [`strided_points`]
//!
//! Fence epochs and a point's non-clean lines need one writer. Where
//! several threads write the armed device an op index names a different op
//! from run to run, and the sweep takes an evenly strided sample of the
//! counted ops instead, under a seeded eviction coin or none:
//!
//! - the concurrent bank and grid tortures (`tests/concurrent_torture.rs`),
//!   the recovery-equivalence images taken from them and the restartable
//!   recoveries (`tests/recovery_{equivalence,restartable}.rs`) run
//!   several writer threads on one pool — recovery's mark and sweep
//!   workers included;
//! - the kill-during-traffic sweeps over sockets (`tests/server_torture.rs`
//!   and the kill rows of `tests/obs_invariants.rs`) arm the device of a
//!   running server through its own protocol
//!   (`jnvm_server::kill_during_traffic`), not through this engine.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use jnvm_pmem::{catch_crash, CrashPolicy, FaultMode, FaultOp, FaultPlan, Pmem, TraceRecord};

/// A topology's devices, `pmems[shard][replica]`; replica 0 is the primary.
pub type Devices = Vec<Vec<Arc<Pmem>>>;

/// What happened in one [`torture_point`] run.
#[derive(Debug, Clone)]
pub struct TortureOutcome {
    /// The armed crash point (ops counted on the armed device, across all
    /// threads in interleaving order). A count pass has no crash point; it
    /// reports the end of the stream, the first point past its last op.
    pub point: u64,
    /// The [`CrashPolicy::keep`] mask the crash ran under: with `point`, a
    /// replayable name of its image. 0 under a strict crash, and under a
    /// coin policy, whose seed draws the survivors instead.
    pub mask: u64,
    /// Non-clean lines the crash faced (0 if none fired): the mask's bits
    /// that name a line.
    pub lines: u32,
    /// The armed device's identity ([`Pmem::label`]), for reports.
    pub crash_label: String,
    /// Whether the crash fired before the armed device's op stream ended.
    pub injected: bool,
    /// Persistence-relevant ops counted on the armed device while armed.
    pub ops_counted: u64,
    /// The armed device's ops in order — one [`TraceRecord`] per crash
    /// point, so `trace[i]` names the op a `CrashAt(i)` run replaces with a
    /// power failure, and the thread that issued it. Empty unless the plan
    /// was [`FaultMode::Count`].
    pub trace: Vec<TraceRecord>,
    /// Workers unwound by the crash: the trigger thread plus every worker
    /// whose next op hit the frozen device. Workers sharing the armed
    /// device all unwind; with one worker per disjoint device at most one
    /// does — that *is* the isolation property.
    pub crashed_workers: usize,
    /// Workers that ran their workload to completion.
    pub completed_workers: usize,
}

/// Aggregate result of [`sweep`] and [`sweep_all`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TortureSummary {
    /// Runs in which a crash was injected (and verified): one per point,
    /// and per mask in an [`Images::Every`] sweep.
    pub points_injected: usize,
    /// Points past the end of the armed device's op stream: the workload
    /// completed; `verify` still ran against the completed image.
    pub points_completed: usize,
}

/// Run one crash experiment over a topology of devices.
///
/// 1. `setup()` builds fresh devices (`pmems[shard][replica]`, pairwise
///    disjoint) and the shared context — everything *before* the region
///    under test;
/// 2. the `(shard, replica)` device named by `target` — and only it — is
///    armed with `plan`;
/// 3. `workers` workers run `workload(w, &ctx)`, each inside
///    [`catch_crash`]; worker 0 runs on the calling thread, the rest on
///    scoped threads named `worker-{w}`. The shapes in use: **one pool,
///    n workers** (every worker's next op on the frozen device unwinds with
///    a secondary [`jnvm_pmem::CrashInjected`] — a power failure stops
///    every CPU);
///    **N isolated shards**, one worker per shard (only the crash shard's
///    worker unwinds); **N shards × R replicas**, one worker per shard
///    driving all of its shard's replicas (the committer model: the worker
///    commits through `jnvm_server::Replicas::commit`, which catches the
///    crash and fails over, degrades or reports the shard dead, so the
///    worker need not unwind at all — and a backup's device is written by
///    its endpoint thread, not by a worker). A workload that spawns its own
///    threads (a parallel recovery pass) must re-throw a thread's
///    [`jnvm_pmem::CrashInjected`] from the spawning thread (see
///    `jnvm_heap::par::run_workers_timed`) so the crash reaches this
///    `catch_crash`;
/// 4. the scope join is the quiesce barrier. The context is dropped while
///    the armed device is still frozen, the device is thawed, and — if the
///    crash fired — its cache is resynchronized from media;
/// 5. `verify(&pmems, &outcome)` checks recovery invariants — typically
///    re-opening the surviving image(s) and asserting that every acked
///    write is readable and untorn. It runs for completed (past-the-end)
///    points too: a fully-applied image must satisfy the same invariants.
///
/// Panics from workers that are not injected crashes propagate (they are
/// real bugs); panics from `verify` are failed invariants.
///
/// # Panics
///
/// When `target` names no device, when two replicas share one device, and
/// when a count pass saw no op on the armed device: a sweep over its points
/// would check nothing.
pub fn torture_point<Ctx: Sync>(
    plan: FaultPlan,
    target: (usize, usize),
    workers: usize,
    setup: impl FnOnce() -> (Devices, Ctx),
    workload: impl Fn(usize, &Ctx) + Sync,
    verify: impl FnOnce(&[Vec<Arc<Pmem>>], &TortureOutcome),
) -> TortureOutcome {
    let (shard, replica) = target;
    let (pmems, ctx) = setup();
    assert!(
        shard < pmems.len(),
        "crash shard {shard} out of range ({} shards)",
        pmems.len()
    );
    assert!(
        replica < pmems[shard].len(),
        "crash replica {replica} out of range ({} replicas on shard {shard})",
        pmems[shard].len()
    );
    let flat: Vec<&Arc<Pmem>> = pmems.iter().flatten().collect();
    for (i, a) in flat.iter().enumerate() {
        assert!(
            flat[i + 1..].iter().all(|b| !Arc::ptr_eq(a, b)),
            "two replicas share one device — replication claims need disjoint devices"
        );
    }
    let crash_dev = &pmems[shard][replica];
    crash_dev.arm_faults(plan);
    let crashed = AtomicUsize::new(0);
    let run = |w: usize| {
        if catch_crash(|| workload(w, &ctx)).is_err() {
            crashed.fetch_add(1, Ordering::SeqCst);
        }
    };
    std::thread::scope(|s| {
        for w in 1..workers {
            let run = &run;
            // Named so span rings and panic messages identify the worker.
            std::thread::Builder::new()
                .name(format!("worker-{w}"))
                .spawn_scoped(s, move || run(w))
                .expect("spawn torture worker");
        }
        run(0);
    });
    let injected = crash_dev.faults_frozen();
    drop(ctx);
    let trace = crash_dev.fault_trace();
    let ops_counted = crash_dev.disarm_faults();
    if injected {
        crash_dev.resync_cache();
    }
    let label = crash_dev.label().to_string();
    let lines = crash_dev.fault_crash_lines();
    let point = match plan.mode {
        FaultMode::CrashAt(point) => point,
        FaultMode::Count => {
            assert!(ops_counted > 0, "the count pass saw no op on {label:?}");
            ops_counted
        }
    };
    let crashed_workers = crashed.load(Ordering::SeqCst);
    let mask = match plan.policy {
        CrashPolicy::Keep(mask) => mask,
        CrashPolicy::Coin { .. } => 0,
    };
    let outcome = TortureOutcome {
        point,
        mask,
        lines,
        crash_label: label,
        injected,
        ops_counted,
        trace,
        crashed_workers,
        completed_workers: workers - crashed_workers,
    };
    verify(&pmems, &outcome);
    outcome
}

/// Run [`torture_point`] at each of `points` under `policy`, with the same
/// target, workers, setup, workload and verify.
pub fn sweep<Ctx: Sync>(
    points: impl IntoIterator<Item = u64>,
    policy: CrashPolicy,
    target: (usize, usize),
    workers: usize,
    mut setup: impl FnMut() -> (Devices, Ctx),
    workload: impl Fn(usize, &Ctx) + Sync,
    mut verify: impl FnMut(&[Vec<Arc<Pmem>>], &TortureOutcome),
) -> TortureSummary {
    let mut summary = TortureSummary::default();
    for point in points {
        let plan = FaultPlan::crash_at(point).with_policy(policy);
        if torture_point(plan, target, workers, &mut setup, &workload, &mut verify).injected {
            summary.points_injected += 1;
        } else {
            summary.points_completed += 1;
        }
    }
    summary
}

/// The crash images [`sweep_all`] checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Images {
    /// The strict image — nothing unfenced survives — once per fence epoch.
    Strict,
    /// Every image: at each point not right after a `pwb`, one crash per
    /// subset of the point's non-clean lines that survives.
    Every,
}

/// The most non-clean lines an [`Images::Every`] point may face: 2¹⁰
/// crashes. No sweep in this workspace faces more than 8.
const MAX_LINES: u32 = 10;

/// One crash point per fence epoch of a single-writer op stream: the index
/// of every `pfence` / `psync`, and the last point when the stream does not
/// end on one. A crash before op `i` keeps what the fences before `i`
/// persisted, so under a policy that evicts nothing every point of an epoch
/// — the fence and the ops since the previous one — leaves the same media;
/// the fence's own point has the most of the program behind it.
fn epoch_points(trace: &[TraceRecord]) -> Vec<u64> {
    let fence = |r: &TraceRecord| matches!(r.op, FaultOp::Pfence | FaultOp::Psync);
    let mut points: Vec<u64> = (0..trace.len() as u64)
        .filter(|i| fence(&trace[*i as usize]))
        .collect();
    if trace.last().is_some_and(|r| !fence(r)) {
        points.push(trace.len() as u64 - 1);
    }
    points
}

/// Sweep the crash `images` of the armed device's op stream: a count pass
/// traces its `N` ops, then
///
/// - [`Images::Strict`] crashes strictly at one point per fence epoch (each
///   `pfence` / `psync`, and the last point);
/// - [`Images::Every`] crashes at every point of `0..N` whose previous op
///   is not a `pwb`, once per [`CrashPolicy::keep`] mask in `0..2ⁿ`, where
///   the mask-0 crash finds the `n` non-clean lines.
///
/// `verify` runs after every crash, not on the count pass; the outcome's
/// `point` and `mask` name the image. `setup` is invoked once per crash
/// and once more; every instance must give the armed device the same op
/// stream.
///
/// # Panics
///
/// When the count pass saw no op on the armed device; when it saw more
/// than one thread write that device (each thread's fence persists only its
/// own write-backs, and an op index names a different op from run to run);
/// when a point faces more than 10 non-clean lines; and when the op stream
/// differs between setups: a point did not fire, or faced a different
/// number of non-clean lines than at mask 0.
pub fn sweep_all<Ctx: Sync>(
    images: Images,
    target: (usize, usize),
    workers: usize,
    mut setup: impl FnMut() -> (Devices, Ctx),
    workload: impl Fn(usize, &Ctx) + Sync,
    mut verify: impl FnMut(&[Vec<Arc<Pmem>>], &TortureOutcome),
) -> TortureSummary {
    let count = FaultPlan::count();
    let trace = torture_point(count, target, workers, &mut setup, &workload, |_, _| {}).trace;
    let total = trace.len() as u64;
    let threads = trace.iter().map(|r| r.thread).collect::<HashSet<_>>().len();
    assert!(
        threads == 1,
        "a sweep takes its points from one writer's op stream; \
         the count pass saw {threads} threads write the armed device"
    );
    let after_pwb = |i: u64| i > 0 && trace[i as usize - 1].op == FaultOp::Pwb;
    let points = match images {
        Images::Strict => epoch_points(&trace),
        Images::Every => (0..total).filter(|i| !after_pwb(*i)).collect(),
    };
    let mut summary = TortureSummary::default();
    for point in points {
        let mut crash = |mask: u64| {
            let plan = FaultPlan::crash_at(point).with_policy(CrashPolicy::keep(mask));
            let out = torture_point(plan, target, workers, &mut setup, &workload, &mut verify);
            summary.points_injected += out.injected as usize;
            summary.points_completed += !out.injected as usize;
            out.lines
        };
        let lines = crash(0);
        if images == Images::Strict {
            continue;
        }
        assert!(
            lines <= MAX_LINES,
            "crash point {point} faces {lines} non-clean lines; an every-image \
             sweep takes at most {MAX_LINES}"
        );
        for mask in 1..1u64 << lines {
            let seen = crash(mask);
            assert_eq!(
                seen, lines,
                "crash point {point} faced {lines} non-clean lines at mask 0 and \
                 {seen} at mask {mask:#b}: the op stream differs between setups"
            );
        }
    }
    assert_eq!(
        summary.points_completed, 0,
        "count pass reported {total} ops but a CrashAt point within 0..{total} \
         did not fire — the workload is not deterministic across setups"
    );
    summary
}

/// Evenly strided sample of `0..total` with at most `max_points` elements,
/// always including the first and last point: the points of a sweep over
/// several writer threads, where no fence epoch is defined and an op
/// index names a different op from run to run.
pub fn strided_points(total: u64, max_points: u64) -> Vec<u64> {
    if total == 0 {
        return Vec::new();
    }
    let max_points = max_points.max(2);
    let stride = total.div_ceil(max_points).max(1);
    let mut pts: Vec<u64> = (0..total).step_by(stride as usize).collect();
    if *pts.last().expect("non-empty") != total - 1 {
        pts.push(total - 1);
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use jnvm_pmem::{silence_crash_panics, CrashInjected, PmemConfig};

    /// A miniature redo-log commit against the raw device: write a value
    /// and a commit flag with a correct flush/fence protocol.
    fn raw_commit(pmem: &Arc<Pmem>) {
        pmem.write_u64(0, 0xfeed);
        pmem.pwb(0);
        pmem.pfence();
        pmem.write_u64(64, 1); // commit flag on its own line
        pmem.pwb(64);
        pmem.pfence();
    }

    /// `shards` × `replicas` fresh labelled devices; the context is the
    /// same grid, so workers index it as `devs[shard][replica]`.
    fn topology(shards: usize, replicas: usize) -> (Devices, Devices) {
        let pmems: Devices = (0..shards)
            .map(|s| {
                (0..replicas)
                    .map(|r| {
                        let role = if r == 0 { "primary" } else { "backup" };
                        Pmem::new(
                            PmemConfig::crash_sim(64 * 1024).with_label(&format!("s{s}/{role}")),
                        )
                    })
                    .collect()
            })
            .collect();
        (pmems.clone(), pmems)
    }

    /// One pool: the 1 × 1 topology.
    fn pool() -> (Devices, Devices) {
        topology(1, 1)
    }

    /// Count `workload`'s ops on the one pool, with `workers` workers.
    fn count(workers: usize, workload: impl Fn(usize, &Devices) + Sync) -> TortureOutcome {
        torture_point(
            FaultPlan::count(),
            (0, 0),
            workers,
            pool,
            workload,
            |_, _| {},
        )
    }

    /// `n` fenced lines of value `i + 1` at `base + i * 64` on `dev`.
    fn fenced_lines(dev: &Pmem, base: u64, n: u64) {
        for i in 0..n {
            dev.write_u64(base + i * 64, i + 1);
            dev.pwb(base + i * 64);
            dev.pfence();
        }
    }

    /// Every slot of `fenced_lines(dev, base, n)` holds what it wrote or
    /// zero: a prefix survived, nothing torn.
    fn assert_prefix(dev: &Pmem, base: u64, n: u64) {
        for i in 0..n {
            let v = dev.read_u64(base + i * 64);
            assert!(v == 0 || v == i + 1, "torn value {v} at {base:#x} slot {i}");
        }
    }

    /// The fence points of `fences` fenced lines: each line is a write, a
    /// pwb and a fence.
    fn fence_points(fences: u64) -> Vec<u64> {
        (0..fences).map(|i| 3 * i + 2).collect()
    }

    #[test]
    fn count_pass_traces_the_armed_device_on_the_calling_thread() {
        let out = count(1, |_, d| raw_commit(&d[0][0]));
        assert_eq!(out.ops_counted, 6);
        assert_eq!(out.point, 6, "a count pass reports the end of the stream");
        assert!(!out.injected);
        assert_eq!(out.trace.len(), 6);
        assert_eq!(out.trace[0].op, FaultOp::Write);
        assert_eq!(out.trace[5].op, FaultOp::Pfence);
        let me = std::thread::current().id();
        assert!(
            out.trace.iter().all(|r| r.thread == me),
            "worker 0 runs here"
        );
    }

    /// `raw_commit`'s crashes under `images`, as `(point, mask)`. The
    /// protocol's invariant holds at each: if the commit flag reached the
    /// media, the value is there too.
    fn raw_commit_crashes(images: Images) -> Vec<(u64, u64)> {
        let mut seen = Vec::new();
        let workload = |_: usize, d: &Devices| raw_commit(&d[0][0]);
        let summary = sweep_all(images, (0, 0), 1, pool, workload, |pmems, out| {
            let pmem = &pmems[0][0];
            if pmem.read_u64(64) == 1 {
                assert_eq!(pmem.read_u64(0), 0xfeed, "flag durable before value");
            }
            seen.push((out.point, out.mask));
        });
        assert_eq!(summary.points_injected, seen.len());
        assert_eq!(summary.points_completed, 0);
        seen
    }

    /// Points 2 and 5 follow a `pwb`, whose images are those of points 1
    /// and 4, and get no crash; points 1 and 4 face one line each.
    #[test]
    fn every_image_sweep_skips_the_point_after_a_pwb() {
        assert_eq!(
            raw_commit_crashes(Images::Every),
            vec![(0, 0), (1, 0), (1, 1), (3, 0), (4, 0), (4, 1)]
        );
    }

    /// Two unfenced lines, four crashes: bit `i` of the mask keeps the
    /// `i`-th line in address order.
    #[test]
    fn every_image_sweep_crashes_once_per_subset_of_unfenced_lines() {
        let workload = |_: usize, d: &Devices| {
            d[0][0].write_u64(0, 1);
            d[0][0].write_u64(64, 2);
            d[0][0].pfence();
        };
        let mut seen = Vec::new();
        sweep_all(Images::Every, (0, 0), 1, pool, workload, |pmems, out| {
            let kept = |addr: u64, v: u64| (pmems[0][0].read_u64(addr) == v) as u64;
            assert_eq!(
                kept(0, 1) | kept(64, 2) << 1,
                out.mask,
                "point {}",
                out.point
            );
            seen.push((out.point, out.mask, out.lines));
        });
        let at_2: Vec<_> = (0..4).map(|mask| (2, mask, 2)).collect();
        assert_eq!(seen[..3], [(0, 0, 0), (1, 0, 1), (1, 1, 1)]);
        assert_eq!(seen[3..], at_2[..]);
    }

    /// Past 10 non-clean lines an every-image sweep refuses rather than
    /// sample.
    #[test]
    #[should_panic(expected = "crash point 1 faces 11 non-clean lines")]
    fn every_image_sweep_of_eleven_unfenced_lines_panics() {
        silence_crash_panics();
        let workload = |_: usize, d: &Devices| {
            d[0][0].write_bytes(0, &[1; 11 * 64]);
            d[0][0].pfence();
        };
        sweep_all(Images::Every, (0, 0), 1, pool, workload, |_, _| {});
    }

    /// A setup that leaves one more dirty line behind on its fourth call —
    /// point 1's second crash — changes that point's images.
    #[test]
    #[should_panic(expected = "faced 1 non-clean lines at mask 0 and 2 at mask 0b1")]
    fn every_image_sweep_panics_when_a_later_crash_faces_other_lines() {
        silence_crash_panics();
        let mut calls = 0;
        let setup = || {
            calls += 1;
            let (pmems, ctx) = pool();
            if calls == 4 {
                pmems[0][0].write_u64(128, 3);
            }
            (pmems, ctx)
        };
        let workload = |_: usize, d: &Devices| {
            d[0][0].write_u64(0, 1);
            d[0][0].pfence();
        };
        sweep_all(Images::Every, (0, 0), 1, setup, workload, |_, _| {});
    }

    /// Under the strict policy the two fences are the two epochs; a stream
    /// that does not end on a fence adds its last point.
    #[test]
    fn strict_sweep_all_takes_one_point_per_fence_epoch() {
        assert_eq!(raw_commit_crashes(Images::Strict), vec![(2, 0), (5, 0)]);
        let out = count(1, |_, d| {
            let p = &d[0][0];
            raw_commit(p);
            p.write_u64(128, 2);
            p.pwb(128);
            p.psync();
            p.write_u64(192, 3);
        });
        assert_eq!(epoch_points(&out.trace), vec![2, 5, 8, 9]);
        assert_eq!(epoch_points(&[]), Vec::<u64>::new());
    }

    /// A sweep that checks nothing fails: a workload that never touches
    /// the armed device has no crash point.
    #[test]
    #[should_panic(expected = "the count pass saw no op on \"s0/primary\"")]
    fn sweep_all_of_a_workload_that_writes_nothing_panics() {
        sweep_all(Images::Strict, (0, 0), 1, pool, |_, _| {}, |_, _| {});
    }

    /// Two writer threads: their fences persist only their own lines, and
    /// an op index names a different op from run to run, so `sweep_all`
    /// refuses.
    #[test]
    #[should_panic(expected = "the count pass saw 2 threads")]
    fn sweep_all_refuses_two_writer_threads() {
        silence_crash_panics();
        let workload = |_: usize, d: &Devices| threaded_workload(&d[0][0]);
        sweep_all(Images::Every, (0, 0), 1, pool, workload, |_, _| {});
    }

    /// The writer check looks only at the armed device: shard 1's worker
    /// writes its own device alongside, and the sweep takes exactly shard
    /// 0's fence epochs.
    #[test]
    fn strict_sweep_all_takes_the_armed_shards_epochs_only() {
        silence_crash_panics();
        let workload = |s: usize, d: &Devices| fenced_lines(&d[s][0], 0, 8 + 8 * s as u64);
        let mut seen = Vec::new();
        let summary = sweep_all(
            Images::Strict,
            (0, 0),
            2,
            || topology(2, 1),
            workload,
            |pmems, out| {
                assert_eq!((out.crashed_workers, out.completed_workers), (1, 1));
                assert_prefix(&pmems[0][0], 0, 8);
                seen.push(out.point);
            },
        );
        assert_eq!(summary.points_injected, 8);
        assert_eq!(seen, fence_points(8));
    }

    /// A device no worker writes — as the endpoint thread writes an N × 2
    /// backup — has one writer all the same, and a strict sweep takes it.
    #[test]
    fn strict_sweep_all_accepts_a_device_written_by_a_non_worker_thread() {
        silence_crash_panics();
        let workload = |_: usize, d: &Devices| {
            std::thread::scope(|s| {
                // The endpoint catches its crash and stops, as a backup's
                // endpoint closes its link.
                s.spawn(|| catch_crash(|| fenced_lines(&d[0][1], 0, 8)));
                fenced_lines(&d[0][0], 0, 8);
            });
        };
        let mut seen = Vec::new();
        let summary = sweep_all(
            Images::Strict,
            (0, 1),
            1,
            || topology(1, 2),
            workload,
            |pmems, out| {
                assert_eq!(out.crash_label, "s0/backup");
                assert_eq!(
                    out.crashed_workers, 0,
                    "the worker never touches the backup"
                );
                assert_prefix(&pmems[0][1], 0, 8);
                seen.push(out.point);
            },
        );
        assert_eq!(summary.points_injected, 8);
        assert_eq!(seen, fence_points(8));
    }

    /// Explicit points past the end of the stream complete, and `verify`
    /// sees the completed image.
    #[test]
    fn past_the_end_points_complete() {
        let summary = sweep(
            [100u64, 200u64],
            CrashPolicy::strict(),
            (0, 0),
            1,
            pool,
            |_, d| raw_commit(&d[0][0]),
            |pmems, out| {
                assert!(!out.injected);
                assert_eq!(out.ops_counted, 6);
                assert_eq!(
                    (pmems[0][0].read_u64(0), pmems[0][0].read_u64(64)),
                    (0xfeed, 1)
                );
            },
        );
        assert_eq!(summary.points_injected, 0);
        assert_eq!(summary.points_completed, 2);
    }

    const TORTURE_THREADS: usize = 4;
    /// Per-thread ops: 16 iterations × (write + pwb + pfence).
    const TORTURE_OPS_PER_THREAD: u64 = 16 * 3;

    /// Each worker writes its own 16 lines with a correct flush/fence per
    /// write, so after any crash a thread's region holds only values it
    /// wrote (or zero).
    fn torture_workload(t: usize, devs: &Devices) {
        fenced_lines(&devs[0][0], t as u64 * 8192, 16);
    }

    #[test]
    fn count_pass_totals_all_workers() {
        let out = count(TORTURE_THREADS, torture_workload);
        assert_eq!(
            out.ops_counted,
            TORTURE_THREADS as u64 * TORTURE_OPS_PER_THREAD
        );
        let threads: HashSet<_> = out.trace.iter().map(|r| r.thread).collect();
        assert_eq!(threads.len(), TORTURE_THREADS);
    }

    /// Shape 1 — one pool, n threads. Crash very early: every worker
    /// still has ops ahead of it, so every worker must unwind — the
    /// trigger thread via the primary CrashInjected, the rest via
    /// secondary unwinds. (Before the secondary-unwind protocol,
    /// non-trigger workers silently completed against the frozen device.)
    #[test]
    fn injected_crash_stops_every_thread() {
        silence_crash_panics();
        let outcome = torture_point(
            FaultPlan::crash_at(2),
            (0, 0),
            TORTURE_THREADS,
            pool,
            torture_workload,
            |pmems, outcome| {
                assert!(outcome.injected);
                // No thread fenced more than its prefix: each surviving
                // value must be one the owner actually wrote.
                for t in 0..TORTURE_THREADS as u64 {
                    assert_prefix(&pmems[0][0], t * 8192, 16);
                }
            },
        );
        assert_eq!(
            outcome.crashed_workers, TORTURE_THREADS,
            "a power failure must stop every thread, not just the trigger"
        );
        assert_eq!(outcome.completed_workers, 0);
    }

    #[test]
    fn sweep_tallies_injected_and_completed() {
        silence_crash_panics();
        let total = TORTURE_THREADS as u64 * TORTURE_OPS_PER_THREAD;
        let summary = sweep(
            [0, total / 2, total + 50],
            CrashPolicy::strict(),
            (0, 0),
            TORTURE_THREADS,
            pool,
            torture_workload,
            |pmems, outcome| {
                if !outcome.injected {
                    // Completed run: every fenced write is durable.
                    for t in 0..TORTURE_THREADS as u64 {
                        for i in 0..16u64 {
                            assert_eq!(pmems[0][0].read_u64(t * 8192 + i * 64), i + 1);
                        }
                    }
                }
            },
        );
        assert_eq!(summary.points_injected, 2);
        assert_eq!(summary.points_completed, 1);
    }

    /// A workload that spawns its own workers (as parallel recovery does):
    /// each worker is wrapped in [`catch_crash`] and the spawning thread
    /// re-throws the primary crash, which [`torture_point`] must catch,
    /// resync and hand to `verify`.
    fn threaded_workload(pmem: &Arc<Pmem>) {
        let crash = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u64)
                .map(|t| {
                    let p = Arc::clone(pmem);
                    s.spawn(move || {
                        catch_crash(|| {
                            let base = t * 4096;
                            for i in 0..8u64 {
                                p.write_u64(base + i * 64, i + 1);
                                p.pwb(base + i * 64);
                            }
                            p.pfence();
                        })
                    })
                })
                .collect();
            let mut primary: Option<CrashInjected> = None;
            for h in handles {
                if let Err(ci) = h.join().expect("no non-crash panics") {
                    if primary
                        .as_ref()
                        .is_none_or(|p| p.secondary && !ci.secondary)
                    {
                        primary = Some(ci);
                    }
                }
            }
            primary
        });
        if let Some(ci) = crash {
            std::panic::panic_any(ci);
        }
    }

    #[test]
    fn sweep_resynchronizes_internally_threaded_workloads() {
        silence_crash_panics();
        let workload = |_: usize, d: &Devices| threaded_workload(&d[0][0]);
        let total = count(1, workload).ops_counted;
        let summary = sweep(
            strided_points(total, 8),
            CrashPolicy::strict(),
            (0, 0),
            1,
            pool,
            workload,
            |pmems, _| {
                // Post-resync reads must see media: each slot holds a value
                // its owner wrote (or zero), never a torn cache leftover.
                for t in 0..2u64 {
                    assert_prefix(&pmems[0][0], t * 4096, 8);
                }
            },
        );
        assert!(
            summary.points_injected > 0,
            "sweep must exercise crash points"
        );
    }

    /// Shape 2 — N isolated shards, one worker per shard writing 8 fenced
    /// lines to its own device only.
    #[test]
    fn sharded_crash_stops_only_the_crash_shards_worker() {
        silence_crash_panics();
        let outcome = torture_point(
            FaultPlan::crash_at(2),
            (1, 0),
            3,
            || topology(3, 1),
            |s, devs| fenced_lines(&devs[s][0], 0, 8),
            |pmems, outcome| {
                assert!(outcome.injected);
                // Non-crashed shards: every fenced write durable.
                for s in [0usize, 2] {
                    for i in 0..8u64 {
                        assert_eq!(
                            pmems[s][0].read_u64(i * 64),
                            i + 1,
                            "shard {s} lost a fenced write to another shard's crash"
                        );
                    }
                }
                // Crash shard: only its written prefix may be there.
                assert_prefix(&pmems[1][0], 0, 8);
            },
        );
        assert_eq!(
            outcome.crashed_workers, 1,
            "only the crash shard's worker touches the frozen device"
        );
        assert_eq!(outcome.completed_workers, 2);
    }

    /// Shape 3 — N shards × R replicas. Each shard's worker is a
    /// miniature replicated committer: per line, write + fence the backup
    /// first, then the primary.
    #[test]
    fn replicated_crash_leaves_backup_ahead_of_primary() {
        silence_crash_panics();
        let workload = |s: usize, devs: &Devices| {
            for i in 0..8u64 {
                for dev in [&devs[s][1], &devs[s][0]] {
                    dev.write_u64(i * 64, i + 1);
                    dev.pwb(i * 64);
                    dev.pfence();
                }
            }
        };
        // Arm the crash on shard 1's PRIMARY, mid-stream.
        let outcome = torture_point(
            FaultPlan::crash_at(7),
            (1, 0),
            2,
            || topology(2, 2),
            workload,
            |pmems, outcome| {
                assert!(outcome.injected);
                assert_eq!(outcome.crash_label, "s1/primary");
                // The untouched shard is fully durable on both replicas.
                for replica in &pmems[0] {
                    for i in 0..8u64 {
                        assert_eq!(replica.read_u64(i * 64), i + 1);
                    }
                }
                // On the crash shard, backup-first ordering means the
                // backup's image is ahead of (or equal to) the primary's
                // at every slot — the superset-prefix failover relies on.
                for i in 0..8u64 {
                    let p = pmems[1][0].read_u64(i * 64);
                    let b = pmems[1][1].read_u64(i * 64);
                    assert!(p == 0 || p == i + 1, "torn primary value {p}");
                    assert!(b == 0 || b == i + 1, "torn backup value {b}");
                    if p == i + 1 {
                        assert_eq!(b, i + 1, "backup fell behind the primary at slot {i}");
                    }
                }
            },
        );
        assert_eq!(outcome.crashed_workers, 1);
        assert_eq!(outcome.completed_workers, 1);
    }

    /// Arm point 0 on `target` over `setup`'s devices with an idle worker:
    /// only the driver's own checks can fire.
    fn idle_point(target: (usize, usize), setup: impl FnOnce() -> (Devices, Devices)) {
        torture_point(
            FaultPlan::crash_at(0),
            target,
            1,
            setup,
            |_, _| {},
            |_, _| {},
        );
    }

    #[test]
    #[should_panic(expected = "crash shard 2 out of range (2 shards)")]
    fn crash_shard_out_of_range_panics() {
        idle_point((2, 0), || topology(2, 1));
    }

    #[test]
    #[should_panic(expected = "crash replica 1 out of range (1 replicas on shard 0)")]
    fn crash_replica_out_of_range_panics() {
        idle_point((0, 1), || topology(2, 1));
    }

    #[test]
    #[should_panic(expected = "two replicas share one device")]
    fn aliased_replicas_panic() {
        idle_point((0, 0), || {
            let dev = Pmem::new(PmemConfig::crash_sim(4096));
            let aliased = vec![vec![Arc::clone(&dev), dev]];
            (aliased.clone(), aliased)
        });
    }

    #[test]
    fn strided_points_cover_ends() {
        assert_eq!(strided_points(0, 8), Vec::<u64>::new());
        assert_eq!(strided_points(1, 8), vec![0]);
        assert_eq!(strided_points(6, 8), vec![0, 1, 2, 3, 4, 5]);
        let pts = strided_points(1000, 10);
        assert!(pts.len() <= 11, "{pts:?}");
        assert_eq!(pts[0], 0);
        assert_eq!(*pts.last().expect("non-empty"), 999);
    }
}

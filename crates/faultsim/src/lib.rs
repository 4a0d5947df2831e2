//! # jnvm-faultsim — crash-point sweep driver
//!
//! The `jnvm-pmem` injection engine ([`jnvm_pmem::FaultPlan`]) can crash the
//! simulated device immediately **before** its N-th persistence-relevant
//! operation. This crate turns that single primitive into an exhaustive
//! testing harness: given a workload, it
//!
//! 1. runs a **count pass** ([`FaultMode::Count`]) to learn the
//!    persistence-relevant operations the workload performs, in order, and
//!    the thread that issued each, then
//! 2. **sweeps**: for every crash point `i` it builds the initial state
//!    afresh, arms [`FaultMode::CrashAt`]`(i)`, runs the workload
//!    until the injected power failure unwinds it, and hands the crashed
//!    device to a caller-supplied `verify` closure — which typically
//!    re-opens the pool and asserts the workload's recovery invariants.
//!
//! Which points [`sweep_all`] crashes at follows from the plan's policy.
//! Under a policy that evicts nothing ([`jnvm_pmem::CrashPolicy::strict`])
//! only fenced lines survive a crash, so every point between two fences of
//! one writer thread leaves the same media: one point per **fence epoch**
//! sees every distinct crash image, and that is what it sweeps. Under an
//! eviction policy points inside an epoch persist different lines, and it
//! sweeps every point.
//!
//! The driver takes care of the delicate ordering around the unwind: the
//! workload context is dropped **while the device is still frozen**, so that
//! destructors running during/after the unwind (e.g. a failure-atomic
//! guard's abort path) cannot retroactively repair the crash image, and only
//! then is the device thawed for verification.
//!
//! The driver is deliberately generic over the workload context `Ctx` so
//! the same loop drives raw-device workloads, `jnvm` runtimes, and whole
//! KV stores (see the workspace's `tests/crash_points.rs`).
//!
//! ## Concurrent torture ([`torture_point`] / [`torture_sweep`])
//!
//! The single-threaded sweep can only falsify sequential durability bugs.
//! [`torture_point`] runs concurrent workers over one shared context with
//! crash injection armed on **one device of a topology**
//! (`pmems[shard][replica]`). One pool hammered by `n` threads, N
//! isolated shards and N shards × R replicas are the same experiment with
//! different arguments: whichever worker's op lands on the trigger takes
//! the power failure, every *other* worker that touches the frozen device
//! unwinds with a secondary [`CrashInjected`], and workers that never
//! touch it run to completion. The driver joins all workers (the quiesce
//! protocol), drops the context while the device is still frozen, thaws
//! it, resynchronizes the cache ([`Pmem::resync_cache`] — workers
//! mid-store at the moment of the crash may have scribbled on the rebuilt
//! cache), and only then verifies. With several writer threads a fence
//! epoch is not defined, so these sweeps take [`strided_points`].

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use jnvm_pmem::{catch_crash, CrashInjected, FaultMode, FaultOp, FaultPlan, Pmem, TraceRecord};

/// What happened at one crash point of a sweep.
#[derive(Debug, Clone, Copy)]
pub struct CrashReport {
    /// The 0-based index of the persistence-relevant op that was replaced
    /// by a power failure.
    pub point: u64,
    /// The op that would have executed, as unwound by the engine.
    pub crash: CrashInjected,
}

/// Aggregate result of [`sweep`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepSummary {
    /// Crash points actually exercised (workload crashed and was verified).
    pub points_crashed: usize,
    /// Points at which the workload ran to completion instead of crashing
    /// (the point index was past the end of the op stream).
    pub points_completed: usize,
}

/// Run `workload` once with the injector in counting mode and return the
/// number of persistence-relevant operations it performs.
///
/// `setup` builds a fresh device + workload context; the same closures are
/// then typically handed to [`sweep`].
pub fn count_ops<Ctx>(
    setup: impl FnOnce() -> (Arc<Pmem>, Ctx),
    workload: impl FnOnce(&Ctx),
) -> u64 {
    trace_ops(setup, workload).0
}

/// Like [`count_ops`], additionally returning the ordered trace of
/// persistence-relevant operations — one [`TraceRecord`] per crash point,
/// so `trace[i]` names the op that a [`FaultMode::CrashAt`]`(i)` run would
/// replace with a power failure.
pub fn trace_ops<Ctx>(
    setup: impl FnOnce() -> (Arc<Pmem>, Ctx),
    workload: impl FnOnce(&Ctx),
) -> (u64, Vec<TraceRecord>) {
    let (pmem, ctx) = setup();
    pmem.arm_faults(FaultPlan::count());
    workload(&ctx);
    drop(ctx);
    let trace = pmem.fault_trace();
    let n = pmem.disarm_faults();
    (n, trace)
}

/// Sweep the given crash points of a workload.
///
/// For each point `i` in `points`:
///
/// 1. `setup()` builds a fresh device and workload context (pool created,
///    warmed up, fences drained — everything *before* the region under
///    test);
/// 2. the device is armed with `CrashAt(i)` (under `plan`'s crash policy);
/// 3. `workload(&ctx)` runs inside [`catch_crash`]; the injected power
///    failure unwinds it at op `i`. A workload that is **internally
///    multi-threaded** (a parallel recovery pass spawning its own
///    mark/sweep workers) must re-throw a worker's
///    [`CrashInjected`] from the spawning thread (see
///    `jnvm_heap::par::run_workers_timed`) so the primary crash reaches this
///    `catch_crash`;
/// 4. the context is dropped **while the device is still frozen**, then the
///    device is disarmed (thawed);
/// 5. on a crash, the device cache is resynchronized from media
///    ([`Pmem::resync_cache`]) — workers of an internally threaded
///    workload that were mid-store at the moment of the crash may have
///    scribbled on the rebuilt cache; after a single-threaded crash
///    [`Pmem::crash`] has already rebuilt it and this changes nothing —
///    and `verify(&pmem, &report)` checks recovery invariants (typically:
///    reopen the pool, assert the workload's atomicity / durability
///    contract, check for leaked blocks). If the workload instead ran to
///    completion, the point was past the end of the op stream; it is
///    tallied in [`SweepSummary::points_completed`] and `verify` is not
///    called.
///
/// Panics from `workload` that are not injected crashes propagate (they are
/// real bugs); panics from `verify` propagate (they are failed invariants).
pub fn sweep<Ctx>(
    points: impl IntoIterator<Item = u64>,
    plan: FaultPlan,
    mut setup: impl FnMut() -> (Arc<Pmem>, Ctx),
    mut workload: impl FnMut(&Ctx),
    mut verify: impl FnMut(&Arc<Pmem>, &CrashReport),
) -> SweepSummary {
    let mut summary = SweepSummary::default();
    for point in points {
        let (pmem, ctx) = setup();
        pmem.arm_faults(FaultPlan {
            mode: FaultMode::CrashAt(point),
            ..plan
        });
        let outcome = catch_crash(|| workload(&ctx));
        // Destructors (e.g. fa-guard abort paths) must not be able to touch
        // the post-crash image: drop the context before thawing.
        drop(ctx);
        pmem.disarm_faults();
        match outcome {
            Err(crash) => {
                pmem.resync_cache();
                summary.points_crashed += 1;
                verify(&pmem, &CrashReport { point, crash });
            }
            Ok(()) => summary.points_completed += 1,
        }
    }
    summary
}

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

/// Sweep the workload's crash points: a count pass traces its `N` ops,
/// then [`sweep`] runs over them — one point per fence epoch (each
/// `pfence` / `psync`, and the last point) under a plan whose policy evicts
/// nothing, where the points of an epoch leave one media image, and all of
/// `0..N` under an eviction policy, where they do not. Returns the summary;
/// the caller's invariants live in `verify`.
///
/// `setup` is invoked once more than there are points (once for the count
/// pass); it must be deterministic enough that every instance performs the
/// same op stream.
///
/// # Panics
///
/// Under a policy that evicts nothing, when the count pass saw more than
/// one thread issue ops: each thread's fence persists only its own
/// write-backs, so the points of an epoch no longer leave one image.
pub fn sweep_all<Ctx>(
    plan: FaultPlan,
    mut setup: impl FnMut() -> (Arc<Pmem>, Ctx),
    mut workload: impl FnMut(&Ctx),
    verify: impl FnMut(&Arc<Pmem>, &CrashReport),
) -> SweepSummary {
    let (total, trace) = trace_ops(&mut setup, &mut workload);
    let points = if plan.policy.evict_probability > 0.0 {
        (0..total).collect()
    } else {
        let threads = trace.iter().map(|r| r.thread).collect::<HashSet<_>>().len();
        assert!(
            threads <= 1,
            "a strict sweep takes one point per fence epoch, which one writer defines; \
             the count pass saw {threads} threads"
        );
        epoch_points(&trace)
    };
    let summary = sweep(points, plan, setup, workload, verify);
    assert_eq!(
        summary.points_completed, 0,
        "count pass reported {total} ops but a CrashAt point within 0..{total} \
         did not fire — the workload is not deterministic across setups"
    );
    summary
}

/// What happened in one [`torture_point`] experiment.
#[derive(Debug, Clone)]
pub struct TortureOutcome {
    /// The armed crash point (ops counted on the crash device, across all
    /// workers in interleaving order).
    pub point: u64,
    /// Which shard's replica set took the crash.
    pub crash_shard: usize,
    /// Which replica of that shard crashed (0 = primary).
    pub crash_replica: usize,
    /// The crash device's identity ([`Pmem::label`]), for reports.
    pub crash_label: String,
    /// Whether the point fired before the crash device's op stream ended.
    pub injected: bool,
    /// Persistence-relevant ops counted on the crash device while armed.
    pub ops_counted: u64,
    /// Workers unwound by the crash: the trigger thread plus every worker
    /// whose next op hit the frozen device. Workers sharing the crash
    /// device all unwind; with one worker per disjoint device at most one
    /// does — that *is* the isolation property.
    pub crashed_workers: usize,
    /// Workers that ran their workload to completion.
    pub completed_workers: usize,
}

/// Aggregate result of [`torture_sweep`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TortureSummary {
    /// Points at which a crash was injected (and verified).
    pub points_injected: usize,
    /// Points past the end of the interleaved op stream: the workload
    /// completed; `verify` still ran against the completed image.
    pub points_completed: usize,
}

/// Run one concurrent crash experiment over a topology of devices.
///
/// 1. `setup()` builds fresh devices (`pmems[shard][replica]`, replica 0
///    the primary, pairwise disjoint) and the shared context;
/// 2. the `(shard, replica)` device named by `target` — and only it — is
///    armed with `CrashAt(point)` under `plan`'s policy;
/// 3. `workers` threads run `workload(w, &ctx)`, each inside
///    [`catch_crash`]. The three shapes in use: **one pool, n threads**
///    (`[[dev]]`, every worker's next op on the frozen device unwinds with
///    a secondary [`CrashInjected`] — a power failure stops every CPU);
///    **N isolated shards**, one worker per shard (only the crash shard's
///    worker unwinds — the device-level model of the sharded server's
///    failure isolation); **N shards × R replicas**, one worker per shard
///    driving all of its shard's replicas (the committer model: the
///    worker commits through `jnvm_server::Replicas::commit`, which
///    catches the crash and fails over, degrades or reports the shard
///    dead, so the worker need not unwind at all — and a backup's device
///    is written by its endpoint thread, not by a worker);
/// 4. the scope join is the quiesce barrier. The context is dropped while
///    the crash device is still frozen (unwind destructors must not
///    repair the crash image), the device is thawed, and — if the crash
///    fired — its cache is resynchronized from media to discard stores
///    that were in flight when power was lost;
/// 5. `verify(&pmems, &outcome)` checks recovery invariants — typically
///    re-opening the surviving image(s) and asserting that every acked
///    write is readable and untorn. It is called for completed
///    (past-the-end) points too: a fully-applied image must satisfy the
///    same invariants.
///
/// Panics from workers that are not injected crashes propagate out of the
/// scope join (they are real bugs); panics from `verify` are failed
/// invariants.
pub fn torture_point<Ctx: Sync>(
    point: u64,
    plan: FaultPlan,
    target: (usize, usize),
    workers: usize,
    setup: impl FnOnce() -> (Vec<Vec<Arc<Pmem>>>, Ctx),
    workload: impl Fn(usize, &Ctx) + Sync,
    verify: impl FnOnce(&[Vec<Arc<Pmem>>], &TortureOutcome),
) -> TortureOutcome {
    let (crash_shard, crash_replica) = target;
    let (pmems, ctx) = setup();
    assert!(
        crash_shard < pmems.len(),
        "crash shard {crash_shard} out of range ({} shards)",
        pmems.len()
    );
    assert!(
        crash_replica < pmems[crash_shard].len(),
        "crash replica {crash_replica} out of range ({} replicas on shard {crash_shard})",
        pmems[crash_shard].len()
    );
    let flat: Vec<&Arc<Pmem>> = pmems.iter().flatten().collect();
    for (i, a) in flat.iter().enumerate() {
        assert!(
            flat[i + 1..].iter().all(|b| !Arc::ptr_eq(a, b)),
            "two replicas share one device — replication claims need disjoint devices"
        );
    }
    let crash_dev = &pmems[crash_shard][crash_replica];
    crash_dev.arm_faults(FaultPlan {
        mode: FaultMode::CrashAt(point),
        ..plan
    });
    let crashed = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for w in 0..workers {
            let (ctx, workload, crashed) = (&ctx, &workload, &crashed);
            // Named so span rings and panic messages identify the worker.
            std::thread::Builder::new()
                .name(format!("worker-{w}"))
                .spawn_scoped(s, move || {
                    if catch_crash(|| workload(w, ctx)).is_err() {
                        crashed.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .expect("spawn torture worker");
        }
    });
    let injected = crash_dev.faults_frozen();
    drop(ctx);
    let ops_counted = crash_dev.disarm_faults();
    if injected {
        crash_dev.resync_cache();
    }
    let crashed_workers = crashed.load(Ordering::SeqCst);
    let outcome = TortureOutcome {
        point,
        crash_shard,
        crash_replica,
        crash_label: crash_dev.label().to_string(),
        injected,
        ops_counted,
        crashed_workers,
        completed_workers: workers - crashed_workers,
    };
    verify(&pmems, &outcome);
    outcome
}

/// The one-pool shape of [`torture_point`]: `nthreads` workers share the
/// single device `setup` returns, which is also the crash target.
fn solo_point<Ctx: Sync>(
    point: u64,
    plan: FaultPlan,
    nthreads: usize,
    setup: impl FnOnce() -> (Arc<Pmem>, Ctx),
    workload: impl Fn(usize, &Ctx) + Sync,
    verify: impl FnOnce(&Arc<Pmem>, &TortureOutcome),
) -> TortureOutcome {
    torture_point(
        point,
        plan,
        (0, 0),
        nthreads,
        || {
            let (pmem, ctx) = setup();
            (vec![vec![pmem]], ctx)
        },
        workload,
        |pmems, outcome| verify(&pmems[0][0], outcome),
    )
}

/// Count the persistence-relevant ops of a concurrent one-pool workload:
/// [`torture_point`] armed past the end of any op stream, so nothing
/// fires. The total is exact (every op is counted once) but how the ops
/// interleave — and therefore what op index a given thread's Nth op gets —
/// varies run to run.
pub fn torture_count<Ctx: Sync>(
    nthreads: usize,
    setup: impl FnOnce() -> (Arc<Pmem>, Ctx),
    workload: impl Fn(usize, &Ctx) + Sync,
) -> u64 {
    solo_point(
        u64::MAX,
        FaultPlan::count(),
        nthreads,
        setup,
        workload,
        |_, _| {},
    )
    .ops_counted
}

/// Sweep the given crash points of a concurrent one-pool workload with
/// [`torture_point`]. Because the interleaving differs between runs, the
/// same point index may fall on a different op each time — that is the
/// point: sweeping plus repetition explores the interleaving space.
pub fn torture_sweep<Ctx: Sync>(
    points: impl IntoIterator<Item = u64>,
    plan: FaultPlan,
    nthreads: usize,
    mut setup: impl FnMut() -> (Arc<Pmem>, Ctx),
    workload: impl Fn(usize, &Ctx) + Sync,
    mut verify: impl FnMut(&Arc<Pmem>, &TortureOutcome),
) -> TortureSummary {
    let mut summary = TortureSummary::default();
    for point in points {
        let outcome = solo_point(point, plan, nthreads, &mut setup, &workload, &mut verify);
        if outcome.injected {
            summary.points_injected += 1;
        } else {
            summary.points_completed += 1;
        }
    }
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
    use jnvm_pmem::{silence_crash_panics, CrashPolicy, PmemConfig};

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

    fn setup() -> (Arc<Pmem>, Arc<Pmem>) {
        let pmem = Pmem::new(PmemConfig::crash_sim(4096));
        (Arc::clone(&pmem), pmem)
    }

    #[test]
    fn count_matches_trace_len() {
        let (n, trace) = trace_ops(setup, raw_commit);
        assert_eq!(n, 6);
        assert_eq!(trace.len(), 6);
        assert_eq!(trace[0].op, FaultOp::Write);
        assert_eq!(trace[5].op, FaultOp::Pfence);
        let me = std::thread::current().id();
        assert!(trace.iter().all(|r| r.thread == me));
    }

    /// `raw_commit` under `policy`: the points `sweep_all` crashed at. The
    /// protocol's invariant holds at each: if the commit flag reached the
    /// media, the value is there too.
    fn raw_commit_points(policy: CrashPolicy) -> Vec<u64> {
        let mut seen = Vec::new();
        let plan = FaultPlan::count().with_policy(policy);
        let summary = sweep_all(plan, setup, raw_commit, |pmem, report| {
            if pmem.read_u64(64) == 1 {
                assert_eq!(pmem.read_u64(0), 0xfeed, "flag durable before value");
            }
            seen.push(report.point);
        });
        assert_eq!(summary.points_crashed, seen.len());
        assert_eq!(summary.points_completed, 0);
        seen
    }

    #[test]
    fn sweep_all_visits_every_point_under_eviction() {
        for policy in [CrashPolicy::adversarial(3), CrashPolicy::lenient()] {
            assert_eq!(raw_commit_points(policy), vec![0, 1, 2, 3, 4, 5]);
        }
    }

    /// Under the strict policy the two fences are the two epochs; a stream
    /// that does not end on a fence adds its last point.
    #[test]
    fn strict_sweep_all_takes_one_point_per_fence_epoch() {
        assert_eq!(raw_commit_points(CrashPolicy::strict()), vec![2, 5]);
        let (_, trace) = trace_ops(setup, |p: &Arc<Pmem>| {
            raw_commit(p);
            p.write_u64(128, 2);
            p.pwb(128);
            p.psync();
            p.write_u64(192, 3);
        });
        assert_eq!(epoch_points(&trace), vec![2, 5, 8, 9]);
        assert_eq!(epoch_points(&[]), Vec::<u64>::new());
    }

    /// Two writer threads: their fences persist only their own lines, so
    /// no fence epoch is defined, and a strict `sweep_all` refuses.
    #[test]
    #[should_panic(expected = "the count pass saw 2 threads")]
    fn strict_sweep_all_refuses_two_writer_threads() {
        silence_crash_panics();
        let plan = FaultPlan::count();
        sweep_all(plan, torture_setup, threaded_workload, |_, _| {});
    }

    /// Under eviction the same two-thread workload sweeps every point.
    #[test]
    fn adversarial_sweep_all_of_two_writer_threads_visits_every_point() {
        silence_crash_panics();
        let total = count_ops(torture_setup, threaded_workload);
        let plan = FaultPlan::count().with_policy(CrashPolicy::adversarial(1));
        let mut seen = Vec::new();
        let summary = sweep_all(plan, torture_setup, threaded_workload, |pmem, report| {
            for t in 0..2u64 {
                for i in 0..8u64 {
                    let v = pmem.read_u64(t * 4096 + i * 64);
                    assert!(v == 0 || v == i + 1, "torn value {v}");
                }
            }
            seen.push(report.point);
        });
        assert_eq!(summary.points_crashed as u64, total);
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn past_the_end_points_complete() {
        let summary = sweep(
            [100u64, 200u64],
            FaultPlan::count(),
            setup,
            raw_commit,
            |_, _| panic!("no crash expected"),
        );
        assert_eq!(summary.points_crashed, 0);
        assert_eq!(summary.points_completed, 2);
    }

    const TORTURE_THREADS: usize = 4;
    /// Per-thread ops: 16 iterations × (write + pwb + pfence).
    const TORTURE_OPS_PER_THREAD: u64 = 16 * 3;

    fn torture_setup() -> (Arc<Pmem>, Arc<Pmem>) {
        let pmem = Pmem::new(PmemConfig::crash_sim(64 * 1024));
        (Arc::clone(&pmem), pmem)
    }

    /// Each worker writes its own 16 lines with a correct flush/fence per
    /// write, so after any crash a thread's region holds only values it
    /// wrote (or zero).
    fn torture_workload(t: usize, p: &Arc<Pmem>) {
        let base = t as u64 * 8192;
        for i in 0..16u64 {
            let addr = base + i * 64;
            p.write_u64(addr, i + 1);
            p.pwb(addr);
            p.pfence();
        }
    }

    #[test]
    fn torture_count_totals_all_threads() {
        let total = torture_count(TORTURE_THREADS, torture_setup, torture_workload);
        assert_eq!(total, TORTURE_THREADS as u64 * TORTURE_OPS_PER_THREAD);
    }

    type Devices = Vec<Vec<Arc<Pmem>>>;

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

    /// Shape 1 — one pool, n threads. Crash very early: every worker
    /// still has ops ahead of it, so every worker must unwind — the
    /// trigger thread via the primary CrashInjected, the rest via
    /// secondary unwinds. (Before the secondary-unwind protocol,
    /// non-trigger workers silently completed against the frozen device.)
    #[test]
    fn injected_crash_stops_every_thread() {
        silence_crash_panics();
        let outcome = torture_point(
            2,
            FaultPlan::count(),
            (0, 0),
            TORTURE_THREADS,
            || topology(1, 1),
            |t, devs| torture_workload(t, &devs[0][0]),
            |pmems, outcome| {
                assert!(outcome.injected);
                // No thread fenced more than its prefix: each surviving
                // value must be one the owner actually wrote.
                for t in 0..TORTURE_THREADS as u64 {
                    for i in 0..16u64 {
                        let v = pmems[0][0].read_u64(t * 8192 + i * 64);
                        assert!(
                            v == 0 || v == i + 1,
                            "torn value {v} at thread {t} slot {i}"
                        );
                    }
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
    fn torture_sweep_tallies_injected_and_completed() {
        silence_crash_panics();
        let total = TORTURE_THREADS as u64 * TORTURE_OPS_PER_THREAD;
        let summary = torture_sweep(
            [0, total / 2, total + 50],
            FaultPlan::count(),
            TORTURE_THREADS,
            torture_setup,
            torture_workload,
            |pmem, outcome| {
                if !outcome.injected {
                    // Completed run: every fenced write is durable.
                    for t in 0..TORTURE_THREADS as u64 {
                        for i in 0..16u64 {
                            assert_eq!(pmem.read_u64(t * 8192 + i * 64), i + 1);
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
    /// re-throws the primary crash, which [`sweep`] must catch, resync and
    /// hand to `verify`.
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
        let total = count_ops(torture_setup, threaded_workload);
        assert!(total > 0);
        let summary = sweep(
            strided_points(total, 8),
            FaultPlan::count(),
            torture_setup,
            threaded_workload,
            |pmem, _report| {
                // Post-resync reads must see media: each slot holds a value
                // its owner wrote (or zero), never a torn cache leftover.
                for t in 0..2u64 {
                    for i in 0..8u64 {
                        let v = pmem.read_u64(t * 4096 + i * 64);
                        assert!(v == 0 || v == i + 1, "torn value {v}");
                    }
                }
            },
        );
        assert!(
            summary.points_crashed > 0,
            "sweep must exercise crash points"
        );
    }

    /// Shape 2 — N isolated shards, one worker per shard writing 8 fenced
    /// lines to its own device only.
    #[test]
    fn sharded_crash_stops_only_the_crash_shards_worker() {
        silence_crash_panics();
        let workload = |s: usize, devs: &Devices| {
            for i in 0..8u64 {
                devs[s][0].write_u64(i * 64, i + 1);
                devs[s][0].pwb(i * 64);
                devs[s][0].pfence();
            }
        };
        let outcome = torture_point(
            2,
            FaultPlan::count(),
            (1, 0),
            3,
            || topology(3, 1),
            workload,
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
                for i in 0..8u64 {
                    let v = pmems[1][0].read_u64(i * 64);
                    assert!(v == 0 || v == i + 1, "torn value {v} on crash shard");
                }
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
            7,
            FaultPlan::count(),
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
            0,
            FaultPlan::count(),
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

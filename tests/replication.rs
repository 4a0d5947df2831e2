//! Replicated group commit under crash injection, below the wire layer.
//!
//! Two shards, each a [`ReplicaSet`] of two full independent stacks
//! (device + heap + backend + grid). Workers drive deterministic chunks
//! of writes through [`commit_writes_replicated`] — backup first, then
//! primary, the same ordering the server's committer uses — and a crash
//! is armed on one replica's device:
//!
//! * **primary crash** → the worker promotes the backup in place and
//!   keeps committing solo. Every chunk that returned (was "acked") must
//!   be fully present and untorn on the survivor after recovery — the
//!   acked ⇒ durable-on-a-survivor contract — and the sweep must show
//!   post-promotion acks (the liveness witness).
//! * **backup crash** → the worker degrades to solo mode on the primary;
//!   nothing acked is lost and no promotion happens.
//!
//! After a failover point the crashed primary's image is audited against
//! the promoted backup with [`divergent_keys`]: chunks acked *before*
//! the crash must be identical on both images, chunks acked *after*
//! promotion must exist only on the backup.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use jnvm_repro::faultsim::{strided_points, torture_point};
use jnvm_repro::jnvm::{divergent_keys, JnvmBuilder, ReplicaSet};
use jnvm_repro::kvstore::{
    commit_writes_replicated, register_kvstore, Backend, DataGrid, GridConfig, JnvmBackend,
    Record, ReplLag, ReplicaStack, WriteOp,
};
use jnvm_repro::lincheck::{ClientRecorder, Clock, History, OpKind, Outcome};
use jnvm_repro::pmem::{catch_crash, silence_crash_panics, FaultPlan, Pmem, PmemConfig};
use jnvm_repro::server::{Cluster, ShardHandle};

const SHARDS: usize = 2;
const CRASH_SHARD: usize = 0;
const CHUNKS: usize = 12;

// ---------------------------------------------------------------- traffic

fn key(shard: usize, c: usize, i: usize) -> String {
    format!("s{shard}-c{c:03}-k{i}")
}

fn set_value(c: usize, i: usize) -> Vec<u8> {
    format!("v{c:03}:{i}").into_bytes()
}

fn field_value(c: usize) -> Vec<u8> {
    format!("f{c:03}").into_bytes()
}

/// One chunk = one replicated commit group: four SETs, then a SETF on
/// key 3 and a DEL of key 0, all in op order. Keys are unique per chunk,
/// so an acked chunk has exactly one final state to check.
fn chunk_ops(shard: usize, c: usize) -> Vec<WriteOp> {
    let mut ops: Vec<WriteOp> = (0..4)
        .map(|i| WriteOp::Set(Record::ycsb(&key(shard, c, i), &[set_value(c, i)])))
        .collect();
    ops.push(WriteOp::SetField {
        key: key(shard, c, 3),
        field: 0,
        value: field_value(c),
    });
    ops.push(WriteOp::Del(key(shard, c, 0)));
    ops
}

/// Assert an acked chunk's exact final state on a recovered image.
fn expect_chunk(grid: &DataGrid, shard: usize, c: usize) {
    assert!(
        grid.read(&key(shard, c, 0)).is_none(),
        "shard {shard} chunk {c}: deleted key resurrected"
    );
    for i in [1usize, 2] {
        let rec = grid
            .read(&key(shard, c, i))
            .unwrap_or_else(|| panic!("shard {shard} chunk {c}: acked key {i} lost"));
        assert_eq!(rec.fields.value(0), set_value(c, i), "shard {shard} chunk {c} key {i}");
    }
    let rec = grid
        .read(&key(shard, c, 3))
        .unwrap_or_else(|| panic!("shard {shard} chunk {c}: acked key 3 lost"));
    assert_eq!(rec.fields.value(0), field_value(c), "shard {shard} chunk {c} SETF");
}

// ----------------------------------------------------------------- stacks

/// Reopen one replica's pool and return a readable stack.
fn reopen(pmem: &Arc<Pmem>) -> (jnvm_repro::jnvm::Jnvm, Arc<JnvmBackend>, DataGrid) {
    let (rt, _) = register_kvstore(JnvmBuilder::new())
        .open(Arc::clone(pmem))
        .expect("reopen replica");
    let be = Arc::new(JnvmBackend::open(&rt, true).expect("backend reopen"));
    let grid = DataGrid::new(
        Arc::clone(&be) as Arc<dyn Backend>,
        GridConfig { cache_capacity: 0 },
    );
    (rt, be, grid)
}

/// Ack log + transition counters. Lives behind an `Arc` so verification
/// can still read it after the harness drops the workload context.
#[derive(Default)]
struct Log {
    /// Chunk ids acked before any promotion, per shard.
    acked_pre: Vec<Mutex<Vec<usize>>>,
    /// Chunk ids acked while running on a promoted backup, per shard.
    acked_post: Vec<Mutex<Vec<usize>>>,
    promotions: AtomicU64,
    degrades: AtomicU64,
    /// Shared history clock + one op recorder per shard worker, for the
    /// post-recovery durable-linearizability check.
    clock: Clock,
    recorders: Vec<Mutex<ClientRecorder>>,
}

struct Ctx {
    sets: Vec<ReplicaSet<ShardHandle>>,
    lags: Vec<ReplLag>,
    log: Arc<Log>,
    /// Owns the runtimes under `sets`; declared (so dropped) after them.
    _cluster: Cluster,
}

fn setup(log: &Arc<Log>) -> (Vec<Vec<Arc<Pmem>>>, Ctx) {
    let cluster =
        Cluster::create(SHARDS, 2, 4, PmemConfig::crash_sim(24 << 20), true).expect("pools");
    let ctx = Ctx {
        sets: cluster.handles().into_iter().map(ReplicaSet::new).collect(),
        lags: (0..SHARDS).map(|_| ReplLag::new()).collect(),
        log: Arc::clone(log),
        _cluster: cluster,
    };
    (ctx._cluster.pmems().to_vec(), ctx)
}

/// Per-shard worker: commit every chunk through the replica set, failing
/// over (or degrading) when a device dies mid-commit. A chunk counts as
/// acked only when `commit_writes_replicated` returns — the crashing
/// chunk is never acked, conservatively, even though a primary crash
/// leaves it durable on the backup.
/// The history-capture view of one [`WriteOp`].
fn captured_kind(op: &WriteOp) -> OpKind {
    match op {
        WriteOp::Set(rec) => OpKind::Set(rec.fields.values().map(<[u8]>::to_vec).collect()),
        WriteOp::SetField { field, value, .. } => OpKind::SetField(*field, value.clone()),
        WriteOp::Del(_) => OpKind::Del,
    }
}

fn drive(shard: usize, ctx: &Ctx) {
    let set = &ctx.sets[shard];
    for c in 0..CHUNKS {
        let ops = chunk_ops(shard, c);
        // Invoke every op of the chunk before the commit touches a device:
        // a crash mid-chunk leaves all of them Indeterminate (they may
        // linearize — the backup may hold them — or vanish).
        let toks: Vec<_> = {
            let mut rec = ctx.log.recorders[shard].lock().expect("recorder lock");
            ops.iter().map(|op| rec.invoke(op.key(), captured_kind(op))).collect()
        };
        let committed = catch_crash(|| {
            let active = set.active();
            let backup = set.backup().map(|b| ReplicaStack {
                grid: &b.grid,
                be: &b.be,
            });
            commit_writes_replicated(
                ReplicaStack {
                    grid: &active.grid,
                    be: &active.be,
                },
                backup,
                &ops,
                &ctx.lags[shard],
            )
        });
        match committed {
            Ok(out) => {
                {
                    let mut rec = ctx.log.recorders[shard].lock().expect("recorder lock");
                    for (tok, (op, applied)) in
                        toks.into_iter().zip(ops.iter().zip(&out.results))
                    {
                        let outcome = match op {
                            WriteOp::Set(_) => Outcome::Ok,
                            _ if *applied => Outcome::Ok,
                            _ => Outcome::NotFound,
                        };
                        rec.resolve(tok, outcome);
                    }
                }
                let bucket = if set.promotions() > 0 {
                    &ctx.log.acked_post[shard]
                } else {
                    &ctx.log.acked_pre[shard]
                };
                bucket.lock().expect("log lock").push(c);
            }
            Err(_) => {
                // Which device froze decides the transition: the active
                // one means fail over, the backup means run solo.
                if set.active().pmem.faults_frozen() {
                    if set.promote().is_none() {
                        return; // no redundancy left
                    }
                    ctx.log.promotions.fetch_add(1, Ordering::Relaxed);
                } else {
                    set.degrade();
                    ctx.log.degrades.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Size of the crash-point space on the chosen device: a count pass over
/// the identical deterministic workload.
fn op_space(crash_replica: usize) -> u64 {
    let log = Arc::new(new_log());
    let target = (CRASH_SHARD, crash_replica);
    torture_point(
        u64::MAX,
        FaultPlan::count(),
        target,
        SHARDS,
        || setup(&log),
        drive,
        |_, _| {},
    )
    .ops_counted
}

fn new_log() -> Log {
    let clock = Clock::new();
    Log {
        acked_pre: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        acked_post: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        recorders: (0..SHARDS)
            .map(|s| Mutex::new(ClientRecorder::new(&clock, s)))
            .collect(),
        clock,
        ..Log::default()
    }
}

// ------------------------------------------------------------ the sweeps

fn run_point(point: u64, crash_replica: usize) -> Arc<Log> {
    let log = Arc::new(new_log());
    let vlog = Arc::clone(&log);
    let slog = Arc::clone(&log);
    torture_point(
        point,
        FaultPlan::count(),
        (CRASH_SHARD, crash_replica),
        SHARDS,
        move || setup(&slog),
        drive,
        move |pmems, out| {
            let promoted = out.injected
                && out.crash_replica == 0
                && vlog.promotions.load(Ordering::Relaxed) > 0;
            // Assemble the captured history; it is closed over the
            // survivors' recovered images once every shard is reopened.
            let mut hist = {
                let recs: Vec<ClientRecorder> = vlog
                    .recorders
                    .iter()
                    .enumerate()
                    .map(|(s, m)| {
                        std::mem::replace(
                            &mut *m.lock().expect("recorder lock"),
                            ClientRecorder::new(&vlog.clock, s),
                        )
                    })
                    .collect();
                History::collect(vlog.clock.clone(), recs)
            };
            let mut survivors = Vec::with_capacity(SHARDS);
            for (s, shard_pmems) in pmems.iter().enumerate().take(SHARDS) {
                let survivor = usize::from(s == out.crash_shard && promoted);
                let (rt, be, grid) = reopen(&shard_pmems[survivor]);
                let pre = vlog.acked_pre[s].lock().expect("log lock").clone();
                let post = vlog.acked_post[s].lock().expect("log lock").clone();
                for &c in pre.iter().chain(&post) {
                    expect_chunk(&grid, s, c);
                }
                if s != out.crash_shard {
                    assert_eq!(
                        pre.len(),
                        CHUNKS,
                        "untouched shard {s} must ack everything (point {point})"
                    );
                }
                // Post-failover audit: the crashed primary vs the
                // promoted backup, per key.
                if s == out.crash_shard && promoted {
                    let (_prt, pbe, _pgrid) = reopen(&shard_pmems[0]);
                    let sbe = Arc::clone(&be);
                    let keys: Vec<String> = (0..CHUNKS)
                        .flat_map(|c| (0..4).map(move |i| key(s, c, i)))
                        .collect();
                    let div = divergent_keys(
                        keys,
                        |k: &String| pbe.read(k),
                        |k: &String| sbe.read(k),
                    );
                    for &c in &pre {
                        for i in 0..4 {
                            assert!(
                                !div.contains(&key(s, c, i)),
                                "chunk {c} acked before the crash diverged at key {i} \
                                 (point {point})"
                            );
                        }
                    }
                    for &c in &post {
                        for i in [1usize, 2, 3] {
                            assert!(
                                div.contains(&key(s, c, i)),
                                "chunk {c} acked after promotion should only exist on \
                                 the backup (key {i}, point {point})"
                            );
                        }
                    }
                }
                survivors.push((rt, be, grid));
            }
            // The whole run — acked chunks, the crashing chunk's
            // indeterminate ops, and the survivors' recovered state (read
            // back for every key a worker touched) — must be one durably
            // linearizable history.
            if let Err(v) = hist.check_recovered(|k| {
                let s = (0..SHARDS)
                    .find(|s| k.starts_with(&format!("s{s}-")))
                    .expect("every key names its shard");
                let (_rt, _be, grid) = &survivors[s];
                grid.read(k)
                    .map(|r| r.fields.values().map(<[u8]>::to_vec).collect())
            }) {
                panic!("point {point}: durable-linearizability violation: {v}");
            }
        },
    );
    log
}

#[test]
fn acked_chunks_survive_primary_crash_and_failover() {
    silence_crash_panics();
    let total = op_space(0);
    assert!(total > 0, "count pass saw no device ops");
    let mut promoted_points = 0u32;
    let mut post_acks = 0usize;
    for point in strided_points(total, 8) {
        let log = run_point(point, 0);
        promoted_points += u32::from(log.promotions.load(Ordering::Relaxed) > 0);
        post_acks += log.acked_post[CRASH_SHARD].lock().expect("log lock").len();
    }
    // Liveness: the sweep must actually exercise failover, and a promoted
    // shard must keep acking.
    assert!(promoted_points > 0, "no point promoted — sweep never hit the primary");
    assert!(post_acks > 0, "no chunk was ever acked after promotion");
}

#[test]
fn backup_crash_degrades_without_losing_acked_chunks() {
    silence_crash_panics();
    let total = op_space(1);
    assert!(total > 0, "count pass saw no device ops");
    let mut degraded_points = 0u32;
    for point in strided_points(total, 5) {
        let log = run_point(point, 1);
        assert_eq!(
            log.promotions.load(Ordering::Relaxed),
            0,
            "a backup crash must never promote (point {point})"
        );
        degraded_points += u32::from(log.degrades.load(Ordering::Relaxed) > 0);
    }
    assert!(degraded_points > 0, "sweep never hit the backup");
}

/// Exhaustive-leaning variant for the torture CI job.
#[test]
#[ignore = "wide sweep; run with --ignored in the torture job"]
fn replication_wide_sweep() {
    silence_crash_panics();
    let total = op_space(0);
    for point in strided_points(total, 64) {
        run_point(point, 0);
    }
    let total_b = op_space(1);
    for point in strided_points(total_b, 24) {
        run_point(point, 1);
    }
}

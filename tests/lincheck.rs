//! Durable-linearizability integration: the sharded in-process torture
//! feeds its captured history through the Wing–Gong checker after
//! recovery, and the seeded loadgen replays byte-identical invocation
//! sequences.
//!
//! The adversarial self-tests for the checker itself (hand-crafted
//! non-linearizable histories with pinned minimized witnesses) live in
//! `crates/lincheck/src/check.rs`; this file covers the system-level
//! wiring — real commits, real crash injection, real recovery — plus the
//! loadgen determinism contract the torture verifiers depend on.

use std::sync::{Arc, Mutex};

use jnvm_repro::faultsim::{strided_points, torture_point};
use jnvm_repro::jnvm::RecoveryOptions;
use jnvm_repro::kvstore::{
    commit_writes, shard_for_key, GridConfig, Record, ShardedKv, WriteOp,
};
use jnvm_repro::lincheck::{ClientRecorder, Clock, History, OpKind, Outcome};
use jnvm_repro::pmem::{catch_crash, silence_crash_panics, FaultPlan, Pmem, PmemConfig};
use jnvm_repro::server::{run_loadgen, Cluster, LoadgenConfig, ServerConfig};

const POOL_SHARDS: usize = 2;
const CRASH_SHARD: usize = 0;
const CHUNKS: usize = 10;

fn grid_cfg() -> GridConfig {
    GridConfig { cache_capacity: 0 }
}

/// Key `i` of chunk `c`, salted until it routes to `shard` — the sharded
/// engine recovers each pool independently and asserts routing, so the
/// workload must respect `shard_for_key`.
fn skey(shard: usize, c: usize, i: usize) -> String {
    (0u32..)
        .map(|salt| format!("sh{shard}-c{c:02}-k{i}-{salt}"))
        .find(|k| shard_for_key(k, POOL_SHARDS) == shard)
        .expect("some salt routes to the shard")
}

/// One commit group: two SETs, a SETF on key 0, a DEL of key 1. An acked
/// chunk leaves key 0 present (field 0 rewritten) and key 1 absent.
fn chunk(shard: usize, c: usize) -> Vec<WriteOp> {
    let val = |i: usize| format!("v{shard}-{c}-{i}").into_bytes();
    vec![
        WriteOp::Set(Record::ycsb(&skey(shard, c, 0), &[val(0), val(1)])),
        WriteOp::Set(Record::ycsb(&skey(shard, c, 1), &[val(2), val(3)])),
        WriteOp::SetField {
            key: skey(shard, c, 0),
            field: 0,
            value: format!("f{shard}-{c}").into_bytes(),
        },
        WriteOp::Del(skey(shard, c, 1)),
    ]
}

fn captured_kind(op: &WriteOp) -> OpKind {
    match op {
        WriteOp::Set(rec) => OpKind::Set(rec.fields.iter().map(|(_, v)| v.clone()).collect()),
        WriteOp::SetField { field, value, .. } => OpKind::SetField(*field, value.clone()),
        WriteOp::Del(_) => OpKind::Del,
    }
}

/// Shared recorder state; `Arc`ed past the harness's context drop.
struct Log {
    clock: Clock,
    recorders: Vec<Mutex<ClientRecorder>>,
}

fn new_log() -> Arc<Log> {
    let clock = Clock::new();
    Arc::new(Log {
        recorders: (0..POOL_SHARDS)
            .map(|s| Mutex::new(ClientRecorder::new(&clock, s)))
            .collect(),
        clock,
    })
}

struct Ctx {
    cluster: Cluster,
    log: Arc<Log>,
}

/// `POOL_SHARDS` singleton replica sets.
fn setup(log: &Arc<Log>) -> (Vec<Vec<Arc<Pmem>>>, Ctx) {
    let cluster = Cluster::create(POOL_SHARDS, 1, 4, PmemConfig::crash_sim(24 << 20), true)
        .expect("create pools");
    let pmems = cluster.pmems().to_vec();
    let log = Arc::clone(log);
    (pmems, Ctx { cluster, log })
}

/// Per-shard worker: commit every chunk on this shard's stack, recording
/// invocation/response events. A crash leaves the in-flight chunk
/// Indeterminate and kills the worker (the shard is dead).
fn drive(shard: usize, ctx: &Ctx) {
    let sh = ctx.cluster.kv(0).shard(shard);
    for c in 0..CHUNKS {
        let ops = chunk(shard, c);
        let toks: Vec<_> = {
            let mut rec = ctx.log.recorders[shard].lock().expect("recorder lock");
            ops.iter().map(|op| rec.invoke(op.key(), captured_kind(op))).collect()
        };
        match catch_crash(|| commit_writes(&sh.grid, &sh.be, &ops)) {
            Ok(out) => {
                let mut rec = ctx.log.recorders[shard].lock().expect("recorder lock");
                for (tok, (op, applied)) in toks.into_iter().zip(ops.iter().zip(&out.results)) {
                    let outcome = match op {
                        WriteOp::Set(_) => Outcome::Ok,
                        _ if *applied => Outcome::Ok,
                        _ => Outcome::NotFound,
                    };
                    rec.resolve(tok, outcome);
                }
            }
            Err(_) => return,
        }
    }
}

/// Count pass: size of the crash shard's op space under this workload.
fn op_space(log: &Arc<Log>) -> u64 {
    let target = (CRASH_SHARD, 0);
    torture_point(
        u64::MAX,
        FaultPlan::count(),
        target,
        POOL_SHARDS,
        || setup(log),
        drive,
        |_, _| {},
    )
    .ops_counted
}

fn run_point(point: u64) {
    let log = new_log();
    let slog = Arc::clone(&log);
    let vlog = Arc::clone(&log);
    torture_point(
        point,
        FaultPlan::count(),
        (CRASH_SHARD, 0),
        POOL_SHARDS,
        move || setup(&slog),
        drive,
        move |pmems, out| {
            let pmems: Vec<Arc<Pmem>> = pmems.iter().map(|reps| Arc::clone(&reps[0])).collect();
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
            let (kv2, _reports) =
                ShardedKv::open(&pmems, true, grid_cfg(), RecoveryOptions::parallel(2))
                    .unwrap_or_else(|e| panic!("point {}: reopen failed: {e}", out.point));
            if let Err(v) = hist.check_recovered(|key| {
                kv2.read(key)
                    .map(|rec| rec.fields.into_iter().map(|(_, v)| v).collect())
            }) {
                panic!("point {}: durable-linearizability violation: {v}", out.point);
            }
        },
    );
}

/// Time-bounded sweep for the default suite: strided crash points through
/// the sharded engine, every history checked after recovery.
#[test]
fn sharded_torture_histories_are_durably_linearizable() {
    silence_crash_panics();
    let total = op_space(&new_log());
    assert!(total > 0, "count pass saw no device ops");
    for point in strided_points(total, 6) {
        run_point(point);
    }
}

/// Exhaustive-leaning variant for the torture CI job.
#[test]
#[ignore = "wide sweep; run with --ignored in the torture job"]
fn sharded_lincheck_wide_sweep() {
    silence_crash_panics();
    let total = op_space(&new_log());
    for point in strided_points(total, 48) {
        run_point(point);
    }
}

// ------------------------------------------------------- seeded determinism

/// Spin a fresh single-shard server, run the seeded load, return the
/// history's invocation digest.
fn digest_for(seed: u64) -> Vec<u8> {
    let cluster =
        Cluster::create(1, 1, 4, PmemConfig::crash_sim(32 << 20), true).expect("create pool");
    let server = cluster.start(ServerConfig::default()).expect("bind server");
    let cfg = LoadgenConfig {
        conns: 3,
        ops_per_conn: 50,
        pipeline: 8,
        fields: 2,
        value_size: 16,
        seed,
    };
    let report = run_loadgen(server.addr(), &cfg);
    server.shutdown();
    for c in &report.per_conn {
        assert!(c.proto_error.is_none(), "conn {}: {:?}", c.conn, c.proto_error);
        assert_eq!(c.sent, cfg.ops_per_conn, "conn {} did not send everything", c.conn);
    }
    report.history.invocation_digest()
}

/// Two runs at the same seed must record byte-identical invocation
/// sequences — timing and thread scheduling vary, the op stream must not.
#[test]
fn same_seed_records_byte_identical_invocations() {
    let a = digest_for(7);
    let b = digest_for(7);
    assert!(!a.is_empty(), "digest should cover the recorded invocations");
    assert_eq!(a, b, "same seed, different invocation stream");
    let c = digest_for(8);
    assert_ne!(a, c, "distinct seeds must produce distinct op streams");
}
